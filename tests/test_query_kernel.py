"""The query kernels against a dense brute-force reference.

``dense_min_counts`` is the masked argmin over the row-major flattened
table that the sorted early-exit scan and the least-count pass replace;
every check demands equal counts and equal minimizing anchor pairs,
tie-break included. The query count alone chooses between the two passes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metricdepth import depth, inference
from metricdepth.depth import (
    HalfspaceProbTable,
    _min_counts,
    _prob_counts,
    approx_depth,
    halfspace_prob_table,
    in_sample_deepest,
    jiggle_anchors,
    refine_deepest,
)
from metricdepth.spaces import Euclidean, Sphere

from conftest import dense_min_counts, distinct_rows, numpy_kernels, random_points


def assert_same(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w), (got, want)


def line_space(values):
    space = Euclidean(1)
    return space, [space.validate_point([float(v)]) for v in values]


@st.composite
def tables_and_distances(draw):
    """Arbitrary tables with few distinct counts and few distinct distances,
    so that both the sort key and the admissibility test tie heavily."""
    n = draw(st.integers(1, 6))
    n_anchors = draw(st.integers(1, 7))
    n_queries = draw(st.integers(0, 6))
    counts = draw(hnp.arrays(np.int32, (n_anchors, n_anchors),
                             elements=st.integers(0, min(n, 2))))
    np.fill_diagonal(counts, n)
    dist = draw(hnp.arrays(np.float64, (n_queries, n_anchors),
                           elements=st.sampled_from([0.0, 1.0, 2.0])))
    return HalfspaceProbTable(counts=counts, n=n), dist


@settings(max_examples=300, deadline=None)
@given(tables_and_distances())
def test_kernel_matches_dense_on_tied_tables(case):
    table, dist = case
    assert_same(_min_counts(table, dist), dense_min_counts(table.counts, table.n, dist))


@settings(max_examples=100, deadline=None)
@given(tables_and_distances(), st.integers(8, 64))
def test_kernel_matches_dense_with_one_pair_blocks(case, cap):
    # A tiny element cap forces the numpy body's blocks down to a pair or
    # a few pairs per query.
    table, dist = case
    saved = depth._CHUNK_ELEMS
    depth._CHUNK_ELEMS = cap
    try:
        with numpy_kernels():
            got = _min_counts(table, dist)
    finally:
        depth._CHUNK_ELEMS = saved
    assert_same(got, dense_min_counts(table.counts, table.n, dist))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=9),
    st.lists(st.integers(-4, 4), min_size=0, max_size=4),
)
def test_real_tables_with_duplicate_anchors_and_anchor_queries(values, extra):
    # Integer points on a line repeat, so anchors duplicate and distances
    # tie; the sample itself is queried, so queries equal anchors.
    space, sample = line_space(values)
    _, others = line_space(extra)
    queries = sample + others
    table = halfspace_prob_table(space, sample, sample)
    dist = space.distance_matrix(queries, sample)
    want = dense_min_counts(table.counts, table.n, dist)
    reports = approx_depth(space, sample, sample, queries, table=table)
    got = tuple(np.array([getattr(r, f) for r in reports], dtype=np.int64)
                for f in ("depth_num", "anchor1", "anchor2"))
    assert_same(got, want)


def test_single_anchor_gives_full_count_and_no_pair():
    # One anchor keeps no pair, so both bodies of the scan find no first
    # hit, on distances and on the table's own codes.
    space, sample = line_space([0, 1, 5])
    anchor = sample[:1]
    table = halfspace_prob_table(space, sample, anchor)
    dist = space.distance_matrix(sample, anchor)
    want = (np.full(3, 3), np.full(3, -1), np.full(3, -1))
    assert_same(dense_min_counts(table.counts, table.n, dist), want)
    for query in (dist, table.codes):
        assert_same(_min_counts(table, query), want)
        with numpy_kernels():
            assert_same(_min_counts(table, query), want)


def test_two_anchors_pick_the_near_side():
    space, sample = line_space([0, 1, 2, 10])
    anchors = [sample[0], sample[3]]
    queries = line_space([-1, 5, 11])[1]
    table = halfspace_prob_table(space, sample, anchors)
    dist = space.distance_matrix(queries, anchors)
    got = _min_counts(table, dist)
    assert_same(got, dense_min_counts(table.counts, table.n, dist))
    # counts[0, 1] = 3 (0, 1, 2 are nearer 0); counts[1, 0] = 1 (only 10).
    # y = 5 is equidistant, so both pairs are admissible and (1, 0) wins.
    assert_same(got, ([3, 1, 1], [0, 1, 1], [1, 0, 0]))


def full_pair_order(counts):
    """Every off-diagonal pair by a full stable sort of the row-major table."""
    a1, a2 = np.divmod(np.argsort(counts.ravel(), kind="stable"), len(counts))
    off_diagonal = a1 != a2
    return a1[off_diagonal], a2[off_diagonal]


def assert_reachable_prefix(table):
    """The sorted pairs are the prefix of the full order that holds exactly
    the off-diagonal pairs with a count at most the least pair maximum."""
    counts = table.counts
    n_anchors = len(counts)
    a1, a2 = table.sorted_pairs
    full_a1, full_a2 = full_pair_order(counts)
    assert np.array_equal(a1, full_a1[:len(a1)]) and np.array_equal(a2, full_a2[:len(a2)])
    pairs = [(i, j) for i in range(n_anchors) for j in range(n_anchors) if i != j]
    if not pairs:
        assert len(a1) == 0
        return
    bound = min(max(counts[i, j], counts[j, i]) for i, j in pairs)
    reachable = {(i, j) for i, j in pairs if counts[i, j] <= bound}
    assert set(zip(a1.tolist(), a2.tolist())) == reachable


def test_sort_is_cached_per_table():
    space, sample = line_space([0, 1, 2, 4])
    table = halfspace_prob_table(space, sample, sample)
    assert table.sorted_pairs is table.sorted_pairs
    a1, a2 = table.sorted_pairs
    assert a1.dtype == a2.dtype == np.uint16
    assert not np.any(a1 == a2)
    keys = table.counts[a1, a2].astype(np.int64) * 16 + a1.astype(np.int64) * 4 + a2
    assert np.all(np.diff(keys) > 0)
    assert_reachable_prefix(table)


def tied_table(rows, n):
    return HalfspaceProbTable(counts=np.array(rows, dtype=np.int32), n=n), np.zeros((0, len(rows)))


@settings(max_examples=300, deadline=None)
@given(tables_and_distances())
@example(tied_table([[3]], 3))
@example(tied_table([[2, 1], [1, 2]], 2))
@example(tied_table([[2, 2], [2, 2]], 2))
@example(tied_table([[2, 0, 1], [1, 2, 1], [1, 1, 2]], 2))
def test_sorted_pairs_are_the_reachable_prefix_of_tied_tables(case):
    # n_A runs from 1 (no pair) and 2 (one pair each way) up to 7.
    assert_reachable_prefix(case[0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=9))
def test_sorted_pairs_are_the_reachable_prefix_of_real_tables(values):
    space, sample = line_space(values)
    assert_reachable_prefix(halfspace_prob_table(space, sample, sample))


def dense_sorted_pairs(counts, n):
    """The pruned sort with its bound read as one pass over the whole key
    and its transpose."""
    n_anchors = len(counts)
    key = counts.astype(np.min_scalar_type(n))
    bound = np.maximum(key, key.T).min()
    key = key.ravel()
    keep = key <= bound
    keep[::n_anchors + 1] = False
    index = np.flatnonzero(keep)
    return np.divmod(index[np.argsort(key[index], kind="stable")], n_anchors)


@settings(max_examples=200, deadline=None)
@given(tables_and_distances(), st.integers(1, 5))
def test_tiled_pair_bound_matches_dense_with_small_tiles(case, tile):
    # Tiles of 1-5 anchors on tables of 1-7 split them at every offset.
    table = case[0]
    saved = depth._BOUND_TILE
    depth._BOUND_TILE = tile
    try:
        got = table.sorted_pairs
    finally:
        depth._BOUND_TILE = saved
    assert_same(got, dense_sorted_pairs(table.counts, table.n))


@pytest.mark.parametrize("n_anchors", [300, 557])
@pytest.mark.parametrize("tied", [False, True])
def test_tiled_pair_bound_matches_dense_on_real_tables(n_anchors, tied, rng):
    # Neither size is a multiple of the tile, so the last row and column of
    # tiles are partial. Duplicated anchors tie every sample row, which
    # keeps both halves of the table.
    space = Euclidean(2)
    sample = random_points(space, 40, rng)
    anchors = random_points(space, n_anchors, rng)
    if tied:
        anchors[-30:] = anchors[:30]
    table = halfspace_prob_table(space, sample, anchors)
    assert distinct_rows(table.codes) is not tied
    key = table.counts
    assert key.dtype == np.min_scalar_type(table.n)
    assert depth._least_pair_max(key) == np.maximum(key, key.T).min()
    assert_same(table.sorted_pairs, dense_sorted_pairs(table.counts, table.n))


def dense_kernel(table, dist):
    return tuple(np.asarray(a) for a in dense_min_counts(table.counts, table.n, dist))


def test_refine_deepest_matches_dense_reference(rng, monkeypatch):
    space = Euclidean(2)
    sample = random_points(space, 25, rng)
    anchors = jiggle_anchors(space, sample, 2, seed=3)
    table = halfspace_prob_table(space, sample, anchors)
    start, _, _ = in_sample_deepest(space, sample, anchors, table=table)
    got = refine_deepest(space, sample, anchors, start, budget=40, seed=5, table=table)
    monkeypatch.setattr(depth, "_min_counts", dense_kernel)
    want = refine_deepest(space, sample, anchors, start, budget=40, seed=5, table=table)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def requested_passes(monkeypatch):
    """The query passes, ``first`` or ``least``, that _min_counts asks the
    loader for, in order."""
    names = []
    kernel = depth._native.kernel

    def recorded(name, *dtypes):
        if name in ("first", "least"):
            names.append(name)
        return kernel(name, *dtypes)

    monkeypatch.setattr(depth._native, "kernel", recorded)
    return names


def test_query_count_alone_chooses_the_pass(monkeypatch):
    # Fewer than _FEW_QUERIES rows take the least-count pass, more the sort
    # and scan, for distances and codes alike, whether or not the table's
    # pairs were sorted in numpy before: no state of the table enters it.
    table, dist = scan_case(ties=False, seed=3)
    dist = np.concatenate([dist, dist])
    names = requested_passes(monkeypatch)
    for sorted_before in (False, True):
        if sorted_before:
            table.sorted_pairs
        for m, name in ((1, "least"), (depth._FEW_QUERIES - 1, "least"),
                        (depth._FEW_QUERIES, "first"), (len(dist), "first")):
            for query in (dist[:m], table.codes[np.arange(m) % len(table.codes)]):
                del names[:]
                got = _min_counts(table, query)
                assert names == [name], (m, query.dtype)
                assert_same(got, dense_min_counts(table.counts, table.n, dist[:m]))


def test_refinement_takes_the_least_count_pass_for_any_budget(rng, monkeypatch):
    # Every scan of a refinement is one row, so a budget of _FEW_QUERIES - 1
    # steps takes the least-count pass as a budget of 3 does, to the point
    # and depth that the numpy sort and scan give.
    space = Euclidean(2)
    sample = random_points(space, 20, rng)
    table = halfspace_prob_table(space, sample, sample)
    names = requested_passes(monkeypatch)
    for budget in (depth._FEW_QUERIES - 1, 3):
        del names[:]
        got = refine_deepest(space, sample, sample, sample[0], budget=budget, seed=1,
                             table=table)
        assert names and set(names) == {"least"}
        with numpy_kernels():
            want = refine_deepest(space, sample, sample, sample[0], budget=budget, seed=1,
                                  table=table)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_permutation_depth_counts_match_dense_reference(rng):
    space = Sphere(2)
    pool = random_points(space, 24, rng)
    dist = space.distance_matrix(pool, pool)
    for _ in range(5):
        reference = rng.permutation(24)[:8]
        sub = dist[np.ix_(reference, reference)]
        counts = _prob_counts(sub, distinct_rows(sub))
        want = dense_min_counts(counts, len(reference), dist[:, reference])[0]
        got = inference._batched_depth_counts(dist, reference[None], distinct_rows(dist))
        assert np.array_equal(got[0], want)


def scan_case(ties, seed):
    """A sample table and its self distances, on a line of integers with
    repeats (tied rows and anchors) or on continuous points in the plane."""
    rng = np.random.default_rng(seed)
    if ties:
        space, sample = line_space(rng.integers(-4, 5, size=30))
    else:
        space = Euclidean(2)
        sample = random_points(space, 30, rng)
    table = halfspace_prob_table(space, sample, sample)
    return table, space.distance_matrix(sample, sample)


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("m", [1, 2, 30])
def test_anchor_major_scan_matches_dense_for_any_query_count(ties, m):
    table, dist = scan_case(ties, seed=m)
    for queries in (dist[:m], table.codes[:m]):
        assert_same(_min_counts(table, queries), dense_min_counts(table.counts, table.n, dist[:m]))


@pytest.mark.parametrize("ties", [False, True])
def test_one_query_alone_equals_its_row_in_a_batch(ties):
    table, dist = scan_case(ties, seed=7)
    batch = _min_counts(table, dist)
    for j in range(len(dist)):
        alone = _min_counts(table, dist[j:j + 1])
        assert_same(alone, tuple(part[j:j + 1] for part in batch))
