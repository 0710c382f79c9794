"""The rank-code table kernel against a brute-force float comparison.

``brute_counts`` compares the distances themselves, as the halfspace
definition reads; every check demands equal integer tables. Distances are
drawn from a few values, ``0.0``, ``-0.0`` and ``inf`` among them, so rows
tie heavily, and sizes straddle the 255-row uint8 chunk and the 256-anchor
switch of the code dtype from uint8 to uint16. Tie-free rows take the
kernel's upper-triangle path and tied rows its full-square path; a lowered
element cap splits either into anchor blocks down to one anchor each, so
those checks run the numpy body of :func:`_prob_counts`, the only one that
reads the cap.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from metricdepth import depth, inference
from metricdepth.depth import (
    _prob_counts,
    _row_ranks,
    approx_depth,
    halfspace_prob_table,
    refine_deepest,
)
from metricdepth.errors import DataError, GeometryError
from metricdepth.inference import depth_ranks, kruskal_wallis_depth_test, wilcoxon_depth_test
from metricdepth.spaces import Euclidean

from conftest import distinct_rows, numpy_kernels, random_points
from test_query_kernel import dense_min_counts

VALUES = [0.0, -0.0, 0.5, 1.0, 2.0, np.inf]


def brute_counts(dist):
    return (dist[:, :, None] <= dist[:, None, :]).sum(axis=0)


@st.composite
def tied_distances(draw, sizes, anchor_counts):
    """An (n, n_A) matrix whose entries come from a small palette."""
    n = draw(sizes)
    n_anchors = draw(anchor_counts)
    palette = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(palette), size=(n, n_anchors))


@settings(max_examples=200, deadline=None)
@given(tied_distances(st.integers(1, 12), st.integers(1, 12)))
def test_codes_order_like_distances(dist):
    codes, _ = _row_ranks(dist)
    assert codes.dtype == np.min_scalar_type(dist.shape[1] - 1)
    assert np.array_equal(codes[:, :, None] <= codes[:, None, :],
                          dist[:, :, None] <= dist[:, None, :])


@settings(max_examples=40, deadline=None)
@given(tied_distances(st.sampled_from([1, 2, 254, 255, 256, 257, 510, 511, 512]),
                      st.integers(1, 6)))
def test_table_across_the_row_chunk_boundary(dist):
    assert np.array_equal(_prob_counts(*_row_ranks(dist)), brute_counts(dist))


@settings(max_examples=12, deadline=None)
@given(tied_distances(st.sampled_from([3, 255, 256]), st.sampled_from([255, 256, 257, 258])))
def test_table_across_the_code_dtype_switch(dist):
    codes, distinct = _row_ranks(dist)
    assert codes.dtype == (np.uint8 if dist.shape[1] <= 256 else np.uint16)
    assert np.array_equal(_prob_counts(codes, distinct), brute_counts(dist))


def test_single_anchor_table_is_n():
    dist = np.array([[np.inf], [0.0], [-0.0], [3.0]])
    codes, distinct = _row_ranks(dist)
    assert codes.tolist() == [[0]] * 4 and distinct
    assert _prob_counts(codes, True).tolist() == [[4]]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pooled_codes_restrict_to_reference_exactly(data):
    # One square pooled matrix, ranked once; the reference group is an
    # arbitrary subset of its indices in arbitrary order.
    total = data.draw(st.integers(2, 40))
    dist = data.draw(tied_distances(st.just(total), st.just(total)))
    codes, distinct = _row_ranks(dist)
    size = data.draw(st.integers(1, total))
    reference = np.array(data.draw(st.permutations(range(total)))[:size])
    sub = dist[np.ix_(reference, reference)]
    want_counts = brute_counts(sub)
    # The flag of the pooled rows holds for every column subset of them.
    assert np.array_equal(_prob_counts(codes[np.ix_(reference, reference)], distinct),
                          want_counts)
    want = dense_min_counts(want_counts, len(reference), dist[:, reference])[0]
    got = inference._batched_depth_counts(codes, reference[None], distinct)
    assert np.array_equal(got[0], want)


class FixedDistances:
    """A stand-in space whose every distance matrix is one given matrix."""

    def __init__(self, dist):
        self.dist = np.asarray(dist, dtype=float)

    def stack(self, points):
        return tuple(points)

    def distance_matrix(self, xs, ys):
        return self.dist[:len(xs), :len(ys)]


def test_nan_distance_rejected_by_the_table():
    space = FixedDistances([[0.0, np.nan], [1.0, 0.0]])
    with pytest.raises(GeometryError, match="NaN"):
        halfspace_prob_table(space, [0, 1], [0, 1])


def test_infinite_distance_accepted_by_the_table():
    space = FixedDistances([[0.0, np.inf, 1.0], [np.inf, 0.0, np.inf], [1.0, 2.0, 0.0]])
    table = halfspace_prob_table(space, [0, 1, 2], [0, 1, 2])
    assert np.array_equal(table.counts, brute_counts(space.dist))


def test_nan_distance_rejected_by_the_permutation_tests():
    dist = np.zeros((6, 6))
    dist[4, 1] = np.nan
    space = FixedDistances(dist)
    with pytest.raises(DataError, match="NaN"):
        depth_ranks(space, range(3), range(3))
    with pytest.raises(DataError, match="NaN"):
        wilcoxon_depth_test(space, range(3), range(3), n_permutations=99)
    with pytest.raises(DataError, match="NaN"):
        kruskal_wallis_depth_test(space, [range(2), range(2), range(2)], n_permutations=99)


def test_nan_query_distance_rejected_by_approx_depth():
    space = Euclidean(1)
    sample = [np.array([float(v)]) for v in range(4)]
    with pytest.raises(GeometryError, match="query-anchor"):
        approx_depth(space, sample, sample, [np.array([np.nan])])


def test_nan_query_distance_rejected_by_refine_deepest():
    space = Euclidean(1)
    sample = [np.array([float(v)]) for v in range(4)]
    with pytest.raises(GeometryError, match="query-anchor"):
        refine_deepest(space, sample, sample, np.array([np.nan]), budget=3)


# ------------------------------------------------- triangle and square paths

@contextmanager
def chunk_cap(cap):
    """Lower the element cap and run the numpy bodies, which alone read it,
    so the table spans many anchor blocks."""
    saved = depth._CHUNK_ELEMS
    depth._CHUNK_ELEMS = cap
    try:
        with numpy_kernels():
            yield
    finally:
        depth._CHUNK_ELEMS = saved


@st.composite
def distinct_distances(draw, sizes, anchor_counts):
    """An (n, n_A) matrix with no tie in any row."""
    n = draw(sizes)
    n_anchors = draw(anchor_counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((n, n_anchors))


# cap // (rows * n_A) anchors per block: one anchor for a cap below
# 2 rows * n_A, every anchor in one block for the largest caps drawn.
CAPS = st.integers(0, 12 * 12 * 12)


@settings(max_examples=200, deadline=None)
@given(tied_distances(st.integers(1, 12), st.integers(1, 12)), CAPS)
def test_tied_tables_match_brute_in_anchor_blocks(dist, cap):
    codes, distinct = _row_ranks(dist)
    with chunk_cap(cap):
        got = _prob_counts(codes, distinct)
    assert np.array_equal(got, brute_counts(dist))


@settings(max_examples=200, deadline=None)
@given(distinct_distances(st.integers(1, 12), st.integers(1, 12)), CAPS)
def test_distinct_tables_match_brute_in_anchor_blocks(dist, cap):
    codes, distinct = _row_ranks(dist)
    assert distinct
    with chunk_cap(cap):
        triangle = _prob_counts(codes, True)
        square = _prob_counts(codes, False)
    want = brute_counts(dist)
    assert np.array_equal(triangle, want)
    assert np.array_equal(square, want)


@settings(max_examples=20, deadline=None)
@given(distinct_distances(st.sampled_from([254, 255, 256, 257]), st.integers(2, 9)),
       st.integers(0, 3 * 255 * 9))
def test_distinct_tables_across_the_row_chunk_boundary(dist, cap):
    # The mirror reads n, not the 255-row chunk it was counted in.
    codes, _ = _row_ranks(dist)
    with chunk_cap(cap):
        assert np.array_equal(_prob_counts(codes, True), brute_counts(dist))


@settings(max_examples=200, deadline=None)
@given(st.one_of(tied_distances(st.integers(1, 8), st.integers(1, 8)),
                 distinct_distances(st.integers(1, 8), st.integers(1, 8))))
def test_distinct_rows_of_rank_codes(dist):
    assert _row_ranks(dist)[1] == distinct_rows(dist)


@pytest.mark.parametrize("duplicates", [0, 1, 7])
def test_public_table_with_and_without_duplicate_points(rng, duplicates):
    # One duplicated anchor ties every row, so the table counts both halves.
    space = Euclidean(2)
    sample = random_points(space, 40, rng)
    sample += sample[:duplicates]
    dist = space.distance_matrix(sample, sample)
    with chunk_cap(3 * len(sample) ** 2):
        table = halfspace_prob_table(space, sample, sample)
    assert distinct_rows(table.codes) == (duplicates == 0)
    assert np.array_equal(table.counts, brute_counts(dist))


@pytest.mark.parametrize("duplicates", [0, 1, 5])
def test_permutation_depths_with_and_without_duplicate_points(rng, duplicates):
    # A permutation test decides the table path once, from its pooled
    # codes; one duplicated point ties every pooled row.
    space = Euclidean(2)
    reference = random_points(space, 12, rng)
    reference += reference[:duplicates]
    others = random_points(space, 6, rng)
    pool = tuple(reference + others)
    codes, distinct = inference._pooled_codes(space, pool)
    assert distinct == (duplicates == 0)
    m = len(reference)
    dist = space.distance_matrix(pool, pool)
    want = dense_min_counts(brute_counts(dist[:m, :m]), m, dist[:, :m])[0]
    got = inference._batched_depth_counts(codes, np.arange(m)[None], distinct)
    # The compiled kernel ignores the cap, so the blocks run in numpy.
    with chunk_cap(3 * m * m):  # blocks of three anchors
        blocked = inference._batched_depth_counts(codes, np.arange(m)[None], distinct)
        ranks = depth_ranks(space, reference, others)
    assert np.array_equal(got[0], want)
    assert np.array_equal(blocked[0], want)
    assert np.array_equal(ranks, rankdata(want[m:]))


# ------------------------------------------------------------- table format

@pytest.mark.parametrize("n", [1, 255, 256])
def test_counts_take_the_narrowest_dtype_that_holds_n(n, rng):
    # n = 255 is the widest uint8 table and n = 256 the first uint16 one.
    space = Euclidean(2)
    sample = random_points(space, n, rng)
    table = halfspace_prob_table(space, sample, sample[:9])
    assert table.counts.dtype == np.min_scalar_type(n) == (np.uint8 if n < 256 else np.uint16)
    assert np.array_equal(table.counts, brute_counts(space.distance_matrix(sample, sample[:9])))


@pytest.mark.parametrize("cap", [0, 2 * 255 * 6, 8_000_000])
def test_tie_free_mirror_reaches_0_and_n_without_wrapping(cap):
    # Every row orders the anchors alike, so each pair holds all 255 rows
    # one way and none the other: the mirror writes n - 0 and n - n into
    # uint8, in anchor blocks of one, two or all six anchors.
    dist = np.tile(np.arange(6.0), (255, 1))
    codes, distinct = _row_ranks(dist)
    with chunk_cap(cap):
        got = _prob_counts(codes, distinct)
    assert got.dtype == np.uint8
    assert np.array_equal(got, np.where(np.triu(np.ones((6, 6), bool)), 255, 0))
    assert np.array_equal(got, brute_counts(dist))

