"""The compiled rank, table, pair-sort, scan and permutation depth-count
kernels against the numpy bodies of their entry points, the compiled
permutation orders against numpy's ``Generator.permutation``, the compiled
chart normals against ``Generator.standard_normal``, and the loader that
builds them.

The numpy bodies are the oracle, run by the same entry points under
``numpy_kernels()``: every check demands the same codes and tie flag, the
same counts, in the same dtype and layout, the same sorted pairs, in the
same dtype and length, and the same ``(count, a1, a2)`` per query.
Sizes straddle the uint8/uint16 switches of the codes (n_A = 256, 257)
and of the counts (n = 255, 256), and the compiled build's tiles of 512
columns and blocks of 16 first anchors; reference groups straddle the
count switch (m = 255, 256) and include the paper's groups of 60 among
240. The permutation depth counts run the numpy fallback's algorithm, each
group's table, count-sorted pairs and first-hit scan, with the compiled
kernels of those steps; they are checked against it at 1, 2 and 3
threads, whatever the host's CPU count, with calls made at once and in a
forked child, and against a dense masked minimum in
``test_batched_kernel.py``.
"""

import contextlib
import hashlib
import json
import logging
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metricdepth import _native
from metricdepth.cli import main
from metricdepth.depth import (
    HalfspaceProbTable,
    _min_counts,
    _prob_counts,
    _row_ranks,
    halfspace_prob_table,
    in_sample_deepest,
    jiggle_anchors,
    refine_deepest,
)
from metricdepth.inference import (
    _batched_depth_counts,
    _order_batches,
    kruskal_wallis_depth_test,
)
from metricdepth.io import write_points
from metricdepth.rng import NS_PERMUTATION, _entropy, derive_normals, derive_rng, derive_rngs
from metricdepth.spaces import Euclidean, Sphere, parse_space

from conftest import distinct_rows, kernel_threads, numpy_kernels, random_points
from test_query_kernel import dense_min_counts
from test_rng import SEEDS
from test_table_kernel import VALUES, brute_counts

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def native():
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")


def same_ranks(dist):
    """The compiled rank codes and tie flag, checked against numpy's."""
    assert _native.kernel("ranks", dist.dtype, np.min_scalar_type(dist.shape[1] - 1)) is not None
    got = _row_ranks(dist)
    with numpy_kernels():
        want = _row_ranks(dist)
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    assert type(got[1]) is bool and got[1] == want[1]
    return got


def same_pairs(counts, n):
    """The counting-sorted pairs of a table, checked against numpy's."""
    assert _native.kernel("pairs", counts.dtype, np.uint16) is not None
    got = HalfspaceProbTable(counts=counts, n=n).sorted_pairs
    with numpy_kernels():
        want = HalfspaceProbTable(counts=counts, n=n).sorted_pairs
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.uint16 and g.shape == w.shape
        assert np.array_equal(g, w)
    return got


def same_table(codes, distinct):
    """The compiled build's table, checked against the numpy body's."""
    assert _native.kernel("table", codes.dtype, np.min_scalar_type(len(codes))) is not None
    got = _prob_counts(codes, distinct)
    with numpy_kernels():
        want = _prob_counts(codes, distinct)
    assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
    assert np.array_equal(got, want)
    return got


def same_scan(table, query):
    """The compiled scan's ``(count, a1, a2)``, checked against numpy's."""
    assert _native.kernel("scan", query.dtype, table.sorted_pairs[0].dtype) is not None
    got = _min_counts(table, query)
    with numpy_kernels():
        want = _min_counts(table, query)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got


def distances(rng, n, n_anchors, tied):
    """An (n, n_A) distance matrix; a tied one repeats anchor columns, which
    ties every row."""
    dist = rng.standard_normal((n, n_anchors))
    if tied and n_anchors > 1:
        dist[:, n_anchors // 2:] = dist[:, :n_anchors - n_anchors // 2]
    return dist


# ------------------------------------------------------------------ ranks

@pytest.mark.parametrize("n_anchors", [1, 17, 256, 257, 920])
@pytest.mark.parametrize("tied", [False, True])
def test_ranks_equal_numpy(native, n_anchors, tied):
    # 256 anchors take uint8 codes and 257 uint16 ones; rows of more than
    # 16 entries are spread over buckets.
    dist = distances(np.random.default_rng(n_anchors), 40, n_anchors, tied)
    codes, distinct = same_ranks(dist)
    assert codes.dtype == (np.uint8 if n_anchors <= 256 else np.uint16)
    assert distinct == (not tied or n_anchors == 1)


def edge_rows(rng, n_anchors):
    """Rows that crowd the buckets or leave no finite spread."""
    spread = rng.random(n_anchors)
    outlier = spread.copy()
    outlier[n_anchors // 3] = 1e12
    signed_zeros = np.where(rng.random(n_anchors) < 0.5, -0.0, 0.0)
    signed_zeros[::5] = spread[::5]
    infinite = spread.copy()
    infinite[::7] = np.inf
    both_ends = spread.copy()
    both_ends[[0, -1]] = -1e15, 1e15
    return {
        "all equal": np.full(n_anchors, 2.5),
        "heavily tied": rng.integers(0, 3, n_anchors) * 0.5,
        "-0.0 beside +0.0": signed_zeros,
        "+inf": infinite,
        "all +inf": np.full(n_anchors, np.inf),
        "one far outlier": outlier,
        "outliers at both ends": both_ends,
        "powers of two": 2.0 ** -rng.integers(0, 200, n_anchors),
        "subnormal spread": spread * 5e-324 * 1000,
        "extremes": rng.choice([-1e308, 0.0, 1e308], n_anchors),
    }


@pytest.mark.parametrize("n_anchors", [1, 2, 256, 257, 2000])
def test_ranks_equal_numpy_on_edge_rows(native, n_anchors):
    rng = np.random.default_rng(n_anchors)
    rows = edge_rows(rng, n_anchors)
    for name, row in rows.items():
        codes, _ = same_ranks(row[None])
        if name == "-0.0 beside +0.0":
            assert len(np.unique(codes[0, row == 0])) <= 1
    # All rows at once: a row's scratch must not leak into the next.
    same_ranks(np.stack(list(rows.values())))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ranks_equal_numpy_on_tied_floats(data):
    # Few distinct values, with neighbours one ulp apart and subnormals,
    # tie heavily; rows of up to 80 entries take the bucket pass.
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 80)))
    values = st.one_of(st.sampled_from([*VALUES, 1.0 + 2.0**-52, 5e-324, 1e300]),
                       st.floats(0, 4))
    dist = data.draw(hnp.arrays(np.float64, shape, elements=values))
    _, distinct = same_ranks(dist)
    assert distinct == distinct_rows(dist)


# ------------------------------------------------------------------ table

@pytest.mark.parametrize("n", [1, 2, 255, 256, 300])
@pytest.mark.parametrize("n_anchors", [1, 17, 256, 257])
@pytest.mark.parametrize("tied", [False, True])
def test_table_equals_numpy(native, n, n_anchors, tied):
    codes, distinct = _row_ranks(
        distances(np.random.default_rng(n * n_anchors), n, n_anchors, tied))
    assert codes.dtype == (np.uint8 if n_anchors <= 256 else np.uint16)
    assert distinct == distinct_rows(codes) == (not tied or n_anchors == 1)
    got = same_table(codes, distinct)
    assert got.dtype == (np.uint8 if n <= 255 else np.uint16)
    if distinct:
        # A tie-free table also takes the full square.
        same_table(codes, False)


@pytest.mark.parametrize("tied", [False, True])
def test_table_across_column_tiles(native, tied):
    # 1100 anchors span three tiles, the last one partial, and end in a
    # partial block of first anchors.
    codes, distinct = _row_ranks(distances(np.random.default_rng(3), 40, 1100, tied))
    assert distinct == distinct_rows(codes)
    same_table(codes, distinct)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_equals_brute_on_heavily_tied_codes(data):
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    n = data.draw(st.integers(1, 12))
    n_anchors = data.draw(st.integers(1, 40))
    dist = np.array(data.draw(st.lists(st.sampled_from(VALUES), min_size=n * n_anchors,
                                       max_size=n * n_anchors))).reshape(n, n_anchors)
    codes, distinct = _row_ranks(dist)
    assert distinct == distinct_rows(dist)
    assert np.array_equal(same_table(codes, distinct), brute_counts(dist))


def test_mirror_reaches_0_and_n_in_uint8(native):
    # Every row orders the anchors alike: the mirror writes 255 - 0 and
    # 255 - 255 into uint8 counts.
    dist = np.tile(np.arange(40.0), (255, 1))
    got = same_table(_row_ranks(dist)[0], True)
    assert np.array_equal(got, np.where(np.triu(np.ones((40, 40), bool)), 255, 0))


def test_counts_past_uint16_fall_to_numpy(native):
    # 65 536 rows need uint32 counts, which no compiled build writes.
    dist = distances(np.random.default_rng(1), 65536, 3, False)
    counts = _prob_counts(_row_ranks(dist)[0], True)
    assert counts.dtype == np.uint32 and np.array_equal(counts, brute_counts(dist))


def test_public_table_uses_the_compiled_build(native, rng):
    space = Euclidean(2)
    sample = random_points(space, 60, rng)
    table = halfspace_prob_table(space, sample, sample + sample[:3])
    with numpy_kernels():
        assert np.array_equal(table.counts, _prob_counts(table.codes, False))


# -------------------------------------------------------------- pair sort

@pytest.mark.parametrize("n", [1, 2, 255, 256, 300])
@pytest.mark.parametrize("tied", [False, True])
def test_pairs_equal_numpy(native, n, tied):
    # 255 sample rows take uint8 counts and 256 uint16 ones; 150 anchors
    # span three tiles of the mirrored bound.
    codes, distinct = _row_ranks(distances(np.random.default_rng(n), n, 150, tied))
    counts = _prob_counts(codes, distinct)
    a1, a2 = same_pairs(counts, n)
    if distinct:
        # The counts of a tie-free table sum to n across each pair, so at
        # least one of (a1, a2) and (a2, a1) is kept for every pair.
        assert len(a1) >= 150 * 149 // 2
    assert not np.any(a1 == a2)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_pairs_of_one_anchor_and_of_one_count(native, dtype):
    # One anchor keeps no pair. Every count equal to n: the bound is n, the
    # diagonal's count, and every off-diagonal pair is kept in row-major
    # order.
    a1, a2 = same_pairs(np.array([[3]], dtype=dtype), 3)
    assert len(a1) == len(a2) == 0
    a1, a2 = same_pairs(np.full((5, 5), 4, dtype=dtype), 4)
    assert [(int(i), int(j)) for i, j in zip(a1, a2)] == [
        (i, j) for i in range(5) for j in range(5) if i != j]


def test_wider_counts_sort_to_the_same_pairs(native):
    # Counts wider than uint16 have no compiled sort; the numpy body gives
    # the same pairs.
    codes, distinct = _row_ranks(distances(np.random.default_rng(4), 30, 60, True))
    counts = _prob_counts(codes, distinct)
    want = same_pairs(counts, 30)
    assert _native.kernel("tally", np.uint32) is None
    got = HalfspaceProbTable(counts=counts.astype(np.uint32), n=30).sorted_pairs
    assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


@pytest.mark.parametrize("n", [60, 300])
def test_pair_sort_allocates_only_its_output(native, n):
    # The histograms, one of n + 1 int64 bins for each block of the sort,
    # are the only temporary beside the two returned arrays.
    codes, distinct = _row_ranks(distances(np.random.default_rng(n), n, 2000, False))
    table = HalfspaceProbTable(counts=_prob_counts(codes, distinct), n=n)
    hist = 8 * -(-2000 // _native.kernel("sort_rows")(2000)) * (n + 1)
    tracemalloc.start()
    try:
        a1, a2 = table.sorted_pairs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(a1) > 1_900_000
    assert peak <= a1.nbytes + a2.nbytes + hist + 64 * 1024


# ------------------------------------------------------------------- scan

@pytest.mark.parametrize("n_anchors", [40, 256, 257])
@pytest.mark.parametrize("tied", [False, True])
def test_scan_equals_numpy_on_codes_and_distances(native, n_anchors, tied):
    # 40 and 256 anchors take uint8 codes and 257 uint16 ones; pair
    # indices are uint16 throughout. The sample queries its own
    # codes; fresh points query float64 distances, many at once and one
    # at a time.
    rng = np.random.default_rng(n_anchors)
    n = 70
    dist = distances(rng, n + 9, n_anchors, tied)
    codes, distinct = _row_ranks(dist[:n])
    assert distinct == distinct_rows(codes) == (not tied)
    table = HalfspaceProbTable(counts=_prob_counts(codes, distinct), n=n, codes=codes)
    same_scan(table, table.codes)
    batch = same_scan(table, dist[n:])
    for j in range(9):
        alone = same_scan(table, dist[n + j:n + j + 1])
        assert [int(a[0]) for a in alone] == [int(b[j]) for b in batch]
    want = dense_min_counts(table.counts, n, dist)
    assert all(np.array_equal(g, w) for g, w in zip(same_scan(table, dist), want))


def test_scan_past_the_first_span_of_pairs(native, rng):
    # 150 anchors keep about 11 000 pairs, so deep queries scan more than
    # 4096 pairs before their first hit; the counts must still equal the
    # dense minimum.
    space = Sphere(2)
    sample = random_points(space, 150, rng)
    table = halfspace_prob_table(space, sample, sample)
    assert len(table.sorted_pairs[0]) > 2 * 4096
    nums = same_scan(table, table.codes)[0]
    dist = space.distance_matrix(sample, sample)
    same_scan(table, dist)
    assert np.array_equal(nums, dense_min_counts(table.counts, table.n, dist)[0])


def test_single_anchor_has_no_pair(native):
    table = HalfspaceProbTable(counts=np.array([[3]], dtype=np.uint8), n=3)
    for query in (np.array([[0.5], [2.0]]), np.zeros((2, 1), dtype=np.uint8)):
        got = same_scan(table, query)
        assert [a.tolist() for a in got] == [[3, 3], [-1, -1], [-1, -1]]


def test_query_admitting_only_the_last_kept_pair(native):
    # Pair maxima 3, 2, 3 bound the scan at 2, which keeps (0, 1) and
    # (1, 2) at count 1, then (0, 2) and (2, 0) at count 2; the query
    # q = (3, 2, 1) admits only (2, 0), the last of them.
    counts = np.array([[4, 1, 2], [3, 4, 1], [2, 3, 4]], dtype=np.uint8)
    table = HalfspaceProbTable(counts=counts, n=4)
    assert [a.tolist() for a in table.sorted_pairs] == [[0, 1, 0, 2], [1, 2, 2, 0]]
    for query in (np.array([[3.0, 2.0, 1.0]]), np.array([[2, 1, 0]], dtype=np.uint8)):
        assert [a.tolist() for a in same_scan(table, query)] == [[2], [2], [0]]


def test_scan_leaves_rows_of_another_width_to_numpy(native):
    # The compiled scan would read past a short row; numpy raises on it.
    counts = np.array([[4, 1, 2], [3, 4, 1], [2, 3, 4]], dtype=np.uint8)
    table = HalfspaceProbTable(counts=counts, n=4)
    with pytest.raises(IndexError):
        _min_counts(table, np.array([[3.0, 2.0]]))
    wide = np.array([[3.0, 2.0, 1.0, 0.0]])
    got = _min_counts(table, wide)
    with numpy_kernels():
        want = _min_counts(table, wide)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ----------------------------------------------------- permutation depths

def same_depths(codes, references, distinct):
    """The compiled depth counts at 1, 2 and 3 threads, each checked against
    the numpy fallback's, which builds and scans one table per reference
    group."""
    count = np.min_scalar_type(references.shape[1])
    assert _native.kernel("depths", codes.dtype, count) is not None
    with numpy_kernels():
        want = _batched_depth_counts(codes, references, distinct)
    for threads in (1, 2, 3):
        with kernel_threads(threads):
            got = _batched_depth_counts(codes, references, distinct)
        assert got.dtype == want.dtype == count and np.array_equal(got, want)
    return got


@pytest.mark.parametrize("total", [256, 257])
@pytest.mark.parametrize("m", [1, 2, 33, 255, 256])
@pytest.mark.parametrize("tied", [False, True])
def test_depths_equal_numpy(native, total, m, tied):
    # 256 pooled points take uint8 codes and 257 uint16; groups of 255 take
    # uint8 counts and 256 uint16, and groups of 33 put an odd number of
    # uint8 counts before 257 points' uint16 codes in the kernel's scratch.
    got = depths_of_three_orders(total, m, tied)
    if m == 1:
        assert (got == 1).all()


@pytest.mark.parametrize("tied", [False, True])
def test_depths_equal_numpy_on_the_paper_shape(native, tied):
    # Four groups of 60, as in the Alzheimer's analysis: each permuted
    # reference group of 60 against all 240 pooled points.
    depths_of_three_orders(240, 60, tied)


@pytest.mark.parametrize("total, m", [(40, 1), (40, 33), (257, 256)])
def test_depths_equal_numpy_with_fewer_groups_than_threads(native, total, m):
    # One group, as depth_ranks passes it, up to as many groups as threads:
    # each call starts at most one thread per group.
    rng = np.random.default_rng(total + m)
    codes, distinct = _row_ranks(rng.integers(0, 4, size=(total, total)))
    for n_refs in range(1, 4):
        orders = np.stack([rng.permutation(total) for _ in range(n_refs)])
        same_depths(codes, orders[:, :m], distinct)


def depths_of_three_orders(total, m, tied):
    """``same_depths`` for the last m members of three random orders of
    ``total`` pooled points. References are column slices of the orders,
    as the tests pass them, so not contiguous. Tied rows draw from four
    distances, so that members tie on some rows and not on others."""
    rng = np.random.default_rng(total * m)
    dist = rng.integers(0, 4, size=(total, total)) if tied else rng.random((total, total))
    codes, distinct = _row_ranks(dist)
    assert codes.dtype == (np.uint8 if total <= 256 else np.uint16)
    assert distinct == distinct_rows(codes) == (not tied)
    orders = np.stack([rng.permutation(total) for _ in range(3)])
    return same_depths(codes, orders[:, total - m:], distinct)


def test_depths_leave_references_outside_the_pool_to_numpy(native):
    # The compiled kernel would read past the codes; numpy raises, or reads
    # a negative index from the end.
    codes = _row_ranks(distances(np.random.default_rng(0), 6, 6, False))[0]
    for references, square in (([[0, 6]], codes), ([[0, 5]], codes[:, :5])):
        with pytest.raises(IndexError):
            _batched_depth_counts(square, np.array(references), True)
    got = _batched_depth_counts(codes, np.array([[-1, 2]]), True)
    with numpy_kernels():
        want = _batched_depth_counts(codes, np.array([[5, 2]]), True)
    assert np.array_equal(got, want)


# ----------------------------------------------------- permutation orders

# The shuffle draws an index up to each i < total under the least all-ones
# mask that covers i, so a total crosses every mask width up to its own: one
# pooled point draws nothing, 2 and 3 end on masks of one and two bits, and
# 257 and 65 537 end on a power of two (nine and seventeen bits), which a
# mask one bit short would never draw.
ORDER_TOTALS = [1, 2, 3, 60, 90, 257, 1000, 65537]


def numpy_orders(seed, reps, total):
    return [derive_rng(seed, NS_PERMUTATION, rep).permutation(total) for rep in reps]


def same_orders(seed, n_permutations, total, batch):
    """A test's compiled orders, batch by batch: the identity, then each
    rep's permutation checked against numpy's ``permutation`` of the rep's
    stream. The second batch starts at rep ``batch - 1``."""
    assert _native.kernel("orders") is not None
    got = np.concatenate(list(_order_batches(seed, n_permutations, total, batch)))
    assert got.dtype == np.int64 and got.shape == (n_permutations + 1, total)
    assert np.array_equal(got[0], np.arange(total))
    for order, want in zip(got[1:], numpy_orders(seed, range(n_permutations), total)):
        assert np.array_equal(order, want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("total", ORDER_TOTALS)
def test_orders_equal_numpy_permutations(native, seed, total):
    same_orders(seed, 5, total, 3)


def test_orders_of_reps_past_one_word(native):
    # Reps from 2**32 on take two entropy words, as seeds do; the kernel
    # reads the rep's words after the seed's and the namespace's.
    kernel = _native.kernel("orders")
    for seed in (7, 2**40 + 5, -1):
        head = np.array(_entropy(seed, (NS_PERMUTATION,)), dtype=np.uint32)
        got = np.empty((3, 257), dtype=np.int64)
        kernel(head.ctypes.data, len(head), 2**32 - 1, 3, 257, got.ctypes.data)
        want = numpy_orders(seed, range(2**32 - 1, 2**32 + 2), 257)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(seed=st.one_of(st.sampled_from(SEEDS), st.integers(-(2**63), 2**64 - 1)),
       total=st.one_of(st.sampled_from(ORDER_TOTALS), st.integers(1, 300)),
       n_permutations=st.integers(0, 6), batch=st.integers(1, 4))
def test_orders_equal_numpy_permutations_in_any_batching(seed, total, n_permutations, batch):
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    same_orders(seed, n_permutations, total, batch)


# ------------------------------------------------------------ chart normals

# The ziggurat's last normal before its tail: a draw beyond it takes the
# tail path, log1p and exp, rather than the table alone.
ZIGGURAT_EDGE = 3.6541528853610088


def numpy_normals(seed, prefix, shape, dim):
    count = int(np.prod(shape, dtype=np.int64))
    rows = [rng.standard_normal(dim) for rng in derive_rngs(seed, *prefix, shape=shape)]
    return np.array(rows, dtype=float).reshape(count, dim)


def numpy_body_normals(seed, prefix, shape, dim):
    with numpy_kernels():
        return derive_normals(seed, *prefix, shape=shape, dim=dim)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -1, 2**40 + 5])
@pytest.mark.parametrize("prefix", [(1,), (2, 2**33)], ids=repr)
@pytest.mark.parametrize("shape", [(0,), (1,), (257,), (230, 3)], ids=repr)
@pytest.mark.parametrize("dim", [0, 1, 3, 300])
def test_normals_equal_numpy_standard_normals(native, seed, prefix, shape, dim):
    want = numpy_normals(seed, prefix, shape, dim)
    assert _native.kernel("normals") is not None
    for got in (derive_normals(seed, *prefix, shape=shape, dim=dim),
                numpy_body_normals(seed, prefix, shape, dim)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if shape == (230, 3) and dim == 300:
        assert np.abs(want).max() > ZIGGURAT_EDGE


# Digests of jiggled anchors and of a refined point on the geometries whose
# draws read more normals than their chart has: the spider's second normal
# picks the branch a step crossing the origin continues on. The values pin
# what the compiled normals and their numpy body give.
BRANCH_DRAWS = {
    "spider3": ("4327f01c7585b30c", "04e195348591f77d"),
    "product:spider3+euclidean:2": ("2612a7245011f2d3", "da560766890ae3fd"),
}


def digest(space, points):
    text = "\n".join(space.encode_point(p) for p in points)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("spec", sorted(BRANCH_DRAWS))
@pytest.mark.parametrize("compiled", [True, False])
def test_spider_draws_read_two_normals_per_stream(spec, compiled):
    space = parse_space(spec)
    assert space.normal_count == space.intrinsic_dim + 1
    sample = random_points(space, 20, np.random.default_rng(8))
    with contextlib.nullcontext() if compiled else numpy_kernels():
        anchors = jiggle_anchors(space, sample, 3, seed=5).points
        start, _, _ = in_sample_deepest(space, sample, anchors)
        point, _ = refine_deepest(space, sample, anchors, start, 16, seed=5)
    assert (digest(space, anchors), digest(space, [point])) == BRANCH_DRAWS[spec]
    assert digest(space, [point]) != digest(space, [start])


# ------------------------------------------------------------------ threads

def test_thread_count_never_exceeds_the_cpus():
    assert _native.threads() == len(os.sched_getaffinity(0))


def test_a_failed_scratch_allocation_raises_memory_error(native):
    # Scratch of over 2**58 bytes, past any address space: each kernel fails
    # its allocation before it reads an array, and says so rather than
    # return a count.
    ranks = _native.kernel("ranks", np.float64, np.uint8)
    with pytest.raises(MemoryError, match="ranks_f64_u8"):
        ranks(None, 0, 2**54, None)
    depths = _native.kernel("depths", np.uint8, np.uint8)
    with pytest.raises(MemoryError, match="depths_u8_u8"):
        depths(None, 0, None, 0, 2**29, True, None)


def kw_test(seed):
    """A Kruskal-Wallis test on three sphere:2 groups of 20; 199
    permutations make several batches of orders, so several calls of the
    depth counts."""
    space = Sphere(2)
    points = random_points(space, 60, np.random.default_rng(seed))
    result = kruskal_wallis_depth_test(space, [points[:20], points[20:40], points[40:]],
                                       n_permutations=199, seed=seed)
    return result.statistic, result.p_value


def task_ids():
    return set(os.listdir("/proc/self/task"))


def test_concurrent_tests_get_the_serial_result(native):
    with kernel_threads(1):
        want = [kw_test(seed) for seed in (1, 2)]
    got = [None, None]

    def run(i):
        got[i] = kw_test(i + 1)

    with kernel_threads(3):
        runners = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=120)
    assert not any(runner.is_alive() for runner in runners)
    assert got == want


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-process task list")
def test_no_thread_outlives_a_call_so_a_forked_child_runs_a_test(native):
    # simulate's workers are forked on Linux: a kernel thread left running
    # in the parent would be missing in the child, with whatever it held.
    # Tasks are compared by id, so a thread of an earlier test that ends
    # during the call is not taken for one of the call's.
    with kernel_threads(3):
        before = task_ids()
        want = kw_test(3)
        assert task_ids() <= before
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(kw_test, 3).result(timeout=120) == want


# ------------------------------------------------------- fallback and cache

def test_kernels_are_chosen_by_dtype_alone(native):
    # Ranks by (distance, code), tables by (code, count), tallies by count,
    # pair sorts by (count, pair), scans by (query, pair), permutation
    # depths by (code, count) dtype; no kernel takes a width flag. The
    # permutation orders and the chart normals have one dtype of each
    # array, so one kernel each; the spd:2 distances and the norms of the
    # Euclidean and sphere distances take float64 alone, and the pair
    # sort's block rows no array.
    assert sorted(_native.library()) == [
        "depths_u16_u16", "depths_u16_u8", "depths_u8_u16", "depths_u8_u8", "normals",
        "norms_f64", "orders", "pairs_u16_u16", "pairs_u8_u16", "ranks_f64_u16", "ranks_f64_u8",
        "scan_f64_u16", "scan_u16_u16", "scan_u8_u16", "sort_rows", "spd2_f64",
        "table_u16_u16", "table_u16_u8", "table_u8_u16", "table_u8_u8",
        "tally_u16", "tally_u8"]
    assert _native.kernel("spd2", np.float64) is not None
    assert _native.kernel("table", np.uint8, np.uint16) is not None
    assert _native.kernel("ranks", np.float64, np.uint16) is not None
    assert _native.kernel("scan", np.float64, np.uint8) is None
    assert _native.kernel("table", np.uint16, np.uint32) is None
    # Codes past 65 536 anchors, integer distances, pair indices past
    # 65 536 anchors and counts wider than uint16 stay with numpy.
    assert _native.kernel("ranks", np.float64, np.uint32) is None
    assert _native.kernel("ranks", np.int64, np.uint8) is None
    assert _native.kernel("pairs", np.uint8, np.uint32) is None
    assert _native.kernel("tally", np.uint32) is None


@pytest.mark.parametrize("value", ["", "relcache", "./relcache"])
def test_empty_or_relative_cache_home_is_ignored(monkeypatch, tmp_path, value):
    # The XDG Base Directory Specification makes a relative path invalid:
    # honouring one would build a copy of the core in every working directory.
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", value)
    assert _native.cache_dir() == tmp_path / ".cache" / "metricdepth"


@pytest.mark.parametrize("value", ["/dev/null", "/tmp/metricdepth-cache"])
def test_absolute_cache_home_is_used(monkeypatch, value):
    monkeypatch.setenv("XDG_CACHE_HOME", value)
    assert _native.cache_dir() == Path(value) / "metricdepth"


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not run yet in this process, with an empty cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_kernels", _native._UNSET)
    return tmp_path / "metricdepth"


def run_commands(tmp_path, name):
    """``depth --self`` and ``median --estimator mhd`` on one sample; the
    output bytes and the manifests' ``kernels`` fields."""
    data = tmp_path / "sample.csv"
    if not data.exists():
        space = Sphere(2)
        write_points(data, space, random_points(space, 80, np.random.default_rng(5)))
    outputs, kernels = [], set()
    for args in (["depth", "--space", "sphere:2", "--data", str(data), "--self",
                  "--anchors", "jiggle:2"],
                 ["median", "--space", "sphere:2", "--data", str(data), "--estimator", "mhd",
                  "--jiggle", "2", "--budget", "8"]):
        out = tmp_path / f"{name}-{args[0]}"
        result = CliRunner().invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
        kernels.add(_manifest_kernels(out))
    return outputs, kernels


def _manifest_kernels(out):
    return json.loads(out.with_name(out.name + ".manifest.json").read_text())["kernels"]


def test_fallback_writes_the_same_bytes_and_logs_once(native, tmp_path, monkeypatch, caplog):
    outputs, kernels = run_commands(tmp_path, "native")
    assert kernels == {"native"}
    monkeypatch.setattr(_native, "_kernels", _native._UNSET)
    monkeypatch.setattr(_native, "COMPILER", "metricdepth-no-such-compiler")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty-cache"))
    with caplog.at_level(logging.WARNING, logger=_native.logger.name):
        fallback, kernels = run_commands(tmp_path, "numpy")
    assert kernels == {"numpy"}
    assert fallback == outputs
    records = [r for r in caplog.records if r.name == _native.logger.name]
    assert len(records) == 1 and "using numpy" in records[0].getMessage()


needs_gcc = pytest.mark.skipif(shutil.which(_native.COMPILER) is None,
                               reason="no compiler to build the kernels")


@needs_gcc
def test_processes_building_at_once_share_one_cache(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
    code = "import sys; from metricdepth import _native; sys.exit(_native.library() is None)"
    # More builders than the two cores of the reference host.
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(3)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
    cache = tmp_path / "metricdepth"
    assert [p.suffix for p in cache.iterdir()] == [".so"]
    assert cache.stat().st_mode & 0o777 == 0o700


@needs_gcc
def test_target_clones_give_the_same_bytes(native, tmp_path):
    # The table blocks, spd2 and norms run the clone for the host's CPU
    # (AVX-512, AVX2 or baseline x86-64). A build with CLONES defined empty
    # has the baseline code alone, which must give the same bytes.
    import ctypes

    command = _native.command(tmp_path / "core.so")
    command.insert(command.index("-o"), "-DCLONES=")
    subprocess.run(command, check=True, capture_output=True)
    builds = (_native.library(), _native.bind(ctypes.CDLL(str(tmp_path / "core.so"))))
    rng = np.random.default_rng(11)
    # 100 and 600 anchors take uint8 and uint16 codes, 600 two column
    # tiles; 40 and 300 rows uint8 and uint16 counts.
    for n, n_anchors in ((40, 100), (300, 100), (40, 600), (300, 600)):
        for tied in (False, True):
            codes, distinct = _row_ranks(distances(rng, n, n_anchors, tied))
            tables = [np.empty((n_anchors, n_anchors), np.min_scalar_type(n)) for _ in builds]
            name = "_".join(["table", *(_native._SUFFIXES[t.dtype] for t in (codes, tables[0]))])
            for kernels, table in zip(builds, tables):
                kernels[name](codes.ctypes.data, n, n_anchors, distinct, table.ctypes.data)
            assert tables[0].tobytes() == tables[1].tobytes(), (name, tied)
    # spd:2 pairs: the left matrices, their inverse square roots and the
    # right matrices as four planes, some equal to a left one.
    roots = rng.standard_normal((300, 2, 2))
    spd = roots @ roots.transpose(0, 2, 1) + 0.1 * np.eye(2)
    values, vectors = np.linalg.eigh(spd[:70])
    whiten = np.ascontiguousarray((vectors / np.sqrt(values)[:, None, :]
                                   @ vectors.transpose(0, 2, 1)).reshape(70, 4))
    left = np.ascontiguousarray(spd[:70].reshape(70, 4))
    planes = np.ascontiguousarray(spd[40:].reshape(260, 4).T)
    # Norms: 70 points against 260 held as dim planes, some equal to a row.
    flats = [rng.standard_normal((330, dim)) for dim in (1, 3, 5, 12)]
    got = []
    for kernels in builds:
        out = np.empty((2 + len(flats), 70, 260))
        kernels["spd2_f64"](left.ctypes.data, whiten.ctypes.data, 70, planes.ctypes.data, 260,
                            np.finfo(float).tiny, out[0].ctypes.data, out[1].ctypes.data)
        for flat, plane in zip(flats, out[2:]):
            x, y = flat[:70].copy(), np.ascontiguousarray(flat[40:300].T)
            kernels["norms_f64"](x.ctypes.data, 70, y.ctypes.data, 260, flat.shape[1],
                                 plane.ctypes.data)
        got.append(out)
    assert np.all(got[0][:2, np.arange(40, 70), np.arange(30)] == 1.0)
    assert np.all(got[0][2:, np.arange(40, 70), np.arange(30)] == 0.0)
    assert [o.tobytes() for o in got[0]] == [o.tobytes() for o in got[1]]


@needs_gcc
def test_truncated_library_is_rebuilt(fresh_loader):
    target = _native.library_path()
    _native._build(target)
    whole = target.read_bytes()
    target.write_bytes(whole[:len(whole) // 2])
    assert not _native._intact(target)
    assert _native.library() is not None
    assert _native._intact(target) and len(target.read_bytes()) == len(whole)
    codes = _row_ranks(distances(np.random.default_rng(0), 30, 50, False))[0]
    same_table(codes, True)


def test_unusable_cache_falls_back(fresh_loader, caplog):
    # A file where the cache directory should be: nothing can be written
    # there, whatever the user's permissions.
    fresh_loader.write_text("")
    with caplog.at_level(logging.WARNING, logger=_native.logger.name):
        assert _native.library() is None
        assert _native.kernels() == "numpy"
        assert _native.kernel("scan", np.float64, np.uint16) is None
    assert len(caplog.records) == 1
    dist = distances(np.random.default_rng(0), 30, 50, False)
    assert np.array_equal(_prob_counts(_row_ranks(dist)[0], True), brute_counts(dist))


def test_missing_archive_falls_back(fresh_loader, monkeypatch, caplog):
    archive = fresh_loader.parent / "numpy-random" / "libnpyrandom.a"
    monkeypatch.setattr(_native, "ARCHIVE", archive)
    with caplog.at_level(logging.WARNING, logger=_native.logger.name):
        assert _native.library() is None
        assert _native.kernel("normals") is None
    assert len(caplog.records) == 1 and str(archive) in caplog.records[0].getMessage()
    got = derive_normals(3, 1, shape=(4,), dim=2)
    assert got.tobytes() == numpy_normals(3, (1,), (4,), 2).tobytes()


@needs_gcc
def test_a_build_removes_the_builds_of_other_sources(fresh_loader, monkeypatch, tmp_path):
    text = _native.SOURCE.read_text()
    builds = []
    for name, extra in (("old", "/* an older source */\n"), ("new", "")):
        source = tmp_path / f"{name}.c"
        source.write_text(text + extra)
        monkeypatch.setattr(_native, "SOURCE", source)
        builds.append(_native.library_path())
    # A build that another process has under way, of either source.
    pending = [fresh_loader / f"{build.stem}-pending.tmp" for build in builds]
    fresh_loader.mkdir(mode=0o700)
    for path in pending:
        path.write_bytes(b"")
    monkeypatch.setattr(_native, "SOURCE", tmp_path / "old.c")
    _native._build(builds[0])
    assert builds[0].exists()
    monkeypatch.setattr(_native, "SOURCE", tmp_path / "new.c")
    assert _native.library() is not None
    assert sorted(fresh_loader.iterdir()) == sorted([builds[1], *pending])
