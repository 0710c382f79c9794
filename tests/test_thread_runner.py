"""The compiled ranks, table build, sort and scan and least-count pass on
the core's thread runner.

Each call runs at 1, 2 and 3 threads, whatever the host's CPU count, and
must give the same codes and tie flag, the same counts in the same dtype
and the same ``(count, a1, a2)`` per query at every count, equal to the
numpy bodies of their entry points. Shapes cross the work threshold
below which a call stays on the calling thread (a 200 x 17 ranking stays
there; 600 x 920 runs on every thread it is given), the table's runs of
64 bytes of columns, whole and partial, with first anchors four at a time
(n_A = 17, 289, 513, 920), the uint8/uint16 switch of the codes
(n_A = 300) and of the counts (n = 200, 600), and rows with and without
ties, including a single tied row, whose flag every unit's rows must
clear. The sort and scan sorts by blocks of 64 table rows when it takes
more than one thread (n_A = 513, 920), and as one block otherwise. The
least-count pass, which fewer than ``_FEW_QUERIES`` queries take, runs
one query per unit, and a build that counts the threads it starts checks
where it and the permutation tests' depth counts take a second one.
"""

import ctypes
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdepth import _native, depth
from metricdepth.depth import (
    HalfspaceProbTable,
    _min_counts,
    _prob_counts,
    _row_ranks,
    jiggle_anchors,
)
from metricdepth.spaces import SPD

from conftest import kernel_threads, numpy_kernels, random_points

ANCHORS = [1, 17, 289, 300, 513, 920]
THREADS = (1, 2, 3)


@pytest.fixture(autouse=True)
def native():
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")


def rows(n, n_anchors, tied, seed):
    """An (n, n_A) distance matrix. ``tied`` is "none", "all" (small
    integers, so every row of more than a few anchors ties) or "one" (only
    the middle row ties, one unit's rows among many)."""
    rng = np.random.default_rng([n, n_anchors, seed])
    if tied == "all":
        return rng.integers(0, max(2, n_anchors // 4), size=(n, n_anchors)).astype(float)
    dist = rng.random((n, n_anchors))
    if tied == "one" and n_anchors > 1:
        dist[n // 2, -1] = dist[n // 2, 0]
    return dist


def at_every_thread_count(call):
    """``call()`` at each of THREADS, checked equal, and under the numpy
    bodies; returns the compiled result."""
    got = []
    for threads in THREADS:
        with kernel_threads(threads):
            got.append(call())
    with numpy_kernels():
        want = call()
    for result in got:
        for g, w in zip(result, want):
            assert np.asarray(g).dtype == np.asarray(w).dtype
            assert np.array_equal(g, w)
    return got[0]


@pytest.mark.parametrize("n", [200, 600])
@pytest.mark.parametrize("n_anchors", ANCHORS)
@pytest.mark.parametrize("tied", ["none", "all", "one"])
def test_ranks_and_table_at_every_thread_count(n, n_anchors, tied):
    dist = rows(n, n_anchors, tied, 0)
    codes, distinct = at_every_thread_count(lambda: _row_ranks(dist))
    assert codes.dtype == (np.uint8 if n_anchors <= 256 else np.uint16)
    assert distinct == (tied == "none" or n_anchors == 1)
    counts, = at_every_thread_count(lambda: (_prob_counts(codes, distinct),))
    assert counts.dtype == (np.uint8 if n <= 255 else np.uint16)


@pytest.mark.parametrize("n", [200, 600])
@pytest.mark.parametrize("n_anchors", ANCHORS)
@pytest.mark.parametrize("tied", ["none", "all"])
def test_scan_at_every_thread_count(n, n_anchors, tied):
    # The sample's own codes, as self-depth scans them, and float64
    # distances of other queries, as a query depth does.
    dist = rows(n, n_anchors, tied, 1)
    codes, distinct = _row_ranks(dist)
    table = HalfspaceProbTable(_prob_counts(codes, distinct), n=n, codes=codes)
    for query in (codes, rows(n + 7, n_anchors, tied, 2)):
        at_every_thread_count(lambda: _min_counts(table, query))


@pytest.mark.parametrize("n_anchors", ANCHORS)
@pytest.mark.parametrize("tied", ["none", "all", "one"])
def test_least_at_every_thread_count(n_anchors, tied):
    # 20 queries take the least-count pass: as float64 distances, as codes,
    # and one query alone. Against 920 anchors they are work enough for
    # three threads.
    dist = rows(200, n_anchors, tied, 5)
    codes, distinct = _row_ranks(dist)
    counts = _prob_counts(codes, distinct)
    queries = rows(20, n_anchors, tied, 6)
    table = HalfspaceProbTable(counts, n=200)
    for query in (queries, _row_ranks(queries)[0], queries[:1]):
        at_every_thread_count(lambda: _min_counts(table, query))


def test_least_takes_a_second_thread_only_when_its_work_pays(baseline_core):
    # A refinement step's one query against 300 anchors stays on the calling
    # thread; the 10 queries of a depth-jiggle op against 920 anchors take a
    # second when two CPUs are allowed, and no third when three are.
    library, kernels = baseline_core
    started = ctypes.c_int64.in_dll(library, "threads_started")
    for m, n_anchors, threads, more in ((1, 300, 2, 0), (10, 920, 2, 1), (10, 920, 3, 1)):
        query = np.zeros((m, n_anchors), np.uint16)
        counts = np.zeros((n_anchors, n_anchors), np.uint8)
        at = np.empty(m, np.int64)
        started.value = 0
        with kernel_threads(threads):
            kernels["least_u16_u8"](query.ctypes.data, m, n_anchors, counts.ctypes.data,
                                    at.ctypes.data)
        assert started.value == more, (m, n_anchors, threads)


def test_depths_take_a_second_thread_only_when_their_work_pays(baseline_core):
    # A call of one group, as depth_ranks makes, stays on the calling thread
    # however many CPUs are allowed, even one of 200 among 240, whose work
    # alone would pay for more. The permutation tests' calls of 100 groups
    # of 30, among 90 (a Kruskal-Wallis test of three groups of 30) and
    # among 60 (a pairwise Wilcoxon test), take a second thread when two
    # CPUs are allowed, and no third when three are.
    library, kernels = baseline_core
    started = ctypes.c_int64.in_dll(library, "threads_started")
    rng = np.random.default_rng(2)
    for n_refs, m, total, threads, more in ((1, 30, 90, 3, 0), (1, 200, 240, 3, 0),
                                            (100, 30, 90, 2, 1), (100, 30, 90, 3, 1),
                                            (100, 30, 60, 2, 1), (100, 30, 60, 3, 1)):
        codes = np.argsort(rng.random((total, total)), axis=1).astype(np.uint8)
        refs = np.stack([rng.permutation(total)[:m] for _ in range(n_refs)])
        out = np.empty((n_refs, total), np.uint8)
        started.value = 0
        with kernel_threads(threads):
            kernels["depths_u8_u8"](codes.ctypes.data, total, refs.ctypes.data, n_refs, m, True,
                                    out.ctypes.data)
        assert started.value == more, (n_refs, m, total, threads)


def sort_queries(n_anchors, seed):
    """Queries enough for the sort and scan: the float64 rows of
    ``_FEW_QUERIES`` fresh points and their codes."""
    dist = np.random.default_rng(seed).random((depth._FEW_QUERIES, n_anchors))
    return dist, _row_ranks(dist)[0]


@settings(max_examples=60, deadline=None)
@given(n_anchors=st.sampled_from([1, 2, 63, 64, 65, 255, 256, 257]),
       n=st.sampled_from([40, 260]), tied=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pair_sort_equals_numpy(n_anchors, n, tied, seed):
    # 40 sample rows take uint8 counts and 260 uint16 ones. The sample's own
    # codes, the deepest points among them, and fresh points take the sort
    # and scan, to the numpy body's pairs at 1, 2 and 3 threads.
    dist = np.random.default_rng(seed).random((n, n_anchors))
    if tied and n_anchors > 1:
        dist[:, n_anchors // 2:] = dist[:, :n_anchors - n_anchors // 2]
    codes, distinct = _row_ranks(dist)
    counts = _prob_counts(codes, distinct)
    assert counts.dtype == (np.uint8 if n == 40 else np.uint16)
    table = HalfspaceProbTable(counts, n=n, codes=codes)
    for query in (codes, *sort_queries(n_anchors, seed)):
        at_every_thread_count(lambda: _min_counts(table, query))


def test_jiggled_table_sorts_by_blocks_on_two_threads():
    # A 230 x 920 jiggled spd:2 table, as in a jiggle:3 query depth, takes
    # uint8 counts and is large enough for the sort to take blocks of 64
    # rows, the last one partial, on two threads; one thread sorts it as one
    # block. Three threads, more than the reference host's cores, meet their
    # blocks' least pair maxima in one atomic minimum. Each gives the numpy
    # body's pairs to the sample's codes and to fresh points.
    space = SPD(2)
    sample = random_points(space, 230, np.random.default_rng(7))
    anchors = jiggle_anchors(space, sample, 3, seed=7).points
    codes, distinct = _row_ranks(space.distance_matrix(sample, anchors))
    counts = _prob_counts(codes, distinct)
    assert counts.shape == (920, 920) and counts.dtype == np.uint8
    table = HalfspaceProbTable(counts, n=230, codes=codes)
    for query in (codes, *sort_queries(920, 7)):
        at_every_thread_count(lambda: _min_counts(table, query))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_pair_sort_bins_every_count_of_a_table_past_n(dtype):
    # A table given by its counts alone may hold counts past n; the
    # histograms are sized by the greatest count, so the compiled sort
    # still reads none past its bins and gives the numpy body's pairs.
    counts = np.random.default_rng(3).integers(0, 200, size=(300, 300)).astype(dtype)
    table = HalfspaceProbTable(counts, n=5)
    for query in sort_queries(300, 3):
        at_every_thread_count(lambda: _min_counts(table, query))


def test_many_one_query_scans_agree_with_one_batch():
    # A refinement step scans one query, on the calling thread; a batch of
    # the same queries may take every thread, to the same first hits.
    dist = rows(300, 513, "none", 3)
    codes, distinct = _row_ranks(dist)
    table = HalfspaceProbTable(_prob_counts(codes, distinct), n=300, codes=codes)
    queries = rows(40, 513, "none", 4)
    with kernel_threads(3):
        batch = _min_counts(table, queries)
        single = [_min_counts(table, queries[j:j + 1]) for j in range(len(queries))]
    for part, whole in zip(zip(*single), batch):
        assert np.array_equal(np.concatenate(part), whole)


def test_limit_threads_caps_the_thread_count():
    with _native.limit_threads(1):
        assert _native.threads() == 1
        with _native.limit_threads(0):
            assert _native.threads() == 1
    with _native.limit_threads(10**6):
        assert _native.threads() == len(os.sched_getaffinity(0))
