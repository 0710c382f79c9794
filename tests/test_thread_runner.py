"""The compiled ranks, table build and scan on the core's thread runner.

Each call runs at 1, 2 and 3 threads, whatever the host's CPU count, and
must give the same codes and tie flag, the same counts in the same dtype,
and the same first-hit pairs at every count, equal to the numpy bodies of
their entry points. Shapes cross the work threshold below which a call
stays on the calling thread (a 200 x 17 ranking stays there; 600 x 920
runs on every thread it is given), the table's tiles of 512 columns and
blocks of 16 first anchors (n_A = 17, 513, 920), the uint8/uint16 switch
of the codes (n_A = 300) and of the counts (n = 200, 600), and rows with
and without ties, including a single tied row, whose flag every unit's
rows must clear.
"""

import os

import numpy as np
import pytest

from metricdepth import _native
from metricdepth.depth import HalfspaceProbTable, _min_counts, _prob_counts, _row_ranks

from conftest import kernel_threads, numpy_kernels

ANCHORS = [1, 17, 300, 513, 920]
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
