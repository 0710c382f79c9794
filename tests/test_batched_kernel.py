"""The batched depth counts of the permutation tests against the dense
brute-force reference, one reference group at a time.

``dense_min_counts`` takes a table built by comparing the codes directly
(``brute_counts``), so each check covers the table build and the depth
count together, on the compiled kernel or the numpy fallback. The numpy
fallback scans the table's count-sorted pairs to the first hit, and the
kernel passes once over the table's pairs with the observations in lanes,
so this masked minimum over the whole table is the oracle that shares no
code with either. Codes come from a small palette so rows tie heavily;
group sizes cover the smallest groups, the paper's shapes and the switch
of the count dtype from uint8 to uint16, and a lowered element cap forces
every chunk boundary of the numpy table build and scan. The compiled
kernel ignores the cap, so those checks run the numpy bodies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdepth import depth
from metricdepth.inference import _batched_depth_counts

from conftest import distinct_rows, kernel_threads, numpy_kernels
from test_query_kernel import dense_min_counts
from test_table_kernel import brute_counts


def reference_counts(codes, references, queries_per_call=16):
    """Dense reference counts, evaluated a few queries at a time so the
    reference itself stays small at large group sizes."""
    out = []
    for ref in references:
        table = brute_counts(codes[np.ix_(ref, ref)])
        rows = codes[:, ref]
        out.append(np.concatenate([
            dense_min_counts(table, len(ref), rows[lo:lo + queries_per_call])[0]
            for lo in range(0, len(rows), queries_per_call)
        ]))
    return np.array(out)


def tied_codes(rng, total, palette_size):
    return rng.integers(0, palette_size, size=(total, total)).astype(np.uint8)


def random_references(rng, total, size, n_orders):
    return np.stack([rng.permutation(total)[:size] for _ in range(n_orders)])


def distinct_codes(rng, total):
    return np.argsort(rng.random((total, total)), axis=1).astype(np.uint8)


@st.composite
def pooled_cases(draw, distinct=False):
    total = draw(st.integers(2, 14))
    size = draw(st.integers(1, total))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if distinct:
        codes = distinct_codes(rng, total)
    else:
        codes = tied_codes(rng, total, draw(st.integers(1, 4)))
    return codes, random_references(rng, total, size, draw(st.integers(1, 30)))


@settings(max_examples=200, deadline=None)
@given(pooled_cases())
def test_batched_counts_match_dense_on_tied_codes(case):
    codes, references = case
    got = _batched_depth_counts(codes, references, distinct_rows(codes))
    assert got.dtype == np.min_scalar_type(references.shape[1])
    assert np.array_equal(got, reference_counts(codes, references))


@settings(max_examples=100, deadline=None)
@given(pooled_cases(distinct=True), st.integers(0, 400))
def test_batched_counts_match_dense_on_distinct_codes(case, cap):
    # Tie-free pooled rows give tie-free reference tables, which take the
    # upper-triangle path; the cap splits it into blocks of a few anchors.
    # The compiled kernel, which ignores the cap, meets the same case.
    codes, references = case
    assert distinct_rows(codes)
    want = reference_counts(codes, references)
    saved = depth._CHUNK_ELEMS
    depth._CHUNK_ELEMS = cap
    try:
        with numpy_kernels():
            got = _batched_depth_counts(codes, references, True)
    finally:
        depth._CHUNK_ELEMS = saved
    assert np.array_equal(got, want)
    assert np.array_equal(_batched_depth_counts(codes, references, True), want)


@pytest.mark.parametrize("total, m", [(240, 60), (120, 60)])
@pytest.mark.parametrize("tied", [False, True])
def test_paper_shapes_match_dense(total, m, tied):
    # The paper's Kruskal-Wallis test (groups of 60 among 240) and its
    # pairwise follow-ups (60 among 120), on one and three threads.
    rng = np.random.default_rng(total + tied)
    codes = tied_codes(rng, total, 4) if tied else distinct_codes(rng, total)
    references = random_references(rng, total, m, 3)
    want = reference_counts(codes, references)
    for threads in (1, 3):
        with kernel_threads(threads):
            got = _batched_depth_counts(codes, references, distinct_rows(codes))
        assert np.array_equal(got, want)


def test_smallest_groups_match_dense():
    rng = np.random.default_rng(7)
    for size in (2, 3):
        for palette in (1, 2, 5):
            codes = tied_codes(rng, 9, palette)
            references = random_references(rng, 9, size, 6)
            got = _batched_depth_counts(codes, references, distinct_rows(codes))
            assert np.array_equal(got, reference_counts(codes, references))


def test_single_member_group_has_full_count():
    codes = tied_codes(np.random.default_rng(1), 5, 3)
    got = _batched_depth_counts(codes, np.array([[2], [4]]), distinct_rows(codes))
    assert got.tolist() == [[1] * 5] * 2


def test_group_sizes_across_the_count_dtype_switch():
    rng = np.random.default_rng(11)
    for size in (254, 255, 256):
        total = size + 3
        codes = tied_codes(rng, total, 3)
        references = random_references(rng, total, size, 2)
        got = _batched_depth_counts(codes, references, distinct_rows(codes))
        assert got.dtype == (np.uint8 if size <= 255 else np.uint16)
        assert np.array_equal(got, reference_counts(codes, references))


@settings(max_examples=100, deadline=None)
@given(pooled_cases(), st.integers(0, 400))
def test_batched_counts_match_dense_across_chunk_boundaries(case, cap):
    # A tiny element cap splits first anchors and scanned pairs into
    # chunks down to a single element each.
    codes, references = case
    saved = depth._CHUNK_ELEMS
    depth._CHUNK_ELEMS = cap
    try:
        with numpy_kernels():
            got = _batched_depth_counts(codes, references, distinct_rows(codes))
    finally:
        depth._CHUNK_ELEMS = saved
    assert np.array_equal(got, reference_counts(codes, references))

