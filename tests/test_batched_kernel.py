"""The batched depth counts of the permutation tests against the dense
brute-force reference, one reference group at a time.

``dense_min_counts`` takes a table built by comparing the codes directly
(``brute_counts``), so each check covers the batched table build and the
masked minimum together. Codes come from a small palette so rows tie
heavily; group sizes cover the smallest groups and the switch of the
count dtype from uint8 to uint16, and a lowered element cap forces every
chunk boundary.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdepth import depth
from metricdepth.inference import _batched_depth_counts

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


@st.composite
def pooled_cases(draw):
    total = draw(st.integers(2, 14))
    size = draw(st.integers(1, total))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = tied_codes(rng, total, draw(st.integers(1, 4)))
    return codes, random_references(rng, total, size, draw(st.integers(1, 5)))


@settings(max_examples=200, deadline=None)
@given(pooled_cases())
def test_batched_counts_match_dense_on_tied_codes(case):
    codes, references = case
    got = _batched_depth_counts(codes, references)
    assert got.dtype == np.min_scalar_type(references.shape[1])
    assert np.array_equal(got, reference_counts(codes, references))


def test_smallest_groups_match_dense():
    rng = np.random.default_rng(7)
    for size in (2, 3):
        for palette in (1, 2, 5):
            codes = tied_codes(rng, 9, palette)
            references = random_references(rng, 9, size, 6)
            assert np.array_equal(_batched_depth_counts(codes, references),
                                  reference_counts(codes, references))


def test_single_member_group_has_full_count():
    codes = tied_codes(np.random.default_rng(1), 5, 3)
    assert _batched_depth_counts(codes, np.array([[2], [4]])).tolist() == [[1] * 5] * 2


def test_group_sizes_across_the_count_dtype_switch():
    rng = np.random.default_rng(11)
    for size in (254, 255, 256):
        total = size + 3
        codes = tied_codes(rng, total, 3)
        references = random_references(rng, total, size, 2)
        got = _batched_depth_counts(codes, references)
        assert got.dtype == (np.uint8 if size <= 255 else np.uint16)
        assert np.array_equal(got, reference_counts(codes, references))


@settings(max_examples=100, deadline=None)
@given(pooled_cases(), st.integers(0, 400))
def test_batched_counts_match_dense_across_chunk_boundaries(case, cap):
    # A tiny element cap splits references, queries and first anchors
    # into chunks down to a single element each.
    codes, references = case
    saved = depth._CHUNK_ELEMS
    depth._CHUNK_ELEMS = cap
    try:
        got = _batched_depth_counts(codes, references)
    finally:
        depth._CHUNK_ELEMS = saved
    assert np.array_equal(got, reference_counts(codes, references))
