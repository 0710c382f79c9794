"""Depth-rank permutation tests for grouped samples.

Observations are scored by their halfspace depth with respect to a
reference group (the reference doubles as sample and anchor set), then
ranked; the two-sample test compares rank sums, the k-sample test
aggregates a classical Kruskal-Wallis statistic over every choice of
reference group. Null distributions come from relabeling permutations with
depths recomputed against each permuted reference, and p-values use the
add-one estimator, which is valid at any permutation count.

A test evaluates all its orders at once: the identity, whose statistic is
the observed one, then one permutation per rep, numpy's
``Generator.permutation`` of the rep's stream (see :mod:`metricdepth.rng`).
The compiled core draws a batch of them in one call, with no
``Generator``; without it, each comes from its own ``Generator``, to the
same orders. The pooled distance matrix is ranked once per test; for a
batch of orders, each permuted reference
group's block of those codes yields its halfspace table, and every pooled
observation's depth count is the least entry of that table over the
anchor pairs the observation admits. The compiled core (``_core.c``) runs
these steps for the whole batch in one call, its groups spread over
threads that start and end within the call: it transposes the pooled
codes once, builds each group's table from its members' codes at its
members, and takes every observation's least admissible count in one
pass over the table's pairs, the observations side by side. Without it,
each group's table is queried as the depth module queries any table, one
reference group at a time: its pairs are count-sorted once, and each
observation scans them to its first admissible pair, whose count is the
same least count. Counts are ranked per row from a histogram, and the
statistics are formed across the batch with each row's floating-point
operations in the order of the one-order formulas, so the statistics and
p-values do not depend on the batching. A batch of
orders holds at most ``depth._CHUNK_ELEMS // 8`` pooled indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _native, depth
from .depth import HalfspaceProbTable, _min_counts, _prob_counts, _row_ranks
from .errors import DataError
from .rng import NS_PERMUTATION, _entropy, derive_rngs
from .spaces import Space

MIN_PERMUTATIONS = 99


@dataclass(frozen=True)
class GroupedSample:
    """Labeled groups of points sharing one space."""

    groups: tuple  # of (label, tuple of points)

    def __post_init__(self):
        if len(self.groups) < 2:
            raise DataError("need at least 2 groups")
        for label, pts in self.groups:
            if len(pts) == 0:
                raise DataError(f"group {label!r} is empty")

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.groups)


@dataclass(frozen=True)
class TestResult:
    test: str
    statistic: float
    p_value: float
    n_permutations: int
    seed: int
    group_labels: tuple
    group_sizes: tuple


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ascending ranks from 1 of a 2-D array of non-negative
    integers, tied values sharing the mean of their ranks, and each row's
    histogram of values, which holds the tie group sizes in ascending order
    of value (with zeros for absent values).

    A value's rank is the number of smaller values in its row plus
    ``0.5 * (ties + 1)``, the arithmetic of a sort-based average rank.
    """
    values = np.asarray(values)
    n_rows = len(values)
    width = int(values.max()) + 1
    offsets = (np.arange(n_rows) * width)[:, None]
    hist = np.bincount((values + offsets).ravel(), minlength=n_rows * width)
    hist = hist.reshape(n_rows, width)
    less = np.cumsum(hist, axis=1) - hist
    ranks = np.take_along_axis(less + 0.5 * (hist + 1), values, axis=1)
    return ranks, hist


def _scalar_squares(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` for each float, squared one at a time as a scalar is.

    The C library's ``pow`` can round a square differently from the
    product ``v * v`` that an array ``** 2`` computes, so the statistics
    would drift by an ulp from those of the one-order formula.
    """
    return (values.astype(object) ** 2).astype(float)


def _pooled_codes(space: Space, pool: tuple) -> tuple[np.ndarray, bool]:
    """Per-row rank codes of the pooled distance matrix, ranked once per
    test, and whether no row ties two entries.

    Any column subset of a row keeps that row's order and ties, so every
    reference group's table and queries can be read off these codes, and
    tie-free pooled rows give tie-free tables.
    """
    dist = space.distance_matrix(pool, pool)
    if np.isnan(dist).any():
        raise DataError("pooled distance matrix contains NaN")
    return _row_ranks(dist)


def _batched_depth_counts(codes: np.ndarray, references: np.ndarray,
                          distinct: bool) -> np.ndarray:
    """Depth counts of every pooled observation w.r.t. each reference group.

    ``codes`` is the (total, total) pooled distance matrix or any per-row
    order-preserving codes of it; ``references`` is an (R, m) array of
    pooled indices, one reference group per row; ``distinct`` states that
    no row of ``codes`` ties two entries (see :func:`depth._prob_counts`).
    Returns (R, total) counts in the narrowest unsigned dtype that holds m:
    each the least table entry over the off-diagonal anchor pairs (a1, a2)
    with code[a1] <= code[a2] in the observation's row, or m (depth 1) for
    a single-member group, which admits no pair.

    Uint8 or uint16 codes with groups of m < 65536 run in the compiled
    kernel when it loads, on the core's thread runner: each thread claims
    the next group until none is left, in a scratch block that the kernel
    allocates for it, and a call takes at most :func:`_native.threads`, one
    per group, and none more than its work pays for. The kernel first
    transposes ``codes`` once for the call. For each group it reads the
    members' codes at the members, (m, m), from their transposed rows,
    builds the table from them, and passes once over the table's pairs
    with the observations in lanes, each keeping the least count among the
    pairs it admits. Anything else queries each group's table as
    :func:`depth.approx_depth` does, the oracle of the kernel: it builds the
    table with :func:`depth._prob_counts`, and :func:`depth._min_counts`
    sorts its pairs by count up to the least pair maximum and scans them to
    each observation's first admissible pair, whose count is the least.
    """
    n_refs, m = references.shape
    total = len(codes)
    count = np.min_scalar_type(m)
    kernel = _native.kernel("depths", codes.dtype, count)
    # The kernel reads the codes at the references unchecked, so it takes
    # only a square matrix and indices inside it; numpy raises on the rest.
    inside = codes.shape == (total, total) and (
        references.size == 0 or 0 <= references.min() <= references.max() < total)
    if kernel is None or not inside:
        out = np.full((n_refs, total), m, dtype=count)
        for row, ref in zip(out, references):
            table = HalfspaceProbTable(_prob_counts(codes[np.ix_(ref, ref)], distinct), n=m)
            row[:] = _min_counts(table, codes[:, ref])[0]
        return out
    codes = np.ascontiguousarray(codes)
    references = np.ascontiguousarray(references, dtype=np.int64)
    out = np.empty((n_refs, total), dtype=count)
    kernel(codes.ctypes.data, total, references.ctypes.data, n_refs, m, distinct,
           out.ctypes.data)
    return out


def depth_ranks(space: Space, reference: Sequence, evaluate_on: Sequence) -> np.ndarray:
    """Average ranks (ascending) of anchored depths w.r.t. the reference."""
    reference = tuple(reference)
    evaluate_on = tuple(evaluate_on)
    if len(reference) == 0:
        raise DataError("reference sample must be non-empty")
    if len(evaluate_on) == 0:
        return np.array([])
    codes, distinct = _pooled_codes(space, reference + evaluate_on)
    nums = _batched_depth_counts(codes, np.arange(len(reference))[None], distinct)
    return _average_ranks(nums[:, len(reference):])[0][0]


def _rank_sum(orders: np.ndarray, codes: np.ndarray, distinct: bool,
              slices: list) -> np.ndarray:
    """Rank sum of each order's second group, with the depths of all pooled
    observations taken against its first group."""
    first, second = (orders[:, s] for s in slices)
    ranks = _average_ranks(_batched_depth_counts(codes, first, distinct))[0]
    return np.take_along_axis(ranks, second, axis=1).sum(axis=1)


def _summed_h(orders: np.ndarray, codes: np.ndarray, distinct: bool,
              slices: list) -> np.ndarray:
    """Tie-corrected Kruskal-Wallis H of each order, summed over the choice
    of reference group; an H whose depths all tie reads 0."""
    total = orders.shape[1]
    members = [orders[:, s] for s in slices]
    mean_rank = (total + 1) / 2.0
    scale = 12.0 / (total * (total + 1))
    ties_max = total**3 - total
    stat = 0.0
    for reference in members:
        ranks, ties = _average_ranks(_batched_depth_counts(codes, reference, distinct))
        h = 0
        for idx in members:
            deviation = np.take_along_axis(ranks, idx, axis=1).mean(axis=1) - mean_rank
            h = h + idx.shape[1] * _scalar_squares(deviation)
        h = scale * h
        correction = 1.0 - np.sum(ties**3 - ties, axis=1) / ties_max
        stat = stat + np.divide(h, correction, out=np.zeros_like(h), where=correction > 0.0)
    return stat


def _order_batches(seed: int, n_permutations: int, total: int,
                   batch: int) -> Iterator[np.ndarray]:
    """A test's orders of ``total`` pooled indices, in (B, total) int64
    batches of at most ``batch``: the identity, then for each rep the
    ``permutation(total)`` of stream ``(seed, NS_PERMUTATION, rep)``.

    The compiled ``orders`` kernel fills a batch's permutations in one call,
    from the stream's entropy words: it runs the ``SeedSequence`` mix,
    seeds and draws PCG64 and shuffles as numpy's ``Generator`` does, so
    the orders are numpy's, bit for bit. Without it, each permutation comes
    from its own ``Generator``.
    """
    kernel = _native.kernel("orders")
    if kernel is None:
        rngs = derive_rngs(seed, NS_PERMUTATION, shape=(n_permutations,))
    else:
        head = np.array(_entropy(seed, (NS_PERMUTATION,)), dtype=np.uint32)
    for lo in range(0, n_permutations + 1, batch):
        orders = np.empty((min(batch, n_permutations + 1 - lo), total), dtype=np.int64)
        start = 0 if lo else 1
        orders[:start] = np.arange(total)
        if kernel is None:
            for order in orders[start:]:
                order[:] = next(rngs).permutation(total)
        else:
            kernel(head.ctypes.data, len(head), lo + start - 1, len(orders) - start, total,
                   orders[start:].ctypes.data)
        yield orders


def _depth_rank_test(test: str, space: Space, labels: tuple, groups: tuple,
                     n_permutations: int, seed: int, statistic: Callable,
                     extremity: Callable | None = None) -> TestResult:
    """A permutation test of ``statistic`` over relabelings of the pooled
    groups.

    ``statistic(orders, codes, distinct, slices)`` maps a (B, total) batch
    of orders to B values, where an order's entries at ``slices[g]`` are
    the pooled indices of permuted group g. Order 0 is the identity and
    order ``rep + 1`` the permutation of stream
    ``(seed, NS_PERMUTATION, rep)``. A permutation is a hit when its
    ``extremity`` (by default the value itself) is at least the observed
    one, and the p-value is the add-one estimate.
    """
    sizes = tuple(len(g) for g in groups)
    if min(sizes) < 2:
        raise DataError("each group needs at least 2 observations")
    if n_permutations < MIN_PERMUTATIONS:
        raise DataError(f"need at least {MIN_PERMUTATIONS} permutations")
    total = sum(sizes)
    codes, distinct = _pooled_codes(space, tuple(p for g in groups for p in g))
    bounds = np.cumsum((0,) + sizes)
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    batch = max(1, depth._CHUNK_ELEMS // 8 // (len(groups) * total))
    stats = np.concatenate([statistic(orders, codes, distinct, slices)
                            for orders in _order_batches(seed, n_permutations, total, batch)])
    extreme = stats if extremity is None else extremity(stats)
    hits = int(np.count_nonzero(extreme[1:] >= extreme[0]))
    return TestResult(test=test, statistic=float(stats[0]),
                      p_value=(1 + hits) / (1 + n_permutations),
                      n_permutations=n_permutations, seed=seed,
                      group_labels=labels, group_sizes=sizes)


def wilcoxon_depth_test(
    space: Space,
    group1: Sequence,
    group2: Sequence,
    n_permutations: int = 999,
    seed: int = 0,
) -> TestResult:
    """Two-sample depth-rank test.

    Depths of the pooled observations are taken with respect to the first
    group; the statistic is the rank sum of the second group, compared
    two-sided (absolute deviation from its null mean) against relabeling
    permutations.
    """
    groups = (tuple(group1), tuple(group2))
    n2, total = len(groups[1]), len(groups[0]) + len(groups[1])
    return _depth_rank_test("wilcoxon", space, ("1", "2"), groups, n_permutations, seed,
                            _rank_sum, lambda s: np.abs(s - n2 * (total + 1) / 2.0))


def kruskal_wallis_depth_test(
    space: Space,
    groups,
    n_permutations: int = 999,
    seed: int = 0,
) -> TestResult:
    """K-sample depth-rank test.

    For each group taken as the reference, the depths of all pooled
    observations are ranked and a Kruskal-Wallis statistic is formed over
    the group labels; the reported statistic sums over reference groups.
    Each statistic is the classical H with tie correction, 0 when all
    depths tie.
    """
    if not isinstance(groups, GroupedSample):
        groups = GroupedSample(tuple(
            (str(i + 1), tuple(pts)) for i, pts in enumerate(groups)
        ))
    return _depth_rank_test("kruskal-wallis", space, groups.labels,
                            tuple(pts for _, pts in groups.groups), n_permutations, seed,
                            _summed_h)
