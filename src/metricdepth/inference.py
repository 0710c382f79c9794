"""Depth-rank permutation tests for grouped samples.

Observations are scored by their halfspace depth with respect to a
reference group (the reference doubles as sample and anchor set), then
ranked; the two-sample test compares rank sums, the k-sample test
aggregates a classical Kruskal-Wallis statistic over every choice of
reference group. Null distributions come from relabeling permutations with
depths recomputed against each permuted reference, and p-values use the
add-one estimator, which is valid at any permutation count.

A test evaluates all its orders at once: the identity, whose statistic is
the observed one, then one permutation per rep. The pooled distance matrix
is ranked once per test; for a batch of orders, each permuted reference
group's block of those codes yields its halfspace table, and every pooled
observation's depth count is a dense masked minimum of that table over the
anchor pairs the observation admits. Counts are ranked per row from a
histogram, and the statistics are formed across the batch with each row's
floating-point operations in the order of the one-order formulas, so the
statistics and p-values do not depend on the batching. Batches keep every
temporary at or under ``depth._CHUNK_ELEMS // 8`` elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import depth
from .depth import _distinct_rows, _prob_counts, _row_ranks
from .errors import DataError
from .rng import NS_PERMUTATION, derive_rngs
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

    @property
    def sizes(self) -> tuple:
        return tuple(len(pts) for _, pts in self.groups)

    def pooled(self) -> tuple:
        return tuple(p for _, pts in self.groups for p in pts)


@dataclass(frozen=True)
class TestResult:
    test: str
    statistic: float
    p_value: float
    n_permutations: int
    seed: int
    group_labels: tuple
    group_sizes: tuple
    depth_ranks: np.ndarray = field(repr=False)


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
    codes = _row_ranks(dist)
    return codes, _distinct_rows(codes)


def _batched_depth_counts(codes: np.ndarray, references: np.ndarray,
                          distinct: bool) -> np.ndarray:
    """Depth counts of every pooled observation w.r.t. each reference group.

    ``codes`` is the (total, total) pooled distance matrix or any per-row
    order-preserving codes of it; ``references`` is an (R, m) array of
    pooled indices, one reference group per row; ``distinct`` states that
    no row of ``codes`` ties two entries (see :func:`depth._prob_counts`).
    Returns (R, total) counts in the narrowest unsigned dtype that holds m.

    Each count is the least table entry over the off-diagonal anchor pairs
    (a1, a2) with code[a1] <= code[a2] in the observation's row. Flags of
    admissible pairs minus 1 are 0 and of the others the dtype maximum, so
    OR-ing them with the table and taking the minimum reads the admissible
    entries only. The diagonal needs no mask: it holds m, which bounds
    every count, and a single-member group, with no admissible pair, keeps
    count m (depth 1) by convention. Each batch's member codes are gathered
    rows first and references last, the layout :func:`depth._prob_counts`
    takes, so its tables are read as built: anchor pair first, in the
    narrowest dtype that holds m. Every temporary keeps the anchor pair
    axes first, so each elementwise pass runs over all references and
    queries of a chunk at once. References, then queries, then first
    anchors are taken in chunks so that no temporary exceeds
    ``depth._CHUNK_ELEMS // 8`` elements.
    """
    n_refs, m = references.shape
    total = len(codes)
    cap = depth._CHUNK_ELEMS // 8
    batch = max(1, cap // (total * m * m))
    queries = max(1, min(total, cap // (m * m)))
    anchors = max(1, min(m, cap // m))
    out = np.full((n_refs, total), m, dtype=np.min_scalar_type(m))
    for lo in range(0, n_refs, batch):
        ref = references[lo:lo + batch]
        # Member codes [i, j, b] = codes[ref[b, i], ref[b, j]] give table[a1, a2, b, 0].
        table = _prob_counts(codes[ref.T[:, None, :], ref.T[None, :, :]], distinct)[..., None]
        for q0 in range(0, total, queries):
            # q[j, b, y] = codes[q0 + y, ref[b, j]]
            q = np.ascontiguousarray(codes[q0:q0 + queries][:, ref].transpose(2, 1, 0))
            best = out[lo:lo + batch, q0:q0 + queries]
            for a0 in range(0, m, anchors):
                admissible = q[a0:a0 + anchors, None] <= q[None]
                masked = np.subtract(admissible, 1, dtype=table.dtype)
                masked |= table[a0:a0 + anchors]
                np.minimum(best, masked.min(axis=(0, 1)), out=best)
    return out


def _permutation_statistics(
    statistic: Callable, total: int, n_permutations: int, seed: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """``statistic`` over every order of a test, in batches of orders.

    Order 0 is the identity and order ``rep + 1`` is the permutation of
    stream ``(seed, NS_PERMUTATION, rep)``. ``statistic`` maps a (B, total)
    batch of orders to B statistics and B depth-rank arrays of ``width``
    rows each. Returns all P + 1 statistics and the identity's ranks.
    """
    batch = max(1, depth._CHUNK_ELEMS // 8 // (width * total))
    rngs = derive_rngs(seed, NS_PERMUTATION, shape=(n_permutations,))
    values, observed_ranks = [], None
    for lo in range(0, n_permutations + 1, batch):
        orders = np.stack([
            next(rngs).permutation(total) if i else np.arange(total)
            for i in range(lo, min(lo + batch, n_permutations + 1))
        ])
        stats, ranks = statistic(orders)
        values.append(stats)
        if observed_ranks is None:
            observed_ranks = ranks[0]
    return np.concatenate(values), observed_ranks


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
    g1 = tuple(group1)
    g2 = tuple(group2)
    if len(g1) < 2 or len(g2) < 2:
        raise DataError("each group needs at least 2 observations")
    if n_permutations < MIN_PERMUTATIONS:
        raise DataError(f"need at least {MIN_PERMUTATIONS} permutations")
    n1, n2 = len(g1), len(g2)
    total = n1 + n2
    codes, distinct = _pooled_codes(space, g1 + g2)
    center = n2 * (total + 1) / 2.0

    def rank_sums(orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Depth counts (and hence ranks) are indexed by pooled position;
        # the permuted second group is orders[:, n1:].
        ranks = _average_ranks(_batched_depth_counts(codes, orders[:, :n1], distinct))[0]
        return np.take_along_axis(ranks, orders[:, n1:], axis=1).sum(axis=1), ranks

    stats, observed_ranks = _permutation_statistics(rank_sums, total, n_permutations, seed, 1)
    deviations = np.abs(stats - center)
    hits = int(np.count_nonzero(deviations[1:] >= deviations[0]))
    p_value = (1 + hits) / (1 + n_permutations)
    return TestResult(
        test="wilcoxon",
        statistic=float(stats[0]),
        p_value=p_value,
        n_permutations=n_permutations,
        seed=seed,
        group_labels=("1", "2"),
        group_sizes=(n1, n2),
        depth_ranks=observed_ranks,
    )


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
    sizes = groups.sizes
    if min(sizes) < 2:
        raise DataError("each group needs at least 2 observations")
    if n_permutations < MIN_PERMUTATIONS:
        raise DataError(f"need at least {MIN_PERMUTATIONS} permutations")
    pool = groups.pooled()
    total = len(pool)
    codes, distinct = _pooled_codes(space, pool)
    bounds = np.cumsum((0,) + sizes)
    member_slices = [slice(bounds[g], bounds[g + 1]) for g in range(len(sizes))]
    mean_rank = (total + 1) / 2.0
    scale = 12.0 / (total * (total + 1))
    ties_max = total**3 - total

    def statistics(orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Depth counts are indexed by pooled position; permuted group g
        # holds the observations orders[:, member_slices[g]].
        members = [orders[:, s] for s in member_slices]
        stat = 0.0
        all_ranks = []
        for reference in members:
            ranks, ties = _average_ranks(_batched_depth_counts(codes, reference, distinct))
            h = 0
            for idx in members:
                deviation = np.take_along_axis(ranks, idx, axis=1).mean(axis=1) - mean_rank
                h = h + idx.shape[1] * _scalar_squares(deviation)
            h = scale * h
            correction = 1.0 - np.sum(ties**3 - ties, axis=1) / ties_max
            stat = stat + np.divide(h, correction, out=np.zeros_like(h), where=correction > 0.0)
            all_ranks.append(ranks)
        return stat, np.stack(all_ranks, axis=1)

    stats, observed_ranks = _permutation_statistics(
        statistics, total, n_permutations, seed, len(sizes))
    hits = int(np.count_nonzero(stats[1:] >= stats[0]))
    p_value = (1 + hits) / (1 + n_permutations)
    return TestResult(
        test="kruskal-wallis",
        statistic=float(stats[0]),
        p_value=p_value,
        n_permutations=n_permutations,
        seed=seed,
        group_labels=groups.labels,
        group_sizes=sizes,
        depth_ranks=observed_ranks,
    )
