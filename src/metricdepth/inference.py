"""Depth-rank permutation tests for grouped samples.

Observations are scored by their halfspace depth with respect to a
reference group (the reference doubles as sample and anchor set), then
ranked; the two-sample test compares rank sums, the k-sample test
aggregates a classical Kruskal-Wallis statistic over every choice of
reference group. Null distributions come from relabeling permutations with
depths recomputed against each permuted reference, and p-values use the
add-one estimator, which is valid at any permutation count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .depth import HalfspaceProbTable, _min_counts, _prob_counts, _row_ranks
from .errors import DataError
from .rng import NS_PERMUTATION, derive_rng
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
    """Ascending ranks from 1, tied values sharing the mean of their ranks,
    and the size of each tie group in ascending order of value."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    sizes = np.diff(np.r_[starts, len(values)])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(starts + 0.5 * (sizes + 1), sizes)
    return ranks, sizes


def _pooled_codes(space: Space, pool: tuple) -> np.ndarray:
    """Per-row rank codes of the pooled distance matrix, ranked once per test.

    Any column subset of a row keeps that row's order and ties, so every
    reference group's table and queries can be read off these codes.
    """
    dist = space.distance_matrix(pool, pool)
    if np.isnan(dist).any():
        raise DataError("pooled distance matrix contains NaN")
    return _row_ranks(dist)


def _depth_counts(codes_pool: np.ndarray, reference_idx: np.ndarray) -> np.ndarray:
    """Depth counts of every pooled observation w.r.t. one reference group,
    all read off the pooled distances or their per-row rank codes."""
    sub = codes_pool[np.ix_(reference_idx, reference_idx)]
    table = HalfspaceProbTable(counts=_prob_counts(sub), n=len(reference_idx))
    return _min_counts(table, codes_pool[:, reference_idx])[0]


def depth_ranks(space: Space, reference: Sequence, evaluate_on: Sequence) -> np.ndarray:
    """Average ranks (ascending) of anchored depths w.r.t. the reference."""
    reference = tuple(reference)
    evaluate_on = tuple(evaluate_on)
    if len(reference) == 0:
        raise DataError("reference sample must be non-empty")
    if len(evaluate_on) == 0:
        return np.array([])
    codes = _pooled_codes(space, reference + evaluate_on)
    nums = _depth_counts(codes, np.arange(len(reference)))
    return _average_ranks(nums[len(reference):])[0]


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
    codes = _pooled_codes(space, g1 + g2)
    center = n2 * (total + 1) / 2.0

    def rank_sum(order: np.ndarray) -> tuple[float, np.ndarray]:
        # Depth counts (and hence ranks) are indexed by pooled position;
        # the permuted second group is order[n1:].
        ranks = _average_ranks(_depth_counts(codes, order[:n1]))[0]
        return float(np.sum(ranks[order[n1:]])), ranks

    identity = np.arange(total)
    observed, observed_ranks = rank_sum(identity)
    observed_dev = abs(observed - center)
    hits = 0
    for rep in range(n_permutations):
        rng = derive_rng(seed, NS_PERMUTATION, rep)
        stat, _ = rank_sum(rng.permutation(total))
        if abs(stat - center) >= observed_dev:
            hits += 1
    p_value = (1 + hits) / (1 + n_permutations)
    return TestResult(
        test="wilcoxon",
        statistic=observed,
        p_value=p_value,
        n_permutations=n_permutations,
        seed=seed,
        group_labels=("1", "2"),
        group_sizes=(n1, n2),
        depth_ranks=observed_ranks,
    )


def _kw_statistic(values: np.ndarray, slices: list[np.ndarray]) -> float:
    """Classical Kruskal-Wallis H with tie correction; 0 when all tied."""
    total = len(values)
    ranks, tie_counts = _average_ranks(values)
    mean_rank = (total + 1) / 2.0
    h = 12.0 / (total * (total + 1)) * sum(
        len(idx) * (ranks[idx].mean() - mean_rank) ** 2 for idx in slices
    )
    correction = 1.0 - np.sum(tie_counts**3 - tie_counts) / (total**3 - total)
    if correction <= 0.0:
        return 0.0
    return float(h / correction)


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
    codes = _pooled_codes(space, pool)
    bounds = np.cumsum((0,) + sizes)
    member_slices = [np.arange(bounds[g], bounds[g + 1]) for g in range(len(sizes))]

    def statistic(order: np.ndarray) -> tuple[float, np.ndarray]:
        # Depth counts are indexed by pooled position; permuted group g
        # holds the observations order[member_slices[g]].
        all_counts = np.empty((len(sizes), total))
        stat = 0.0
        permuted_slices = [order[s] for s in member_slices]
        for g in range(len(sizes)):
            counts = _depth_counts(codes, permuted_slices[g])
            all_counts[g] = counts
            stat += _kw_statistic(counts, permuted_slices)
        return stat, all_counts

    identity = np.arange(total)
    observed, observed_counts = statistic(identity)
    hits = 0
    for rep in range(n_permutations):
        rng = derive_rng(seed, NS_PERMUTATION, rep)
        stat, _ = statistic(rng.permutation(total))
        if stat >= observed:
            hits += 1
    p_value = (1 + hits) / (1 + n_permutations)
    observed_ranks = np.vstack([_average_ranks(row)[0] for row in observed_counts])
    return TestResult(
        test="kruskal-wallis",
        statistic=observed,
        p_value=p_value,
        n_permutations=n_permutations,
        seed=seed,
        group_labels=groups.labels,
        group_sizes=sizes,
        depth_ranks=observed_ranks,
    )
