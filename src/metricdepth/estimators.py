"""Location estimators: intrinsic mean, intrinsic median, and the
halfspace-depth median, plus the geodesic distance depth baseline.

The intrinsic (Frechet) mean minimizes the mean squared geodesic distance
to the sample and is fit by Riemannian gradient descent; the intrinsic
median minimizes the mean geodesic distance via a manifold Weiszfeld
iteration. Both start from the best sample point, use unit steps halved on
any objective increase, and stop when the applied update norm drops below
``tol``. The depth median chains anchor jiggling, the in-sample deepest
point, and stochastic refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .depth import (
    halfspace_prob_table,
    in_sample_deepest,
    jiggle_anchors,
    median_pairwise_distance,
    refine_deepest,
)
from .errors import DataError, GeometryError, MetricDepthError, NumericalError
from .rng import NS_REFINE, derive_draw32
from .spaces import Space

WEISZFELD_GUARD = 1e-9
MAX_STEP_HALVINGS = 40
ESTIMATORS = ("mhd", "fm", "gdd")


@dataclass(frozen=True)
class EstimatorResult:
    """A fitted location estimate. ``converged`` is whether an iterative
    fit met its stopping test, or None for a fit that has no such test,
    such as the depth median, whose refinement always runs its whole
    budget (``iterations``)."""

    point: object
    objective: float
    iterations: int
    converged: bool | None
    extras: dict = field(default_factory=dict)


def _mean_objective(space, x, sample):
    return float(np.mean(space.distance_matrix([x], sample)))


def _descent(space, sample, points, tol, max_iter, objective, direction):
    """Shared loop for the mean and median: step along ``direction`` with
    halving on objective increase; ``converged`` means the last applied
    update was shorter than ``tol``, or that ``direction`` returned None,
    which states that the current point is a minimizer and ends the loop
    without a step. ``points`` is ``space.stack(sample)``,
    which every distance call reads. ``direction`` gets the distances from
    the current point to the sample: the accepted trial's row, or None on
    the first iteration, where a direction that reads them makes a one-row
    call of its own, since spd k >= 3 entries of the n x n start matrix,
    alone or in a product, can differ in their last bits from it; every
    other geometry's entries depend on their own pair alone."""
    if len(sample) == 0:
        raise GeometryError("sample must be non-empty")
    dist = space.distance_matrix(points, points)
    objs = objective(dist)
    current = float(objs.min())
    if not np.isfinite(current):
        # Every objective is NaN when a sample point is: argmin would pick
        # the first point and no step would ever be accepted.
        raise NumericalError(f"objective is not finite ({current}) on the sample; "
                             "its distances hold NaN or inf")
    x = sample[int(np.argmin(objs))]
    row = None
    last_update = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        try:
            v = direction(x, dist=row)
        except MetricDepthError as exc:
            raise NumericalError(
                f"{exc}; try an initial point deeper inside the data"
            ) from exc
        if v is None:
            last_update = 0.0
            break
        vnorm = float(space.tangent_norms([x], v)[0])
        step = 1.0
        accepted = False
        for _ in range(MAX_STEP_HALVINGS):
            trial = space.exp_many([x], space.scale_tangents(v, step))[0]
            trial_row = space.distance_matrix([trial], points)
            trial_obj = float(objective(trial_row)[0])
            if trial_obj <= current:
                x, current, row = trial, trial_obj, trial_row[0]
                last_update = step * vnorm
                accepted = True
                break
            step *= 0.5
        if not accepted:
            last_update = step * vnorm
            break
        if last_update < tol:
            break
    return x, current, iterations, last_update < tol


def frechet_mean(space: Space, sample: Sequence, tol: float = 1e-8,
                 max_iter: int = 200) -> EstimatorResult:
    """Minimizer of the mean squared geodesic distance to the sample."""

    def objective(dist):
        return np.mean(np.asarray(dist) ** 2, axis=-1)

    def direction(x, dist):
        return space.mean_log(x, points)

    sample = tuple(sample)
    points = space.stack(sample)
    x, obj, iters, converged = _descent(space, sample, points, tol, max_iter, objective,
                                        direction)
    grad_norm = float(space.tangent_norms([x], space.mean_log(x, points))[0])
    return EstimatorResult(point=x, objective=obj, iterations=iters,
                           converged=converged, extras={"grad_norm": grad_norm})


def frechet_median(space: Space, sample: Sequence, tol: float = 1e-8,
                   max_iter: int = 200) -> EstimatorResult:
    """Minimizer of the mean geodesic distance (manifold Weiszfeld).

    Sample points within ``WEISZFELD_GUARD`` of the current point count as
    coincident and get weight 0, the modified Weiszfeld step of Vardi and
    Zhang (2000): the fit starts at a sample point, whose own weight would
    otherwise swamp the step. By their rule the current point is the median,
    and the fit stops there, when the coincident count is at least the norm
    of the other points' pull, the sum of ``log_x(y) / d(x, y)``."""

    def objective(dist):
        return np.mean(np.asarray(dist), axis=-1)

    def direction(x, dist):
        if dist is None:
            dist = space.distance_matrix([x], points)[0]
        far = dist > WEISZFELD_GUARD
        if not far.any():
            return None
        weights = np.divide(1.0, dist, out=np.zeros_like(dist), where=far)
        v = space.mean_log(x, points, weights=weights)
        # mean_log divides the weighted sum of logs by the weights' sum.
        pull = space.tangent_norms([x], v)[0] * weights.sum()
        return None if np.count_nonzero(~far) >= pull else v

    sample = tuple(sample)
    points = space.stack(sample)
    x, obj, iters, converged = _descent(space, sample, points, tol, max_iter, objective,
                                        direction)
    return EstimatorResult(point=x, objective=obj, iterations=iters, converged=converged)


def geodesic_distance_depth(space: Space, sample: Sequence, y) -> float:
    """exp(-mean geodesic distance to the sample); in (0, 1], maximal where
    the intrinsic median sits."""
    sample = tuple(sample)
    if len(sample) == 0:
        raise GeometryError("sample must be non-empty")
    return float(np.exp(-_mean_objective(space, y, sample)))


def mhd_median(
    space: Space,
    sample: Sequence,
    jiggle_k: int = 10,
    radius_frac: float = 0.1,
    budget: int = 64,
    seed: int = 0,
) -> EstimatorResult:
    """Halfspace-depth median: jiggled anchors, in-sample deepest point,
    then local stochastic refinement. ``objective`` is the final
    approximate depth; extras carry the exact count and the contamination
    breakdown lower bound."""
    sample = space.stack(sample)
    if len(sample) == 0:
        raise GeometryError("sample must be non-empty")
    effective_k = jiggle_k if len(sample) >= 2 else 0
    # Jiggling and refinement both scale their steps by the median pairwise
    # distance; it takes a full n x n distance matrix, so it is made once,
    # and only when a step reads it.
    spread = None
    if len(sample) >= 2 and radius_frac > 0 and (effective_k > 0 or budget > 0):
        spread = median_pairwise_distance(space, sample)
    anchors = jiggle_anchors(space, sample, effective_k, radius_frac, seed, spread=spread)
    table = halfspace_prob_table(space, sample, anchors)
    start, _, start_idx = in_sample_deepest(space, sample, anchors, table=table)
    point, depth = refine_deepest(
        space, sample, anchors, start, budget,
        derive_draw32(seed, NS_REFINE), radius_frac, table, spread,
    )
    return EstimatorResult(
        point=point,
        objective=float(depth),
        iterations=budget,
        converged=None,
        extras={
            "depth_num": depth.numerator * (table.n // depth.denominator),
            "depth_den": table.n,
            "start_index": start_idx,
            "breakdown_lower_bound": float(breakdown_lower_bound(depth)),
        },
    )


def fit_estimator(name: str, space: Space, sample: Sequence, jiggle_k: int,
                  radius_frac: float, budget: int, seed: int) -> EstimatorResult:
    """Fit the estimator named in ``ESTIMATORS``: mhd = depth median,
    fm = intrinsic mean, gdd = intrinsic median. Only the depth median
    reads the jiggle, budget and seed settings."""
    if name == "mhd":
        return mhd_median(space, sample, jiggle_k=jiggle_k, radius_frac=radius_frac,
                          budget=budget, seed=seed)
    if name == "fm":
        return frechet_mean(space, sample)
    if name == "gdd":
        return frechet_median(space, sample)
    raise DataError(f"unknown estimator {name!r}")


def breakdown_lower_bound(depth_at_median):
    """Contamination fraction certified not to carry the depth median away:
    D / (1 + D) for depth D at the median. Exact for Fraction input."""
    if isinstance(depth_at_median, Fraction):
        d = depth_at_median
    else:
        d = float(depth_at_median)
    if not 0 <= d <= 1:
        raise GeometryError("depth must lie in [0, 1]")
    return d / (1 + d)
