"""The 3-spider: three half-lines glued at a common origin.

Points carry (radius, branch) coordinates with branch in {1, 2, 3}; all
points with radius 0 are the same origin (branch label canonicalized to 1).
Geodesics within a branch are line segments; between branches they pass
through the origin, so d(x, y) = |a1 - a2| on a shared branch and a1 + a2
otherwise. This is a geodesic space but not a manifold: the origin has no
linear neighborhood, so tangent steps carry an explicit branch to continue
on when a step crosses the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import GeometryError, PointValidationError
from .base import Space, _normalized_weights

BRANCHES = (1, 2, 3)
# Phi^-1(2/3), correctly rounded: the upper tertile of N(0, 1).
_TERTILE = 0.4307272992954575


@dataclass(frozen=True)
class SpiderPoint:
    radius: float
    branch: int


@dataclass(frozen=True)
class SpiderStep:
    """Signed move along the current branch.

    Negative movement beyond the origin continues onto ``cross_branch``.
    A step leaving the origin itself moves onto ``cross_branch`` regardless
    of sign.
    """

    delta: float
    cross_branch: int


def _alternate_branch(branch: int) -> int:
    return min(b for b in BRANCHES if b != branch)


@dataclass(frozen=True, repr=False)
class Spider3(Space):
    kind = "spider3"
    pairwise_entries = True

    @property
    def intrinsic_dim(self) -> int:
        return 1

    @property
    def normal_count(self) -> int:
        # The step's normal and the branch's; see normal_tangents.
        return 2

    @property
    def spec_string(self) -> str:
        return "spider3"

    def _check_stack(self, rows):
        return [self._validated(raw) for raw in rows]

    def _validated(self, raw) -> SpiderPoint:
        if isinstance(raw, SpiderPoint):
            radius, branch = raw.radius, raw.branch
        else:
            try:
                radius, branch = raw
            except (TypeError, ValueError) as exc:
                raise PointValidationError(
                    f"expected (radius, branch), got {raw!r}"
                ) from exc
        radius = float(radius)
        branch = int(branch)
        if not np.isfinite(radius) or radius < 0:
            raise PointValidationError(f"radius must be finite and >= 0, got {radius}")
        if branch not in BRANCHES:
            raise PointValidationError(f"branch must be one of {BRANCHES}, got {branch}")
        if radius == 0.0:
            branch = 1  # all zero-radius labels name the same origin
        return SpiderPoint(radius=radius, branch=branch)

    def _stack(self, points: Sequence) -> tuple[np.ndarray, np.ndarray]:
        radii = np.array([p.radius for p in points], dtype=float)
        branches = np.array([p.branch for p in points], dtype=np.int64)
        return radii, branches

    def distance_matrix(self, xs, ys):
        ra, ba = self._stack(xs)
        rb, bb = self._stack(ys)
        same = ba[:, None] == bb[None, :]
        return np.where(same, np.abs(ra[:, None] - rb[None, :]), ra[:, None] + rb[None, :])

    def exp_many(self, bases, tangents):
        return [self._exp_step(x, step) for x, step in zip(bases, tangents)]

    def _exp_step(self, x: SpiderPoint, step: SpiderStep) -> SpiderPoint:
        if x.radius == 0.0:
            return self._validated((abs(step.delta), step.cross_branch))
        s = x.radius + step.delta
        if s >= 0.0:
            return self._validated((s, x.branch))
        return self._validated((-s, step.cross_branch))

    def tangent_coords(self, bases, tangents):
        return np.array([step.delta for step in tangents], dtype=float).reshape(len(bases), 1)

    def tangents_from_coords(self, bases, coords):
        deltas = np.asarray(coords, dtype=float).reshape(len(bases))
        return tuple(
            SpiderStep(float(d), _alternate_branch(x.branch)) for x, d in zip(bases, deltas)
        )

    def tangent_norms(self, bases, tangents):
        return np.array([abs(step.delta) for step in tangents], dtype=float)

    def scale_tangents(self, tangents, s):
        return tuple(SpiderStep(s * step.delta, step.cross_branch) for step in tangents)

    def normal_tangents(self, bases, scatters, normals):
        # Column 0, scaled, is the step. Column 1 picks the branch a step
        # crossing the origin continues on: at the origin each of the three
        # with probability 1/3, by the tertiles of N(0, 1), and elsewhere
        # either of the other two by its sign.
        normals = np.asarray(normals, dtype=float).reshape(len(bases), 2)
        deltas = np.sqrt([self._variance(s) for s in scatters]) * normals[:, 0]
        z = normals[:, 1]
        radii, branches = self._stack(bases)
        at_origin = 1 + (z >= -_TERTILE) + (z > _TERTILE)
        lower = np.where(branches == 1, 2, 1)
        higher = np.where(branches == 3, 2, 3)
        cross = np.where(radii == 0.0, at_origin, np.where(z < 0, lower, higher))
        return tuple(SpiderStep(float(d), int(c)) for d, c in zip(deltas, cross))

    @staticmethod
    def _variance(scatter) -> float:
        scatter = np.asarray(scatter, dtype=float)
        if scatter.shape not in ((), (1,), (1, 1)):
            raise GeometryError(
                f"spider scatter must be a scalar variance, got shape {scatter.shape}"
            )
        var = float(scatter.reshape(-1)[0])
        if var < 0:
            raise GeometryError("scatter variance must be nonnegative")
        return var

    def mean_log(self, x, points, weights=None):
        """Descent direction for intrinsic means/medians on the spider.

        On a branch this is the weighted mean of signed log steps; if the
        mean step crosses the origin (or the base is the origin), the
        continuation branch is the one with maximal weighted pull.
        """
        w = _normalized_weights(weights, len(points))
        radii, branches = self._stack(points)
        pull = {b: float(np.sum(w[branches == b] * radii[branches == b])) for b in BRANCHES}
        if x.radius == 0.0:
            best = max(BRANCHES, key=lambda b: (pull[b], -b))
            rest = sum(pull.values()) - pull[best]
            delta = max(pull[best] - rest, 0.0)
            return (SpiderStep(delta, best),)
        same = branches == x.branch
        deltas = np.where(same, radii - x.radius, -(x.radius + radii))
        others = [b for b in BRANCHES if b != x.branch]
        cross = max(others, key=lambda b: (pull[b], -b))
        return (SpiderStep(float(w @ deltas), cross),)

    def encode_point(self, x) -> str:
        return f"{x.branch},{repr(float(x.radius))}"

    def _parse(self, text: str):
        parts = text.split(",")
        if len(parts) != 2:
            raise PointValidationError(f"bad spider3 row (want 'branch,radius'): {text!r}")
        try:
            branch = int(parts[0])
            radius = float(parts[1])
        except ValueError as exc:
            raise PointValidationError(f"bad spider3 row: {text!r}") from exc
        return radius, branch
