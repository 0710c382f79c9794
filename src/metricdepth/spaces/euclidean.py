"""Flat Euclidean geometry on R^m."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import GeometryError
from .base import (
    Space,
    TangentVector,
    _normalized_weights,
    float_stack,
    frozen_view,
    readonly,
    reject_flagged,
)


@dataclass(frozen=True, repr=False)
class Euclidean(Space):
    dim: int
    kind = "euclidean"

    def __post_init__(self):
        if self.dim < 1:
            raise GeometryError("euclidean dimension must be >= 1")

    @property
    def intrinsic_dim(self) -> int:
        return self.dim

    @property
    def spec_string(self) -> str:
        return f"euclidean:{self.dim}"

    def _check_stack(self, rows):
        stack = float_stack(
            rows, (self.dim,), lambda shape: math.prod(shape) == self.dim,
            lambda shape: f"expected vector of length {self.dim}, got shape {shape}",
        )
        reject_flagged(~np.isfinite(stack).all(axis=1),
                       lambda i: "point has non-finite entries")
        return list(readonly(stack))

    def _stack(self, points: Sequence) -> np.ndarray:
        return np.asarray(points, dtype=float).reshape(len(points), self.dim)

    def stack(self, points):
        return frozen_view(self._stack(points))

    def distance_matrix(self, xs, ys):
        # Squared differences summed one coordinate at a time, in order, so
        # every pair sees the same float operations whatever the matrix
        # shape: the result is exactly symmetric with an exact zero
        # diagonal, and bit-identical to scipy's cdist. A broadcast
        # (n, m, dim) sum would round differently at dim >= 8 (numpy sums
        # pairwise) and hold dim times the memory.
        a = self._stack(xs)
        b = self._stack(ys)
        total = np.zeros((len(a), len(b)))
        diff = np.empty_like(total)
        for k in range(self.dim):
            np.subtract.outer(a[:, k], b[:, k], out=diff)
            np.multiply(diff, diff, out=diff)
            total += diff
        return np.sqrt(total, out=total)

    def exp_many(self, bases, tangents):
        return list(readonly(self._stack(bases) + tangents))

    def tangent_coords(self, v: TangentVector) -> np.ndarray:
        return np.asarray(v.coords, dtype=float)

    def tangents_from_coords(self, bases, coords):
        return np.asarray(coords, dtype=float).reshape(len(bases), self.dim)

    def mean_log(self, x, points, weights=None):
        w = _normalized_weights(weights, len(points))
        diff = self._stack(points) - np.asarray(x, float)
        return TangentVector(base=x, coords=w @ diff)
