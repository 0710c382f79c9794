"""Flat Euclidean geometry on R^m.

``distance_matrix`` takes each pair (x, y) to ``||x - y||`` by :func:`norms`,
the compiled ``norms`` kernel of ``_core.c`` or its numpy body, bit for bit:
the square root of the squared differences summed over the m coordinates in
order, from zero, with no fused multiply-add. So an entry depends on its own
pair alone, not on the call's shape, the other rows or columns, or a BLAS
library; the matrix is exactly symmetric (x - y and y - x differ only in
sign) with an exact 0 between equal points; and each entry has the bits of
scipy's ``cdist``, which sums in the same order. While no square overflows
or falls below the normal range, an entry errs by at most about
(m + 4)/2 eps relative, eps = 2**-52, which the tests hold at twice that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import _native
from ..errors import GeometryError
from .base import (
    Space,
    _normalized_weights,
    float_stack,
    frozen_view,
    readonly,
    reject_flagged,
)


def norms(x, y, out=None) -> np.ndarray:
    """``||x_a - y_b||`` into the C-contiguous (rows, nb) float64 ``out``
    (new when None), which is returned, for the (rows, dim) points ``x`` and
    the (dim, nb) coordinate planes ``y``: by the compiled ``norms`` kernel
    or by this numpy body, one elementwise IEEE operation per kernel step,
    so both agree bit for bit, and both pass NaN and inf on without a
    warning."""
    x = np.ascontiguousarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if out is None:
        out = np.empty((len(x), y.shape[1]))
    # The kernel reads and writes these shapes unchecked.
    if (x.shape[1:] != y.shape[:1] or out.shape != (len(x), y.shape[1]) or out.dtype != float
            or not (out.flags.c_contiguous and out.flags.writeable)):
        raise ValueError("norms takes (rows, dim) x, (dim, nb) y and a writable C-contiguous out")
    kernel = _native.kernel("norms", np.float64)
    if kernel is not None:
        kernel(x.ctypes.data, len(x), y.ctypes.data, y.shape[1], x.shape[1], out.ctypes.data)
        return out
    out.fill(0.0)
    term = np.empty_like(out)
    with np.errstate(all="ignore"):
        for xk, yk in zip(x.T, y):
            np.subtract.outer(xk, yk, out=term)
            np.multiply(term, term, out=term)
            np.add(out, term, out=out)
        np.sqrt(out, out=out)
    return out


@dataclass(frozen=True, repr=False)
class Euclidean(Space):
    dim: int
    kind = "euclidean"
    pairwise_entries = True

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
        return norms(self._stack(xs), self._stack(ys).T)

    def exp_many(self, bases, tangents):
        return list(readonly(self._stack(bases) + tangents))

    def tangent_coords(self, bases, tangents):
        return np.asarray(tangents, dtype=float).reshape(len(bases), self.dim)

    def tangents_from_coords(self, bases, coords):
        return np.asarray(coords, dtype=float).reshape(len(bases), self.dim)

    def mean_log(self, x, points, weights=None):
        w = _normalized_weights(weights, len(points))
        diff = self._stack(points) - np.asarray(x, float)
        return (w @ diff)[None]
