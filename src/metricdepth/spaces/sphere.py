"""Unit sphere S^m embedded in R^(m+1) with the great-arc distance.

``distance_matrix`` takes each pair (x, y) to ``2 atan2(||x - y||, ||x + y||)``,
which for unit vectors is their angle, accurate at every angle (Kahan, "How
Futile are Mindless Assessments of Roundoff in Floating-Point Computation?",
2006), where ``arccos(x . y)`` loses half its digits near 0 and pi. Both
norms are Euclidean distances over the m + 1 coordinates, by
:func:`~metricdepth.spaces.euclidean.norms` on y and on -y (x - (-y) is
exactly x + y); numpy's ``arctan2`` and a doubling finish both. So an entry
depends on its own pair alone, not on the call's shape, the other rows or
columns, or a BLAS library, and the matrix is exactly symmetric (x - y and
y - x differ only in sign) with an exact 0 between equal points. Each norm
errs by at most about (m + 5)/2 eps relative, eps = 2**-52, so a distance d
errs from the angle between x / ||x|| and y / ||y|| by at most about
(m + 5)/2 eps sin(d), plus numpy's arctan2 error of a few ulp(d), plus
|(||x|| - ||y||)|, which the unit-norm rows of validated points keep within
a few eps. The tests hold the first two terms at twice that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import GeometryError, UndefinedLogError
from .base import (
    ANTIPODAL_TOL,
    Space,
    TangentVector,
    _normalized_weights,
    float_stack,
    frozen_view,
    readonly,
    reject_flagged,
)
from .euclidean import norms

UNIT_NORM_TOL = 1e-6
# Distances run in row chunks of at most this many pairs, so that a chunk's
# two (rows, nb) float64 norm planes, 256 KB each, stay in a core's L2
# cache, as spd:2's eigenvalue planes do.
_PLANE_ELEMS = 1 << 15


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, the same float as ``np.linalg.norm(row)``
    (both take the BLAS dot product; an ``axis=`` norm sums in another order)."""
    return np.sqrt(np.vecdot(a, a))


@dataclass(frozen=True, repr=False)
class Sphere(Space):
    """S^m: unit vectors in R^(m+1); d(x, y) = 2 atan2(||x - y||, ||x + y||),
    their angle, as the module docstring computes it."""

    dim: int  # intrinsic dimension m
    kind = "sphere"

    def __post_init__(self):
        if self.dim < 1:
            raise GeometryError("sphere dimension must be >= 1")

    @property
    def intrinsic_dim(self) -> int:
        return self.dim

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1

    @property
    def spec_string(self) -> str:
        return f"sphere:{self.dim}"

    def _check_stack(self, rows):
        size = self.ambient_dim
        stack = float_stack(
            rows, (size,), lambda shape: math.prod(shape) == size,
            lambda shape: f"expected ambient vector of length {size}, got shape {shape}",
        )
        reject_flagged(~np.isfinite(stack).all(axis=1),
                       lambda i: "point has non-finite entries")
        norms = _row_norms(stack)
        reject_flagged(np.abs(norms - 1.0) > UNIT_NORM_TOL,
                       lambda i: f"vector norm {norms[i]:.9g} is not within "
                                 f"{UNIT_NORM_TOL:g} of 1")
        return list(readonly(stack / norms[:, None]))

    def _stack(self, points: Sequence) -> np.ndarray:
        return np.asarray(points, dtype=float).reshape(len(points), self.ambient_dim)

    def stack(self, points):
        return frozen_view(self._stack(points))

    def distance_matrix(self, xs, ys):
        """d(x, y) for every x of ``xs`` (rows) and y of ``ys`` (columns), by
        the formula of the module docstring, in row chunks of at most
        ``_PLANE_ELEMS`` pairs."""
        x = np.ascontiguousarray(self._stack(xs))
        y = np.ascontiguousarray(self._stack(ys).T)
        negated = np.negative(y)
        na, nb = len(x), y.shape[1]
        out = np.empty((na, nb))
        step = max(1, _PLANE_ELEMS // max(nb, 1))
        plus = np.empty((min(step, na), nb))
        for lo in range(0, na, step):
            hi = min(lo + step, na)
            minus = norms(x[lo:hi], y, out[lo:hi])
            sums = norms(x[lo:hi], negated, plus[:hi - lo])
            np.arctan2(minus, sums, out=minus)
            np.multiply(minus, 2.0, out=minus)
        return out

    def exp_many(self, bases, tangents):
        x = self._stack(bases)
        coords = np.asarray(tangents, dtype=float).reshape(x.shape)
        norm = _row_norms(coords)[:, None]
        still = norm == 0.0
        norm = np.where(still, 1.0, norm)
        out = np.cos(norm) * x + np.sin(norm) * coords / norm
        out = np.where(still, x, out / _row_norms(out)[:, None])
        return list(readonly(out))

    def _tangent_bases(self, bases) -> np.ndarray:
        """Deterministic orthonormal bases of the tangent hyperplanes.

        Slice ``i`` of the returned ``(N, m+1, m)`` stack completes
        ``bases[i]`` to an orthonormal frame (the Householder reflection
        mapping e1 to it; the identity at e1 itself).
        """
        eye = np.eye(self.ambient_dim)
        w = self._stack(bases) - eye[0]
        wnorm = _row_norms(w)[:, None]
        at_e1 = wnorm < 1e-14
        w = w / np.where(at_e1, 1.0, wnorm)
        frame = eye - 2.0 * (w[:, :, None] * w[:, None, :])
        frame = np.where(at_e1[:, :, None], eye, frame)
        return frame[:, :, 1:]

    def tangent_coords(self, v: TangentVector) -> np.ndarray:
        return self._tangent_bases([v.base])[0].T @ np.asarray(v.coords, float)

    def tangents_from_coords(self, bases, coords):
        # Each row needs its own (m+1, m+1) frame, so rows are taken in chunks
        # that keep every frame temporary under depth._CHUNK_ELEMS // 8
        # elements; rows do not interact, so the chunking changes no bit.
        from ..depth import _CHUNK_ELEMS

        x = self._stack(bases)
        coords = np.asarray(coords, dtype=float).reshape(len(x), self.dim, 1)
        out = np.empty((len(x), self.ambient_dim))
        step = max(1, _CHUNK_ELEMS // 8 // self.ambient_dim**2)
        for lo in range(0, len(x), step):
            frames = self._tangent_bases(x[lo:lo + step])
            out[lo:lo + step] = np.matmul(frames, coords[lo:lo + step])[:, :, 0]
        return out

    def tangent_norm(self, v: TangentVector) -> float:
        # Ambient representation is already orthonormal.
        return float(np.linalg.norm(v.coords))

    def mean_log(self, x, points, weights=None):
        # The angle in the atan2 form of the module docstring, so the log of
        # x at x is exactly 0, where arccos(x . x) need not be.
        w = _normalized_weights(weights, len(points))
        x = np.asarray(x, float)
        pts = self._stack(points)
        cosines = np.clip(pts @ x, -1.0, 1.0)
        theta = 2.0 * np.arctan2(_row_norms(pts - x), _row_norms(pts + x))
        if np.any(theta > np.pi - ANTIPODAL_TOL):
            raise UndefinedLogError(
                "log map undefined for (nearly) antipodal points on the sphere"
            )
        residual = pts - cosines[:, None] * x
        rnorm = np.linalg.norm(residual, axis=1)
        scale = np.where(rnorm > 0, theta / np.maximum(rnorm, 1e-300), 0.0)
        return TangentVector(base=x, coords=(w * scale) @ residual)
