"""Unit sphere S^m embedded in R^(m+1) with the great-arc distance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import GeometryError, PointValidationError, UndefinedLogError
from .base import ANTIPODAL_TOL, Space, TangentVector, _normalized_weights, readonly

UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True, repr=False)
class Sphere(Space):
    """S^m: unit vectors in R^(m+1); d(x, y) = arccos(x . y)."""

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

    def validate_point(self, raw):
        x = np.asarray(raw, dtype=float).reshape(-1)
        if x.shape != (self.ambient_dim,):
            raise PointValidationError(
                f"expected ambient vector of length {self.ambient_dim}, "
                f"got shape {np.shape(raw)}"
            )
        if not np.all(np.isfinite(x)):
            raise PointValidationError("point has non-finite entries")
        norm = np.linalg.norm(x)
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise PointValidationError(f"vector norm {norm:.9g} is not within "
                                       f"{UNIT_NORM_TOL:g} of 1")
        return readonly(x / norm)

    def _stack(self, points: Sequence) -> np.ndarray:
        return np.asarray(points, dtype=float).reshape(len(points), self.ambient_dim)

    def distance_matrix(self, xs, ys):
        grams = self._stack(xs) @ self._stack(ys).T
        return np.arccos(np.clip(grams, -1.0, 1.0))

    def exp(self, x, v: TangentVector):
        x = np.asarray(x, float)
        coords = np.asarray(v.coords, float)
        norm = np.linalg.norm(coords)
        if norm == 0.0:
            return readonly(x)
        out = np.cos(norm) * x + np.sin(norm) * coords / norm
        return readonly(out / np.linalg.norm(out))

    def log(self, x, y) -> TangentVector:
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        theta = float(np.arccos(np.clip(x @ y, -1.0, 1.0)))
        if theta > np.pi - ANTIPODAL_TOL:
            raise UndefinedLogError(
                "log map undefined for (nearly) antipodal points on the sphere"
            )
        residual = y - (x @ y) * x
        rnorm = np.linalg.norm(residual)
        if rnorm == 0.0:
            return TangentVector(base=x, coords=np.zeros(self.ambient_dim))
        return TangentVector(base=x, coords=theta * residual / rnorm)

    def tangent_basis(self, x) -> np.ndarray:
        """Deterministic orthonormal basis of the tangent hyperplane at ``x``.

        Columns of the returned ``(m+1, m)`` matrix complete ``x`` to an
        orthonormal frame (Householder reflection mapping e1 to x).
        """
        x = np.asarray(x, float)
        e1 = np.zeros(self.ambient_dim)
        e1[0] = 1.0
        w = x - e1
        wnorm = np.linalg.norm(w)
        if wnorm < 1e-14:
            frame = np.eye(self.ambient_dim)
        else:
            w = w / wnorm
            frame = np.eye(self.ambient_dim) - 2.0 * np.outer(w, w)
        return frame[:, 1:]

    def tangent_coords(self, v: TangentVector) -> np.ndarray:
        return self.tangent_basis(v.base).T @ np.asarray(v.coords, float)

    def tangent_from_coords(self, x, coords) -> TangentVector:
        coords = np.asarray(coords, dtype=float).reshape(self.dim)
        return TangentVector(base=x, coords=self.tangent_basis(x) @ coords)

    def tangent_norm(self, v: TangentVector) -> float:
        # Ambient representation is already orthonormal.
        return float(np.linalg.norm(v.coords))

    def scale_tangent(self, v: TangentVector, s: float) -> TangentVector:
        return TangentVector(base=v.base, coords=s * np.asarray(v.coords, float))

    def mean_log(self, x, points, weights=None):
        w = _normalized_weights(weights, len(points))
        x = np.asarray(x, float)
        pts = self._stack(points)
        cosines = np.clip(pts @ x, -1.0, 1.0)
        theta = np.arccos(cosines)
        if np.any(theta > np.pi - ANTIPODAL_TOL):
            raise UndefinedLogError(
                "log map undefined for (nearly) antipodal points on the sphere"
            )
        residual = pts - cosines[:, None] * x
        rnorm = np.linalg.norm(residual, axis=1)
        scale = np.where(rnorm > 0, theta / np.maximum(rnorm, 1e-300), 0.0)
        return TangentVector(base=x, coords=(w * scale) @ residual)

    def encode_point(self, x) -> str:
        return ",".join(repr(float(c)) for c in np.asarray(x, float))

    def decode_point(self, text: str):
        try:
            values = [float(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise PointValidationError(f"bad sphere row: {text!r}") from exc
        return self.validate_point(values)
