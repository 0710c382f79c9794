"""Product of metric spaces with the l2 combination of component distances.

The l2 combination keeps products of geodesic spaces geodesic: a product
path is a geodesic exactly when every component is, run on a common time
scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError, PointValidationError
from .base import Space


@dataclass(frozen=True, repr=False)
class Product(Space):
    components: tuple[Space, ...]
    kind = "product"

    def __post_init__(self):
        if len(self.components) < 2:
            raise GeometryError("product space needs at least 2 components")

    @property
    def intrinsic_dim(self) -> int:
        return sum(c.intrinsic_dim for c in self.components)

    @property
    def spec_string(self) -> str:
        return "product:" + "+".join(c.spec_string for c in self.components)

    @property
    def normal_count(self) -> int:
        return sum(c.normal_count for c in self.components)

    @property
    def pairwise_entries(self) -> bool:
        return all(c.pairwise_entries for c in self.components)

    def _by_component(self, rows, parts: str, check) -> list:
        """Points from ``rows``, each a sequence of one part per component,
        with the parts of each component checked as one column by
        ``check(comp, column)``. A row with the wrong number of parts
        raises before any column is checked."""
        for row in rows:
            if len(row) != len(self.components):
                raise PointValidationError(
                    f"expected {len(self.components)} {parts}, got {len(row)}")
        columns = zip(self.components, zip(*rows))
        return list(zip(*(check(comp, column) for comp, column in columns)))

    def _check_stack(self, rows):
        return self._by_component(rows, "components",
                                  lambda comp, column: comp._check_stack(column))

    def distance_matrix(self, xs, ys):
        # Each component's matrix is a new array of its own, so it is squared
        # and summed in place: the operations of sqrt(d0**2 + d1**2 + ...)
        # with no temporary matrix.
        total = None
        for idx, comp in enumerate(self.components):
            d = comp.distance_matrix([x[idx] for x in xs], [y[idx] for y in ys])
            np.square(d, out=d)
            if total is None:
                total = d
            else:
                total += d
        return np.sqrt(total, out=total)

    def _component_bases(self, bases, idx: int) -> list:
        return [x[idx] for x in bases]

    def exp_many(self, bases, tangents):
        parts = [
            comp.exp_many(self._component_bases(bases, idx), tc)
            for idx, (comp, tc) in enumerate(zip(self.components, tangents))
        ]
        return list(zip(*parts))

    def tangent_coords(self, bases, tangents):
        return np.concatenate([
            comp.tangent_coords(self._component_bases(bases, idx), tc)
            for idx, (comp, tc) in enumerate(zip(self.components, tangents))
        ], axis=1)

    def tangents_from_coords(self, bases, coords):
        coords = np.asarray(coords, dtype=float).reshape(len(bases), self.intrinsic_dim)
        parts = []
        offset = 0
        for idx, comp in enumerate(self.components):
            block = np.ascontiguousarray(coords[:, offset:offset + comp.intrinsic_dim])
            parts.append(comp.tangents_from_coords(self._component_bases(bases, idx), block))
            offset += comp.intrinsic_dim
        return tuple(parts)

    def scale_tangents(self, tangents, s):
        return tuple(comp.scale_tangents(tc, s) for comp, tc in zip(self.components, tangents))

    def _component_scatters(self, scatter) -> list:
        # Scatter: one scalar variance for all components, or one entry
        # (scalar or covariance) per component. A plain number is told
        # apart first, without np.ndim, as jiggling passes one per base.
        if isinstance(scatter, (int, float)) or (
                not isinstance(scatter, (list, tuple)) and np.ndim(scatter) == 0):
            return [scatter] * len(self.components)
        per_comp = list(scatter)
        if len(per_comp) != len(self.components):
            raise GeometryError(
                f"expected {len(self.components)} scatter entries, got {len(per_comp)}"
            )
        return per_comp

    def _by_normals(self, method: str, bases, scatters, normals) -> list:
        """``getattr(comp, method)(bases, scatters, normals)`` of each
        component, on its parts of the bases and scatters; the components
        read a draw's normals in turn."""
        per_base = [self._component_scatters(s) for s in scatters]
        normals = np.asarray(normals, dtype=float)
        parts = []
        offset = 0
        for idx, comp in enumerate(self.components):
            block = normals[:, offset:offset + comp.normal_count]
            parts.append(getattr(comp, method)(self._component_bases(bases, idx),
                                               [sc[idx] for sc in per_base], block))
            offset += comp.normal_count
        return parts

    def normal_tangents(self, bases, scatters, normals):
        return tuple(self._by_normals("normal_tangents", bases, scatters, normals))

    def normal_steps(self, bases, scatters, normals):
        return list(zip(*self._by_normals("normal_steps", bases, scatters, normals)))

    def mean_log(self, x, points, weights=None):
        return tuple(
            comp.mean_log(xc, [p[idx] for p in points], weights)
            for idx, (comp, xc) in enumerate(zip(self.components, x))
        )

    def encode_point(self, x) -> str:
        return "|".join(
            comp.encode_point(xc) for comp, xc in zip(self.components, x)
        )

    def _decode_stack(self, texts):
        return self._by_component([text.split("|") for text in texts],
                                  "'|'-separated components",
                                  lambda comp, column: comp._decode_stack(column))
