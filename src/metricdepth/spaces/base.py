"""Metric-space abstraction.

A :class:`Space` bundles a point format with the operations every other
module consumes: distance matrices, stacked exponential maps and mean
logs, tangent charts and norms, Gaussian tangent sampling, point
validation, and CSV point encoding.
Concrete geometries live in sibling modules; all of them are immutable and
all operations are pure functions of their inputs (RNG state is passed in
explicitly).

Each geometry has one distance implementation, :meth:`Space.distance_matrix`.
Depth counts are exact because every comparison ``d(X_i, a1) <= d(X_i, a2)``
sees the same float whichever call computed it; a single pair is the 1 x 1
matrix ``distance_matrix([x], [y])[0, 0]``. A geometry whose entries
depend on their own pair alone, not on the call's shape or on the other
rows and columns, declares :attr:`Space.pairwise_entries`; any sub-call
of it, such as a block of rows or one row, then gives the bits of the same
sub-matrix of a larger call, and callers may measure several points in
one call where they would make one call per point.

Every tangent operation is stacked: it works on N bases at once, and a
stack of one is the one-point call, so a point jiggled or sampled in a
batch is bit-identical to the same point made alone. Each geometry has one
exponential map, :meth:`Space.exp_many`, one chart-to-tangent map,
:meth:`Space.tangents_from_coords`, and its inverse,
:meth:`Space.tangent_coords`, whose row norms are the Riemannian norms
(:meth:`Space.tangent_norms`). :meth:`Space.normal_tangents` draws Gaussian
tangents, and :meth:`Space.normal_steps` pushes them through the
exponential map in one call, so that SPD matrices decompose each base once
for both maps. :meth:`Space.mean_log`, the weighted mean of logs that the
intrinsic mean and median descend along, returns a stack of one tangent.
A Gaussian tangent's draw is ``standard_normal(normal_count)`` of its
stream, and N such draws are one (N, normal_count) array, so callers can
draw all N streams at once. On the vector and matrix geometries the
:attr:`Space.normal_count` normals are the chart normals, which
:meth:`Space.normal_tangents` scales (:func:`scaled_normals`, the one
place where a scatter meets the normals) and maps to tangents. The spider
reads two: the first, scaled, is the step, and the second picks by
comparisons alone the branch a step crossing the origin continues on. A
product's components read a draw's normals in turn.
A stack of N tangents is an (N, ...) array for the vector and matrix
geometries, a tuple of N steps for the spider, and a tuple of component
stacks for products. The defaults on :class:`Space` that touch a tangent
stack (the Gaussian draw, scaling, norms) or a point (the CSV encoding)
assume arrays; only the spider and products override them.

:meth:`Space.stack` turns a sequence of points into the form its
geometry's kernels read without another copy: a read-only (N, ...) array
for the vector and matrix geometries, a tuple of the points otherwise.
Every method that takes a sequence of points accepts it, and the values
it computes are the same as from the points, bit for bit. Callers that
pass one point set to many calls, such as refinement and the intrinsic
mean and median, stack it once.

Points are checked the same way. Each geometry states its checks once,
as one stacked check (``_check_stack``) that normalizes N raw points or
raises at the first problem it sees. :meth:`Space.validate_points` runs
it on the whole stack, and :meth:`Space.decode_points` parses N CSV rows
(``_parse``) and runs it on them; :meth:`Space.validate_point` and
:meth:`Space.decode_point` read one point off them. Only a stack that
fails is checked again, in halves, the first half first
(:func:`checked_in_halves`), so the error raised is the one the first bad
point gets alone, with the same message, tagged with that point's index
(``row``). A valid stack costs one check; a failing one about three
stacked passes and about 2 log2(N) + 1 checks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from ..errors import GeometryError, PointValidationError

ANTIPODAL_TOL = 1e-9


class Space(ABC):
    """Common interface of all supported geometries."""

    kind: str
    # Whether each distance depends on its own pair alone; see the module
    # docstring. A class property of each geometry, false unless declared.
    pairwise_entries = False

    @property
    @abstractmethod
    def intrinsic_dim(self) -> int:
        """Dimension of the tangent chart at any point."""

    @property
    def normal_count(self) -> int:
        """Standard normals one Gaussian tangent reads; see the module
        docstring."""
        return self.intrinsic_dim

    @property
    @abstractmethod
    def spec_string(self) -> str:
        """``kind:param`` form understood by :func:`metricdepth.spaces.parse_space`."""

    @abstractmethod
    def _check_stack(self, rows: Sequence) -> list:
        """Normalize N raw points, or raise ``PointValidationError`` for a
        bad one (not necessarily the first)."""

    def validate_points(self, rows: Sequence) -> list:
        """Normalize N raw points, or raise ``PointValidationError`` for the
        first bad one, its index in ``row``."""
        return checked_in_halves(rows, self._check_stack)

    def validate_point(self, raw) -> Any:
        """Normalize raw input into a point, or raise ``PointValidationError``."""
        return self.validate_points([raw])[0]

    def stack(self, points: Sequence) -> Sequence:
        """``points`` in the form the kernels read; see the module docstring."""
        return tuple(points)

    @abstractmethod
    def distance_matrix(self, xs: Sequence, ys: Sequence) -> np.ndarray:
        """All pairwise distances, shape ``(len(xs), len(ys))``."""

    @abstractmethod
    def exp_many(self, bases: Sequence, tangents) -> list:
        """Endpoints of the geodesics leaving ``bases[i]`` with initial
        vectors ``tangents[i]``, for a stack of N tangents at N bases."""

    @abstractmethod
    def tangent_coords(self, bases: Sequence, tangents) -> np.ndarray:
        """(N, intrinsic_dim) coordinates of a stack of N tangents, row ``i``
        in the orthonormal chart at ``bases[i]``; inverse of
        :meth:`tangents_from_coords`."""

    @abstractmethod
    def tangents_from_coords(self, bases: Sequence, coords: np.ndarray):
        """Stack of N tangents from (N, intrinsic_dim) chart coordinates,
        row ``i`` in the chart at ``bases[i]``."""

    def tangent_norms(self, bases: Sequence, tangents) -> np.ndarray:
        """Riemannian norms of a stack of N tangents; the norm of
        ``mean_log(x, [y])`` is the distance from ``x`` to ``y``."""
        return row_norms(self.tangent_coords(bases, tangents))

    def scale_tangents(self, tangents, s: float):
        """A stack of tangents, each stretched by ``s``."""
        return s * np.asarray(tangents, dtype=float)

    def normal_tangents(self, bases: Sequence, scatters: Sequence, normals: np.ndarray):
        """Stack of zero-mean Gaussian tangents, one per base, whose draws are
        the rows of ``normals``, (N, normal_count) standard normals.

        Tangent ``i`` lies in the orthonormal chart at ``bases[i]`` with
        scatter ``scatters[i]``: an isotropic variance (scalar, may be 0) or
        a full covariance matrix over the chart coordinates.
        """
        return self.tangents_from_coords(bases, scaled_normals(scatters, normals))

    def normal_steps(self, bases: Sequence, scatters: Sequence, normals: np.ndarray) -> list:
        """Endpoints of the Gaussian tangents of :meth:`normal_tangents`,
        ``exp_many(bases, normal_tangents(bases, scatters, normals))``, bit
        for bit; a geometry whose two calls share work at the bases does it
        once."""
        return self.exp_many(bases, self.normal_tangents(bases, scatters, normals))

    @abstractmethod
    def mean_log(self, x, points: Sequence, weights=None):
        """Weighted mean of ``log(x, p)`` over ``points`` (weights normalized),
        as a stack of one tangent at ``x``; ``mean_log(x, [y])`` is the
        initial vector of the geodesic from ``x`` to ``y``.

        This is the update direction of intrinsic gradient-descent and
        Weiszfeld iterations.
        """

    def encode_point(self, x) -> str:
        """CSV row encoding of a point: its entries in row-major order."""
        return ",".join(repr(float(c)) for c in np.asarray(x, float).reshape(-1))

    def _parse(self, text: str):
        """Raw point of one CSV row, for :meth:`_check_stack`."""
        try:
            return [float(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise PointValidationError(f"bad {self.kind} row: {text!r}") from exc

    def _decode_stack(self, texts: Sequence[str]) -> list:
        """Points of N CSV rows, checked as :meth:`_check_stack` checks."""
        return self._check_stack([self._parse(text) for text in texts])

    def decode_points(self, texts: Sequence[str]) -> list:
        """Parse N :meth:`encode_point` rows into validated points, or raise
        ``PointValidationError`` for the first bad row, its index in ``row``."""
        return checked_in_halves(texts, self._decode_stack)

    def decode_point(self, text: str) -> Any:
        """Parse :meth:`encode_point` output back into a validated point."""
        return self.decode_points([text])[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.spec_string!r})"


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, the same float as ``np.linalg.norm(row)``
    (both take the BLAS dot product; an ``axis=`` norm sums in another order)."""
    return np.sqrt(np.vecdot(a, a))


def scaled_normals(scatters: Sequence, normals: np.ndarray) -> np.ndarray:
    """N(0, scatters[i]) chart coordinates from row i of (N, dim) standard
    normals.

    A scalar scatter is a variance, whose square root scales the row; a
    matrix scatter is a covariance (symmetric positive semi-definite,
    factored through an eigendecomposition so a zero scatter degenerates
    cleanly to the zero vector), whose root multiplies it. Rows of
    variances are scaled all at once, each row as it would be alone.
    """
    normals = np.asarray(normals, dtype=float)
    try:
        var = np.asarray(scatters, dtype=float)
    except ValueError:  # scatters of different shapes
        var = None
    if var is not None and var.shape == normals.shape[:1]:
        if (var < 0).any():
            raise GeometryError("scatter variance must be nonnegative")
        return np.sqrt(var)[:, None] * normals
    dim = normals.shape[1]
    rows = []
    for scatter, z in zip(scatters, normals):
        scatter = np.asarray(scatter, dtype=float)
        if scatter.ndim == 0:
            rows.append(scaled_normals([scatter], z[None])[0])
            continue
        if scatter.shape != (dim, dim):
            raise GeometryError(
                f"scatter covariance must be {dim}x{dim}, got {scatter.shape}"
            )
        sym = 0.5 * (scatter + scatter.T)
        eigval, eigvec = np.linalg.eigh(sym)
        if np.min(eigval) < -1e-10:
            raise GeometryError("scatter covariance must be positive semi-definite")
        root = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
        rows.append(root @ z)
    return np.array(rows, dtype=float).reshape(normals.shape)


def _normalized_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise GeometryError(f"expected {n} weights, got shape {w.shape}")
    total = w.sum()
    if total <= 0:
        raise GeometryError("weights must have positive total mass")
    return w / total


def readonly(arr: np.ndarray) -> np.ndarray:
    """Own and freeze an array; validated points are immutable by contract."""
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def checked_in_halves(rows: Sequence, check, offset: int = 0) -> list:
    """``check(rows)``, or if that raises, ``check`` run on each half of
    ``rows`` in turn, recursively, so that a failure raises from a check of
    the first bad row alone, with its index (plus ``offset``) in ``row``.

    A ``ValueError`` that is not a ``PointValidationError`` (raw points of
    different shapes, which do not stack) is split the same way, and the
    pieces that stack are checked together.
    """
    if len(rows) == 0:
        return []
    try:
        return check(rows)
    except ValueError as exc:
        if len(rows) == 1:
            if isinstance(exc, PointValidationError):
                exc.row = offset
            raise
    mid = len(rows) // 2
    return (checked_in_halves(rows[:mid], check, offset)
            + checked_in_halves(rows[mid:], check, offset + mid))


def float_stack(rows: Sequence, shape: tuple, fits, describe) -> np.ndarray:
    """The raw points as one float array of shape ``(N, *shape)``.

    ``fits(raw_shape)`` tells whether a raw point can be reshaped to
    ``shape``, and ``describe(raw_shape)`` words the error for one that
    cannot. Raw points of different shapes raise ``ValueError``.
    """
    stack = np.asarray(rows, dtype=float)
    if not fits(stack.shape[1:]):
        raise PointValidationError(describe(stack.shape[1:]))
    return stack.reshape(len(stack), *shape)


def reject_flagged(bad: np.ndarray, message) -> None:
    """Raise ``PointValidationError(message(i))`` for the first row ``i``
    flagged in ``bad``."""
    if bad.any():
        raise PointValidationError(message(int(np.argmax(bad))))


def frozen_view(arr: np.ndarray) -> np.ndarray:
    """Read-only view of an array, leaving the array itself writeable."""
    out = arr.view()
    out.flags.writeable = False
    return out
