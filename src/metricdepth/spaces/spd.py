"""Symmetric positive-definite k x k matrices with the affine-invariant metric.

d(P, Q) = || logm(P^{-1/2} Q P^{-1/2}) ||_F, which is invariant under
congruence P -> A P A^T for any invertible A (Pennec, Fillard & Ayache,
IJCV 2006). All matrix functions go through symmetric eigendecompositions
(inputs are symmetrized first) for numerical stability.

On spd:2, ``distance_matrix`` takes each pair (P, Q) through one fixed
sequence of IEEE operations. With s = P^{-1/2} from ``eigh``, it forms
t = s Q and W = t s, each entry a sum of two rounded products, and W's
eigenvalues ``mid -+ sqrt(0.25 (w00 - w11)^2 + off^2)``, with
``mid = 0.5 (w00 + w11)`` and ``off = 0.5 (w01 + w10)``, raised to at least
EIG_FLOOR; the distance is ``sqrt(log(lo)^2 + log(hi)^2)``. So an entry
depends on its own pair alone: not on the call's shape, the other rows or
columns, or the BLAS thread count, and the compiled ``spd2`` kernel of
``_core.c`` and its numpy body give the same bits. Equal matrices
(``P == Q``, entry for entry) are exactly 0 apart. A first-order rounding
analysis bounds an entry's error by a small multiple of
eps (cond(P) cond(Q) + d), eps = 2**-52 and cond the 2-norm condition
number: W's entries err by about eps ||s||^2 ||Q|| against a smallest
eigenvalue of at least lambda_min(Q) / lambda_max(P), and each log by
about eps |log lambda|. The tests hold the multiple at 32. The distances
are not exactly symmetric: d(Q, P) whitens by Q instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import _native
from ..errors import GeometryError, NumericalError
from .base import (
    Space,
    _normalized_weights,
    float_stack,
    frozen_view,
    readonly,
    reject_flagged,
    scaled_normals,
)

SYMMETRY_TOL = 1e-6
# Eigenvalues of congruence-whitened products are clipped here before log;
# values this small only arise from rounding of nearly singular inputs.
EIG_FLOOR = 1e-300
# spd:2 distances run in row chunks of at most this many pairs, so that a
# chunk's (rows, nb) float64 planes, 256 KB each, stay in a core's L2
# cache. On a 2-core Xeon (2 MB L2 per core), 230 x 920 spd:2 distances
# took 2.9 ms compiled and 18-20 ms on numpy in chunks of 2**20 pairs, and
# 1.7-2.0 and 10-12 ms in chunks of 2**15.
_PLANE_ELEMS = 1 << 15


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@functools.cache
def _chart_indices(k: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Diagonal and strict upper-triangle indices of a k x k matrix, in
    chart order; computed once per size and shared read-only."""
    diag = np.arange(k)
    iu = np.triu_indices(k, 1)
    for arr in (diag, *iu):
        arr.flags.writeable = False
    return diag, iu


def _sym_apply(p: np.ndarray, fn) -> np.ndarray:
    """Apply ``fn`` to the eigenvalues of a symmetric matrix or a stack."""
    eigval, eigvec = np.linalg.eigh(_sym(p))
    return (eigvec * fn(eigval)[..., None, :]) @ np.swapaxes(eigvec, -1, -2)


def _log_eig_norms(planes: np.ndarray, out: np.ndarray) -> None:
    """Write ``||log(max(eig(W_ab), EIG_FLOOR))||_2`` into ``out[a, b]``.

    ``planes[a, l, i, b] = W_ab[i, l]`` holds a (rows, k, k, nb) batch of
    symmetric matrices, whose eigenvalues ``eigvalsh`` takes.
    """
    eig = np.linalg.eigvalsh(_sym(planes.transpose(0, 3, 2, 1)))
    logs = np.log(np.maximum(eig, EIG_FLOOR))
    out[...] = np.sqrt(np.sum(logs**2, axis=-1))


def _whitened_eigs(p, s, q, lower, upper) -> None:
    """The numpy body of the compiled ``spd2`` kernel, which ``_core.c``
    documents: for (rows, 4) left matrices ``p`` and their inverse square
    roots ``s``, and right matrices ``q`` as four (nb,) entry planes, the
    two eigenvalues of every ``W = (s_a q_b) s_a`` into the (rows, nb)
    planes ``lower`` and ``upper``. Each step is one elementwise IEEE
    operation, in the kernel's order, so both bodies agree bit for bit.
    """
    s00, s01, s10, s11 = (s[:, e, None] for e in range(4))
    q00, q01, q10, q11 = q
    t00, t01 = s00 * q00 + s01 * q10, s00 * q01 + s01 * q11
    t10, t11 = s10 * q00 + s11 * q10, s10 * q01 + s11 * q11
    w00, w01 = t00 * s00 + t01 * s10, t00 * s01 + t01 * s11
    w10, w11 = t10 * s00 + t11 * s10, t10 * s01 + t11 * s11
    del t00, t01, t10, t11
    off, diff, mid = (w01 + w10) * 0.5, w00 - w11, (w00 + w11) * 0.5
    del w00, w01, w10, w11
    rad = np.sqrt(diff * diff * 0.25 + off * off)
    np.maximum(np.subtract(mid, rad, out=diff), EIG_FLOOR, out=lower)
    np.maximum(np.add(mid, rad, out=mid), EIG_FLOOR, out=upper)
    # Pairs equal in their first entry are few; the rest are checked there.
    a, b = np.nonzero(p[:, 0, None] == q00)
    same = (p[a, 1] == q01[b]) & (p[a, 2] == q10[b]) & (p[a, 3] == q11[b])
    lower[a[same], b[same]] = 1.0
    upper[a[same], b[same]] = 1.0


def _distances_2x2(left: np.ndarray, s: np.ndarray, right: np.ndarray) -> np.ndarray:
    """spd:2 distances of every (left, right) pair, ``s`` the left side's
    inverse square roots: the eigenvalues of each whitened pair by the
    ``spd2`` kernel or its numpy body, then their logs, in row chunks of at
    most ``_PLANE_ELEMS`` pairs."""
    na, nb = len(left), len(right)
    p, s = (np.ascontiguousarray(m.reshape(na, 4)) for m in (left, s))
    q = np.ascontiguousarray(right.reshape(nb, 4).T)
    out = np.empty((na, nb))
    step = max(1, _PLANE_ELEMS // max(nb, 1))
    upper = np.empty((min(step, na), nb))
    kernel = _native.kernel("spd2", np.float64)
    for lo in range(0, na, step):
        hi = min(lo + step, na)
        small, large = out[lo:hi], upper[:hi - lo]
        if kernel is None:
            # Like the kernel, the body passes NaN and inf on without a warning.
            with np.errstate(all="ignore"):
                _whitened_eigs(p[lo:hi], s[lo:hi], q, small, large)
        else:
            kernel(p[lo:].ctypes.data, s[lo:].ctypes.data, hi - lo, q.ctypes.data, nb,
                   EIG_FLOOR, small.ctypes.data, large.ctypes.data)
        # Both eigenvalue planes are contiguous, so log runs one vector loop
        # over them whatever the call's shape; the squared logs add as
        # l0^2 + l1^2.
        for logs in (small, large):
            np.log(logs, out=logs)
            np.square(logs, out=logs)
        np.add(small, large, out=small)
        np.sqrt(small, out=small)
    return out


@dataclass(frozen=True, repr=False)
class SPD(Space):
    size: int  # matrix side k
    kind = "spd"

    def __post_init__(self):
        if self.size < 1:
            raise GeometryError("spd matrix size must be >= 1")

    @property
    def intrinsic_dim(self) -> int:
        return self.size * (self.size + 1) // 2

    @property
    def spec_string(self) -> str:
        return f"spd:{self.size}"

    @property
    def pairwise_entries(self) -> bool:
        # Only spd:2 takes one fixed sequence of operations per pair; other
        # sizes whiten by BLAS products over the whole call.
        return self.size == 2

    def _check_stack(self, rows):
        k = self.size
        stack = float_stack(
            rows, (k, k), lambda shape: shape in ((k * k,), (k, k)),
            lambda shape: f"expected {k}x{k} matrix (or flat length {k * k}), got shape {shape}",
        )
        reject_flagged(~np.isfinite(stack).all(axis=(1, 2)),
                       lambda i: "matrix has non-finite entries")
        asym = np.abs(stack - np.swapaxes(stack, 1, 2)).max(axis=(1, 2))
        reject_flagged(asym > SYMMETRY_TOL,
                       lambda i: f"matrix asymmetry {asym[i]:.3g} exceeds {SYMMETRY_TOL:g}")
        stack = _sym(stack)
        try:
            smallest = np.linalg.eigvalsh(stack)[:, 0]
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericalError("eigendecomposition failed") from exc
        reject_flagged(smallest <= 0.0,
                       lambda i: f"matrix is not positive definite "
                                 f"(min eigenvalue {smallest[i]:.3g})")
        return list(readonly(stack))

    def _stack(self, points: Sequence) -> np.ndarray:
        return np.asarray(points, dtype=float).reshape(len(points), self.size, self.size)

    def stack(self, points):
        return frozen_view(self._stack(points))

    def _eigh_pd(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of a (N, k, k) stack, checked positive definite."""
        eigval, eigvec = np.linalg.eigh(_sym(mats))
        if np.min(eigval[..., 0], initial=np.inf) <= 0.0:
            raise GeometryError("matrix is not positive definite")
        return eigval, eigvec

    def _inv_sqrt_stack(self, mats: np.ndarray) -> np.ndarray:
        eigval, eigvec = self._eigh_pd(mats)
        inv_root = eigvec * (eigval ** -0.5)[..., None, :]
        return inv_root @ np.swapaxes(eigvec, -1, -2)

    def distance_matrix(self, xs, ys):
        """d(x, y) for every x of ``xs`` (rows) and y of ``ys`` (columns).

        spd:2 takes the per-pair closed form of the module docstring, with
        its error bound, the same bits at any call shape and BLAS thread
        count, and exact zeros between equal matrices. Other sizes whiten
        every pair by two BLAS products and take ``eigvalsh``; their bits
        may depend on the call's shape.
        """
        left = self._stack(xs)
        right = self._stack(ys)
        s = self._inv_sqrt_stack(left)  # (na, k, k)
        if self.size == 2:
            return _distances_2x2(left, s, right)
        # Whitened products s_a @ q_b @ s_a for every pair, chunked over rows
        # to bound the (chunk, nb, k, k) temporaries.
        na, nb, k = len(left), len(right), self.size
        out = np.empty((na, nb))
        chunk = max(1, int(4e6 // max(nb * k * k, 1)))
        # Two BLAS products, s_a q_b and then (s_a q_b) s_a, in the operand
        # order that einsum's optimize=True path gives "aij,bjk->abik" and
        # "abik,akl->abil": operands swapped, kept and contracted axes fused.
        # Each entry is summed exactly as the einsum calls summed it, so
        # distances keep their bits without a contraction-path search per
        # call. Associating the other way, s_a (q_b s_a), rounds differently.
        # The second product's columns run i-major, [i*nb + b], so each entry
        # (i, l) of the whitened matrices comes out as one (rows, nb) plane
        # for _log_eig_norms to read with contiguous rows.
        right_t = np.swapaxes(right, 1, 2).reshape(nb * k, k)
        for lo in range(0, na, chunk):
            hi = min(lo + chunk, na)
            rows, block = hi - lo, s[lo:hi]
            # Each step rebinds mid, so at most two (rows, nb, k, k) arrays
            # are alive at once.
            mid = right_t @ block.transpose(2, 0, 1).reshape(k, rows * k)
            # [b*k + j, a*k + i] = (s_a q_b)[i, j] -> [a, j, i*nb + b]
            mid = mid.reshape(nb, k, rows, k).transpose(2, 1, 3, 0).reshape(rows, k, k * nb)
            mid = np.swapaxes(block, 1, 2) @ mid  # [a, l, i*nb + b] = W_ab[i, l]
            _log_eig_norms(mid.reshape(rows, k, k, nb), out[lo:hi])
        return out

    def _roots(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Square roots and inverse square roots of a (N, k, k) stack."""
        eigval, eigvec = self._eigh_pd(mats)
        vt = np.swapaxes(eigvec, -1, -2)
        root = (eigvec * np.sqrt(eigval)[..., None, :]) @ vt
        inv_root = (eigvec * (1.0 / np.sqrt(eigval))[..., None, :]) @ vt
        return root, inv_root

    @staticmethod
    def _exp_at(root, inv_root, tangents) -> list:
        """exp of ``tangents`` at the bases whose roots are given."""
        inner = inv_root @ np.asarray(tangents, float) @ inv_root
        return list(readonly(root @ _sym_apply(inner, np.exp) @ root))

    def exp_many(self, bases, tangents):
        return self._exp_at(*self._roots(self._stack(bases)), tangents)

    def _chart_to_sym(self, coords: np.ndarray) -> np.ndarray:
        """Orthonormal chart coords (..., d) -> symmetric matrices (..., k, k)
        (Frobenius-orthonormal basis: diagonal units and (E_ij + E_ji)/sqrt(2))."""
        k = self.size
        diag, iu = _chart_indices(k)
        s = np.zeros(coords.shape[:-1] + (k, k))
        s[..., diag, diag] = coords[..., :k]
        s[..., iu[0], iu[1]] = coords[..., k:] / np.sqrt(2.0)
        s[..., iu[1], iu[0]] = s[..., iu[0], iu[1]]
        return s

    def _sym_to_chart(self, s: np.ndarray) -> np.ndarray:
        _, iu = _chart_indices(self.size)
        return np.concatenate(
            [np.diagonal(s, axis1=-2, axis2=-1), np.sqrt(2.0) * s[..., iu[0], iu[1]]], axis=-1
        )

    def tangent_coords(self, bases, tangents):
        _, inv_root = self._roots(self._stack(bases))
        return self._sym_to_chart(_sym(inv_root @ np.asarray(tangents, float) @ inv_root))

    def _chart_tangents(self, root, coords) -> np.ndarray:
        """Tangents from chart coordinates at the bases whose square roots
        are ``root``."""
        coords = np.asarray(coords, dtype=float).reshape(len(root), self.intrinsic_dim)
        return _sym(root @ self._chart_to_sym(coords) @ root)

    def tangents_from_coords(self, bases, coords):
        root, _ = self._roots(self._stack(bases))
        return self._chart_tangents(root, coords)

    def normal_steps(self, bases, scatters, normals):
        # One eigendecomposition of the bases serves the tangents and the exp.
        root, inv_root = self._roots(self._stack(bases))
        tangents = self._chart_tangents(root, scaled_normals(scatters, normals))
        return self._exp_at(root, inv_root, tangents)

    def mean_log(self, x, points, weights=None):
        w = _normalized_weights(weights, len(points))
        root, inv_root = (r[0] for r in self._roots(self._stack([x])))
        whitened = _sym(np.einsum("ij,njk,kl->nil", inv_root, self._stack(points), inv_root))
        eigval, eigvec = np.linalg.eigh(whitened)
        if np.min(eigval) <= 0.0:
            raise GeometryError("log target is not positive definite")
        logs = (eigvec * np.log(eigval)[..., None, :]) @ np.swapaxes(eigvec, -1, -2)
        mean_inner = np.einsum("n,nij->ij", w, logs)
        return _sym(root @ mean_inner @ root)[None]
