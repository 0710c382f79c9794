"""Seeded workload inputs, generated with plain numpy.

Points are tangent-Gaussian draws pushed through each geometry's
exponential map at a fixed centre (the identity matrix, the north pole
e1, the origin), written in the point-file encoding the ``metricdepth``
CLI reads. Nothing here imports ``metricdepth``, so a change to the
library's own samplers cannot change a workload.

A point set is a tuple of ``(kind, array)`` components: one component for
a single geometry, several for a product. ``kind`` is ``"spd"`` (arrays of
shape ``(n, k, k)``), ``"sphere"`` (``(n, m + 1)`` unit vectors) or
``"euclidean"`` (``(n, m)``).
"""

from __future__ import annotations

import numpy as np


def parse_spec(spec: str) -> tuple:
    """``"product:spd:2+sphere:2"`` -> ``(("spd", 2), ("sphere", 2))``."""
    body = spec[len("product:"):] if spec.startswith("product:") else spec
    parts = []
    for token in body.split("+"):
        kind, _, param = token.partition(":")
        if kind not in ("spd", "sphere", "euclidean") or not param.isdigit():
            raise ValueError(f"unsupported geometry {token!r}")
        parts.append((kind, int(param)))
    return tuple(parts)


def _spd(rng: np.random.Generator, n: int, k: int, var: float) -> np.ndarray:
    # Orthonormal chart at the identity: unit diagonals, (E_ij + E_ji)/sqrt(2).
    z = np.sqrt(var) * rng.standard_normal((n, k * (k + 1) // 2))
    s = np.zeros((n, k, k))
    diag = np.arange(k)
    s[:, diag, diag] = z[:, :k]
    iu, ju = np.triu_indices(k, 1)
    s[:, iu, ju] = z[:, k:] / np.sqrt(2.0)
    s[:, ju, iu] = s[:, iu, ju]
    eigval, eigvec = np.linalg.eigh(s)
    p = (eigvec * np.exp(eigval)[:, None, :]) @ np.swapaxes(eigvec, 1, 2)
    return 0.5 * (p + np.swapaxes(p, 1, 2))


def _sphere(rng: np.random.Generator, n: int, m: int, var: float) -> np.ndarray:
    v = np.zeros((n, m + 1))
    v[:, 1:] = np.sqrt(var) * rng.standard_normal((n, m))
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    x = np.cos(norm) * np.eye(1, m + 1) + np.sin(norm) * v / np.maximum(norm, 1e-300)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _euclidean(rng: np.random.Generator, n: int, m: int, var: float) -> np.ndarray:
    return np.sqrt(var) * rng.standard_normal((n, m))


_SAMPLERS = {"spd": _spd, "sphere": _sphere, "euclidean": _euclidean}


def sample(spec: str, n: int, var: float, rng: np.random.Generator) -> tuple:
    """n tangent-Gaussian points of the geometry ``spec`` with chart variance var."""
    return tuple((kind, _SAMPLERS[kind](rng, n, param, var)) for kind, param in parse_spec(spec))


def encode(points: tuple) -> str:
    """Point-file text: one row per point, coordinates by ``repr`` so they
    round-trip exactly, product components joined with ``|``."""
    columns = [arr.reshape(len(arr), -1).tolist() for _, arr in points]
    rows = ("|".join(",".join(map(repr, comp[i])) for comp in columns)
            for i in range(len(columns[0])))
    return "".join(row + "\n" for row in rows)


def take(points: tuple, idx) -> tuple:
    """Rows ``idx`` of every component."""
    return tuple((kind, arr[idx]) for kind, arr in points)


def _spd2_pair_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Affine-invariant distance of 2x2 SPD matrices from the generalized
    # eigenvalues of (b, a): roots of det(a) l^2 - tr(adj(a) b) l + det(b).
    det_a = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] ** 2
    det_b = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] ** 2
    trace = a[..., 0, 0] * b[..., 1, 1] + a[..., 1, 1] * b[..., 0, 0] - 2 * a[..., 0, 1] * b[..., 0, 1]
    half = trace / (2 * det_a)
    root = np.sqrt(np.maximum(half**2 - det_b / det_a, 0.0))
    big = half + root
    small = (det_b / det_a) / big  # product of the roots, without cancellation
    return np.sqrt(np.log(big) ** 2 + np.log(small) ** 2)


def _pair_distance(kind: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if kind == "euclidean":
        return np.sqrt(np.sum((x - y) ** 2, axis=-1))
    if kind == "sphere":
        return np.arccos(np.clip(np.sum(x * y, axis=-1), -1.0, 1.0))
    if x.shape[-1] != 2:
        raise ValueError("the reference SPD distance covers 2x2 matrices only")
    return _spd2_pair_distance(x, y)


def paired_distance(xs: tuple, ys: tuple) -> np.ndarray:
    """d(xs[i], ys[i]) for aligned point sets, independent of the library."""
    parts = [_pair_distance(kind, x, y) for (kind, x), (_, y) in zip(xs, ys)]
    return parts[0] if len(parts) == 1 else np.sqrt(sum(p**2 for p in parts))


def distance_matrix(xs: tuple, ys: tuple) -> np.ndarray:
    """All pairwise distances, shape ``(len(xs), len(ys))``."""
    left = tuple((kind, x[:, None]) for kind, x in xs)
    right = tuple((kind, y[None, :]) for kind, y in ys)
    return paired_distance(left, right)
