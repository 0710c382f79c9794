from contextlib import contextmanager

import numpy as np
import pytest

from metricdepth import _native
from metricdepth.spaces import SPD, Euclidean, Product, Sphere, Spider3


def random_points(space, n, rng):
    """Generic point cloud generator used across tests."""
    if isinstance(space, Euclidean):
        return [space.validate_point(rng.standard_normal(space.dim)) for _ in range(n)]
    if isinstance(space, Sphere):
        raw = rng.standard_normal((n, space.ambient_dim))
        return [space.validate_point(row / np.linalg.norm(row)) for row in raw]
    if isinstance(space, SPD):
        # One row of normals per point, as n one-point draws read them.
        base = space.validate_point(np.eye(space.size))
        normals = rng.standard_normal((n, space.normal_count))
        return space.normal_steps([base] * n, [0.5] * n, normals)
    if isinstance(space, Spider3):
        return [
            space.validate_point((abs(rng.standard_normal()), rng.integers(1, 4)))
            for _ in range(n)
        ]
    if isinstance(space, Product):
        per_comp = [random_points(c, n, rng) for c in space.components]
        return [tuple(comp[i] for comp in per_comp) for i in range(n)]
    raise NotImplementedError(type(space))


def distinct_rows(values):
    """Whether no row of an (..., n, n_A) array holds two equal entries,
    the ``distinct`` flag of the table kernel for any per-row values."""
    ordered = np.sort(values, axis=-1)
    return bool((ordered[..., 1:] != ordered[..., :-1]).all())


@contextmanager
def numpy_kernels():
    """Run the numpy bodies of the kernel entry points, as where the compiled
    kernels cannot be built."""
    saved = _native._kernels
    _native._kernels = None
    try:
        yield
    finally:
        _native._kernels = saved


@contextmanager
def kernel_threads(count):
    """Run the compiled depth counts on ``count`` threads, as in a process
    that may run on ``count`` CPUs, whatever this host has."""
    saved = _native.threads
    _native.threads = lambda: count
    try:
        yield
    finally:
        _native.threads = saved


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
