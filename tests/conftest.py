import shutil
import subprocess
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


def dense_min_counts(counts, n, dist_query_anchors):
    """Least count over admissible off-diagonal pairs by a masked argmin;
    count n and anchors -1 when no pair is admissible. Counts are widened
    first: a uint8 table cannot hold the sentinel n + 1 at n = 255."""
    counts = np.asarray(counts, dtype=np.int64)
    n_queries, n_anchors = dist_query_anchors.shape
    dq = dist_query_anchors
    admissible = dq[:, :, None] <= dq[:, None, :]
    admissible &= ~np.eye(n_anchors, dtype=bool)
    flat = np.where(admissible, counts[None, :, :], n + 1).reshape(n_queries, n_anchors**2)
    arg = flat.argmin(axis=1)
    best = flat[np.arange(n_queries), arg].astype(np.int64)
    a1, a2 = np.unravel_index(arg, (n_anchors, n_anchors))
    empty = best == n + 1
    return np.where(empty, n, best), np.where(empty, -1, a1), np.where(empty, -1, a2)


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
    """Run every kernel of the core's thread runner (the ranks, table, sort
    and scan, least-count pass and permutation depth counts) on at most
    ``count`` threads, as in a process that may run on ``count``
    CPUs, whatever this host has."""
    saved = _native.threads
    _native.threads = lambda: count
    try:
        yield
    finally:
        _native.threads = saved


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


# Counts the threads that the core's runner starts: the baseline build
# below links every pthread_create call of the core through this wrapper.
THREAD_COUNTER = r"""
#include <pthread.h>
#include <stdint.h>
int64_t threads_started;
int __real_pthread_create(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *);
int __wrap_pthread_create(pthread_t *id, const pthread_attr_t *attr, void *(*start)(void *),
                          void *arg)
{
    __atomic_fetch_add(&threads_started, 1, __ATOMIC_RELAXED);
    return __real_pthread_create(id, attr, start, arg);
}
"""


@pytest.fixture(scope="session")
def baseline_core(tmp_path_factory):
    """The core built with CLONES defined empty, so the baseline code alone,
    with every warning an error, as ``(library, kernels)``: the
    ``ctypes.CDLL`` and its kernels as :func:`_native.bind` gives them. Its
    ``threads_started`` counts the threads that its kernel calls start."""
    import ctypes

    if shutil.which(_native.COMPILER) is None or not _native.ARCHIVE.is_file():
        pytest.skip("no compiler or no numpy random library to build the kernels")
    directory = tmp_path_factory.mktemp("baseline-core")
    counter = directory / "counter.c"
    counter.write_text(THREAD_COUNTER)
    command = _native.command(directory / "core.so")
    command[command.index("-o"):command.index("-o")] = [
        "-DCLONES=", "-Wall", "-Wextra", "-Werror", "-Wl,--wrap=pthread_create", str(counter)]
    built = subprocess.run(command, capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    library = ctypes.CDLL(str(directory / "core.so"))
    return library, _native.bind(library)
