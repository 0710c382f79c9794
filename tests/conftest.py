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


# Calls every kernel of the core's thread runner at 1, 2 and 3 threads, on
# tied and untied inputs, and exits 1 unless each output at 2 and 3 threads
# is the bytes of the call at 1; built with ThreadSanitizer, it also shows
# whether any two threads of a call touch one byte without ordering.
TSAN_DRIVER = r"""
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* A 64-bit LCG, so every run reads the same inputs. */
static uint64_t state = 1;

static uint32_t draw(void)
{
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (uint32_t)(state >> 33);
}

/* Exits 1 unless the output of a call at 2 or 3 threads equals it at 1. */
static void same(const void *one, const void *other, size_t bytes, const char *what,
                 int64_t n, int64_t n_anchors, int threads)
{
    if (memcmp(one, other, bytes) != 0) {
        fprintf(stderr, "%s of %lld x %lld differs at %d threads\n", what, (long long)n,
                (long long)n_anchors, threads);
        exit(1);
    }
}

static void done(int result, const char *what)
{
    if (result < 0) {
        fprintf(stderr, "%s cannot allocate its scratch\n", what);
        exit(1);
    }
}

/* Ranks an (n, n_anchors) distance matrix, tied or not, builds its table,
 * scans the sample's own codes by `first` and passes the first `few` of
 * them by `least`, at 1, 2 and 3 threads. */
#define CHECK(CS, CODE, KS, COUNT)                                             \
    int ranks_f64_##CS(const double *, int64_t, int64_t, CODE *, int64_t);     \
    int table_##CS##_##KS(const CODE *, int64_t, int64_t, int, COUNT *, int64_t); \
    int first_##CS##_##KS(const CODE *, int64_t, int64_t, const COUNT *, int64_t *, int64_t); \
    int least_##CS##_##KS(const CODE *, int64_t, int64_t, const COUNT *, int64_t *, int64_t); \
                                                                               \
    static void check_##CS##_##KS(int64_t n, int64_t n_anchors, int64_t few, int tied) \
    {                                                                          \
        double *dist = malloc(n * n_anchors * sizeof *dist);                   \
        for (int64_t k = 0; k < n * n_anchors; k++)                            \
            dist[k] = tied ? (double)(draw() % (n_anchors / 4 + 1)) : draw() / 2147483648.0; \
        CODE *codes[3];                                                        \
        COUNT *counts[3];                                                      \
        int64_t *first[3], *least[3];                                          \
        int distinct[3];                                                       \
        for (int t = 0; t < 3; t++) {                                          \
            codes[t] = malloc(n * n_anchors * sizeof(CODE));                   \
            counts[t] = malloc(n_anchors * n_anchors * sizeof(COUNT));         \
            first[t] = malloc(n * sizeof(int64_t));                            \
            least[t] = malloc(few * sizeof(int64_t));                          \
            done(distinct[t] = ranks_f64_##CS(dist, n, n_anchors, codes[t], t + 1), "ranks"); \
            done(table_##CS##_##KS(codes[t], n, n_anchors, distinct[t], counts[t], t + 1), \
                 "table");                                                     \
            done(first_##CS##_##KS(codes[t], n, n_anchors, counts[t], first[t], t + 1), \
                 "first");                                                     \
            done(least_##CS##_##KS(codes[t], few, n_anchors, counts[t], least[t], t + 1), \
                 "least");                                                     \
        }                                                                      \
        for (int t = 1; t < 3; t++) {                                          \
            same(codes[0], codes[t], n * n_anchors * sizeof(CODE), "ranks", n, n_anchors, t + 1); \
            same(&distinct[0], &distinct[t], sizeof(int), "tie flag", n, n_anchors, t + 1); \
            same(counts[0], counts[t], n_anchors * n_anchors * sizeof(COUNT), "table", n, \
                 n_anchors, t + 1);                                            \
            same(first[0], first[t], n * sizeof(int64_t), "first", n, n_anchors, t + 1); \
            same(least[0], least[t], few * sizeof(int64_t), "least", n, n_anchors, t + 1); \
        }                                                                      \
        for (int t = 0; t < 3; t++) {                                          \
            free(codes[t]);                                                    \
            free(counts[t]);                                                   \
            free(first[t]);                                                    \
            free(least[t]);                                                    \
        }                                                                      \
        free(dist);                                                            \
    }

CHECK(u8, uint8_t, u16, uint16_t)
CHECK(u16, uint16_t, u8, uint8_t)

int depths_u8_u8(const uint8_t *, int64_t, const int64_t *, int64_t, int64_t, int, uint8_t *,
                 int64_t);

/* The depth counts of n_refs groups of m among `total` pooled points, whose
 * codes are tied or each row a permutation, at 1, 2 and 3 threads. */
static void check_depths(int64_t n_refs, int64_t m, int64_t total, int tied)
{
    uint8_t *codes = malloc(total * total), *out[3];
    int64_t *refs = malloc(n_refs * m * sizeof *refs), *order = malloc(total * sizeof *order);
    for (int64_t y = 0; y < total; y++) {
        uint8_t *row = codes + y * total;
        for (int64_t x = 0; x < total; x++)
            row[x] = tied ? (uint8_t)(draw() % 8) : (uint8_t)x;
        for (int64_t x = total - 1; x > 0 && !tied; x--) {
            int64_t k = draw() % (x + 1);
            uint8_t swap = row[x];
            row[x] = row[k];
            row[k] = swap;
        }
    }
    for (int64_t r = 0; r < n_refs; r++) {
        for (int64_t x = 0; x < total; x++)
            order[x] = x;
        for (int64_t i = 0; i < m; i++) {
            int64_t k = i + draw() % (total - i), swap = order[i];
            order[i] = order[k];
            order[k] = swap;
            refs[r * m + i] = order[i];
        }
    }
    for (int t = 0; t < 3; t++) {
        out[t] = malloc(n_refs * total);
        done(depths_u8_u8(codes, total, refs, n_refs, m, !tied, out[t], t + 1), "depths");
    }
    for (int t = 1; t < 3; t++)
        same(out[0], out[t], n_refs * total, "depths", n_refs, total, t + 1);
    for (int t = 0; t < 3; t++)
        free(out[t]);
    free(codes);
    free(refs);
    free(order);
}

int main(void)
{
    for (int tied = 0; tied < 2; tied++) {
        /* A simulate replicate: its ranks and in-sample pair sort and scan
         * take two threads, its table and a refinement step's pass one. */
        check_u16_u8(100, 300, 1, tied);
        /* depth-self's pair sort of 400 anchors on every thread, and a
         * pass of 10 queries on two. */
        check_u16_u8(60, 400, 10, tied);
        /* Ranks of two units on two of three threads. */
        check_u16_u8(16, 640, 2, tied);
        /* Counts past 255. */
        check_u8_u16(256, 40, 10, tied);
        /* Batches of 800 groups of 2 among 60 on every thread, and one
         * group of 30 among 90. */
        check_depths(800, 2, 60, tied);
        check_depths(1, 30, 90, tied);
    }
    return 0;
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
