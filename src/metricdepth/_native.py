"""Loader of the compiled kernels in ``_core.c``.

The kernels are ``ranks`` (per-row rank codes of a distance matrix),
``table`` (the halfspace count table), ``sort_rows``, ``tally`` and
``pairs`` (the counting sort of the table's anchor pairs, by blocks of
rows), ``scan`` (each query's first
admissible pair), ``depths`` (the permutation tests' depth counts),
``orders`` (the permutation tests' orders, numpy's ``Generator``
permutations drawn in C), ``normals`` (the standard normals of
:func:`metricdepth.rng.derive_normals`, numpy's
``Generator.standard_normal`` drawn in C), ``spd2`` (the whitened
eigenvalues behind ``SPD(2).distance_matrix``, one fixed sequence of IEEE
operations per pair) and ``norms`` (the norms of differences behind
``Euclidean.distance_matrix`` and ``Sphere.distance_matrix``).
They are built with the system ``gcc`` the first time one is called,
once per user, into ``$XDG_CACHE_HOME/metricdepth``, created with mode
0700, by the command :func:`command` gives. It links numpy's static
library of random distributions, ``numpy/random/lib/libnpyrandom.a``
(:data:`ARCHIVE`), which numpy ships for C extensions, for the ziggurat
that ``normals`` calls. A missing, empty or relative ``XDG_CACHE_HOME``,
which the XDG Base Directory Specification makes invalid, means
``~/.cache``. The file name is keyed by the SHA-256 of the source, the
archive, the compiler and its flags, so an edited source or another numpy
builds anew. A build is written under a temporary name and moved into
place with ``os.replace``, so processes that build at once (such as the
workers of ``simulate``) each end with a complete file; then every other
``core-*.so`` in the directory, a build of another source or numpy, is
removed, so that the cache holds one build rather than one per edit or
numpy upgrade (two installs of different sources that share a cache thus
rebuild in turn). The library ends in the SHA-256 of what
precedes it; a cached file whose digest does not match, such as a
truncated one, is rebuilt rather than loaded.

When gcc or the archive is missing, the build fails or the cache is not
writable, :func:`library` logs one warning through this module's logger
and returns None, and the numpy bodies of the entry points in
:mod:`metricdepth.depth`, :mod:`metricdepth.inference`,
:mod:`metricdepth.rng` and :mod:`metricdepth.spaces` run instead, with
the same results. A kernel is named by its task and the dtypes of its
arrays, and takes no flag that a dtype could state.

A call passes only arrays and sizes: each kernel allocates its own
scratch, and a failed allocation raises ``MemoryError``.

``ranks``, ``table``, ``tally``, ``pairs``, ``scan`` and ``depths`` run
on the core's one thread runner. A call splits its work into units (blocks
of rows, of first anchors against a column tile, of table rows, of
queries, or one reference group) that its threads claim one at a time,
and takes ``min(threads(), units, work / grain)`` threads, at least one:
its estimated single-thread time over an internal grain of work per
thread, so small calls, such as one-query scans, stay on the calling
thread. ``sort_rows`` gives the table rows per block of ``tally`` and
``pairs``: 64 when the sort takes more than one thread, else every row,
one block. The loader passes :func:`threads` to these kernels and to
``sort_rows`` as their last argument at every call, so a change of the
process's CPU affinity, or of the cap set by :func:`limit_threads`,
applies to the next call. A call starts its threads
and joins them before it returns: no thread outlives a kernel call, so a
process forked after one inherits none, and calls made at once from
several threads share nothing. Units write disjoint outputs with the same
arithmetic on any thread, so every output is the same bytes at any thread
count. The other kernels run on the calling thread.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_core.c")
COMPILER = "gcc"
# No -march=native: a cached library must run on any x86-64 host, and the
# source selects its AVX-512 or AVX2 clones at load time. No -ffast-math: the
# comparisons must stay IEEE <=. Loops start on 64-byte boundaries, whole
# cache lines, so a kernel's speed does not hang on where the code before
# it ends. On an x86-64 Xeon, under the default alignment, moving the table
# build by 32 bytes slowed its 400 x 400 uint16 build from 1.75 to 2.00 ms;
# with loops on 32-byte boundaries, adding the threaded depth counts moved
# it by 16 bytes and slowed its 230 x 920 build from 5.1 to 6.6 ms.
# spd2 and norms must round each product before its sum, as numpy does,
# so no product fuses into a multiply-add (-ffp-contract=off);
# -fno-math-errno lets their sqrt vectorize, still correctly rounded.
FLAGS = ("-O3", "-falign-loops=64", "-std=c99", "-ffp-contract=off", "-fno-math-errno",
         "-shared", "-fPIC", "-pthread")
# numpy's static library of its random distributions, and the C math
# library that they call.
ARCHIVE = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"
LIBS = ("-lm",)
# Array dtypes the kernels take, by their suffix in the kernel names.
_SUFFIXES = {np.dtype(np.float64): "f64", np.dtype(np.uint8): "u8", np.dtype(np.uint16): "u16"}
_DIGEST = hashlib.sha256().digest_size
_UNSET = object()
_kernels = _UNSET
_limit = None


def threads() -> int:
    """The most threads a compiled kernel call may run on: the number of CPUs
    this process may run on, or the cap of :func:`limit_threads` when that
    is lower. Restricting the process's CPU affinity (as ``taskset`` does)
    lowers it. Hosts without ``os.sched_getaffinity`` (macOS, Windows)
    count every CPU."""
    if hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    return count if _limit is None else max(1, min(count, _limit))


@contextlib.contextmanager
def limit_threads(limit: int):
    """Cap :func:`threads` at ``limit`` (at least one) within the block, as
    the worker processes of ``simulate`` do so that they share the CPUs
    rather than each take all of them."""
    global _limit
    saved, _limit = _limit, limit
    try:
        yield
    finally:
        _limit = saved


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = Path.home() / ".cache"
    return Path(root) / "metricdepth"


def command(output) -> list:
    """The compiler command that builds the core into ``output``: the
    source, then numpy's archive and the libraries it needs."""
    return [COMPILER, *FLAGS, "-o", str(output), str(SOURCE), str(ARCHIVE), *LIBS]


def library_path() -> Path:
    """Where the library built from the current source, archive and flags
    is cached."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(hashlib.sha256(ARCHIVE.read_bytes()).digest())
    key.update("\0".join((COMPILER, *FLAGS, *LIBS)).encode())
    return cache_dir() / f"core-{key.hexdigest()[:32]}.so"


def library() -> dict | None:
    """The compiled kernels by name (``ctypes`` functions), or None when they
    cannot be built; tried once per process."""
    global _kernels
    if _kernels is _UNSET:
        try:
            _kernels = _load()
        except (OSError, RuntimeError) as exc:
            logger.warning("compiled kernels unavailable, using numpy: %s", exc)
            _kernels = None
    return _kernels


def kernels() -> str:
    """``"native"`` when the compiled kernels load, else ``"numpy"``."""
    return "numpy" if library() is None else "native"


def kernel(name: str, *dtypes):
    """The compiled kernel ``name`` for arrays of ``dtypes`` (such as
    ``kernel("table", codes.dtype, counts.dtype)``), or None when the
    library does not load or has no kernel for those dtypes."""
    suffixes = [_SUFFIXES.get(np.dtype(d)) for d in dtypes]
    if None in suffixes or library() is None:
        return None
    return _kernels.get("_".join([name, *suffixes]))


def _load() -> dict:
    import ctypes

    if not ARCHIVE.is_file():
        raise RuntimeError(f"numpy's random library {ARCHIVE} is missing")
    target = library_path()
    if not _intact(target):
        _build(target)
    return bind(ctypes.CDLL(str(target)))


def bind(lib) -> dict:
    """The kernels of a loaded build of the core, a ``ctypes.CDLL``, by name,
    typed and wrapped as :func:`library` gives them."""
    import ctypes

    i64, ptr, flag = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int
    integers = ("u8", "u16")
    # name: (argument types, return type)
    # Each of ranks, table, sort_rows, tally, pairs, scan and depths takes the
    # thread count last.
    signatures = {f"ranks_f64_{code}": ([ptr, i64, i64, ptr, i64], flag) for code in integers}
    signatures.update({f"table_{code}_{count}": ([ptr, i64, i64, flag, ptr, i64], None)
                       for code in integers for count in integers})
    signatures["sort_rows"] = ([i64, i64], i64)
    signatures.update({f"tally_{count}": ([ptr, i64, i64, i64, ptr, i64], i64)
                       for count in integers})
    signatures.update({f"pairs_{count}_u16": ([ptr, i64, i64, i64, i64, ptr, ptr, ptr, i64], None)
                       for count in integers})
    signatures.update({f"scan_{query}_u16": ([ptr, i64, i64, ptr, ptr, i64, ptr, i64], None)
                       for query in ("f64", *integers)})
    signatures.update({f"depths_{code}_{count}": ([ptr, i64, ptr, i64, i64, flag, ptr, i64],
                                                  flag)
                       for code in integers for count in integers})
    signatures["orders"] = ([ptr, i64, i64, i64, i64, ptr], None)
    signatures["normals"] = ([ptr, i64, ptr, i64, i64, ptr], None)
    signatures["spd2_f64"] = ([ptr, ptr, i64, ptr, i64, ctypes.c_double, ptr, ptr], None)
    signatures["norms_f64"] = ([ptr, i64, ptr, i64, i64, ptr], None)
    functions = {}
    for name, (argtypes, restype) in signatures.items():
        function = functions[name] = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
        if name.startswith(("ranks", "depths")):
            function.errcheck = _allocated
        if name.startswith(("ranks", "table", "sort", "tally", "pairs", "scan", "depths")):
            functions[name] = _on_threads(function)
    return functions


def _on_threads(function):
    # The kernel called with threads() after its data arguments.
    def call(*args):
        return function(*args, threads())

    return call


def _allocated(result, function, args):
    # A kernel that allocates scratch returns -1 when it cannot.
    if result < 0:
        raise MemoryError(f"{function.__name__}: cannot allocate its scratch")
    return result


def _intact(path: Path) -> bool:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    return len(data) > _DIGEST and hashlib.sha256(data[:-_DIGEST]).digest() == data[-_DIGEST:]


def _build(target: Path) -> None:
    import subprocess
    import tempfile

    target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem + "-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(command(tmp), capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{COMPILER} exited {proc.returncode}: {proc.stderr.strip()}")
        with open(tmp, "rb+") as handle:
            handle.write(hashlib.sha256(handle.read()).digest())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Builds under way in other processes are *.tmp files, left alone.
    for stale in target.parent.glob("core-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)
