"""Deterministic RNG derivation.

Every stochastic routine takes an integer seed and derives independent
streams from integer paths ``(seed, *path)``, so results do not depend on
execution order or degree of parallelism. Stream ``(seed, *path)`` is
numpy's ``default_rng(SeedSequence([seed, *path]))`` bit for bit, with
every path entry masked to 64 bits.

Streams are derived in batches. :func:`derive_rngs` runs the
``SeedSequence`` entropy mix once over the uint32 words of N paths as
array columns, then seeds one ``PCG64`` per row from its state words, so
a stream costs a generator's construction rather than a Python-level hash
(counter-based derivation in the sense of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011). :func:`derive_rng` and
:func:`derive_seed` read the same mix for one path. ``numpy.random`` is
imported on the first derivation, not with this module; :func:`derive_draw32`
steps PCG64 itself and never imports it.

Two uses of streams have a compiled twin, which runs this mix and PCG64
itself from the words of :func:`_entropy`: the permutation tests' orders,
streams ``(seed, NS_PERMUTATION, rep)``, which the ``orders`` kernel of
``_core.c`` shuffles as ``Generator.shuffle`` does, and the standard
normals of :func:`derive_normals`, which the ``normals`` kernel draws with
numpy's own ziggurat from ``libnpyrandom.a``. Both are tested bit for bit against
numpy's ``SeedSequence``, ``PCG64`` and ``Generator``. On the compiled
kernels the orders thus depend on the seed alone; the numpy fallback
draws them from ``Generator``s, whose streams NEP 19 leaves free to change
between numpy versions. The normals come from the installed numpy's own
ziggurat on either path, so both paths follow its ``Generator``.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from . import _native

# Fixed namespaces for derived streams, so different subsystems that share a
# user seed never collide.
NS_JIGGLE = 1
NS_REFINE = 2
NS_PERMUTATION = 3
NS_REPLICATE = 4
NS_BOOTSTRAP = 5
NS_SAMPLING = 6

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a path entry masked to 64 bits, as
    ``SeedSequence`` reads an int: one word for values below 2**32."""
    value = int(value) & _MASK64
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


def _entropy(seed: int, path: tuple) -> list[int]:
    return [w for value in (seed, *path) for w in _words(value)]


@functools.cache
def _hash_consts(start: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) constant pairs of ``count`` successive hash
    steps; the multiplier of one step is the xor constant of the next."""
    consts = [start]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    return tuple(zip(consts, consts[1:]))


def _seed_state(entropy: list) -> list:
    """PCG64 seed of ``SeedSequence(entropy)``: ``generate_state(4, uint64)``.

    Each entropy word is a Python int, or a uint64 array that holds the
    word of one path per entry. The hash constants advance the same way for
    every path, so they are Python ints fixed by the entropy length, and a
    step of the mix is one operation on all paths at once. Products of two
    32-bit words fit in 64 bits, so masking after each step gives uint32
    arithmetic on either type.
    """
    n_steps = _POOL_SIZE * (max(len(entropy), _POOL_SIZE) + _POOL_SIZE - 1)
    steps = iter(_hash_consts(_INIT_A, _MULT_A, n_steps))

    def hashmix(value):
        xor, mult = next(steps)
        value = ((value ^ xor) * mult) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    for i, (xor, mult) in enumerate(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)):
        value = ((pool[i % _POOL_SIZE] ^ xor) * mult) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    # Little-endian word pairs, as generate_state(4, uint64) views them.
    return [state[i] | (state[i + 1] << 32) for i in range(0, len(state), 2)]


class _StateWords:
    """Seed source of one ``PCG64``: its four uint64 seed words. It is
    registered as numpy's ``ISeedSequence`` when ``numpy.random`` is first
    imported, and lives at module level so that generators pickle."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 seeds itself from generate_state(4, uint64) alone.
        return self.words


@functools.cache
def _stream_factory():
    """Maker of a ``Generator`` from a row of :func:`_seed_state` words;
    imports ``numpy.random`` on first use."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    return lambda words: Generator(PCG64(_StateWords(words)))


def derive_rngs(seed: int, *prefix: int, shape: tuple) -> Iterator[np.random.Generator]:
    """Generators of streams ``(seed, *prefix, *idx)`` for every index
    ``idx`` of ``shape``, in C order; stream for stream the same as
    :func:`derive_rng`. Indices must stay below 2**32.

    The seeds of all streams are mixed at once; each generator is made
    when the iterator reaches it, so a caller that uses one stream at a
    time holds one generator, not N.
    """
    shape = tuple(int(s) for s in shape)
    count = int(np.prod(shape, dtype=np.int64))
    head = [np.full(count, w, np.uint64) for w in _entropy(seed, prefix)]
    idx = np.indices(shape, dtype=np.uint64).reshape(len(shape), count)
    state = np.stack(_seed_state(head + list(idx)), axis=1)
    return map(_stream_factory(), state)


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for stream ``(seed, *path)``; stable across runs and platforms."""
    return _stream_factory()(np.array(_seed_state(_entropy(seed, path)), dtype=np.uint64))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse a stream path into a single integer seed: the first uint32
    word of the stream's state."""
    return _seed_state(_entropy(seed, path))[0] & _MASK32


def derive_draw32(seed: int, *path: int) -> int:
    """The first ``integers(2**32)`` draw of stream ``(seed, *path)``, made
    without ``numpy.random``: the low 32 bits of PCG64's first output.

    PCG64 seeds as ``pcg_setseq_128_srandom_r`` does, the stream from the
    last two state words and the state from the first two, high word
    first; each output steps the LCG and takes the XSL-RR of its state, as
    the ``pcg64`` step of ``_core.c``.
    """
    words = _seed_state(_entropy(seed, path))
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = inc  # one step from state 0
    state = ((state + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _MASK128
    state = (state * _PCG_MULT + inc) & _MASK128  # the first output's step
    rot, x = state >> 122, (state >> 64 ^ state) & _MASK64
    return (x >> rot | x << (64 - rot)) & _MASK32


def derive_normals(seed: int, *prefix: int, shape: tuple, dim: int) -> np.ndarray:
    """Standard normals of streams ``(seed, *prefix, *idx)`` for every index
    ``idx`` of ``shape``, in C order: an (N, dim) float64 array whose row
    is ``standard_normal(dim)`` of the stream's :func:`derive_rngs`
    generator. Indices must stay below 2**32.

    Jiggling and refinement draw their Gaussian tangents on every geometry
    from these rows, ``dim`` being the space's ``normal_count``, through
    ``Space.normal_tangents``. The compiled ``normals`` kernel draws all N
    streams in one call; its numpy body, the generators themselves, is its
    reference.
    """
    shape = tuple(int(s) for s in shape)
    out = np.empty((int(np.prod(shape, dtype=np.int64)), dim))
    kernel = _native.kernel("normals")
    if kernel is None:
        for row, rng in zip(out, derive_rngs(seed, *prefix, shape=shape)):
            row[:] = rng.standard_normal(dim)
    else:
        head = np.array(_entropy(seed, prefix), dtype=np.uint32)
        sizes = np.array(shape, dtype=np.int64)
        kernel(head.ctypes.data, len(head), sizes.ctypes.data, len(sizes), dim, out.ctypes.data)
    return out
