"""Anchored halfspace depth on a metric space.

The halfspace anchored at an ordered pair (x1, x2) is the set of points no
farther from x1 than from x2. The exact sample depth of a query y is the
least empirical mass over all halfspaces containing y; searching only
halfspaces anchored at a finite anchor set gives a computable upper bound
that tightens as anchors densify. With anchors equal to the n sample
points, evaluating m queries costs O(m n^2 + n^3) distance comparisons:
an n x n_A distance matrix feeds an n_A x n_A table of halfspace masses.
Membership only compares two distances from the same sample point, so the
table is built from per-row dense rank codes rather than the distances:
equal distances share a code and each row keeps its order, so every
comparison, and hence every count, is exact. Codes take the narrowest
unsigned dtype that holds n_A - 1 (uint8 up to 256 anchors), and counts
the narrowest unsigned dtype that holds n (uint8 up to n = 255).
:func:`_prob_counts` alone sets that dtype and the layout, and every
reader uses the counts as built, widening before any arithmetic. A column
subset of a row's codes keeps that row's order and ties, so the
permutation tests rank their pooled distance matrix once and read every
reference group's table off it. A NaN distance has no place in that order
and is rejected.
When no row ties two anchors, each row puts every pair of distinct
anchors on exactly one side, so counts[a1, a2] + counts[a2, a1] = n and
only the upper triangle is compared; the lower one is n minus its
transpose. One duplicate anchor ties every row, so whether a table may
take this path is decided once per table, from its codes, and a tied
table counts both halves.
Many queries sort the table's off-diagonal ordered pairs by (count,
row-major index) and scan them in that order, each stopping at its first
admissible pair, so its work grows with the number of pairs whose count
lies below its depth rather than with n_A^2. That order keeps the
tie-break of a masked minimum over the row-major table: the least count,
and among equal counts the first pair in row-major order. A query admits
one of (a1, a2) and (a2, a1) for every pair, so no scan passes the least
pair maximum max(counts[a1, a2], counts[a2, a1]); the sort keeps only
the pairs up to that bound, the prefix that scans can reach. Counts lie
in [0, n], so the order is a distribution counting sort (Knuth, TAOCP
vol. 3, section 5.2): one pass over the table histograms the counts and
finds the bound, and a second places each kept pair, row by row, at its
count's next free position.

A few queries need not pay for that sort. Fewer than ``_FEW_QUERIES``
queries, such as a new subject's depth against a diagnostic group, each
take one pass over the whole table instead, and keep the least count
among the pairs they admit, the first such pair in row-major order: the
pair the scan would find. That is m n_A^2 reads against the sort's passes
over n_A^2 and the scans; both grow with n_A^2, so the choice is a query
count, fitted from one-thread timings of both. It is made in
:func:`_min_counts` from the query count alone, and no state of the table
enters it. Self-depth and the depth median's scan of its sample query
many points and sort; the median's refinement scans the proposals that
no earlier scan's pair rules out (:func:`refine_deepest`), one point at a
time, each by the least-count pass: for the deepest point that pass costs
less than a scan of the sorted pairs, which reaches most of them.

Every step runs in a small compiled core (``_core.c``, built and loaded
by :mod:`metricdepth._native`) when it can be built, and so do the
permutation tests' depth counts (:mod:`metricdepth.inference`), which
build each reference group's table with the same run body and take each
pooled point's least admissible count in one pass over the table's
pairs, the points in lanes, where the numpy body sorts and scans. Its
ranks sort each row by a bucket pass and per-bucket sorts; its table
build, one run body for every table, takes the columns in runs of
64 bytes, padded with zeros, and sums four first anchors at a time over
a run in registers while the sample rows stream past; its sort and scan
are one call, ``first``: the counting sort above, by blocks of table
rows, each with a histogram of its own, then a scan that reads each kept
pair's two indices and the query's two entries and stops at the first
admissible pair. The call allocates its histograms and kept pairs and
frees them before it returns, so a table holds no sorted pairs between
calls. Its least-count pass, ``least``, reads the query's rank codes,
ranking float64 rows first, and each table row in runs of 64 lanes, each
lane keeping the least count admitted, and reads a row again entry by
entry only when a lane holds a count below the best so far. The two
calls share one signature and output. The ranks, table build, pair sort,
scan and least-count pass spread a large call over the core's threads,
by blocks of rows, by runs of columns, by blocks of table rows, by blocks
of queries and by query, to the same bytes at any thread count (see
:mod:`metricdepth._native`). Each step has one entry point,
:func:`_row_ranks`, :func:`_prob_counts` and :func:`_min_counts`, whose
numpy body is the reference the compiled kernels must equal in every
code, count, pair, dtype and layout; for the queries that body is
:attr:`HalfspaceProbTable.sorted_pairs` and :func:`_first_hits`, and
``first`` and ``least`` must each give its ``(count, a1, a2)``. The numpy
body runs everything else: other dtypes, and every call where no compiler
is found. It has no least-count pass: a masked minimum over the table
took 51.8 ms against 13.5 ms for its sort and scan (10 queries, 230 x
920, spd:2).

The table keeps its rank codes. When the queries are the sample itself
(the same object), the scan reads those codes in place of a second
sample-to-anchor distance matrix: admissibility compares two entries of
one row, so codes and distances give the same counts and the same pairs,
and a self-depth run computes each sample-to-anchor distance once.

Depth values are kept as exact integer counts over n; ties on the
equidistance boundary are counted on both sides (membership uses <=), so
counts[a1, a2] + counts[a2, a1] = n + #ties >= n always holds.
:func:`approx_depth` returns them as one record array of ``DEPTH_DTYPE``,
one row per query with five int64 fields: ``query_index``, the depth
``depth_num / depth_den`` (den = n), and the minimizing ordered pair
``anchor1, anchor2``, both -1 when no pair is admissible (possible only
for a single anchor; the empty infimum is 1 by convention).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _native
from .errors import GeometryError, MetricDepthError, NumericalError
from .rng import NS_JIGGLE, NS_REFINE, derive_normals
from .spaces import Space

# Cap on the size of transient temporaries in the vectorized kernels.
_CHUNK_ELEMS = 8_000_000
# Side of the square tiles that the sorted-pairs bound reads a table in.
_BOUND_TILE = 256
# Fewest queries for which the compiled sort and scan (first) cost less than
# one least-count pass over the table per query (least); _min_counts chooses
# between them by this alone. Both grow with n_A^2, so the crossover is a
# query count: on one thread of a 2-core x86-64 Xeon it lay between 11
# (spd:2 and euclidean:5 tables of 300-400 anchors, where the pass is slower
# per entry) and 126 (spd:2, 600 x 3000, where the sort's placing is
# memory-bound); the geometric mean over 11 tables of 300 to 3000 anchors
# was 37.5 and 45.7 in two runs.
_FEW_QUERIES = 40
# Most refinement steps drawn in one normal_steps call (refine_deepest).
_DRAW_BLOCK = 8
DEPTH_DTYPE = np.dtype([(name, np.int64) for name in
                        ("query_index", "depth_num", "depth_den", "anchor1", "anchor2")])


@dataclass(frozen=True)
class AnchorSet:
    """Ordered anchor points with provenance tags.

    ``points`` is one :meth:`Space.stack` of the anchors, as distance calls
    read it. Provenance entries are ``("sample", i)`` for sample points
    carried over verbatim and ``("jiggled", i)`` for perturbed copies of
    sample point i.
    """

    points: Sequence
    provenance: tuple

    def __post_init__(self):
        if len(self.points) == 0:
            raise GeometryError("anchor set must be non-empty")
        if len(self.points) != len(self.provenance):
            raise GeometryError("anchor provenance length mismatch")

    def __len__(self) -> int:
        return len(self.points)


def _least_pair_max(key: np.ndarray) -> np.generic:
    """The least ``max(key[a1, a2], key[a2, a1])`` over a1 != a2 of a square
    integer table, read tile by tile; the dtype's greatest value without a
    pair.

    Each tile on or above the diagonal meets its mirror tile, so the
    transposed read stays inside two cache-sized tiles instead of striding
    across the whole table. A tile on the diagonal skips its diagonal
    entries, as the compiled tally does: a table built from a sample holds
    n, the largest count, there, but one given by its counts alone may hold
    less.
    """
    n_anchors = len(key)
    least = np.iinfo(key.dtype).max
    for lo in range(0, n_anchors, _BOUND_TILE):
        for col in range(lo, n_anchors, _BOUND_TILE):
            pair = np.maximum(key[lo:lo + _BOUND_TILE, col:col + _BOUND_TILE],
                              key[col:col + _BOUND_TILE, lo:lo + _BOUND_TILE].T)
            if col == lo:
                np.fill_diagonal(pair, least)
            least = min(least, pair.min())
    return least


@dataclass(frozen=True)
class HalfspaceProbTable:
    """counts[a1, a2] = #{i : d(X_i, a1) <= d(X_i, a2)}.

    Diagonal entries equal n by construction. ``counts`` is the (n_A, n_A)
    table as :func:`_prob_counts` builds it, in the narrowest unsigned
    dtype that holds n; widen it before arithmetic such as ``n + 1`` or
    ``counts + counts.T``, which can wrap. ``codes`` holds the (n, n_A)
    per-row dense rank codes of the sample-to-anchor distances that the
    counts were built from (see :func:`_row_ranks`), or ``None`` for a
    table given by its counts alone; :func:`approx_depth` scans them when
    the queries are the sample. Neither ``counts`` nor ``codes`` may be
    modified: queries trust the codes to match the counts, and
    :attr:`sorted_pairs` caches the order of the counts when first read.
    The table holds no other state: which pass a query takes reads the
    query count alone (:func:`_min_counts`), and a compiled sort of its
    pairs lives only within one call.
    """

    counts: np.ndarray
    n: int
    codes: np.ndarray | None = None

    @cached_property
    def sorted_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Off-diagonal ordered pairs ``(a1, a2)`` that a query can reach,
        as two index arrays, ascending by count, equal counts in row-major
        order: the numpy body of the queries' sort, the reference of the
        compiled ``first`` call, which sorts the same pairs within each call.

        Every query admits (a1, a2) or (a2, a1) for each pair of distinct
        anchors, so its least admissible count is at most
        ``bound = min over a1 != a2 of max(counts[a1, a2], counts[a2, a1])``
        and its scan retires at or below it. Only the pairs with
        ``count <= bound`` are kept: in the order of all off-diagonal
        pairs they form a prefix, and every scan stops inside it.

        Sorted once per table, when first read, and shared by every numpy
        scan against it. Indices are uint16 up to 65 536 anchors and uint32
        beyond. The bound is read tile by tile (:func:`_least_pair_max`),
        and the kept entries' flat indices are stable-sorted by count.
        """
        n_anchors = len(self.counts)
        dtype = np.uint16 if n_anchors <= 1 << 16 else np.uint32
        bound = _least_pair_max(self.counts)
        key = self.counts.ravel()
        keep = key <= bound
        keep[::n_anchors + 1] = False
        index = np.flatnonzero(keep)
        order = index[np.argsort(key[index], kind="stable")]
        order = order.astype(np.min_scalar_type(key.size))
        a1, a2 = np.divmod(order, n_anchors)
        return a1.astype(dtype), a2.astype(dtype)


def _as_points(space: Space, anchors) -> Sequence:
    return space.stack(anchors.points if isinstance(anchors, AnchorSet) else anchors)


def _joined(space: Space, head: Sequence, tail: Sequence) -> Sequence:
    """One stack of the points of the stack ``head``, then of ``tail``."""
    if isinstance(head, np.ndarray):
        return space.stack(np.concatenate((head, tail)))
    return space.stack((*head, *tail))


def _same_points(a, b) -> bool:
    """Whether two stacks, or two points, hold the same values bit for bit."""
    if isinstance(a, np.ndarray):
        return a.shape == np.shape(b) and a.tobytes() == np.asarray(b, a.dtype).tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(x is y or _same_points(x, y) for x, y in zip(a, b))
    return a == b


def _row_ranks(dist: np.ndarray) -> tuple[np.ndarray, bool]:
    """Dense per-row ranks of an (n, n_A) matrix, as the narrowest unsigned
    integer dtype that holds n_A - 1, and whether no row holds two equal
    entries (a row of n_A distinct values ranks up to n_A - 1).

    Equal entries share a rank and the order within each row is kept, so
    ``<=`` between two entries of a row has the same truth value on the
    ranks. NaN has no such rank; callers reject it first.

    Float64 rows of up to 65 536 entries are ranked by the compiled kernel
    when it loads: it sorts each row's indices by a bucket pass and
    per-bucket sorts, O(n_A log n_A) whatever the values, and walks them
    once. The numpy body, two passes of ``argsort`` order, gives the same
    codes and flag and ranks everything else.
    """
    n_anchors = dist.shape[1]
    code = np.min_scalar_type(n_anchors - 1)
    kernel = _native.kernel("ranks", dist.dtype, code)
    if kernel is not None:
        dist = np.ascontiguousarray(dist)
        ranks = np.empty(dist.shape, dtype=code)
        distinct = kernel(dist.ctypes.data, len(dist), n_anchors, ranks.ctypes.data)
        return ranks, bool(distinct)
    order = np.argsort(dist, axis=1)
    ordered = np.take_along_axis(dist, order, axis=1)
    step = np.zeros(dist.shape, dtype=code)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=step[:, 1:])
    ranks = np.empty_like(step)
    dense = np.cumsum(step, axis=1, dtype=code)
    np.put_along_axis(ranks, order, dense, axis=1)
    return ranks, bool((dense[:, -1] == n_anchors - 1).all())


def _prob_counts(codes: np.ndarray, distinct: bool) -> np.ndarray:
    """Table of halfspace member counts from an (n, n_A) distance matrix or
    any per-row order-preserving codes of it, such as :func:`_row_ranks`:
    sample rows first, anchors second.

    This is the one place that sets the table format: counts come out as
    (n_A, n_A), ``table[a1, a2]``, in ``np.min_scalar_type(n)`` (uint8 up
    to n = 255), the narrowest dtype that holds the diagonal n. Readers use
    the table as built and widen before any arithmetic that could leave
    [0, n].

    ``distinct`` states that no row of ``codes`` holds two equal entries;
    then each row puts every pair of distinct anchors on exactly one side,
    so ``counts[a2, a1] = n - counts[a1, a2]`` and only the upper triangle
    is compared. One duplicate anchor ties every row, so ties are a
    property of the whole table, and a tied table counts both halves.

    Uint8 or uint16 codes into uint8 or uint16 counts are built by the
    compiled kernel when it loads. The numpy body, which builds the same
    table bit for bit, runs everything else. It compares only entries of
    one row, in chunks of at most 255 sample rows, so each chunk's member
    count fits a uint8 sum, and in blocks of first anchors [lo:hi]; a
    distinct block compares only against the anchors from ``lo`` on and
    fills the columns [lo:hi] of the later rows from the identity above.
    """
    n, n_anchors = codes.shape
    counts = np.zeros((n_anchors, n_anchors), dtype=np.min_scalar_type(n))
    kernel = _native.kernel("table", codes.dtype, counts.dtype)
    if kernel is not None:
        codes = np.ascontiguousarray(codes)
        kernel(codes.ctypes.data, n, n_anchors, distinct, counts.ctypes.data)
        return counts
    rows = min(n, 255)
    block = max(1, _CHUNK_ELEMS // max(rows * n_anchors, 1))
    for lo in range(0, n_anchors, block):
        hi = min(lo + block, n_anchors)
        first = lo if distinct else 0
        for start in range(0, n, rows):
            chunk = codes[start:start + rows]
            member = chunk[:, lo:hi, None] <= chunk[:, None, first:]
            counts[lo:hi, first:] += member.view(np.uint8).sum(axis=0, dtype=np.uint8)
            # Free the flags before the next chunk's are made: the triangle's
            # flag arrays vary in size, and keeping two alive raised the peak
            # resident set of 400 x 400 self-depth runs by about 4.5 MB.
            del member
        if distinct and hi < n_anchors:
            counts[hi:, lo:hi] = n - counts[lo:hi, hi:].T
    return counts


def _first_hits(a1s: np.ndarray, a2s: np.ndarray, dist_query_anchors: np.ndarray) -> np.ndarray:
    """Each query's first admissible position in the sorted pairs
    ``(a1s, a2s)``, or -1: the numpy scan, which raises on a row too short
    for the pairs.

    It scans in blocks that double in length, with its queries held
    anchor-major, as an (n_A, active) array, so gathering a block's anchors
    copies whole rows of all active queries rather than one 1- or 2-byte
    code at a time; the admissible flags come out as (block, active) and
    each query's first hit is read down its column. Rows are gathered with
    ``np.take``: fancy indexing gives the same pairs but took about 44
    against 35 us per one-query scan (spd:2, n = 100, n_A = 300), a cost
    every refinement step pays.
    """
    n_queries, n_anchors = dist_query_anchors.shape
    first = np.full(n_queries, -1, dtype=np.int64)
    active = np.arange(n_queries)
    dist = np.ascontiguousarray(dist_query_anchors.T)
    lo, block = 0, n_anchors
    while len(active) and lo < len(a1s):
        # Each gather, float64 at widest, stays under _CHUNK_ELEMS bytes.
        step = max(1, min(block, _CHUNK_ELEMS // 8 // len(active)))
        hi = min(lo + step, len(a1s))
        admissible = np.take(dist, a1s[lo:hi], axis=0) <= np.take(dist, a2s[lo:hi], axis=0)
        hit = admissible.any(axis=0)
        if hit.any():
            first[active[hit]] = lo + admissible.T[hit].argmax(axis=1)
            active, dist = active[~hit], dist[:, ~hit]
        lo, block = hi, 2 * block
    return first


def _min_counts(table: HalfspaceProbTable, dist_query_anchors: np.ndarray):
    """Per-query least table count over admissible ordered anchor pairs.

    A pair (a1, a2) is admissible for query y when d(y, a1) <= d(y, a2) and
    a1 != a2. ``dist_query_anchors`` holds distances, none NaN, or any
    per-row order-preserving codes of them, since only entries of one row
    are compared. Each query gets the least count, and among equal counts the
    first pair in row-major order, which is the pair an argmin over the
    masked, flattened table would return. An empty admissible set yields
    count n (depth 1 by convention) and indices -1. Returns
    ``(counts, a1, a2)``, one entry per query.

    This is the one place that chooses how, from the query count alone.
    Rows of all n_A entries, n_A <= 65 536, with a compiled kernel for their
    dtype and the table's take one call that returns each query's flat
    index ``a1 * n_A + a2``, or -1: fewer than ``_FEW_QUERIES`` queries the
    least-count pass (``least``), which reads codes, so float64 rows are
    ranked first (:func:`_row_ranks`), keeping each row's order and ties;
    ``_FEW_QUERIES`` or more the sort and scan (``first``). Everything else
    sorts the pairs in numpy (:attr:`HalfspaceProbTable.sorted_pairs`) and
    scans them (:func:`_first_hits`), the reference of both calls.
    """
    counts, query = np.ascontiguousarray(table.counts), dist_query_anchors
    n_anchors = len(counts)
    few = len(query) < _FEW_QUERIES
    code = np.min_scalar_type(n_anchors - 1) if few and query.dtype == np.float64 else query.dtype
    kernel = _native.kernel("least" if few else "first", code, counts.dtype)
    if kernel is not None and query.shape[1:] == (n_anchors,) and n_anchors <= 1 << 16:
        query = np.ascontiguousarray(query if code == query.dtype else _row_ranks(query)[0])
        at = np.empty(len(query), dtype=np.int64)
        kernel(query.ctypes.data, len(query), n_anchors, counts.ctypes.data, at.ctypes.data)
        hit = at >= 0
        pair_a1, pair_a2 = np.divmod(at[hit], n_anchors)
    else:
        a1s, a2s = table.sorted_pairs
        first = _first_hits(a1s, a2s, query)
        hit = first >= 0
        pair_a1, pair_a2 = a1s[first[hit]], a2s[first[hit]]
    best = np.full(len(hit), table.n, dtype=np.int64)
    best_a1 = np.full(len(hit), -1, dtype=np.int64)
    best_a2 = np.full(len(hit), -1, dtype=np.int64)
    best_a1[hit] = pair_a1
    best_a2[hit] = pair_a2
    best[hit] = counts[best_a1[hit], best_a2[hit]]
    return best, best_a1, best_a2


def halfspace_prob_table(space: Space, sample: Sequence, anchors) -> HalfspaceProbTable:
    """Empirical mass of every anchored halfspace over the sample."""
    sample = space.stack(sample)
    if len(sample) == 0:
        raise GeometryError("sample must be non-empty")
    anchor_points = _as_points(space, anchors)
    dist = space.distance_matrix(sample, anchor_points)
    if np.isnan(dist).any():
        raise GeometryError("sample-anchor distance matrix contains NaN")
    codes, distinct = _row_ranks(dist)
    counts = _prob_counts(codes, distinct)
    return HalfspaceProbTable(counts=counts, n=len(sample), codes=codes)


def _query_distances(space: Space, queries: Sequence, anchor_points: Sequence) -> np.ndarray:
    # A NaN distance would read as never admissible, so the query would
    # silently get depth 1 with no minimizing pair.
    dist = space.distance_matrix(queries, anchor_points)
    if np.isnan(dist).any():
        raise GeometryError("query-anchor distance matrix contains NaN")
    return dist


def approx_depth(
    space: Space,
    sample: Sequence,
    anchors,
    queries: Sequence,
    table: HalfspaceProbTable | None = None,
) -> np.recarray:
    """Anchored halfspace depth of each query with respect to the sample,
    as a ``DEPTH_DTYPE`` record array in query order.

    ``table`` may carry a precomputed :func:`halfspace_prob_table` for these
    (sample, anchors); passing it skips the O(n n_A^2) rebuild. When
    ``queries`` is ``sample`` (the same object), the table's rank codes
    stand in for the query distances, which are then not computed again.
    """
    self_query = queries is sample
    sample = space.stack(sample)
    queries = sample if self_query else space.stack(queries)
    anchor_points = _as_points(space, anchors)
    if len(queries) == 0:
        return np.recarray(0, dtype=DEPTH_DTYPE)
    if table is None:
        table = halfspace_prob_table(space, sample, anchor_points)
    if self_query and table.codes is not None:
        query_codes = table.codes
    else:
        query_codes = _query_distances(space, queries, anchor_points)
    nums, a1, a2 = _min_counts(table, query_codes)
    depths = np.recarray(len(queries), dtype=DEPTH_DTYPE)
    depths.query_index = np.arange(len(queries))
    depths.depth_num, depths.depth_den = nums, table.n
    depths.anchor1, depths.anchor2 = a1, a2
    return depths


def median_pairwise_distance(space: Space, sample: Sequence) -> float:
    """``np.median`` of the distances above the diagonal, bit for bit: NaN if
    any is NaN, else the mean of the same middle entries, placed by one
    partition (numpy's partition at two indices costs several)."""
    pts = space.stack(sample)
    if len(pts) < 2:
        raise GeometryError("need at least 2 points for a distance scale")
    index = np.arange(len(pts))
    upper = space.distance_matrix(pts, pts)[index[:, None] < index]
    if np.isnan(upper).any():
        return float("nan")
    half = len(upper) // 2
    upper.partition(half)
    middle = [upper[half]] if len(upper) % 2 else [upper[:half].max(), upper[half]]
    return float(np.mean(middle))


def _check_radius_frac(radius_frac: float) -> None:
    # A negative fraction would jiggle like its absolute value but stop
    # refinement; NaN would yield NaN anchors.
    if not (radius_frac >= 0 and np.isfinite(radius_frac)):
        raise GeometryError(f"radius_frac must be finite and >= 0, got {radius_frac}")


def _variance(radius: float) -> float:
    """``radius**2``, the variance of a step of that radius; a square past
    the float range raises ``NumericalError`` naming the radius, where
    Python's float power would raise ``OverflowError``."""
    try:
        variance = radius**2
    except OverflowError:
        variance = np.inf
    if not np.isfinite(variance):
        raise NumericalError(f"step radius {radius:g} has no finite square; "
                             "try a smaller --radius-frac")
    return variance


def jiggle_anchors(
    space: Space,
    sample: Sequence,
    k: int,
    radius_frac: float = 0.1,
    seed: int = 0,
    spread: float | None = None,
) -> AnchorSet:
    """Sample points plus k independently perturbed copies of each.

    Perturbations are isotropic Gaussian tangent steps with standard
    deviation ``radius_frac`` times ``spread``, the median pairwise
    distance (computed when None), pushed through the exponential map.
    Each copy draws from its own (seed, point, copy) stream, so anchor sets
    for smaller k are prefixes (per point) of those for larger k. The sample
    is stacked once and its rows, each repeated k times, are the steps'
    bases; the anchors are one stack, the sample rows then the jiggled rows.
    """
    sample = space.stack(sample)
    if len(sample) == 0:
        raise GeometryError("sample must be non-empty")
    if k < 0:
        raise GeometryError("jiggle count must be >= 0")
    _check_radius_frac(radius_frac)
    points = sample
    provenance = [("sample", i) for i in range(len(sample))]
    if k > 0:
        if radius_frac > 0 and len(sample) < 2:
            raise GeometryError("jiggling needs >= 2 points to set a distance scale")
        sigma = 0.0 if radius_frac == 0 else radius_frac * (
            median_pairwise_distance(space, sample) if spread is None else spread)
        bases = (np.repeat(sample, k, axis=0) if isinstance(sample, np.ndarray)
                 else [x for x in sample for _ in range(k)])
        normals = derive_normals(seed, NS_JIGGLE, shape=(len(sample), k),
                                 dim=space.normal_count)
        points = _joined(space, sample,
                         space.normal_steps(bases, [_variance(sigma)] * len(bases), normals))
        provenance += [("jiggled", i) for i in range(len(sample)) for _ in range(k)]
    return AnchorSet(points=points, provenance=tuple(provenance))


def _distance_sums(space: Space, sample: Sequence, queries: Sequence) -> np.ndarray:
    return space.distance_matrix(queries, sample).sum(axis=1)


def in_sample_deepest(
    space: Space,
    sample: Sequence,
    anchors,
    table: HalfspaceProbTable | None = None,
):
    """Deepest sample point: argmax depth, ties by distance sum then index.

    Returns ``(point, depth: Fraction, index)``.
    """
    sample = space.stack(sample)
    depths = approx_depth(space, sample, anchors, sample, table=table)
    nums = depths.depth_num
    top = nums.max()
    tied = np.flatnonzero(nums == top)
    if len(tied) > 1:
        sums = _distance_sums(space, sample, [sample[i] for i in tied])
        tied = tied[np.lexsort((tied, sums))]
    idx = int(tied[0])
    return sample[idx], Fraction(int(nums[idx]), int(depths.depth_den[idx])), idx


def refine_deepest(
    space: Space,
    sample: Sequence,
    anchors,
    start,
    budget: int,
    seed: int = 0,
    radius_frac: float = 0.1,
    table: HalfspaceProbTable | None = None,
    spread: float | None = None,
):
    """Stochastic local search for a deeper (possibly off-sample) point.

    Proposes exponential-map steps whose radius shrinks geometrically from
    the jiggle scale (``radius_frac`` times ``spread``, the median pairwise
    distance, computed when None) down to 1% of it across the budget. A
    proposal is accepted on a strictly larger depth count, or an equal
    count with a smaller sum of distances to the sample. Returns
    ``(point, Fraction)``; the depth never falls below the starting point's.

    A step's normals do not depend on the current point, so the proposals
    of the next ``_DRAW_BLOCK`` steps are drawn from it in one
    :meth:`Space.normal_steps` call, and drawn again after a move is
    accepted or the block is read; a stack of one base repeated gives the
    bits of one-row calls. A proposal's distance row has anchor columns,
    which give its depth, and sample columns, which give its distance sum:
    the anchors' first n columns when the anchors begin with the sample
    points, bit for bit (:func:`_same_points` on the two stacks), as sample
    and jiggled anchors do, and n more columns after the anchors otherwise.
    A geometry that declares :attr:`Space.pairwise_entries` measures a
    drawn block in one call, with the bits of one-row calls; spd:k for
    k != 2 takes one one-row call per proposal read. A proposal whose
    distances fail (an SPD step that rounding leaves outside the cone) is
    rejected like a shallower one, a block call that fails is made again
    row by row, and a draw of proposals that fails raises
    ``NumericalError`` naming its step.

    A proposal is accepted exactly when its count reaches ``t``: the
    current count if its sum is smaller, one more otherwise (a NaN sum is
    not smaller). Each scan (:func:`_min_counts` of one row, the least-count
    pass when compiled) yields a count c and its pair (a1, a2), and any
    point that admits the pair, ``d(y, a1) <= d(y, a2)``, has a count of at
    most c. So the scanned pairs are kept as witnesses, at most ``budget + 1``, and a proposal
    that admits one with ``c < t`` is rejected without a scan. The others
    are scanned, so every decision, point and depth is that of a scan of
    every proposal.
    """
    sample = space.stack(sample)
    if budget < 0:
        raise GeometryError("budget must be >= 0")
    _check_radius_frac(radius_frac)
    anchor_points = _as_points(space, anchors)
    if table is None:
        table = halfspace_prob_table(space, sample, anchor_points)
    n, n_anchors = len(sample), len(anchor_points)
    # Every step reads the same targets, so they are stacked once.
    if n <= n_anchors and _same_points(anchor_points[:n], sample):
        targets, offset = anchor_points, 0
    else:
        targets, offset = _joined(space, anchor_points, sample), n_anchors
    witnesses = np.empty((0, 3), dtype=np.int64)  # rows of (count, a1, a2)

    def scan(row) -> int:
        """Depth count of one distance row, its pair kept as a witness."""
        nonlocal witnesses
        found = np.column_stack(_min_counts(table, row[None, :n_anchors]))
        if found[0, 1] >= 0:
            witnesses = np.concatenate([witnesses, found])
        return int(found[0, 0])

    current = start
    row = _query_distances(space, [current], targets)[0]
    current_num, current_sum = scan(row), float(row[offset:offset + n].sum())
    if budget == 0:
        return current, Fraction(current_num, table.n)

    if len(sample) >= 2 and radius_frac > 0:
        scale = radius_frac * (median_pairwise_distance(space, sample)
                               if spread is None else spread)
    else:
        scale = 0.0
    decay = 0.01 ** (1.0 / budget)
    variances, radius = [], scale
    for _ in range(budget):
        variances.append(_variance(radius))
        radius *= decay
    normals = derive_normals(seed, NS_REFINE, shape=(budget,), dim=space.normal_count)
    failed = (MetricDepthError, np.linalg.LinAlgError)
    step = 0
    while step < budget:
        block = slice(step, min(step + _DRAW_BLOCK, budget))
        try:
            proposals = space.normal_steps([current] * (block.stop - step), variances[block],
                                           normals[block])
        except failed as exc:
            raise NumericalError(f"refinement step {step + 1} of {budget} failed: {exc}; "
                                 "try a smaller --radius-frac") from exc
        rows = None
        if space.pairwise_entries:
            with suppress(*failed):
                rows = _query_distances(space, proposals, targets)
        for i, proposal in enumerate(proposals):
            step += 1
            try:
                row = rows[i] if rows is not None else _query_distances(
                    space, [proposal], targets)[0]
            except failed:
                continue
            prop_sum = float(row[offset:offset + n].sum())
            threshold = current_num if prop_sum < current_sum else current_num + 1
            below = witnesses[witnesses[:, 0] < threshold]
            if (row[below[:, 1]] <= row[below[:, 2]]).any():
                continue
            num = scan(row)
            if num >= threshold:
                current, current_num, current_sum = proposal, num, prop_sum
                break
    return current, Fraction(current_num, table.n)
