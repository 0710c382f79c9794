"""Self-queries scan the table's rank codes.

When the queries are the sample itself, ``approx_depth`` reads the table's
per-row rank codes instead of computing the sample-to-anchor distances a
second time. It must give what the query distances give: the same counts,
the same anchor pairs and the same deepest point. The reference below
reads the query distances.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdepth import depth
from metricdepth.depth import (
    HalfspaceProbTable,
    _distance_sums,
    _min_counts,
    approx_depth,
    halfspace_prob_table,
    in_sample_deepest,
    jiggle_anchors,
    refine_deepest,
)
from metricdepth.estimators import mhd_median
from metricdepth.rng import NS_REFINE, derive_rng
from metricdepth.spaces import SPD, Euclidean, Product, Sphere, Spider3

from conftest import distinct_rows, random_points

SPACES = [
    Euclidean(2),
    Sphere(2),
    SPD(2),
    Spider3(),
    Product((Sphere(2), Euclidean(1))),
]


def same_point(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_point(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@st.composite
def samples(draw):
    """A sample on one geometry with exact duplicates and near-duplicates
    (a tangent step of about 1e-11) mixed in, in drawn order."""
    space = draw(st.sampled_from(SPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_points(space, draw(st.integers(1, 7)), rng)
    extra = draw(st.lists(st.tuples(st.booleans(), st.integers(0, len(base) - 1)),
                          max_size=4))
    points = list(base)
    for near, i in extra:
        if near:
            normals = rng.standard_normal((1, space.normal_count))
            points.append(space.normal_steps([base[i]], [1e-22], normals)[0])
        else:
            points.append(base[i])
    order = draw(st.permutations(range(len(points))))
    return space, tuple(points[i] for i in order)


def anchor_sets(space, sample):
    k = 2 if len(sample) >= 2 else 0
    return [sample, jiggle_anchors(space, sample, k, seed=11)]


def triples(reports):
    return [(r.query_index, r.depth_num, r.depth_den, r.anchor1, r.anchor2) for r in reports]


def reference_in_sample_deepest(space, sample, anchors, table):
    dist = space.distance_matrix(sample, tuple(anchors.points))
    nums = _min_counts(table, dist)[0]
    tied = np.flatnonzero(nums == nums.max())
    if len(tied) > 1:
        sums = _distance_sums(space, sample, [sample[i] for i in tied])
        tied = tied[np.lexsort((tied, sums))]
    idx = int(tied[0])
    return sample[idx], Fraction(int(nums[idx]), table.n), idx


@settings(max_examples=120, deadline=None)
@given(samples())
def test_codes_path_equals_distance_path(case):
    space, sample = case
    for anchors in anchor_sets(space, sample):
        by_codes = approx_depth(space, sample, anchors, sample)
        by_distances = approx_depth(space, sample, anchors, list(sample))
        assert triples(by_codes) == triples(by_distances)


@settings(max_examples=60, deadline=None)
@given(samples())
def test_in_sample_deepest_and_mhd_median_match_separate_calls(case):
    space, sample = case
    k = 2 if len(sample) >= 2 else 0
    anchors = jiggle_anchors(space, sample, k, seed=5)
    table = halfspace_prob_table(space, sample, anchors)
    got = in_sample_deepest(space, sample, anchors, table=table)
    want = reference_in_sample_deepest(space, sample, anchors, table)
    assert same_point(got[0], want[0]) and got[1:] == want[1:]

    result = mhd_median(space, sample, jiggle_k=2, budget=4, seed=5)
    refine_seed = derive_rng(5, NS_REFINE).integers(2**32).item()
    point, fraction = refine_deepest(space, sample, anchors, want[0], 4, seed=refine_seed,
                                     table=table)
    assert same_point(result.point, point)
    assert result.objective == float(fraction)
    assert result.extras["start_index"] == want[2]
    assert Fraction(result.extras["depth_num"], result.extras["depth_den"]) == fraction


def test_table_keeps_the_codes_it_counted(rng):
    space = Sphere(2)
    sample = random_points(space, 30, rng)
    anchors = jiggle_anchors(space, sample, 3, seed=2)
    table = halfspace_prob_table(space, sample, anchors)
    assert table.codes.shape == (30, len(anchors))
    assert np.array_equal(table.counts,
                          depth._prob_counts(table.codes, distinct_rows(table.codes)))


def test_self_query_skips_the_query_distances(rng, monkeypatch):
    space = SPD(2)
    sample = tuple(random_points(space, 20, rng))
    calls = []
    original = SPD.distance_matrix
    monkeypatch.setattr(SPD, "distance_matrix",
                        lambda self, xs, ys: calls.append(len(xs)) or original(self, xs, ys))
    approx_depth(space, sample, sample, sample)
    assert calls == [20]
    approx_depth(space, sample, sample, list(sample))
    assert calls == [20, 20, 20]


def test_table_without_codes_reads_the_query_distances(rng):
    space = Euclidean(2)
    sample = tuple(random_points(space, 12, rng))
    full = halfspace_prob_table(space, sample, sample)
    bare = HalfspaceProbTable(counts=full.counts, n=full.n)
    assert bare.codes is None
    assert triples(approx_depth(space, sample, sample, sample, table=bare)) == \
        triples(approx_depth(space, sample, sample, sample, table=full))
