from fractions import Fraction

import numpy as np
import pytest

from metricdepth.depth import (
    DEPTH_DTYPE,
    AnchorSet,
    approx_depth,
    halfspace_prob_table,
    in_sample_deepest,
    jiggle_anchors,
    median_pairwise_distance,
    refine_deepest,
)
from metricdepth.errors import GeometryError, NumericalError
from metricdepth.spaces import SPD, Euclidean, Sphere
from metricdepth.tukey import tukey_depth_1d, tukey_depth_2d

from conftest import random_points

E1, E2, E3 = np.eye(3)


def points_1d(values):
    space = Euclidean(1)
    return space, [space.validate_point([v]) for v in values]


def depth_fractions(space, sample, anchors, queries):
    depths = approx_depth(space, sample, anchors, queries)
    return [Fraction(num, den)
            for num, den in zip(depths.depth_num.tolist(), depths.depth_den.tolist())]


# ------------------------------------------------------------- membership

def test_membership_boundary_included():
    # counts[a1, a2] counts y when d(y, a1) <= d(y, a2): an equidistant y
    # lies in both halfspaces of the pair.
    space, pts = points_1d([1, 2, 3])
    y, x1, x2 = pts[1], pts[0], pts[2]
    assert halfspace_prob_table(space, [y], [x1, x2]).counts.tolist() == [[1, 1], [1, 1]]
    far = points_1d([0])[1][0]
    assert halfspace_prob_table(space, [far], [x2, x1]).counts.tolist() == [[1, 0], [1, 1]]


def test_membership_sphere_boundary():
    space = Sphere(2)
    y = space.validate_point(E3)
    anchors = [space.validate_point(E1), space.validate_point(-E1)]
    assert halfspace_prob_table(space, [y], anchors).counts.tolist() == [[1, 1], [1, 1]]


# ------------------------------------------------------------ prob table

def test_prob_table_hand_enumeration():
    space, pts = points_1d([1, 2, 3])
    table = halfspace_prob_table(space, pts, pts)
    assert Fraction(int(table.counts[0, 2]), table.n) == Fraction(2, 3)
    assert Fraction(int(table.counts[0, 1]), table.n) == Fraction(1, 3)


def test_prob_table_full_mass():
    space, pts = points_1d([1, 2, 3])
    anchors = [space.validate_point([0.0]), space.validate_point([-10.0])]
    table = halfspace_prob_table(space, pts, anchors)
    assert Fraction(int(table.counts[0, 1]), table.n) == Fraction(3, 3)


def test_prob_table_tie_inequality(rng):
    # counts[a][b] + counts[b][a] >= n: equidistance boundary counted twice.
    for space in (Euclidean(2), Sphere(2), SPD(2)):
        pts = random_points(space, 15, rng)
        table = halfspace_prob_table(space, pts, pts)
        counts = table.counts.astype(np.int64)
        assert np.all(counts + counts.T >= table.n)
        assert counts.min() >= 0 and counts.max() <= table.n


def test_prob_table_empty_sample_rejected():
    space, pts = points_1d([1])
    with pytest.raises(GeometryError):
        halfspace_prob_table(space, [], pts)


# ------------------------------------------------------------ approx depth

def test_depth_three_points():
    space, pts = points_1d([1, 2, 3])
    assert depth_fractions(space, pts, pts, pts) == [
        Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)]


def test_depth_far_query_hits_floor():
    space, pts = points_1d([1, 2, 3])
    far = space.validate_point([100.0])
    report = approx_depth(space, pts, pts, [far])[0]
    assert (report.depth_num, report.depth_den) == (1, 3)
    assert (report.anchor1, report.anchor2) == (2, 1)  # backed by pair (3, 2)


def test_depth_sphere_four_anchor_example():
    space = Sphere(2)
    pts = [space.validate_point(p) for p in (E1, -E1, E2, -E2)]
    assert depth_fractions(space, pts, pts, [space.validate_point(E3)]) == [Fraction(1, 2)]


def test_depth_single_anchor_convention():
    space, pts = points_1d([5])
    report = approx_depth(space, pts, pts, [space.validate_point([7.0])])[0]
    assert (report.depth_num, report.depth_den) == (1, 1)
    assert report.anchor1 == -1 and report.anchor2 == -1


def test_depth_empty_queries():
    space, pts = points_1d([1, 2])
    depths = approx_depth(space, pts, pts, [])
    assert len(depths) == 0 and depths.dtype == DEPTH_DTYPE


def test_depth_floor_with_sample_anchors(rng):
    # Anchors drawn from the sample put every halfspace mass at >= 1/n.
    space = Euclidean(2)
    pts = random_points(space, 20, rng)
    queries = random_points(space, 10, rng)
    for fraction in depth_fractions(space, pts, pts, queries):
        assert fraction >= Fraction(1, 20)


def test_more_anchors_never_increase_depth(rng):
    space = Euclidean(2)
    pts = random_points(space, 25, rng)
    queries = random_points(space, 10, rng)
    small = jiggle_anchors(space, pts, 2, seed=11)
    large = jiggle_anchors(space, pts, 6, seed=11)
    # Per-point jiggle streams make smaller anchor sets sub-multisets of
    # larger ones for the same seed.
    assert set(map(tuple, (np.asarray(p) for p in small.points))) <= set(
        map(tuple, (np.asarray(p) for p in large.points)))
    for lo, hi in zip(depth_fractions(space, pts, large, queries),
                      depth_fractions(space, pts, small, queries)):
        assert lo <= hi


def test_depth_upper_bounds_exact_tukey(rng):
    space = Euclidean(2)
    for _ in range(25):
        pts = random_points(space, 20, rng)
        arr = np.asarray(pts)
        queries = pts[:3] + random_points(space, 2, rng)
        for j, fraction in enumerate(depth_fractions(space, pts, pts, queries)):
            oracle = tukey_depth_2d(arr, np.asarray(queries[j]))
            assert fraction >= oracle


def test_r1_exactness_matches_rank_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(3, 30))
        values = rng.standard_normal(n)
        space, pts = points_1d(values)
        for j, fraction in enumerate(depth_fractions(space, pts, pts, pts)):
            assert fraction == tukey_depth_1d(values, values[j])


# ---------------------------------------------------------------- jiggling

def test_jiggle_zero_is_identity():
    space, pts = points_1d([1, 2, 3])
    anchors = jiggle_anchors(space, pts, 0)
    assert len(anchors) == 3
    assert anchors.provenance == (("sample", 0), ("sample", 1), ("sample", 2))


def test_jiggle_count_and_determinism(rng):
    space = Euclidean(2)
    pts = random_points(space, 12, rng)
    a = jiggle_anchors(space, pts, 10, seed=3)
    b = jiggle_anchors(space, pts, 10, seed=3)
    assert len(a) == 12 * 11
    assert all(np.array_equal(x, y) for x, y in zip(a.points, b.points))
    c = jiggle_anchors(space, pts, 10, seed=4)
    assert any(not np.array_equal(x, y) for x, y in zip(a.points, c.points))


def test_jiggle_scale(rng):
    space = Euclidean(2)
    pts = random_points(space, 10, rng)
    radius_frac = 0.1
    target = radius_frac * median_pairwise_distance(space, pts)
    anchors = jiggle_anchors(space, pts, 100, radius_frac=radius_frac, seed=9)
    displacements = [
        space.distance_matrix([pts[i]], [p])[0, 0]
        for p, (tag, i) in zip(anchors.points, anchors.provenance)
        if tag == "jiggled"
    ]
    med = np.median(displacements)
    assert 0.3 * target <= med <= 3.0 * target


def test_jiggle_needs_scale():
    space, pts = points_1d([1])
    with pytest.raises(GeometryError):
        jiggle_anchors(space, pts, 2, radius_frac=0.1)


@pytest.mark.parametrize("radius_frac", [-0.1, float("nan"), float("inf")])
def test_jiggle_rejects_bad_radius_frac(radius_frac):
    space, pts = points_1d([1, 2, 3])
    with pytest.raises(GeometryError, match="radius_frac"):
        jiggle_anchors(space, pts, 2, radius_frac=radius_frac)


@pytest.mark.parametrize("radius_frac", [1e200, 1e308])
def test_jiggle_with_an_unsquarable_radius_is_a_numerical_error(radius_frac):
    # The radius is finite but its square is not, which a float power
    # raised as OverflowError.
    space, pts = points_1d([1, 2, 3])
    with pytest.raises(NumericalError, match="step radius .* has no finite square"):
        jiggle_anchors(space, pts, 2, radius_frac=radius_frac)


# ----------------------------------------------------------- deepest point

def test_in_sample_deepest_three_points():
    space, pts = points_1d([1, 2, 3])
    point, depth, index = in_sample_deepest(space, pts, pts)
    assert np.allclose(point, [2.0]) and depth == Fraction(2, 3) and index == 1


def test_in_sample_deepest_tie_break():
    space, pts = points_1d([1, 2, 3, 4])
    point, depth, index = in_sample_deepest(space, pts, pts)
    assert np.allclose(point, [2.0]) and depth == Fraction(1, 2) and index == 1


def test_in_sample_deepest_singleton():
    space, pts = points_1d([5])
    point, depth, index = in_sample_deepest(space, pts, pts)
    assert np.allclose(point, [5.0]) and depth == Fraction(1) and index == 0


def test_refine_budget_zero_keeps_start():
    space, pts = points_1d([1, 2, 3, 4])
    start, depth, _ = in_sample_deepest(space, pts, pts)
    point, refined = refine_deepest(space, pts, pts, start, budget=0, seed=2)
    assert np.array_equal(point, start) and refined == depth


def test_refine_never_loses_depth(rng):
    space = Euclidean(2)
    pts = random_points(space, 30, rng)
    anchors = jiggle_anchors(space, pts, 3, seed=1)
    start, depth, _ = in_sample_deepest(space, pts, anchors)
    _, refined = refine_deepest(space, pts, anchors, start, budget=50, seed=1)
    assert refined >= depth


@pytest.mark.parametrize("radius_frac", [-0.1, float("nan"), float("inf")])
def test_refine_rejects_bad_radius_frac(radius_frac):
    space, pts = points_1d([1, 2, 3, 4])
    with pytest.raises(GeometryError, match="radius_frac"):
        refine_deepest(space, pts, pts, pts[1], budget=5, radius_frac=radius_frac)


@pytest.mark.parametrize("radius_frac", [1e200, 1e308])
def test_refine_with_an_unsquarable_radius_is_a_numerical_error(radius_frac):
    space, pts = points_1d([1, 2, 3, 4])
    with pytest.raises(NumericalError, match="step radius .* has no finite square"):
        refine_deepest(space, pts, pts, pts[1], budget=4, radius_frac=radius_frac)


def test_refine_respects_depth_ceiling():
    space, pts = points_1d([1, 2, 3, 4])
    start, _, _ = in_sample_deepest(space, pts, pts)
    _, refined = refine_deepest(space, pts, pts, start, budget=200, seed=7)
    assert refined == Fraction(1, 2)


# ------------------------------------------------------------- invariances

def _depth_counts(space, pts, queries):
    return [r.depth_num for r in approx_depth(space, pts, pts, queries)]


def test_isometry_invariance_euclidean(rng):
    space = Euclidean(3)
    pts = random_points(space, 20, rng)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    shift = rng.standard_normal(3)
    moved = [space.validate_point(q @ np.asarray(p) + shift) for p in pts]
    assert _depth_counts(space, pts, pts) == _depth_counts(space, moved, moved)


def test_isometry_invariance_sphere(rng):
    from scipy.stats import ortho_group

    space = Sphere(2)
    pts = random_points(space, 20, rng)
    q = ortho_group.rvs(3, random_state=np.random.RandomState(31))
    moved = [space.validate_point(q @ np.asarray(p)) for p in pts]
    assert _depth_counts(space, pts, pts) == _depth_counts(space, moved, moved)


def test_isometry_invariance_spd_and_argmax_equivariance(rng):
    space = SPD(2)
    pts = random_points(space, 18, rng)
    a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    moved = [space.validate_point(a @ np.asarray(p) @ a.T) for p in pts]
    assert _depth_counts(space, pts, pts) == _depth_counts(space, moved, moved)
    _, depth0, idx0 = in_sample_deepest(space, pts, pts)
    _, depth1, idx1 = in_sample_deepest(space, moved, moved)
    assert depth0 == depth1 and idx0 == idx1


def test_r1_monotone_from_deepest(rng):
    # Exact sample depth is non-increasing along the segment from the
    # deepest sample point to any query.
    for _ in range(30):
        values = rng.standard_normal(int(rng.integers(3, 25)))
        space, pts = points_1d(values)
        _, _, idx = in_sample_deepest(space, pts, pts)
        theta = values[idx]
        query = float(rng.standard_normal() * 3)
        grid = theta + np.linspace(0, 1, 50) * (query - theta)
        depths = [tukey_depth_1d(values, g) for g in grid]
        assert all(a >= b for a, b in zip(depths, depths[1:]))


def test_breakdown_diagnostic_range(rng):
    from metricdepth.estimators import breakdown_lower_bound

    space = Euclidean(2)
    for _ in range(10):
        pts = random_points(space, 15, rng)
        _, depth, _ = in_sample_deepest(space, pts, pts)
        bound = breakdown_lower_bound(depth)
        assert Fraction(0) < bound <= Fraction(1, 2)


def test_anchor_set_validation():
    with pytest.raises(GeometryError):
        AnchorSet(points=(), provenance=())
    with pytest.raises(GeometryError):
        AnchorSet(points=(1.0,), provenance=())
