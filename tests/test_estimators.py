import math
from fractions import Fraction

import numpy as np
import pytest

from metricdepth import estimators
from metricdepth.depth import (
    halfspace_prob_table,
    in_sample_deepest,
    jiggle_anchors,
    median_pairwise_distance,
    refine_deepest,
)
from metricdepth.errors import NumericalError
from metricdepth.estimators import (
    breakdown_lower_bound,
    frechet_mean,
    frechet_median,
    geodesic_distance_depth,
    mhd_median,
)
from metricdepth.rng import NS_REFINE, derive_rng
from metricdepth.spaces import SPD, Euclidean, Sphere

from conftest import random_points

E1, E2, E3 = np.eye(3)


def euclid(values, dim=1):
    space = Euclidean(dim)
    return space, [space.validate_point(np.atleast_1d(v)) for v in values]


# ------------------------------------------------------------ intrinsic mean

def test_mean_matches_arithmetic_mean(rng):
    space = Euclidean(3)
    pts = random_points(space, 25, rng)
    result = frechet_mean(space, pts)
    assert np.allclose(result.point, np.mean(pts, axis=0), atol=1e-10)
    assert result.converged


def test_mean_sphere_midpoint():
    space = Sphere(2)
    a, b = space.validate_point(E1), space.validate_point(E2)
    result = frechet_mean(space, [a, b])
    assert np.allclose(result.point, np.array([1, 1, 0]) / np.sqrt(2), atol=1e-8)


def test_mean_spd_commuting_geometric_mean():
    space = SPD(2)
    a = space.validate_point(np.eye(2))
    b = space.validate_point(np.diag([math.e**2, math.e**2]))
    result = frechet_mean(space, [a, b])
    assert np.allclose(result.point, np.diag([math.e, math.e]), atol=1e-8)


def test_mean_first_order_condition(rng):
    tol = 1e-8
    for space in (Sphere(2), SPD(2)):
        pts = random_points(space, 15, rng)
        result = frechet_mean(space, pts, tol=tol)
        assert result.converged
        assert result.extras["grad_norm"] <= 10 * tol


def test_mean_antipodal_failure_advises():
    space = Sphere(2)
    pts = [space.validate_point(E1), space.validate_point(-E1)]
    with pytest.raises(NumericalError, match="initial point"):
        frechet_mean(space, pts)


@pytest.mark.parametrize("estimator", [frechet_mean, frechet_median])
def test_intrinsic_estimators_reject_a_nan_sample(estimator):
    # Every objective is NaN, so no start point or step can be judged; the
    # estimators must fail rather than report the first sample point.
    pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([np.nan, 0.0])]
    with pytest.raises(NumericalError, match="not finite"):
        estimator(Euclidean(2), pts)


# ---------------------------------------------------------- intrinsic median

def test_median_majority_point():
    space, pts = euclid([0.0, 0.0, 0.0, 10.0])
    result = frechet_median(space, pts)
    assert np.allclose(result.point, [0.0], atol=1e-8)


def test_median_stops_at_once_at_a_coincident_median(monkeypatch):
    # Three points coincide with the start, and the fourth pulls with norm
    # 1 < 3, so the start is the median (Vardi and Zhang's rule): one
    # distance call ranks the start, one gives the pull, and no step is
    # tried. Without the rule the fit tried all 40 halved steps.
    space, pts = euclid([0.0, 0.0, 0.0, 10.0])
    calls = []
    real = Euclidean.distance_matrix

    def counted(self, xs, ys):
        calls.append(len(xs))
        return real(self, xs, ys)

    monkeypatch.setattr(Euclidean, "distance_matrix", counted)
    result = frechet_median(space, pts)
    assert len(calls) <= 3
    assert result.point is pts[0] and result.converged and result.iterations == 1


def test_median_collinear():
    space = Euclidean(2)
    pts = [space.validate_point(p) for p in [(0, 0), (1, 0), (5, 0)]]
    result = frechet_median(space, pts)
    assert np.allclose(result.point, [1, 0], atol=1e-8)


def test_median_sphere_arc_middle():
    space = Sphere(2)
    angles = [0.0, 0.2, 0.5]  # within a quarter arc of a great circle
    pts = [space.validate_point([np.cos(a), np.sin(a), 0.0]) for a in angles]
    result = frechet_median(space, pts)
    assert np.allclose(result.point, pts[1], atol=1e-8)


def test_median_steps_off_its_start_point():
    # The fit starts at the sample medoid. Weighting the medoid by
    # 1 / WEISZFELD_GUARD would shrink the first step to about the guard
    # and stop the fit there; with its weight 0 the fit reaches the
    # geometric median that plain Weiszfeld finds from the mean.
    space = Euclidean(2)
    pts = np.array(random_points(space, 50, np.random.default_rng(1)))
    y = pts.mean(axis=0)
    for _ in range(2000):
        w = 1.0 / np.linalg.norm(pts - y, axis=1)
        y = w @ pts / w.sum()
    result = frechet_median(space, list(pts))
    assert result.converged
    assert result.objective == pytest.approx(np.linalg.norm(pts - y, axis=1).mean(), abs=1e-9)


def test_median_of_coincident_points_takes_a_zero_step():
    space = SPD(2)
    pts = [space.validate_point(np.eye(2))] * 3
    result = frechet_median(space, pts)
    assert result.converged and result.objective == 0.0


def test_objectives_never_increase(rng):
    space = SPD(2)
    pts = random_points(space, 20, rng)
    init_sq = np.mean(space.distance_matrix(pts, pts) ** 2, axis=1).min()
    init_abs = np.mean(space.distance_matrix(pts, pts), axis=1).min()
    assert frechet_mean(space, pts).objective <= init_sq + 1e-12
    assert frechet_median(space, pts).objective <= init_abs + 1e-12


@pytest.mark.parametrize("space", [SPD(2), Sphere(2)], ids=str)
def test_descent_computes_each_distance_row_once(rng, monkeypatch, space):
    # Each iteration's direction reads the row that its accepted step
    # computed, so no point's distances to the sample are computed twice.
    # The mean and median share the loop; the mean takes many steps here.
    pts = random_points(space, 20, rng)
    rows = []
    distance_matrix = type(space).distance_matrix

    def counted(self, xs, ys):
        if len(xs) == 1:
            rows.append(np.asarray(xs[0]).tobytes())
        return distance_matrix(self, xs, ys)

    trials = []
    exp_many = type(space).exp_many

    def counted_exp(self, bases, tangents):
        trials.append(None)
        return exp_many(self, bases, tangents)

    monkeypatch.setattr(type(space), "distance_matrix", counted)
    monkeypatch.setattr(type(space), "exp_many", counted_exp)
    result = frechet_mean(space, pts)
    assert result.iterations > 2
    assert len(rows) == len(set(rows))
    # The mean's direction reads no distances, so only trials make a row.
    assert len(rows) == len(trials)


# ------------------------------------------------------------------ GDD

def test_gdd_values():
    space, pts = euclid([0.0, 2.0])
    y = space.validate_point([1.0])
    assert geodesic_distance_depth(space, pts, y) == pytest.approx(math.exp(-1))
    assert geodesic_distance_depth(space, [pts[0], pts[0]], pts[0]) == 1.0


def test_gdd_argmax_is_distance_sum_argmin(rng):
    space = Euclidean(2)
    pts = random_points(space, 20, rng)
    gdd = [geodesic_distance_depth(space, pts, p) for p in pts]
    sums = space.distance_matrix(pts, pts).sum(axis=1)
    assert int(np.argmax(gdd)) == int(np.argmin(sums))


# ----------------------------------------------------------------- depth median

def test_mhd_median_three_points():
    space, pts = euclid([1.0, 2.0, 3.0])
    result = mhd_median(space, pts, jiggle_k=0, budget=0, seed=0)
    assert np.allclose(result.point, [2.0])
    assert result.extras["depth_num"] == 2 and result.extras["depth_den"] == 3
    assert result.extras["breakdown_lower_bound"] == pytest.approx(0.4)


def test_mhd_median_single_point():
    space, pts = euclid([7.0])
    result = mhd_median(space, pts, jiggle_k=4, budget=5, seed=0)
    assert np.allclose(result.point, [7.0]) and result.objective == 1.0


def test_mhd_median_congruence_equivariance(rng):
    # With sample anchors and no refinement, mapping the data through a
    # congruence maps the median exactly (same argmax index).
    space = SPD(2)
    pts = random_points(space, 15, rng)
    a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    moved = [space.validate_point(a @ np.asarray(p) @ a.T) for p in pts]
    res = mhd_median(space, pts, jiggle_k=0, budget=0, seed=5)
    res_moved = mhd_median(space, moved, jiggle_k=0, budget=0, seed=5)
    expected = a @ np.asarray(res.point) @ a.T
    assert np.allclose(res_moved.point, expected, atol=1e-8)
    assert res.extras["depth_num"] == res_moved.extras["depth_num"]


def test_mhd_median_deterministic(rng):
    space = Euclidean(2)
    pts = random_points(space, 20, rng)
    r1 = mhd_median(space, pts, jiggle_k=3, budget=20, seed=42)
    r2 = mhd_median(space, pts, jiggle_k=3, budget=20, seed=42)
    assert np.array_equal(r1.point, r2.point)
    assert r1.objective == r2.objective


def test_mhd_median_takes_the_distance_scale_once(rng, monkeypatch):
    # Jiggling and refinement share one median pairwise distance; the
    # result is the one the public steps give, each taking its own.
    space = SPD(2)
    pts = random_points(space, 20, rng)
    calls = []

    def counted(*args):
        calls.append(args)
        return median_pairwise_distance(*args)

    monkeypatch.setattr(estimators, "median_pairwise_distance", counted)
    got = mhd_median(space, pts, jiggle_k=2, budget=12, seed=9)
    assert len(calls) == 1
    anchors = jiggle_anchors(space, pts, 2, 0.1, 9)
    table = halfspace_prob_table(space, pts, anchors)
    start, _, start_idx = in_sample_deepest(space, pts, anchors, table=table)
    point, depth = refine_deepest(space, pts, anchors, start, 12,
                                  seed=derive_rng(9, NS_REFINE).integers(2**32).item(),
                                  table=table)
    assert np.array_equal(got.point, point) and got.objective == float(depth)
    assert got.extras["start_index"] == start_idx


def test_mhd_median_runs_the_public_stages_once_each(rng, monkeypatch):
    # The median chains the public jiggling and refinement steps, so a
    # wrapper on either (a tracing span, say) sees each call.
    space = SPD(2)
    pts = random_points(space, 20, rng)
    calls = []

    def counting(name, stage):
        def counted(*args, **kwargs):
            calls.append(name)
            return stage(*args, **kwargs)
        return counted

    monkeypatch.setattr(estimators, "jiggle_anchors", counting("jiggle", jiggle_anchors))
    monkeypatch.setattr(estimators, "refine_deepest", counting("refine", refine_deepest))
    mhd_median(space, pts, jiggle_k=2, budget=12, seed=9)
    assert calls == ["jiggle", "refine"]


# ------------------------------------------------------------ breakdown bound

def test_breakdown_bound_values():
    assert breakdown_lower_bound(Fraction(1, 2)) == Fraction(1, 3)
    assert breakdown_lower_bound(0.0) == 0.0
    assert breakdown_lower_bound(1.0) == 0.5
    with pytest.raises(Exception):
        breakdown_lower_bound(1.5)
