import math

import numpy as np
import pytest

from metricdepth.errors import GeometryError, PointValidationError, UndefinedLogError
from metricdepth.spaces import (
    SPD,
    Euclidean,
    Product,
    Sphere,
    Spider3,
    SpiderPoint,
    SpiderStep,
    parse_space,
)

from conftest import random_points

E1, E2, E3 = np.eye(3)

ALL_SPACES = [
    Euclidean(3),
    Sphere(2),
    SPD(2),
    Spider3(),
    Product((SPD(2), Euclidean(3))),
]


def _pair_distance(space, x, y) -> float:
    return float(space.distance_matrix([x], [y])[0, 0])


def _geodesic_point(space, x, y, t: float):
    """Point at fraction ``t`` along the geodesic from ``x`` to ``y``: the
    exp of the log from ``x`` to ``y``, scaled by ``t``."""
    return space.exp_many([x], space.scale_tangents(space.mean_log(x, [y]), t))[0]


def _normal_tangents(space, bases, scatter, rng):
    """One Gaussian tangent per base, from one row of normals each."""
    normals = rng.standard_normal((len(bases), space.normal_count))
    return space.normal_tangents(bases, [scatter] * len(bases), normals)


# ---------------------------------------------------------------- distances

def test_euclidean_pythagorean():
    space = Euclidean(2)
    assert _pair_distance(space, space.validate_point([0, 0]), space.validate_point([3, 4])) == 5.0


def test_sphere_quarter_arc():
    space = Sphere(2)
    d = _pair_distance(space, space.validate_point(E1), space.validate_point(E2))
    assert d == pytest.approx(np.pi / 2, abs=1e-15)


def test_spd_diagonal_distance():
    space = SPD(2)
    d = _pair_distance(space, space.validate_point(np.eye(2)),
                       space.validate_point(np.diag([math.e**2, 1.0])))
    assert d == pytest.approx(2.0, abs=1e-12)


def test_spider_cross_branch_distance():
    space = Spider3()
    x = space.validate_point((2, 1))
    y = space.validate_point((3, 2))
    z = space.validate_point((0.5, 1))
    assert space.distance_matrix([x], [y, z]).tolist() == [[5.0, 1.5]]


def test_product_distance_is_l2_combination():
    space = Product((Euclidean(1), Euclidean(1)))
    x = space.validate_point(([0.0], [0.0]))
    y = space.validate_point(([3.0], [4.0]))
    assert _pair_distance(space, x, y) == pytest.approx(5.0)


@pytest.mark.parametrize("components", [
    (SPD(2), Sphere(2)),
    (SPD(2), Sphere(2), Spider3()),
])
def test_product_distance_matrix_is_the_root_of_summed_squares(rng, components):
    # Squared and summed in place, the entries keep the bits of
    # sqrt(sum of each component's matrix squared), in component order.
    space = Product(components)
    xs, ys = random_points(space, 23, rng), random_points(space, 37, rng)
    parts = [comp.distance_matrix([x[k] for x in xs], [y[k] for y in ys])
             for k, comp in enumerate(components)]
    want = np.sqrt(sum(d**2 for d in parts))
    got = space.distance_matrix(xs, ys)
    assert got.dtype == want.dtype and got.shape == (23, 37)
    assert got.tobytes() == want.tobytes()


def test_distance_matrix_matches_scalar(rng):
    # Every entry has the bits of its own 1 x 1 call.
    for space in ALL_SPACES:
        pts = random_points(space, 6, rng)
        mat = space.distance_matrix(pts, pts)
        for i in range(6):
            for j in range(6):
                assert mat[i, j] == _pair_distance(space, pts[i], pts[j])
        assert np.allclose(mat, mat.T, atol=1e-12)
        assert np.all(mat >= 0)
        assert np.allclose(np.diag(mat), 0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 5, 8, 12, 30, 100])
def test_euclidean_distance_matrix_matches_cdist_bitwise(dim, rng):
    # Inputs span seven orders of magnitude; at dim >= 8 a pairwise
    # (numpy sum) reduction would round differently from cdist's loop.
    from scipy.spatial.distance import cdist

    a = rng.standard_normal((40, dim)) * 10.0 ** rng.uniform(-3, 4, (40, 1))
    b = rng.standard_normal((30, dim)) * 10.0 ** rng.uniform(-3, 4, (30, 1))
    space = Euclidean(dim)
    assert np.array_equal(space.distance_matrix(list(a), list(b)), cdist(a, b))
    assert np.array_equal(space.distance_matrix(list(a), list(a)), cdist(a, a))


def test_triangle_inequality(rng):
    # All ordered triples from a 30-point pool: 27000 checks per space.
    for space in ALL_SPACES:
        pts = random_points(space, 30, rng)
        d = space.distance_matrix(pts, pts)
        via = d[:, :, None] + d[None, :, :]  # via[x, y, z] = d(x,y) + d(y,z)
        assert np.all(d[:, None, :] <= via + 1e-9)


# ----------------------------------------------------------- exp / log maps

def test_exp_examples():
    e2 = Euclidean(2)
    x = e2.validate_point([1, 1])
    moved = e2.exp_many([x], e2.tangents_from_coords([x], [[1, 0]]))[0]
    assert np.allclose(moved, [2, 1])

    s2 = Sphere(2)
    x = s2.validate_point(E1)
    v = s2.mean_log(x, [s2.validate_point(E2)])
    assert np.allclose(s2.exp_many([x], v)[0], E2, atol=1e-12)

    spd = SPD(2)
    base = spd.validate_point(np.eye(2))
    out = spd.exp_many([base], np.diag([1.0, 0.0])[None])[0]
    assert np.allclose(out, np.diag([math.e, 1.0]), atol=1e-12)


def test_log_examples():
    e2 = Euclidean(2)
    x, y = e2.validate_point([0, 1]), e2.validate_point([2, 5])
    assert np.allclose(e2.mean_log(x, [y]), [[2, 4]])

    s2 = Sphere(2)
    v = s2.mean_log(s2.validate_point(E1), [s2.validate_point(E2)])
    assert np.allclose(v, [(np.pi / 2) * E2], atol=1e-12)

    with pytest.raises(UndefinedLogError):
        s2.mean_log(s2.validate_point(E1), [s2.validate_point(-E1)])

    # Spider: from the origin the step leaves on the target's branch (branch 1
    # when the target is the origin too); a step to the origin runs down the
    # base's branch; a step to another branch runs through the origin, so it
    # is as long as the distance.
    sp = Spider3()
    origin = sp.validate_point((0.0, 1))
    on2, on3 = sp.validate_point((1.5, 2)), sp.validate_point((2.0, 3))
    for x, y, step in [
        (origin, on3, SpiderStep(2.0, 3)),
        (origin, origin, SpiderStep(0.0, 1)),
        (on2, origin, SpiderStep(-1.5, 1)),
        (on2, on3, SpiderStep(-3.5, 3)),
        (on3, sp.validate_point((0.5, 3)), SpiderStep(-1.5, 1)),
    ]:
        v = sp.mean_log(x, [y])
        assert v == (step,)
        assert sp.exp_many([x], v) == [y]

    prod = Product((Euclidean(2), Spider3()))
    x = prod.validate_point(([0, 1], (1.0, 1)))
    y = prod.validate_point(([2, 5], (0.5, 2)))
    v = prod.mean_log(x, [y])
    assert v[1] == (SpiderStep(-1.5, 2),)
    assert np.allclose(prod.tangent_coords([x], v), [[2, 4, -1.5]])
    assert _pair_distance(prod, prod.exp_many([x], v)[0], y) <= 1e-12


def test_exp_log_roundtrip(rng):
    for space in ALL_SPACES:
        xs = random_points(space, 40, rng)[:20]
        # Norms well inside injectivity.
        ys = space.exp_many(xs, _normal_tangents(space, xs, 0.09, rng))
        for x, y in zip(xs, ys):
            back = space.mean_log(x, [y])
            assert _pair_distance(space, space.exp_many([x], back)[0], y) <= 1e-8
            assert abs(space.tangent_norms([x], back)[0] - _pair_distance(space, x, y)) <= 1e-8


def test_log_norm_equals_distance(rng):
    for space in ALL_SPACES:
        pts = random_points(space, 20, rng)
        for x, y in zip(pts[:10], pts[10:]):
            try:
                v = space.mean_log(x, [y])
            except UndefinedLogError:
                continue
            assert abs(space.tangent_norms([x], v)[0] - _pair_distance(space, x, y)) <= 1e-8


# ------------------------------------------------------------- geodesics

def test_geodesic_examples():
    e1 = Euclidean(1)
    mid = _geodesic_point(e1, e1.validate_point([0]), e1.validate_point([4]), 0.5)
    assert np.allclose(mid, [2])

    spider = Spider3()
    at_origin = _geodesic_point(spider, spider.validate_point((2, 1)),
                                spider.validate_point((3, 2)), 0.4)
    assert at_origin == SpiderPoint(0.0, 1)

    s2 = Sphere(2)
    end = _geodesic_point(s2, s2.validate_point(E1), s2.validate_point(E2), 1.0)
    assert np.allclose(end, E2, atol=1e-12)


def test_geodesic_speed(rng):
    for space in ALL_SPACES:
        pts = random_points(space, 20, rng)
        for x, y in zip(pts[:10], pts[10:]):
            total = _pair_distance(space, x, y)
            s, t = sorted(rng.uniform(0, 1, size=2))
            try:
                gs = _geodesic_point(space, x, y, s)
                gt = _geodesic_point(space, x, y, t)
            except UndefinedLogError:
                continue
            assert _pair_distance(space, gs, gt) == pytest.approx((t - s) * total, abs=1e-8)
            assert _pair_distance(space, x, gs) == pytest.approx(s * total, abs=1e-8)


# ------------------------------------------------------------- validation

def test_sphere_renormalizes_near_unit():
    s2 = Sphere(2)
    x = s2.validate_point([1 + 1e-7, 0, 0])
    assert np.allclose(x, E1)
    assert abs(np.linalg.norm(x) - 1) <= 1e-9
    with pytest.raises(PointValidationError):
        s2.validate_point([1.1, 0, 0])


def test_spd_rejects_indefinite_and_asymmetric():
    spd = SPD(2)
    with pytest.raises(PointValidationError):
        spd.validate_point(np.diag([1.0, -0.1]))
    with pytest.raises(PointValidationError):
        spd.validate_point(np.array([[1.0, 0.5], [0.1, 1.0]]))
    # small asymmetry is symmetrized away
    jittered = np.array([[2.0, 0.3 + 5e-7], [0.3, 1.0]])
    fixed = spd.validate_point(jittered)
    assert np.allclose(fixed, fixed.T)


def test_spider_origin_canonicalized():
    spider = Spider3()
    assert spider.validate_point((0, 3)) == SpiderPoint(0.0, 1)
    with pytest.raises(PointValidationError):
        spider.validate_point((-1, 2))
    with pytest.raises(PointValidationError):
        spider.validate_point((1, 4))


def test_dimension_mismatch_rejected():
    with pytest.raises(PointValidationError):
        Euclidean(3).validate_point([1, 2])
    with pytest.raises(PointValidationError):
        Sphere(2).validate_point([1, 0])
    with pytest.raises(PointValidationError):
        SPD(2).validate_point(np.eye(3))


# --------------------------------------------------------- random tangents

def test_zero_scatter_gives_zero_vector(rng):
    for space in ALL_SPACES:
        x = random_points(space, 1, rng)
        assert space.tangent_norms(x, _normal_tangents(space, x, 0.0, rng)).tolist() == [0.0]


def test_euclidean_tangent_covariance(rng):
    space = Euclidean(2)
    x = space.validate_point([0, 0])
    var = 0.7
    draws = _normal_tangents(space, [x] * 100_000, var, rng)
    cov = np.cov(draws.T)
    assert np.allclose(cov, var * np.eye(2), rtol=0.02, atol=0.02 * var)


def test_sphere_tangents_orthogonal(rng):
    space = Sphere(2)
    pts = random_points(space, 50, rng)
    tangents = _normal_tangents(space, pts, 0.3, rng)
    assert np.all(np.abs(np.vecdot(tangents, pts)) <= 1e-12)


def test_full_covariance_scatter(rng):
    space = Euclidean(2)
    x = space.validate_point([0, 0])
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    draws = _normal_tangents(space, [x] * 60_000, cov, rng)
    assert np.allclose(np.cov(draws.T), cov, atol=0.03)


def test_spd_tangent_norm_is_riemannian(rng):
    # Isotropic chart draws must have Riemannian norm equal to the chart norm.
    space = SPD(2)
    identity = [space.validate_point(np.eye(2))]
    base = space.exp_many(identity, _normal_tangents(space, identity, 0.4, rng))[:1]
    coords = rng.standard_normal((1, 3))
    v = space.tangents_from_coords(base, coords)
    assert space.tangent_norms(base, v)[0] == pytest.approx(np.linalg.norm(coords), abs=1e-10)
    assert np.allclose(space.tangent_coords(base, v), coords, atol=1e-10)


# ------------------------------------------------------------- isometries

def test_sphere_rotation_isometry(rng):
    from scipy.stats import ortho_group

    space = Sphere(2)
    pts = random_points(space, 30, rng)
    q = ortho_group.rvs(3, random_state=np.random.RandomState(7))
    rotated = [space.validate_point(q @ np.asarray(p)) for p in pts]
    before = space.distance_matrix(pts, pts)
    after = space.distance_matrix(rotated, rotated)
    # Off-diagonal only: arccos conditioning turns dot-product rounding into
    # ~1e-8 jitter for a point against itself, where the distance is 0 anyway.
    off = ~np.eye(len(pts), dtype=bool)
    assert np.allclose(before[off], after[off], atol=1e-12)
    assert np.allclose(np.diag(after), 0.0, atol=1e-7)


def test_spd_congruence_isometry(rng):
    space = SPD(2)
    pts = random_points(space, 30, rng)
    a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    mapped = [space.validate_point(a @ np.asarray(p) @ a.T) for p in pts]
    before = space.distance_matrix(pts, pts)
    after = space.distance_matrix(mapped, mapped)
    assert np.allclose(before, after, atol=1e-8)


# ------------------------------------------------------------ space grammar

def test_parse_space_round_trip():
    for text in ["euclidean:3", "sphere:2", "spd:4", "spider3",
                 "product:spd:2+euclidean:3"]:
        assert parse_space(text).spec_string == text


def test_parse_space_rejects_garbage():
    for bad in ["euclidean", "sphere:x", "spider3:1", "product:spd:2", "torus:2"]:
        with pytest.raises(GeometryError):
            parse_space(bad)


def test_intrinsic_dimensions():
    assert Euclidean(4).intrinsic_dim == 4
    assert Sphere(3).intrinsic_dim == 3
    assert SPD(3).intrinsic_dim == 6
    assert Spider3().intrinsic_dim == 1
    assert Product((SPD(2), Euclidean(3))).intrinsic_dim == 6


def test_encode_decode_round_trip(rng):
    for space in ALL_SPACES:
        for p in random_points(space, 5, rng):
            q = space.decode_point(space.encode_point(p))
            assert _pair_distance(space, p, q) <= 1e-12
