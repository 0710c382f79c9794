"""Sphere distances as 2 atan2(||x - y||, ||x + y||): the properties that the
exact depth counts need, on the compiled ``sphere`` kernel and its numpy
body alike.

A matrix is exactly symmetric with an exact zero diagonal; an entry does
not depend on the call's shape; both bodies give the same bits; a point is
never farther from itself than from a neighbour 1e-10 away and exactly 0
from itself, which the clipped ``arccos`` of a BLAS Gram matrix got wrong
in 687 of the 2 000 trials below (farther in 525 of them); and every entry lies within the module docstring's error
bound of an extended-precision reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdepth import _native
from metricdepth.spaces import Sphere
from metricdepth.spaces import sphere as sphere_module

from conftest import numpy_kernels

EPS = np.finfo(float).eps


@pytest.fixture(params=["native", "numpy"])
def kernels(request):
    """Each test runs on the compiled kernel and on the numpy body."""
    if request.param == "numpy":
        with numpy_kernels():
            yield request.param
    else:
        if _native.library() is None:
            pytest.skip("the compiled kernels cannot be built here")
        yield request.param


def unit_rows(rng, n, dim):
    space = Sphere(dim)
    raw = rng.standard_normal((n, dim + 1))
    return space, space.validate_points(list(raw / np.linalg.norm(raw, axis=1, keepdims=True)))


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_self_distances_are_exactly_symmetric_with_a_zero_diagonal(kernels, dim):
    space, points = unit_rows(np.random.default_rng(dim), 300, dim)
    # Duplicates and antipodes as well as spread points.
    points = points + points[:5] + [-p for p in points[5:10]]
    dist = space.distance_matrix(points, points)
    assert np.array_equal(dist, dist.T)
    assert (np.diag(dist) == 0).all()
    assert (dist >= 0).all() and (dist <= np.pi).all()
    assert np.array_equal(space.distance_matrix(points[:40], points[100:]),
                          space.distance_matrix(points[100:], points[:40]).T)


@pytest.mark.parametrize("n_cols", [1, 7, 300, 5000])
def test_a_sub_call_equals_the_same_sub_matrix(kernels, n_cols):
    # Rows cross the 2**15-pair chunks at every width, and one-row calls
    # are what refinement makes.
    space, points = unit_rows(np.random.default_rng(n_cols), 400, 2)
    cols = unit_rows(np.random.default_rng(n_cols + 1), n_cols, 2)[1]
    full = space.distance_matrix(points, cols)
    for lo, hi in ((0, 1), (3, 4), (7, 14), (100, 333), (0, 400)):
        assert np.array_equal(space.distance_matrix(points[lo:hi], cols), full[lo:hi])
    assert np.array_equal(space.distance_matrix(points, cols[:1]), full[:, :1])


def test_kernel_equals_its_numpy_body():
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    rng = np.random.default_rng(7)
    for dim in (1, 2, 5, 30):
        space, points = unit_rows(rng, 200, dim)
        # Near-duplicates and near-antipodes, where the norms cancel.
        close = [space.validate_point(p + 1e-9 * rng.standard_normal(dim + 1)) for p in points[:20]]
        points = points + close + [-p for p in close]
        got = space.distance_matrix(points, points[::-1])
        with numpy_kernels():
            want = space.distance_matrix(points, points[::-1])
        assert np.array_equal(got, want)


def test_kernel_and_body_pass_nan_and_inf_on():
    # No warning and no error: NaN stays NaN, and both bodies agree on
    # every entry, as they do on finite ones.
    x = np.array([[np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 1.0]])
    y = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    space = Sphere(2)
    with numpy_kernels():
        want = space.distance_matrix(x, y)
    assert np.isnan(want[0]).all()
    assert np.array_equal(want[2], [0.0, np.pi / 2])
    if _native.library() is not None:
        assert np.array_equal(space.distance_matrix(x, y), want, equal_nan=True)


def test_a_point_is_never_farther_from_itself_than_from_a_neighbour(kernels):
    rng = np.random.default_rng(0)
    space = Sphere(2)
    x = rng.standard_normal((2000, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    near = x + 1e-10 * rng.standard_normal((2000, 3))
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    for a, b in zip(x, near):
        dist = space.distance_matrix([a], [a, b])[0]
        assert dist[0] == 0 <= dist[1]


def reference(x, y):
    """The angle between x / ||x|| and y / ||y|| by the same formula, in
    numpy's extended precision (64-bit significands on x86-64)."""
    x = x.astype(np.longdouble)
    y = y.astype(np.longdouble)
    x /= np.sqrt((x * x).sum(axis=1, keepdims=True))
    y /= np.sqrt((y * y).sum(axis=1, keepdims=True))
    minus = np.sqrt(((x[:, None] - y[None]) ** 2).sum(axis=2))
    plus = np.sqrt(((x[:, None] + y[None]) ** 2).sum(axis=2))
    return 2 * np.arctan2(minus, plus)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 5, 30]),
       scale=st.sampled_from([1e-12, 1e-6, 1e-2, 1.0]))
def test_distances_lie_within_their_error_bound(seed, dim, scale):
    # Near pairs, near antipodes and spread pairs: twice the docstring's
    # (m + 5)/2 eps sin(d), plus 4 ulp(d) for arctan2, plus the norms'
    # difference, which validation leaves within a few eps.
    if np.finfo(np.longdouble).eps >= EPS:
        pytest.skip("no extended precision on this platform")
    rng = np.random.default_rng(seed)
    space, points = unit_rows(rng, 20, dim)
    x = np.array(points)
    y = x + scale * rng.standard_normal(x.shape)
    y = np.array(space.validate_points(list(y / np.linalg.norm(y, axis=1, keepdims=True))))
    y = np.concatenate([y, -y])
    got = space.distance_matrix(x, y)
    want = reference(x, y)
    norms = np.sqrt((x.astype(np.longdouble) ** 2).sum(axis=1))[:, None] - np.sqrt(
        (y.astype(np.longdouble) ** 2).sum(axis=1))[None]
    bound = (dim + 5) * EPS * np.sin(want) + 4 * np.spacing(want.astype(float)) + np.abs(norms)
    assert (np.abs(got - want) <= bound).all()


def test_distance_matrix_chunks_its_planes(monkeypatch, kernels):
    # Chunks of a few rows give the same bits as one chunk.
    space, points = unit_rows(np.random.default_rng(11), 50, 2)
    whole = space.distance_matrix(points, points)
    monkeypatch.setattr(sphere_module, "_PLANE_ELEMS", 3 * 50 + 1)
    assert np.array_equal(space.distance_matrix(points, points), whole)


@pytest.mark.parametrize("dim", [2, 5])
def test_the_log_of_a_point_at_itself_is_exactly_zero(kernels, dim):
    # The clipped arccos of x . x left logs of up to about 2.1e-8 here.
    space, points = unit_rows(np.random.default_rng(10 + dim), 2000, dim)
    for x in points:
        assert (space.mean_log(x, [x]).coords == 0).all()


def old_mean_log(x, points):
    """The log map from the clipped arccos of the dot product."""
    cosines = np.clip(points @ x, -1.0, 1.0)
    residual = points - cosines[:, None] * x
    rnorm = np.linalg.norm(residual, axis=1)
    return (np.arccos(cosines) / rnorm / len(points)) @ residual


@pytest.mark.parametrize("dim", [2, 5])
def test_logs_of_well_separated_points_keep_the_arccos_values(kernels, dim):
    space, points = unit_rows(np.random.default_rng(20 + dim), 400, dim)
    x, rest = points[0], np.array(points[1:])
    angles = space.distance_matrix([x], rest)[0]
    rest = rest[(angles > 0.1) & (angles < np.pi - 0.1)]
    assert len(rest) > 300
    for p in rest:
        got = space.mean_log(x, [p]).coords
        assert np.abs(got - old_mean_log(x, p[None])).max() <= 1e-12
    assert np.abs(space.mean_log(x, rest).coords - old_mean_log(x, rest)).max() <= 1e-12
