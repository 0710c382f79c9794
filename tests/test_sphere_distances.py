"""Sphere distances as 2 atan2(||x - y||, ||x + y||) and Euclidean distances
as ||x - y||: the properties that the exact depth counts need, on the
compiled ``norms`` kernel that both geometries share and on its numpy body
alike.

A matrix is exactly symmetric with an exact zero diagonal; an entry does
not depend on the call's shape; both bodies give the same bits, NaN and inf
included, without a warning; and every entry lies within its module
docstring's error bound of an extended-precision reference. On the sphere
a point is also never farther from itself than from a neighbour 1e-10
away and exactly 0 from itself, which the clipped ``arccos`` of a BLAS Gram
matrix got wrong in 687 of the 2 000 trials below (farther in 525 of
them). Euclidean entries also have the bits of scipy's ``cdist``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdepth import _native
from metricdepth.spaces import Euclidean, Sphere
from metricdepth.spaces import sphere as sphere_module
from metricdepth.spaces.euclidean import norms

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
    with numpy_kernels(), warnings.catch_warnings():
        warnings.simplefilter("error")
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
        assert (space.mean_log(x, [x]) == 0).all()


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
        got = space.mean_log(x, [p])[0]
        assert np.abs(got - old_mean_log(x, p[None])).max() <= 1e-12
    assert np.abs(space.mean_log(x, rest)[0] - old_mean_log(x, rest)).max() <= 1e-12


# ---------------------------------------------------------------- euclidean

def spread_rows(rng, n, dim):
    """Rows spanning seven orders of magnitude, 20 of them repeated."""
    rows = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 4, (n, 1))
    return np.concatenate([rows, rows[:20]])


@pytest.mark.parametrize("dim", [1, 5, 12])
def test_euclidean_self_distances_are_exactly_symmetric_with_a_zero_diagonal(kernels, dim):
    space = Euclidean(dim)
    points = spread_rows(np.random.default_rng(dim), 300, dim)
    dist = space.distance_matrix(points, points)
    assert np.array_equal(dist, dist.T)
    assert (np.diag(dist) == 0).all()
    assert (dist[300:, :20] == dist[:20, :20]).all() and (np.diag(dist[300:]) == 0).all()
    assert np.array_equal(space.distance_matrix(points[:40], points[100:]),
                          space.distance_matrix(points[100:], points[:40]).T)


@pytest.mark.parametrize("n_cols", [1, 7, 300])
def test_euclidean_sub_call_equals_the_same_sub_matrix(kernels, n_cols):
    # One-row calls are what refinement makes.
    space = Euclidean(5)
    rng = np.random.default_rng(n_cols)
    points, cols = rng.standard_normal((400, 5)), rng.standard_normal((n_cols, 5))
    full = space.distance_matrix(points, cols)
    for lo, hi in ((0, 1), (3, 4), (7, 14), (100, 333), (0, 400)):
        assert np.array_equal(space.distance_matrix(points[lo:hi], cols), full[lo:hi])
    assert np.array_equal(space.distance_matrix(points, cols[:1]), full[:, :1])


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_euclidean_kernel_equals_its_numpy_body(scale):
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    rng = np.random.default_rng(8)
    for dim in (1, 2, 5, 12, 30):
        space = Euclidean(dim)
        points = scale * rng.standard_normal((200, dim))
        # Near-duplicates, whose differences cancel.
        close = points[:20] * (1 + 1e-9 * rng.standard_normal((20, dim)))
        points = np.concatenate([points, close, -close])
        got = space.distance_matrix(points, points[::-1])
        with numpy_kernels():
            want = space.distance_matrix(points, points[::-1])
        assert np.array_equal(got, want)


def test_euclidean_kernel_and_body_pass_nan_and_inf_on():
    # inf - inf is NaN, and inf - 1 squares to inf, without a warning.
    x = np.array([[np.nan, 0.0], [np.inf, 0.0], [3.0, 4.0], [1e200, 0.0]])
    y = np.array([[0.0, 0.0], [np.inf, 1.0]])
    space = Euclidean(2)
    with numpy_kernels(), warnings.catch_warnings():
        warnings.simplefilter("error")
        want = space.distance_matrix(x, y)
    assert np.isnan(want[0]).all() and np.isnan(want[1, 1])
    assert np.array_equal(want[1:, 0], [np.inf, 5.0, np.inf])
    assert np.array_equal(want[2:, 1], [np.inf, np.inf])
    if _native.library() is not None:
        assert np.array_equal(space.distance_matrix(x, y), want, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 5, 12, 30]),
       scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e100]),
       spread=st.sampled_from([1e-12, 1e-6, 1.0, 1e3]))
def test_euclidean_distances_lie_within_their_error_bound(seed, dim, scale, spread):
    # Near and spread pairs at scales well inside the normal range: twice
    # the docstring's (m + 4)/2 eps relative, on both bodies.
    if np.finfo(np.longdouble).eps >= EPS:
        pytest.skip("no extended precision on this platform")
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((20, dim))
    y = np.concatenate([x + scale * spread * rng.standard_normal(x.shape),
                        scale * rng.standard_normal((5, dim))])
    wide_x, wide_y = x.astype(np.longdouble), y.astype(np.longdouble)
    want = np.sqrt(((wide_x[:, None] - wide_y[None]) ** 2).sum(axis=2))
    bound = (dim + 4) * EPS * want
    space = Euclidean(dim)
    with numpy_kernels():
        bodies = [space.distance_matrix(x, y)]
    if _native.library() is not None:
        bodies.append(space.distance_matrix(x, y))
    for got in bodies:
        assert (np.abs(got - want) <= bound).all()


@pytest.mark.parametrize("dim", [1, 2, 5, 8, 12, 30])
def test_euclidean_distances_equal_cdist(kernels, dim):
    # At dim >= 8 a pairwise (numpy sum) reduction would round differently
    # from cdist's loop.
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(30 + dim)
    a, b = spread_rows(rng, 40, dim), spread_rows(rng, 30, dim)
    space = Euclidean(dim)
    assert np.array_equal(space.distance_matrix(a, b), cdist(a, b))
    assert np.array_equal(space.distance_matrix(a, a), cdist(a, a))


def test_euclidean_and_sphere_distances_run_the_compiled_norms_kernel(monkeypatch):
    # One call per Euclidean matrix; two per sphere chunk, on y and on -y.
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    kernel, calls = _native.library()["norms_f64"], []

    def counted(x, rows, y, nb, dim, out):
        calls.append((rows, nb, dim))
        kernel(x, rows, y, nb, dim, out)

    monkeypatch.setitem(_native.library(), "norms_f64", counted)
    rng = np.random.default_rng(3)
    Euclidean(3).distance_matrix(rng.standard_normal((4, 3)), rng.standard_normal((6, 3)))
    assert calls == [(4, 6, 3)]
    space, points = unit_rows(rng, 6, 2)
    space.distance_matrix(points[:4], points)
    assert calls == [(4, 6, 3)] * 3


def test_norms_reject_operands_that_the_kernel_would_overrun(kernels):
    x, y = np.zeros((4, 3)), np.zeros((3, 6))
    frozen = np.empty((4, 6))
    frozen.flags.writeable = False
    for out in (np.empty((4, 5)), np.empty((4, 6), np.float32), np.empty((6, 4)).T, frozen):
        with pytest.raises(ValueError, match="norms takes"):
            norms(x, y, out)
    with pytest.raises(ValueError, match="norms takes"):
        norms(x, np.zeros((2, 6)))
    assert norms(x, y).shape == (4, 6)
