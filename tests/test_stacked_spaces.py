"""Stacked exp / tangent maps against one-row calls.

Each geometry has one stacked ``exp_many``, ``tangents_from_coords`` and
``tangent_coords``, and a stack of one is the one-point call. These tests
pin what that promises: a point moved in a batch is bit-identical to the
same point moved alone, jiggled anchor sets keep their per-point prefix
property, and the samplers and estimators give the outputs they gave when
every point was drawn and moved on its own.
"""

import hashlib

import numpy as np
import pytest

from metricdepth.depth import jiggle_anchors
from metricdepth.errors import GeometryError
from metricdepth.estimators import frechet_mean, frechet_median
from metricdepth.simulation import (
    PopulationSpec,
    SimulationConfig,
    breakdown_experiment,
    canonical_center,
    sample_contaminated,
    sample_population,
)
from metricdepth.spaces import (
    BRANCHES,
    SPD,
    Euclidean,
    Product,
    Sphere,
    Spider3,
    parse_space,
)

from conftest import random_points

SPACES = [
    Euclidean(3),
    Sphere(2),
    SPD(2),
    SPD(3),
    SPD(4),
    Spider3(),
    Product((SPD(2), Sphere(2))),
    Product((Spider3(), Euclidean(2))),
]


def _same(a, b) -> bool:
    """Bit-for-bit equality of points, payloads and stacks of either."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == np.shape(b) and np.array_equal(a, b)
    return a == b


def _row(space, stack, i):
    """Payload of tangent ``i`` in a stack."""
    if isinstance(space, Product):
        return tuple(_row(c, s, i) for c, s in zip(space.components, stack))
    return stack[i]


def _edge_point(space):
    """The sphere's e1 (identity-frame branch) and the spider's origin."""
    if isinstance(space, Sphere):
        return canonical_center(space)
    if isinstance(space, Spider3):
        return space.validate_point((0.0, 1))
    if isinstance(space, Product):
        return tuple(_edge_point(c) for c in space.components)
    return random_points(space, 1, np.random.default_rng(0))[0]


def _bases(space, rng):
    return [_edge_point(space)] + random_points(space, 9, rng)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec_string)
def test_stacked_maps_equal_one_point_calls(space, rng):
    bases = _bases(space, rng)
    coords = 0.4 * rng.standard_normal((len(bases), space.intrinsic_dim))
    coords[1] = 0.0  # zero tangent
    stack = space.tangents_from_coords(bases, coords)
    moved = space.exp_many(bases, stack)
    back = space.tangent_coords(bases, stack)
    norms = space.tangent_norms(bases, stack)
    assert np.allclose(back, coords, rtol=0, atol=1e-12)
    assert np.allclose(norms, np.linalg.norm(coords, axis=1), rtol=0, atol=1e-12)
    for i, x in enumerate(bases):
        one = space.tangents_from_coords([x], coords[i:i + 1])
        assert _same(_row(space, stack, i), _row(space, one, 0))
        assert _same(moved[i], space.exp_many([x], one)[0])
        assert _same(back[i], space.tangent_coords([x], one)[0])
        assert norms[i] == space.tangent_norms([x], one)[0]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec_string)
@pytest.mark.parametrize("variance", [0.3, 0.0])
def test_random_tangents_equal_one_point_draws(space, variance, rng):
    # normal_tangents over a stacked block of normals against one-row calls,
    # each reading standard_normal(normal_count) of its stream.
    bases = _bases(space, rng)
    n = len(bases)
    # One stream per base, as jiggling draws them.
    normals = np.array([np.random.default_rng([7, i]).standard_normal(space.normal_count)
                        for i in range(n)])
    stack = space.normal_tangents(bases, [variance] * n, normals)
    for i, x in enumerate(bases):
        one = space.normal_tangents([x], [variance], np.random.default_rng([7, i])
                                    .standard_normal((1, space.normal_count)))
        assert _same(_row(space, stack, i), _row(space, one, 0))
    # One stream shared by every base, as the samplers draw them.
    normals = np.random.default_rng(5).standard_normal((n, space.normal_count))
    stack = space.normal_tangents(bases, [variance] * n, normals)
    shared = np.random.default_rng(5)
    for i, x in enumerate(bases):
        normals = shared.standard_normal((1, space.normal_count))
        one = space.normal_tangents([x], [variance], normals)
        assert _same(_row(space, stack, i), _row(space, one, 0))


def _covariance(space, rng):
    """A full covariance over the chart, per component on products; the
    spider takes variances only."""
    if isinstance(space, Product):
        return [_covariance(c, rng) for c in space.components]
    if isinstance(space, Spider3):
        return 0.2
    a = rng.standard_normal((space.intrinsic_dim, space.intrinsic_dim))
    return 0.1 * (a @ a.T)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.spec_string)
@pytest.mark.parametrize("scatters", ["variances", "covariances"])
def test_normal_steps_equal_exp_of_normal_tangents(space, scatters, rng):
    # The first base is the sphere's e1 and the spider's origin, whose
    # steps take the origin branch; one zero variance leaves its base.
    bases = _bases(space, rng)
    n = len(bases)
    normals = np.random.default_rng(3).standard_normal((n, space.normal_count))
    scatter = [0.3 * (i + 1) / n for i in range(n)]
    scatter[2] = 0.0
    if scatters == "covariances":
        scatter[4:7] = [_covariance(space, rng) for _ in range(3)]
    steps = space.normal_steps(bases, scatter, normals)
    assert _same(steps, space.exp_many(bases, space.normal_tangents(bases, scatter, normals)))
    # A stack of one base repeated, as refinement draws its proposals, gives
    # the bits of one-row calls.
    for base in bases[:2]:
        steps = space.normal_steps([base] * n, scatter, normals)
        for i in range(n):
            assert _same(steps[i], space.normal_steps([base], scatter[i:i + 1],
                                                      normals[i:i + 1])[0])


def test_spider_branch_frequencies_pass_a_chi_square_test():
    from scipy.stats import chisquare

    # A jiggled copy that crosses the origin lands on its step's cross
    # branch: any of the three from the origin, one of the other two
    # elsewhere, each equally likely.
    space = Spider3()
    sample = [space.validate_point(p) for p in ((0.0, 1), (0.05, 1), (0.05, 2), (0.05, 3))]
    k = 3000
    anchors = jiggle_anchors(space, sample, k, radius_frac=1.0, seed=3, spread=1.0)
    copies = anchors.points[len(sample):]
    for i, x in enumerate(sample):
        landed = [p.branch for p in copies[k * i:k * (i + 1)] if p.radius > 0]
        if x.radius > 0:
            landed = [b for b in landed if b != x.branch]
        targets = [b for b in BRANCHES if x.radius == 0 or b != x.branch]
        counts = np.array([landed.count(b) for b in targets])
        assert counts.sum() == len(landed) > k // 3
        assert chisquare(counts).pvalue > 1e-3, (x, counts)


@pytest.mark.parametrize("scatter,message", [
    (np.ones(2), "spider scatter must be a scalar variance, got shape (2,)"),
    (np.eye(2), "spider scatter must be a scalar variance, got shape (2, 2)"),
    (-0.1, "scatter variance must be nonnegative"),
    ([[-0.1]], "scatter variance must be nonnegative"),
])
def test_spider_scatter_checks(scatter, message):
    space = Spider3()
    bases = [space.validate_point((0.0, 1)), space.validate_point((1.0, 2))]
    with pytest.raises(GeometryError) as raised:
        space.normal_tangents(bases[1:], [scatter], np.zeros((1, space.normal_count)))
    assert str(raised.value) == message
    with pytest.raises(GeometryError) as raised:
        space.normal_tangents(bases, [0.3, scatter], np.zeros((2, space.normal_count)))
    assert str(raised.value) == message
    # A scalar variance may come as a scalar, (1,) or (1, 1).
    steps = [space.normal_tangents(bases, [s] * 2, np.full((2, 2), -0.5))
             for s in (0.3, [0.3], [[0.3]])]
    assert steps[0] == steps[1] == steps[2]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 6, 11])
def test_sphere_row_norms_equal_one_row_norms(dim, rng):
    # The sphere's stacked maps and every tangent_norms rely on this: an
    # axis= norm rounds differently and would move sampled and jiggled
    # points and the intrinsic mean's grad_norm.
    from metricdepth.spaces.base import row_norms

    rows = rng.standard_normal((500, dim)) * rng.uniform(0.01, 10.0, (500, 1))
    assert np.array_equal(row_norms(rows), [np.linalg.norm(r) for r in rows])


@pytest.mark.parametrize("dim", [2, 7])
def test_sphere_tangent_chunks_leave_rows_unchanged(dim, rng, monkeypatch):
    import metricdepth.depth as depth

    space = Sphere(dim)
    bases = _bases(space, rng) + random_points(space, 3, rng)
    coords = rng.standard_normal((len(bases), dim))
    whole = space.tangents_from_coords(bases, coords)
    # Three rows' frames per chunk: 13 rows end in a partial chunk of one.
    monkeypatch.setattr(depth, "_CHUNK_ELEMS", 8 * 3 * (dim + 1) ** 2)
    assert np.array_equal(space.tangents_from_coords(bases, coords), whole)


def test_product_scatter_entries_may_mix_matrices_and_scalars():
    space = Product((SPD(2), Euclidean(3)))
    cov = np.array([[0.4, 0.1, 0.0], [0.1, 0.3, -0.05], [0.0, -0.05, 0.2]])
    x = (space.components[0].validate_point(np.eye(2)),
         space.components[1].validate_point(np.zeros(3)))
    stack = space.normal_tangents([x], [[cov, 0.2]], np.random.default_rng(3)
                                  .standard_normal((1, space.normal_count)))
    rng = np.random.default_rng(3)
    expected = tuple(comp.normal_tangents([xc], [scatter], rng.standard_normal((1, 3)))
                     for comp, xc, scatter in zip(space.components, x, (cov, 0.2)))
    assert _same(stack, expected)


@pytest.mark.parametrize("spec", [s.spec_string for s in (
    Euclidean(3), Sphere(2), SPD(2), Spider3(), Product((SPD(2), Euclidean(3))))])
@pytest.mark.parametrize("radius_frac", [0.2, 0.0])
def test_jiggled_anchors_keep_the_prefix_property(spec, radius_frac, rng):
    space = parse_space(spec)
    sample = random_points(space, 7, rng)
    small = jiggle_anchors(space, sample, 2, radius_frac=radius_frac, seed=13)
    large = jiggle_anchors(space, sample, 5, radius_frac=radius_frac, seed=13)
    n = len(sample)
    assert _same(small.points[:n], large.points[:n])
    for i in range(n):
        copies_small = small.points[n + 2 * i: n + 2 * i + 2]
        copies_large = large.points[n + 5 * i: n + 5 * i + 5]
        assert _same(copies_small, copies_large[:2])
    assert small.provenance[n:] == tuple(("jiggled", i) for i in range(n) for _ in range(2))


def _digest(space, points, mask=None) -> str:
    h = hashlib.sha256("\n".join(space.encode_point(p) for p in points).encode())
    if mask is not None:
        h.update(np.asarray(mask, dtype=np.uint8).tobytes())
    return h.hexdigest()[:16]


# Recorded with numpy 2.4 on x86-64 while every point was still sampled and
# jiggled by its own one-point exp call; the stacked samplers must keep them.
# The spider3 entries were recorded again when its draws became two normals
# per stream, the second picking the branch.
CONTAMINATED_DIGESTS = {
    ("spd:2", 1): "a8aab166faf37164",
    ("spd:2", 2): "ca4a2d95c0b45794",
    ("spd:2", 3): "88f8586161a49230",
    ("spd:2", 4): "19bb0ac18b7a7f83",
    ("spd:3", 4): "af3ecf7e8307515f",
    ("sphere:2", 2): "3c3ff06a43c13c95",
    ("sphere:2", 4): "cc83a12cae73db10",
    ("euclidean:3", 3): "1c8262a36452035c",
    ("spider3", 4): "0012d04e5e079c9a",
    ("product:spd:2+euclidean:3", 2): "6db97930b2705b44",
}
# The intrinsic mean and median of a case-2 sample: the encoded point, the
# objective's repr, the iterations, converged and, for the mean, grad_norm.
ESTIMATOR_DIGESTS = {
    ("euclidean:3", "fm"): "360fa249f43ca3e2",
    ("euclidean:3", "gdd"): "2bcf4609dc23885a",
    ("sphere:2", "fm"): "c99cba5272e7747b",
    ("sphere:2", "gdd"): "61b98eb7cd684193",
    ("spd:2", "fm"): "9df907f849a560ab",
    ("spd:2", "gdd"): "92a4080743bdb094",
    ("spd:3", "fm"): "d38be9c66e2bdfbe",
    ("spd:3", "gdd"): "5b2099efe59b21b8",
    ("spider3", "fm"): "3d8c0ee2cfe813c1",
    ("spider3", "gdd"): "5c40a0a4655474ab",
    ("product:spd:2+sphere:2", "fm"): "94aa8f90973ec359",
    ("product:spd:2+sphere:2", "gdd"): "48307af7a061204a",
}
# breakdown_experiment rows on a case-1 sample, adversaries planted by exp
# of chart coordinates, displacements measured by one-pair distances.
BREAKDOWN_DIGESTS = {
    "spd:2": "bfabb681f1d4e53b",
    "sphere:2": "b597dc4966b79a81",
}
POPULATION_COV2 = np.array([[0.5, 0.2], [0.2, 0.3]])
POPULATION_COV3 = np.array([[0.4, 0.1, 0.0], [0.1, 0.3, -0.05], [0.0, -0.05, 0.2]])
POPULATION_DIGESTS = {
    "spd:2": (POPULATION_COV3, "4fb04debc19b0796"),
    "sphere:2": (POPULATION_COV2, "b3339bfdf2cedb60"),
    "euclidean:3": (POPULATION_COV3, "efc5b7375079fb0b"),
}
JIGGLE_DIGESTS = {
    "euclidean:3": "914fa708a2227e4f",
    "sphere:2": "7f51ca3ac4217284",
    "spd:2": "7c61c93340a1bee8",
    "spd:3": "327afd5c5a24b142",
    "spider3": "fbf7c2730ee8b523",
    "product:spd:2+euclidean:3": "d7fba1bc499e8bb1",
}


@pytest.mark.parametrize("spec,case", sorted(CONTAMINATED_DIGESTS))
def test_sample_contaminated_digests(spec, case):
    space = parse_space(spec)
    config = SimulationConfig(case=case, space=space, n=40, reps=1, seed=0)
    points, mask = sample_contaminated(config, 1234 + case)
    assert _digest(space, points, mask) == CONTAMINATED_DIGESTS[(spec, case)]


@pytest.mark.parametrize("spec", sorted(POPULATION_DIGESTS))
def test_matrix_scatter_population_digests(spec):
    space = parse_space(spec)
    cov, expected = POPULATION_DIGESTS[spec]
    points = sample_population(PopulationSpec(space, canonical_center(space), cov), 30, seed=9)
    assert _digest(space, points) == expected


@pytest.mark.parametrize("spec", sorted(JIGGLE_DIGESTS))
def test_jiggled_anchor_digests(spec):
    space = parse_space(spec)
    config = SimulationConfig(case=1, space=space, n=25, reps=1, seed=0)
    sample, _ = sample_contaminated(config, 77)
    anchors = jiggle_anchors(space, sample, 3, radius_frac=0.2, seed=5)
    assert _digest(space, anchors.points) == JIGGLE_DIGESTS[spec]


@pytest.mark.parametrize("spec,estimator", sorted(ESTIMATOR_DIGESTS))
def test_estimator_digests(spec, estimator):
    space = parse_space(spec)
    config = SimulationConfig(case=2, space=space, n=30, reps=1, seed=0)
    sample, _ = sample_contaminated(config, 4321)
    fit = frechet_mean if estimator == "fm" else frechet_median
    result = fit(space, sample)
    text = (f"{space.encode_point(result.point)}|{result.objective!r}|{result.iterations}|"
            f"{result.converged}|{result.extras.get('grad_norm')!r}")
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == ESTIMATOR_DIGESTS[(spec, estimator)]


@pytest.mark.parametrize("spec", sorted(BREAKDOWN_DIGESTS))
def test_breakdown_experiment_digests(spec):
    space = parse_space(spec)
    config = SimulationConfig(case=1, space=space, n=15, reps=1, seed=0)
    sample, _ = sample_contaminated(config, 99)
    rows = breakdown_experiment(space, sample, contamination_counts=[0, 4],
                                far_distances=[0.5, 2.5], seed=4, refine_budget=4)
    text = repr([sorted(row.items()) for row in rows])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == BREAKDOWN_DIGESTS[spec]


def test_empty_population():
    space = SPD(2)
    assert sample_population(PopulationSpec(space, canonical_center(space), 0.5), 0) == []
