import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import ortho_group, rankdata

from metricdepth import _native, depth, inference
from metricdepth.errors import DataError
from metricdepth.inference import (
    GroupedSample,
    _average_ranks,
    _batched_depth_counts,
    _pooled_codes,
    depth_ranks,
    kruskal_wallis_depth_test,
    wilcoxon_depth_test,
)
from metricdepth.rng import NS_PERMUTATION, derive_rng
from metricdepth.simulation import PopulationSpec, canonical_center, sample_population
from metricdepth.spaces import Euclidean, Sphere

from conftest import numpy_kernels, random_points


def euclid_points(values):
    space = Euclidean(1)
    return space, [space.validate_point([float(v)]) for v in values]


def sphere_groups(n_groups, n_per_group, seed):
    space = Sphere(2)
    spec = PopulationSpec(space, canonical_center(space), 0.5)
    return space, [
        tuple(sample_population(spec, n_per_group, seed=seed * 100 + g))
        for g in range(n_groups)
    ]


# ------------------------------------------------------------ average ranks

@given(st.integers(1, 60).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=4)))
@example([[7]])
@example([[3] * 25])
def test_average_ranks_match_scipy(rows):
    values = np.array(rows)
    ranks, tie_sizes = _average_ranks(values)
    assert ranks.shape == values.shape
    for row, row_ranks, row_ties in zip(values, ranks, tie_sizes):
        assert np.array_equal(row_ranks, rankdata(row))
        assert np.array_equal(row_ties[row_ties > 0], np.unique(row, return_counts=True)[1])


# -------------------------------------------------------------- depth ranks

def test_depth_ranks_hand_example():
    space, pts = euclid_points([1, 2, 3])
    assert np.allclose(depth_ranks(space, pts, pts), [1.5, 3.0, 1.5])


def test_depth_ranks_full_tie():
    space, pts = euclid_points([1, 2])
    # both observations have depth 1/2 w.r.t. the two-point reference
    assert np.allclose(depth_ranks(space, pts, pts), [1.5, 1.5])


def test_depth_ranks_far_outlier_lowest():
    space, pts = euclid_points([0, 1, 2, 3, 4, 5, 6])
    outlier = space.validate_point([100.0])
    ranks = depth_ranks(space, pts, list(pts[2:5]) + [outlier])
    assert ranks[-1] == 1.0


def test_depth_ranks_empty_reference_rejected():
    space, pts = euclid_points([1, 2])
    with pytest.raises(DataError):
        depth_ranks(space, [], pts)


# ----------------------------------------------------------------- wilcoxon

def test_wilcoxon_identical_lists_centered():
    space, pts = euclid_points([0.3, 1.2, 2.0, 3.5, 4.1])
    result = wilcoxon_depth_test(space, pts, pts, n_permutations=99, seed=3)
    n2, total = 5, 10
    assert result.statistic == pytest.approx(n2 * (total + 1) / 2)
    assert result.p_value >= 0.5


def test_wilcoxon_separated_groups():
    space, g1 = euclid_points(range(10))
    _, g2 = euclid_points(range(100, 110))
    result = wilcoxon_depth_test(space, g1, g2, n_permutations=999, seed=0)
    assert result.p_value <= 0.01


def test_wilcoxon_add_one_floor():
    space, g1 = euclid_points(range(5))
    _, g2 = euclid_points(range(10, 15))
    result = wilcoxon_depth_test(space, g1, g2, n_permutations=99, seed=1)
    assert result.p_value >= 1 / 100


def test_wilcoxon_argument_validation():
    # Both tests check their arguments in one place, with one message each.
    space, pts = euclid_points([1, 2, 3])
    for run in (lambda a, b, p: wilcoxon_depth_test(space, a, b, n_permutations=p),
                lambda a, b, p: kruskal_wallis_depth_test(space, [a, b], n_permutations=p)):
        with pytest.raises(DataError, match="each group needs at least 2 observations"):
            run(pts[:1], pts, 99)
        with pytest.raises(DataError, match="need at least 99 permutations"):
            run(pts, pts, 98)


def test_wilcoxon_reproducible():
    space, g1 = euclid_points([0, 1, 2, 3, 4])
    _, g2 = euclid_points([0.5, 1.5, 2.5, 3.5, 9.0])
    a = wilcoxon_depth_test(space, g1, g2, n_permutations=199, seed=11)
    b = wilcoxon_depth_test(space, g1, g2, n_permutations=199, seed=11)
    assert (a.statistic, a.p_value) == (b.statistic, b.p_value)


# ----------------------------------------------------------- kruskal-wallis

def test_kw_separated_group_detected():
    space, groups = sphere_groups(3, 12, seed=4)
    far = tuple(
        sample_population(
            PopulationSpec(space, space.validate_point([0, 0, 1.0]), 0.05), 12, seed=9
        )
    )
    result = kruskal_wallis_depth_test(space, [groups[0], groups[1], far],
                                       n_permutations=999, seed=2)
    assert result.p_value <= 0.01


def test_kw_two_groups_accepted():
    space, groups = sphere_groups(2, 8, seed=6)
    result = kruskal_wallis_depth_test(space, groups, n_permutations=99, seed=0)
    assert 0 < result.p_value <= 1


def test_kw_isometry_invariant(rng):
    space = Sphere(2)
    groups = [tuple(random_points(space, 10, rng)) for _ in range(3)]
    q = ortho_group.rvs(3, random_state=np.random.RandomState(12))
    moved = [tuple(space.validate_point(q @ np.asarray(p)) for p in g) for g in groups]
    a = kruskal_wallis_depth_test(space, groups, n_permutations=99, seed=8)
    b = kruskal_wallis_depth_test(space, moved, n_permutations=99, seed=8)
    assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
    assert a.p_value == b.p_value


def test_wilcoxon_isometry_invariant(rng):
    space = Sphere(2)
    g1 = tuple(random_points(space, 10, rng))
    g2 = tuple(random_points(space, 10, rng))
    q = ortho_group.rvs(3, random_state=np.random.RandomState(13))
    m1 = tuple(space.validate_point(q @ np.asarray(p)) for p in g1)
    m2 = tuple(space.validate_point(q @ np.asarray(p)) for p in g2)
    a = wilcoxon_depth_test(space, g1, g2, n_permutations=99, seed=8)
    b = wilcoxon_depth_test(space, m1, m2, n_permutations=99, seed=8)
    assert a.statistic == b.statistic and a.p_value == b.p_value


def test_grouped_sample_validation():
    space, pts = euclid_points([1, 2, 3])
    with pytest.raises(DataError):
        GroupedSample((("only", tuple(pts)),))
    with pytest.raises(DataError):
        GroupedSample((("a", tuple(pts)), ("b", ())))


# ---------------------------------------------------------- pinned outputs
# Statistics and p-values as computed when every permutation was evaluated
# on its own; batching the orders must not move a single bit of them.

def pinned_sphere_group(n, seed, lift=0.0):
    space = Sphere(2)
    raw = np.random.default_rng(seed).standard_normal((n, 3))
    raw[:, 2] += lift
    return tuple(space.validate_point(r / np.linalg.norm(r)) for r in raw)


def test_pinned_wilcoxon():
    result = wilcoxon_depth_test(Sphere(2), pinned_sphere_group(15, 1),
                                 pinned_sphere_group(12, 2, 0.8), n_permutations=199, seed=7)
    assert (result.statistic, result.p_value) == (180.0, 0.805)
    _, g1 = euclid_points([0, 1, 1, 2, 3, 3, 4])
    _, g2 = euclid_points([1, 2, 2, 5, 6])
    result = wilcoxon_depth_test(Euclidean(1), g1, g2, n_permutations=99, seed=3)
    assert (result.statistic, result.p_value) == (34.0, 0.88)


def test_pinned_kruskal_wallis_two_groups():
    groups = [pinned_sphere_group(10, 3), pinned_sphere_group(10, 4, 0.5)]
    result = kruskal_wallis_depth_test(Sphere(2), groups, n_permutations=99, seed=5)
    assert (result.statistic, result.p_value) == (4.511111111111113, 0.62)


def test_pinned_kruskal_wallis_three_unequal_groups():
    groups = [pinned_sphere_group(8, 5), pinned_sphere_group(11, 6, 0.6),
              pinned_sphere_group(14, 7)]
    result = kruskal_wallis_depth_test(Sphere(2), groups, n_permutations=149, seed=9)
    assert (result.statistic, result.p_value) == (19.211425348962294, 0.2866666666666667)


def test_pinned_kruskal_wallis_all_tied_is_zero():
    # Every depth ties, so the tie correction is 0 and each H reads 0.
    space, pts = euclid_points([2] * 9)
    groups = [pts[:3], pts[3:7], pts[7:]]
    result = kruskal_wallis_depth_test(space, groups, n_permutations=99, seed=1)
    assert (result.statistic, result.p_value) == (0.0, 1.0)


def test_compiled_orders_build_no_generator(monkeypatch):
    # On the compiled kernels the orders come from the orders kernel alone:
    # a Generator stream per permutation would go through derive_rngs. A
    # two-word seed and a negative one give the same statistics and p-values
    # as the numpy orders.
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    g1, g2, g3 = (pinned_sphere_group(8, 5), pinned_sphere_group(11, 6, 0.6),
                  pinned_sphere_group(14, 7))
    runs = [lambda: wilcoxon_depth_test(Sphere(2), g1, g2, 199, seed=2**32 + 5),
            lambda: kruskal_wallis_depth_test(Sphere(2), [g1, g2, g3], 199, seed=-1)]
    with numpy_kernels():
        want = [(r.statistic, r.p_value) for r in (run() for run in runs)]

    def no_generators(*args, **kwargs):
        raise AssertionError("derive_rngs called on the compiled kernels")

    monkeypatch.setattr(inference, "derive_rngs", no_generators)
    assert [(r.statistic, r.p_value) for r in (run() for run in runs)] == want


def one_order_kruskal_wallis(space, groups, n_permutations, seed):
    """The k-sample test one order at a time, with scipy ranks and each
    H formed from scalars, as the statistic is defined."""
    pool = tuple(p for g in groups for p in g)
    total = len(pool)
    codes, distinct = _pooled_codes(space, pool)
    bounds = np.cumsum([0] + [len(g) for g in groups])

    def statistic(order):
        slices = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        stat = 0.0
        for reference in slices:
            counts = _batched_depth_counts(codes, reference[None], distinct)[0]
            ranks = rankdata(counts)
            ties = np.unique(counts, return_counts=True)[1]
            h = 12.0 / (total * (total + 1)) * sum(
                len(idx) * (ranks[idx].mean() - (total + 1) / 2.0) ** 2 for idx in slices)
            correction = 1.0 - np.sum(ties**3 - ties) / (total**3 - total)
            stat += 0.0 if correction <= 0.0 else float(h / correction)
        return stat

    observed = statistic(np.arange(total))
    hits = sum(statistic(derive_rng(seed, NS_PERMUTATION, rep).permutation(total)) >= observed
               for rep in range(n_permutations))
    return observed, (1 + hits) / (1 + n_permutations)


def test_kruskal_wallis_matches_one_order_at_a_time():
    # With groups of 27, 21 and 15 some squared rank deviations round
    # differently under the C library's pow than as a product v * v; on
    # such a platform an array square would move the statistic's last bit.
    rng = np.random.default_rng(550)
    groups = [tuple(Sphere(2).validate_point(r / np.linalg.norm(r))
                    for r in rng.standard_normal((n, 3))) for n in (27, 21, 15)]
    result = kruskal_wallis_depth_test(Sphere(2), groups, n_permutations=99, seed=550)
    want = one_order_kruskal_wallis(Sphere(2), groups, 99, 550)
    assert (result.statistic, result.p_value) == want


def test_statistics_do_not_depend_on_the_batching(monkeypatch):
    # A batch of B orders holds B * k * total elements (k groups, total
    # pooled points), so this chunk fits three orders: 100 orders span 34
    # batches, the last one short. Every bit must match the one-batch run.
    g1, g2, g3 = (pinned_sphere_group(8, 5), pinned_sphere_group(11, 6, 0.6),
                  pinned_sphere_group(14, 7))
    counts = inference._batched_depth_counts
    for width, run in [
        (2 * 19, lambda: wilcoxon_depth_test(Sphere(2), g1, g2, 99, seed=4)),
        (3 * 33, lambda: kruskal_wallis_depth_test(Sphere(2), [g1, g2, g3], 99, seed=4)),
    ]:
        whole = run()
        batches = []

        def counted(codes, references, distinct):
            batches.append(len(references))
            return counts(codes, references, distinct)

        with monkeypatch.context() as patch:
            patch.setattr(depth, "_CHUNK_ELEMS", 8 * 3 * width)
            patch.setattr(inference, "_batched_depth_counts", counted)
            split = run()
        assert max(batches) == 3 and batches[-1] == 1
        assert (split.statistic, split.p_value) == (whole.statistic, whole.p_value)
