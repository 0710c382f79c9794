"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is part of the default suite. The heavy Monte Carlo
checks (criteria 6 and 8) take a few minutes each on two cores.
"""

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
from scipy.stats import ortho_group, spearmanr

from metricdepth.depth import approx_depth, in_sample_deepest, jiggle_anchors
from metricdepth.estimators import breakdown_lower_bound
from metricdepth.inference import kruskal_wallis_depth_test, wilcoxon_depth_test
from metricdepth.io import read_depth_reports_csv, write_points
from metricdepth.simulation import (
    PopulationSpec,
    SimulationConfig,
    breakdown_experiment,
    canonical_center,
    run_simulation,
    sample_population,
)
from metricdepth.spaces import SPD, Euclidean, Sphere
from metricdepth.tukey import tukey_depth_1d, tukey_depth_2d

N_JOBS = 2


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def fractions(depths):
    """Each record's exact depth."""
    return [Fraction(num, den)
            for num, den in zip(depths.depth_num.tolist(), depths.depth_den.tolist())]


def test_criterion_1_r1_exactness():
    """Anchored depth equals exact rank depth at every sample point in R^1."""
    space = Euclidean(1)
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(3, 51))
        values = rng.standard_normal(n)
        while np.unique(values).size < n:  # distinct reals
            values = rng.standard_normal(n)
        pts = [np.array([v]) for v in values]
        for j, fraction in enumerate(fractions(approx_depth(space, pts, pts, pts))):
            assert fraction == tukey_depth_1d(values, values[j])
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(1, f"{checked} sample-point depths exact over 10^4 samples, "
               f"{elapsed:.1f}s")


def test_criterion_2_r2_upper_bound_and_anchor_trend():
    """Anchored depth only overshoots the exact depth; jiggling narrows it."""
    space = Euclidean(2)
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(1000):
        pts = list(rng.standard_normal((50, 2)))
        queries = pts[:3] + list(rng.standard_normal((2, 2)))
        for j, fraction in enumerate(fractions(approx_depth(space, pts, pts, queries))):
            oracle = tukey_depth_2d(np.asarray(pts), queries[j])
            assert fraction >= oracle

    fixed = list(np.random.default_rng(303).standard_normal((100, 2)))
    oracle = [tukey_depth_2d(np.asarray(fixed), p) for p in fixed]
    gaps = []
    for k in (0, 5, 10):
        anchors = jiggle_anchors(space, fixed, k, seed=99)
        depths = fractions(approx_depth(space, fixed, anchors, fixed))
        gaps.append(float(np.mean([float(d - o) for d, o in zip(depths, oracle)])))
    assert gaps[0] >= gaps[1] >= gaps[2] >= 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"
    _report(2, f"5000 queries bounded below by the oracle; mean gaps "
               f"{gaps[0]:.4f} >= {gaps[1]:.4f} >= {gaps[2]:.4f}, {elapsed:.1f}s")


def test_criterion_3_isometry_invariance():
    """Depth counts are integer-identical under isometries of each space."""
    rng = np.random.default_rng(404)
    n = 25

    def counts_of(space, pts):
        return [r.depth_num for r in approx_depth(space, pts, pts, pts)]

    checked = 0
    for trial in range(100):
        # R^3: rotation + translation
        space = Euclidean(3)
        pts = [space.validate_point(p) for p in rng.standard_normal((n, 3))]
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shift = rng.standard_normal(3)
        moved = [space.validate_point(q @ np.asarray(p) + shift) for p in pts]
        assert counts_of(space, pts) == counts_of(space, moved)

        # S^2: rotation
        space = Sphere(2)
        raw = rng.standard_normal((n, 3))
        pts = [space.validate_point(p / np.linalg.norm(p)) for p in raw]
        q = ortho_group.rvs(3, random_state=np.random.RandomState(trial))
        moved = [space.validate_point(q @ np.asarray(p)) for p in pts]
        before = space.distance_matrix(pts, pts)
        after = space.distance_matrix(moved, moved)
        off = ~np.eye(n, dtype=bool)
        assert np.max(np.abs(before[off] - after[off])) <= 1e-8
        assert counts_of(space, pts) == counts_of(space, moved)

        # SPD(2): congruence
        space = SPD(2)
        base = space.validate_point(np.eye(2))
        pts = space.normal_steps([base] * n, [0.5] * n,
                                 rng.standard_normal((n, space.normal_count)))
        a = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        moved = [space.validate_point(a @ np.asarray(p) @ a.T) for p in pts]
        before = space.distance_matrix(pts, pts)
        after = space.distance_matrix(moved, moved)
        assert np.max(np.abs(before - after)) <= 1e-8
        assert counts_of(space, pts) == counts_of(space, moved)
        checked += 3
    _report(3, f"{checked} (sample, isometry) pairs with identical counts")


def test_criterion_4_r1_monotone_from_deepest():
    """Exact depth never increases along geodesics leaving the deepest point."""
    space = Euclidean(1)
    rng = np.random.default_rng(505)
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        values = rng.standard_normal(n)
        pts = [np.array([v]) for v in values]
        _, _, idx = in_sample_deepest(space, pts, pts)
        theta = values[idx]
        query = float(rng.standard_normal() * 3.0)
        grid = theta + np.linspace(0.0, 1.0, 100) * (query - theta)
        depths = [tukey_depth_1d(values, g) for g in grid]
        assert all(a >= b for a, b in zip(depths, depths[1:]))
    _report(4, "depth non-increasing at 100 interpolation points x 10^3 samples")


def test_criterion_5_center_outward_pattern():
    """Wrapped-normal depths fall off with distance from the center."""
    space = Sphere(2)
    center = canonical_center(space)
    pts = sample_population(PopulationSpec(space, center, 0.5), 100, seed=2026)
    records = approx_depth(space, pts, pts, pts)
    depths = records.depth_num / records.depth_den
    dists = space.distance_matrix(pts, [center])[:, 0]
    rho = float(spearmanr(depths, dists).statistic)
    assert rho <= -0.8
    _report(5, f"Spearman(depth, distance) = {rho:.3f} <= -0.8")


def test_criterion_6_robustness_orderings():
    """Estimator orderings from the contamination study at desk scale.

    Generation parameters are package defaults tuned per geometry (the
    originals are not recoverable); orderings, not values, are asserted.
    """
    start = time.perf_counter()
    reps = 128

    def run(case, space_text, n, estimators=("mhd", "fm"), **kw):
        from metricdepth.spaces import parse_space

        cfg = SimulationConfig(case=case, space=parse_space(space_text), n=n,
                               reps=reps, estimators=estimators, jiggle_k=2,
                               refine_budget=32, seed=606, n_jobs=N_JOBS, **kw)
        return run_simulation(cfg).medians

    spd = dict(base_variance=0.5, offset=2.0, scale_factor=4.0)
    sph = dict(base_variance=0.25, scale_factor=1.5)

    lines = []
    med = run(1, "spd:2", 100, **spd)
    assert med["fm"] <= med["mhd"], med
    lines.append(f"case1 spd fm {med['fm']:.3f} <= mhd {med['mhd']:.3f}")

    for case in (2, 4):
        for space_text, params in (("spd:2", spd), ("sphere:2", sph)):
            for n in (100, 200):
                med = run(case, space_text, n, **params)
                assert med["mhd"] < med["fm"], (case, space_text, n, med)
                lines.append(f"case{case} {space_text} n={n} "
                             f"mhd {med['mhd']:.3f} < fm {med['fm']:.3f}")

    trend = [run(1, "sphere:2", n, estimators=("mhd",),
                 **sph)["mhd"] for n in (50, 100, 200)]
    assert trend[0] > trend[1] > trend[2], trend
    lines.append("case1 sphere mhd errors "
                 + " > ".join(f"{v:.3f}" for v in trend))

    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"runtime {elapsed:.0f}s exceeds 30min"
    _report(6, f"{reps} reps; " + "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_7_breakdown():
    """Depth median survives contamination below its certified fraction."""
    space = Euclidean(1)
    n = 20
    sample = [space.validate_point([v]) for v in np.linspace(-1.0, 1.0, n)]
    diameter = 2.0
    _, depth, _ = in_sample_deepest(space, sample, sample)
    assert depth == Fraction(1, 2)
    bound = breakdown_lower_bound(depth)
    assert bound == Fraction(1, 3)
    safe_l = [l for l in range(1, n) if Fraction(l, n + l) < bound]
    assert safe_l == list(range(1, 10))

    rows = breakdown_experiment(space, sample, safe_l,
                                [10 * diameter, 100 * diameter, 1000 * diameter],
                                seed=707)
    mhd_disp = [r["displacement"] for r in rows if r["estimator"] == "mhd"]
    assert max(mhd_disp) <= diameter
    fm_far = [r["displacement"] for r in rows
              if r["estimator"] == "fm" and r["l"] == 1
              and r["distance"] == 1000 * diameter]
    assert fm_far and min(fm_far) > 10 * diameter
    _report(7, f"depth median moved <= {max(mhd_disp):.3f} (diameter {diameter}) "
               f"for l in 1..9; intrinsic mean moved {fm_far[0]:.1f} at l=1")


def test_criterion_8_test_level():
    """Permutation tests hold their level on identically distributed groups."""
    space = Sphere(2)
    spec = PopulationSpec(space, canonical_center(space), 0.5)
    sims, perms, alpha = 500, 199, 0.05

    rejections_w = 0
    for sim in range(sims):
        g1 = sample_population(spec, 30, seed=1_000_000 + 2 * sim)
        g2 = sample_population(spec, 30, seed=1_000_001 + 2 * sim)
        p = wilcoxon_depth_test(space, g1, g2, n_permutations=perms, seed=sim).p_value
        rejections_w += p <= alpha
    rate_w = rejections_w / sims
    assert 0.03 <= rate_w <= 0.07, rate_w

    rejections_k = 0
    for sim in range(sims):
        groups = [sample_population(spec, 30, seed=2_000_000 + 3 * sim + g)
                  for g in range(3)]
        p = kruskal_wallis_depth_test(space, groups, n_permutations=perms,
                                      seed=sim).p_value
        rejections_k += p <= alpha
    rate_k = rejections_k / sims
    assert 0.03 <= rate_k <= 0.07, rate_k
    _report(8, f"null rejection rates: wilcoxon {rate_w:.3f}, "
               f"kruskal-wallis {rate_k:.3f} (alpha 0.05, {sims} sims)")


def test_criterion_9_depth_kernel_performance(tmp_path):
    """500 x 500 SPD(2) depth evaluation through the CLI inside a minute."""
    space = SPD(2)
    pts = sample_population(
        PopulationSpec(space, canonical_center(space), 0.5), 500, seed=909)
    data = tmp_path / "spd500.csv"
    write_points(data, space, pts)
    out = tmp_path / "depths.csv"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "metricdepth.cli", "depth", "--space", "spd:2",
         "--data", str(data), "--self", "--out", str(out)],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    assert len(read_depth_reports_csv(out)) == 500
    _report(9, f"n = n_queries = 500 on spd:2 in {elapsed:.1f}s (< 60s)")
