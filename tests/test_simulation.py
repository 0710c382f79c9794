import numpy as np
import pytest

from metricdepth.errors import DataError, NumericalError
from metricdepth.simulation import (
    PopulationSpec,
    SimulationConfig,
    breakdown_experiment,
    canonical_center,
    default_offset,
    run_simulation,
    sample_contaminated,
    sample_population,
)
from metricdepth.spaces import SPD, Euclidean, Sphere, Spider3


def config(**overrides):
    base = dict(case=1, space=Euclidean(2), n=12, reps=4, estimators=("mhd", "fm"),
                jiggle_k=1, refine_budget=8, seed=5)
    base.update(overrides)
    return SimulationConfig(**base)


# ------------------------------------------------------------- populations

def test_zero_scatter_collapses_to_center():
    space = Sphere(2)
    spec = PopulationSpec(space, canonical_center(space), 0.0)
    pts = sample_population(spec, 5, seed=1)
    assert (space.distance_matrix(pts, [spec.center]) == 0.0).all()


def test_sphere_mean_distance_matches_tangent_chi():
    space = Sphere(2)
    var = 0.5
    spec = PopulationSpec(space, canonical_center(space), var)
    pts = sample_population(spec, 10_000, seed=2)
    mean_dist = np.mean(space.distance_matrix(pts, [spec.center]))
    expected = np.sqrt(var) * np.sqrt(np.pi / 2)  # E chi_2 before wrapping
    assert abs(mean_dist - expected) / expected < 0.03


def test_spd_draws_are_valid_points():
    space = SPD(2)
    spec = PopulationSpec(space, canonical_center(space), 0.5)
    for p in sample_population(spec, 50, seed=3):
        space.validate_point(p)  # symmetric positive definite by construction


def test_spider_population_crosses_origin():
    space = Spider3()
    spec = PopulationSpec(space, space.validate_point((0.5, 2)), 1.0)
    pts = sample_population(spec, 400, seed=4)
    branches = {p.branch for p in pts}
    assert 2 in branches and len(branches) == 3  # negative radii continue through


# ----------------------------------------------------------- contamination

def test_case1_all_inliers():
    pts, mask = sample_contaminated(config(case=1, n=40), rep_seed=11)
    assert mask.all() and len(pts) == 40


def test_case2_location_outliers_at_offset():
    cfg = config(case=2, space=Euclidean(2), n=4000, base_variance=0.25, offset=50.0)
    pts, mask = sample_contaminated(cfg, rep_seed=13)
    center = canonical_center(cfg.space)
    dist = cfg.space.distance_matrix(pts, [center])[:, 0]
    outliers = ~mask
    assert abs(outliers.mean() - 0.1) < 0.02
    assert np.all(dist[outliers] > 25)
    assert abs(np.median(dist[outliers]) - 50.0) < 2.0


def test_case3_shares_center():
    cfg = config(case=3, space=Euclidean(2), n=100_000, base_variance=0.5,
                 scale_factor=4.0)
    pts, mask = sample_contaminated(cfg, rep_seed=17)
    mean = np.mean(np.asarray(pts), axis=0)
    assert np.linalg.norm(mean) < 0.02
    spread_out = np.std(np.asarray(pts)[~mask])
    spread_in = np.std(np.asarray(pts)[mask])
    assert spread_out > 2 * spread_in


def test_default_offset_per_space():
    assert default_offset(Sphere(2)) == pytest.approx(np.pi / 2)
    assert default_offset(Euclidean(3)) == 1.0
    assert default_offset(SPD(2)) == 1.0


def test_config_validation():
    with pytest.raises(DataError):
        config(case=5)
    with pytest.raises(DataError):
        config(reps=0)
    with pytest.raises(DataError):
        config(contamination=1.0)
    with pytest.raises(DataError):
        config(estimators=("bogus",))
    for radius_frac in (-0.1, float("nan"), float("inf")):
        with pytest.raises(DataError, match="radius_frac"):
            config(radius_frac=radius_frac)
    for field, value in [("n", 0), ("jiggle_k", -1), ("refine_budget", -3),
                         ("base_variance", -1.0), ("base_variance", float("nan")),
                         ("base_variance", float("inf")), ("offset", float("nan")),
                         ("offset", float("inf")), ("scale_factor", float("nan")),
                         ("scale_factor", float("-inf"))]:
        with pytest.raises(DataError, match=field):
            config(**{field: value})
    assert SimulationConfig(case=1, space=Euclidean(2), n=12).reps == 128


# ------------------------------------------------------------- the harness

def test_run_simulation_parallel_determinism(monkeypatch):
    # Two workers even on a one-CPU host, whose CPU count caps them.
    import metricdepth.simulation as sim

    monkeypatch.setattr(sim._native, "threads", lambda: 2)
    cfg_serial = config(reps=6, n_jobs=1)
    cfg_parallel = config(reps=6, n_jobs=2)
    serial = run_simulation(cfg_serial)
    parallel = run_simulation(cfg_parallel)
    for name in cfg_serial.estimators:
        assert np.array_equal(serial.errors[name], parallel.errors[name])
        assert serial.medians[name] == parallel.medians[name]
        assert serial.std_errors[name] == parallel.std_errors[name]


def test_run_simulation_caps_its_workers_at_the_reps_and_the_cpus(monkeypatch):
    # The pool runs its map in this process and records its size, so the
    # test starts no process, whatever n_jobs asks for. run_simulation
    # imports the pool from concurrent.futures when it starts one.
    import concurrent.futures

    import metricdepth.simulation as sim

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sim._native, "threads", lambda: 3)
    for n_jobs, reps, workers in ((100_000, 2, [2]), (100_000, 4, [3]), (2, 4, [2]),
                                  (100_000, 1, [])):
        sizes.clear()
        got = run_simulation(config(reps=reps, n_jobs=n_jobs))
        assert sizes == workers
        want = run_simulation(config(reps=reps))
        for name in want.errors:
            assert np.array_equal(got.errors[name], want.errors[name])


def test_workers_share_the_cpus_among_their_kernel_threads(monkeypatch):
    # W workers each run the compiled kernels on at most threads() // W
    # threads, so that they do not oversubscribe the CPUs. The pool runs
    # its map in this process, as in the test above, on a host of four CPUs,
    # and each replicate records the thread count its kernels would take.
    import concurrent.futures
    import os

    import metricdepth.simulation as sim
    from metricdepth import _native

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    seen = []
    replicate = sim._run_replicate

    def recording(config, rep):
        seen.append(_native.threads())
        return replicate(config, rep)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sim, "_run_replicate", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for n_jobs, threads in ((1, 4), (2, 2), (3, 1), (4, 1)):
        seen.clear()
        run_simulation(config(reps=4, n_jobs=n_jobs))
        assert seen == [threads] * 4
        assert _native.threads() == 4


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only simulate --threads > 1 starts a pool; its modules cost every
    # other command start-up time.
    import os
    import subprocess
    import sys

    code = ("import sys, metricdepth.cli\n"
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_run_simulation_on_a_host_without_cpu_affinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: the thread count falls
    # back to the CPU count, and a run still needs it to size its pool.
    import os

    from metricdepth import _native

    want = run_simulation(config(reps=2))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _native.threads() == 3
    got = run_simulation(config(reps=2))
    for name in want.errors:
        assert np.array_equal(got.errors[name], want.errors[name])
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _native.threads() == 1


def test_run_simulation_seed_sensitivity():
    a = run_simulation(config(seed=1))
    b = run_simulation(config(seed=1))
    c = run_simulation(config(seed=2))
    assert np.array_equal(a.errors["mhd"], b.errors["mhd"])
    assert not np.array_equal(a.errors["mhd"], c.errors["mhd"])


def test_run_simulation_rows_schema():
    result = run_simulation(config(reps=3))
    long_rows = list(result.long_rows())
    assert len(long_rows) == 3 * 2
    assert set(long_rows[0]) == {"estimator", "case", "space", "k", "n", "rep", "error"}
    summary = list(result.summary_rows())
    assert set(summary[0]) == {"estimator", "case", "space", "k", "n",
                               "median_error", "se"}
    assert {row["estimator"] for row in summary} == {"mhd", "fm"}


def test_failed_replicates_recorded(monkeypatch):
    import metricdepth.simulation as sim

    real = sim.fit_estimator

    def flaky(name, space, sample, jiggle_k, radius_frac, budget, seed):
        if name == "fm" and seed % 2 == 0:
            raise NumericalError("synthetic failure")
        return real(name, space, sample, jiggle_k, radius_frac, budget, seed)

    monkeypatch.setattr(sim, "fit_estimator", flaky)
    result = run_simulation(config(reps=8))
    n_failed = int(np.isnan(result.errors["fm"]).sum())
    assert n_failed == result.failures.get("fm", 0)
    assert n_failed >= 1
    assert not np.isnan(result.medians["fm"])  # median over surviving reps


def test_unsquarable_radius_fails_the_depth_median_replicates():
    # A finite radius_frac passes the settings check, but its step radius has
    # no finite square: each depth-median replicate fails, and the Frechet
    # mean, which takes no steps, does not.
    result = run_simulation(config(reps=2, radius_frac=1e200))
    assert result.failures.get("mhd") == 2 and np.isnan(result.errors["mhd"]).all()
    assert "fm" not in result.failures and not np.isnan(result.errors["fm"]).any()


# ------------------------------------------------------------- breakdown

def test_breakdown_zero_contamination_is_fixed_point():
    space = Euclidean(1)
    sample = [space.validate_point([v]) for v in np.linspace(-1, 1, 20)]
    rows = breakdown_experiment(space, sample, [0], [100.0], seed=1)
    assert all(row["displacement"] == 0.0 for row in rows)


def test_breakdown_mean_unbounded_median_bounded():
    space = Euclidean(1)
    sample = [space.validate_point([v]) for v in np.linspace(-1, 1, 20)]
    diameter = 2.0
    rows = breakdown_experiment(space, sample, [1, 5], [50.0, 5000.0], seed=1)
    fm_far = [r for r in rows if r["estimator"] == "fm" and r["distance"] == 5000.0]
    assert all(r["displacement"] > 10 * diameter for r in fm_far)
    mhd_rows = [r for r in rows if r["estimator"] == "mhd"]
    assert all(r["displacement"] <= diameter for r in mhd_rows)
