"""Monte Carlo harness: tangent-Gaussian populations, contamination
scenarios, estimator comparisons, and a breakdown experiment.

Populations push a zero-mean Gaussian tangent vector at a center through
the exponential map. Contaminated scenarios mix a 10% (configurable)
outlier population that differs in location (case 2), scale (case 3), or
both (case 4); case 1 is clean. Replicates draw from per-replicate seed
streams and are merged by replicate index, so results are byte-identical
for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import _native
from .errors import DataError, GeometryError, MetricDepthError
from .estimators import ESTIMATORS, fit_estimator, frechet_mean, mhd_median
from .rng import NS_BOOTSTRAP, NS_REPLICATE, NS_SAMPLING, derive_rng, derive_seed
from .spaces import SPD, Euclidean, Space, Sphere, Spider3

CASES = (1, 2, 3, 4)


@dataclass(frozen=True)
class PopulationSpec:
    """Exponential-map pushforward of a tangent Gaussian at ``center``.

    ``scatter`` is an isotropic variance or a full chart covariance.
    """

    space: Space
    center: object
    scatter: object
    label: str = ""


def _draw_points(space: Space, specs: Sequence[PopulationSpec], rng) -> list:
    """One draw exp_center(V) per entry of ``specs``, all reading ``rng`` in
    order, as one stacked pass. The draws are read as one
    ``standard_normal((N, normal_count))``, which numpy fills with the N
    successive draws of ``standard_normal(normal_count)`` that N draws one
    at a time would read."""
    centers = [spec.center for spec in specs]
    normals = rng.standard_normal((len(specs), space.normal_count))
    return space.normal_steps(centers, [spec.scatter for spec in specs], normals)


def sample_population(spec: PopulationSpec, n: int, seed: int = 0) -> list:
    """n i.i.d. draws exp_center(V), V Gaussian in the chart at the center."""
    return _draw_points(spec.space, [spec] * n, derive_rng(seed, NS_SAMPLING))


def canonical_center(space: Space):
    """Default population center: origin-like point of each geometry."""
    if isinstance(space, Euclidean):
        return space.validate_point(np.zeros(space.dim))
    if isinstance(space, Sphere):
        e1 = np.zeros(space.ambient_dim)
        e1[0] = 1.0
        return space.validate_point(e1)
    if isinstance(space, SPD):
        return space.validate_point(np.eye(space.size))
    if isinstance(space, Spider3):
        return space.validate_point((1.0, 1))
    # Products and anything else: build from components when possible.
    if hasattr(space, "components"):
        return tuple(canonical_center(c) for c in space.components)
    raise GeometryError(f"no canonical center for {space!r}")


def default_offset(space: Space) -> float:
    """Location-outlier offset: pi/2 on spheres (quarter turn), else 1."""
    return float(np.pi / 2) if isinstance(space, Sphere) else 1.0


def space_parameter(space: Space) -> int:
    if isinstance(space, (Euclidean, Sphere)):
        return space.dim
    if isinstance(space, SPD):
        return space.size
    return space.intrinsic_dim


@dataclass(frozen=True)
class SimulationConfig:
    case: int
    space: Space
    n: int
    reps: int = 128
    estimators: tuple = ESTIMATORS
    contamination: float = 0.1
    offset: float | None = None  # None resolves per space
    scale_factor: float = 4.0
    base_variance: float = 0.5
    jiggle_k: int = 10
    radius_frac: float = 0.1
    refine_budget: int = 64
    seed: int = 0
    n_jobs: int = 1

    def __post_init__(self):
        if self.case not in CASES:
            raise DataError(f"case must be one of {CASES}, got {self.case}")
        if self.n < 1:
            raise DataError(f"n must be >= 1, got {self.n}")
        if self.reps < 1:
            raise DataError("reps must be >= 1")
        if self.jiggle_k < 0:
            raise DataError(f"jiggle_k must be >= 0, got {self.jiggle_k}")
        if self.refine_budget < 0:
            raise DataError(f"refine_budget must be >= 0, got {self.refine_budget}")
        if self.n_jobs < 1:
            raise DataError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if not (self.base_variance >= 0 and np.isfinite(self.base_variance)):
            raise DataError(
                f"base_variance must be finite and >= 0, got {self.base_variance}"
            )
        if self.offset is not None and not np.isfinite(self.offset):
            raise DataError(f"offset must be finite, got {self.offset}")
        if not np.isfinite(self.scale_factor):
            raise DataError(f"scale_factor must be finite, got {self.scale_factor}")
        if not 0.0 <= self.contamination < 1.0:
            raise DataError("contamination fraction must lie in [0, 1)")
        if not (self.radius_frac >= 0 and np.isfinite(self.radius_frac)):
            raise DataError(f"radius_frac must be finite and >= 0, got {self.radius_frac}")
        if not self.estimators:
            raise DataError("estimator list must be non-empty")
        if len(set(self.estimators)) < len(self.estimators):
            raise DataError(f"estimator list repeats a name: {','.join(self.estimators)}")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise DataError(f"unknown estimators: {sorted(unknown)}")

    def resolved_offset(self) -> float:
        return self.offset if self.offset is not None else default_offset(self.space)


def _populations(config: SimulationConfig):
    space = config.space
    center = canonical_center(space)
    inlier = PopulationSpec(space, center, config.base_variance, "inlier")
    if config.case == 1:
        return inlier, None
    if config.case in (2, 4):
        direction = np.zeros((1, space.intrinsic_dim))
        direction[0, 0] = config.resolved_offset()
        tangent = space.tangents_from_coords([center], direction)
        outlier_center = space.exp_many([center], tangent)[0]
    else:
        outlier_center = center
    scatter = config.base_variance
    if config.case in (3, 4):
        scatter = config.base_variance * config.scale_factor**2
    return inlier, PopulationSpec(space, outlier_center, scatter, "outlier")


def sample_contaminated(config: SimulationConfig, rep_seed: int):
    """One replicate's data and its inlier mask (True = from the clean
    population). Outlier membership is Bernoulli(contamination) per point."""
    inlier, outlier = _populations(config)
    rng = derive_rng(rep_seed, NS_SAMPLING)
    if outlier is None:
        mask = np.ones(config.n, dtype=bool)
    else:
        mask = rng.random(config.n) >= config.contamination
    specs = [inlier if is_inlier else outlier for is_inlier in mask]
    return _draw_points(config.space, specs, rng), mask


def _run_replicate(config: SimulationConfig, rep: int) -> dict:
    rep_seed = derive_seed(config.seed, NS_REPLICATE, rep)
    sample, _ = sample_contaminated(config, rep_seed)
    center = canonical_center(config.space)
    mhd_seed = derive_seed(rep_seed, 1)
    out = {}
    for name in config.estimators:
        try:
            result = fit_estimator(name, config.space, sample, config.jiggle_k,
                                   config.radius_frac, config.refine_budget, mhd_seed)
            out[name] = float(config.space.distance_matrix([result.point], [center])[0, 0])
        except MetricDepthError as exc:
            out[name] = float("nan")
            out.setdefault("_failures", []).append((name, str(exc)))
    return out


@dataclass(frozen=True)
class SimulationResult:
    config: SimulationConfig
    errors: dict  # estimator -> (reps,) array, NaN where a rep failed
    medians: dict
    std_errors: dict
    failures: dict = field(default_factory=dict)

    def long_rows(self):
        k = space_parameter(self.config.space)
        for name in self.config.estimators:
            for rep, err in enumerate(self.errors[name]):
                yield {
                    "estimator": name,
                    "case": self.config.case,
                    "space": self.config.space.spec_string,
                    "k": k,
                    "n": self.config.n,
                    "rep": rep,
                    "error": err,
                }

    def summary_rows(self):
        k = space_parameter(self.config.space)
        for name in self.config.estimators:
            yield {
                "estimator": name,
                "case": self.config.case,
                "space": self.config.space.spec_string,
                "k": k,
                "n": self.config.n,
                "median_error": self.medians[name],
                "se": self.std_errors[name],
            }


def _bootstrap_se_of_median(values: np.ndarray, rng, n_boot: int = 256) -> float:
    if len(values) == 0:
        return float("nan")
    draws = rng.integers(0, len(values), size=(n_boot, len(values)))
    return float(np.std(np.median(values[draws], axis=1)))


def _run_replicate_on(config: SimulationConfig, rep: int, threads: int) -> dict:
    # A worker's replicate, its compiled kernels on at most `threads` threads.
    with _native.limit_threads(threads):
        return _run_replicate(config, rep)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run every replicate, fit every estimator, aggregate medians with
    bootstrap standard errors. Failed replicates are excluded per estimator
    and counted in ``failures``. Replicates run in at most ``n_jobs`` worker
    processes, and never more than the replicates or the CPUs the process
    may run on; W workers share those CPUs, each running its compiled
    kernels on at most ``threads() // W`` threads."""
    reps = range(config.reps)
    cpus = _native.threads()
    workers = min(config.n_jobs, config.reps, cpus)
    if workers > 1:
        # Imported here: the pool's modules (multiprocessing among them)
        # would otherwise add to every command's start-up.
        from concurrent.futures import ProcessPoolExecutor

        worker_config = replace(config, n_jobs=1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replicate_on, [worker_config] * config.reps, reps,
                                    [cpus // workers] * config.reps,
                                    chunksize=max(1, config.reps // (workers * 8))))
    else:
        results = [_run_replicate(config, rep) for rep in reps]

    errors = {
        name: np.array([res[name] for res in results], dtype=float)
        for name in config.estimators
    }
    failures = {}
    for res in results:
        for name, _ in res.get("_failures", []):
            failures[name] = failures.get(name, 0) + 1
    medians = {}
    std_errors = {}
    for name, errs in errors.items():
        valid = errs[~np.isnan(errs)]
        medians[name] = float(np.median(valid)) if len(valid) else float("nan")
        rng = derive_rng(config.seed, NS_BOOTSTRAP, ESTIMATORS.index(name))
        std_errors[name] = _bootstrap_se_of_median(valid, rng)
    return SimulationResult(config=config, errors=errors, medians=medians,
                            std_errors=std_errors, failures=failures)


def breakdown_experiment(
    space: Space,
    base_sample: Sequence,
    contamination_counts: Sequence,
    far_distances: Sequence,
    seed: int = 0,
    jiggle_k: int = 0,
    refine_budget: int = 0,
) -> list:
    """Displacement of the depth median and the intrinsic mean when ``l``
    adversarial points are planted at escalating distances along one
    direction. Returns rows of
    ``{l, distance, estimator, displacement}``.
    """
    base_sample = tuple(base_sample)
    ref_mhd = mhd_median(space, base_sample, jiggle_k=jiggle_k,
                         budget=refine_budget, seed=seed).point
    ref_fm = frechet_mean(space, base_sample).point
    direction = np.zeros((1, space.intrinsic_dim))
    direction[0, 0] = 1.0

    def displacement(x, y) -> float:
        return float(space.distance_matrix([x], [y])[0, 0])

    rows = []
    for l in contamination_counts:
        if l < 0:
            raise DataError("contamination counts must be >= 0")
        for d_idx, far in enumerate(far_distances):
            adversary = space.exp_many(
                [ref_mhd], space.tangents_from_coords([ref_mhd], far * direction))[0]
            adversaries = [adversary] * int(l)
            contaminated = base_sample + tuple(adversaries)
            est_mhd = mhd_median(space, contaminated, jiggle_k=jiggle_k,
                                 budget=refine_budget,
                                 seed=derive_seed(seed, l, d_idx)).point
            est_fm = frechet_mean(space, contaminated).point
            rows.append({"l": int(l), "distance": float(far), "estimator": "mhd",
                         "displacement": displacement(ref_mhd, est_mhd)})
            rows.append({"l": int(l), "distance": float(far), "estimator": "fm",
                         "displacement": displacement(ref_fm, est_fm)})
    return rows
