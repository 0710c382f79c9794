"""Halfspace depth for object data on general metric spaces.

Library surface:

- :mod:`metricdepth.spaces` -- geometries (Euclidean, sphere, SPD with the
  affine-invariant metric, the 3-spider, products) behind one interface;
- :mod:`metricdepth.depth` -- anchored halfspace depth, anchor jiggling,
  and deepest-point search;
- :mod:`metricdepth.estimators` -- intrinsic mean/median baselines and the
  depth median with its breakdown bound;
- :mod:`metricdepth.inference` -- depth-rank permutation tests;
- :mod:`metricdepth.simulation` -- reproducible Monte Carlo harness;
- :mod:`metricdepth.tukey` -- exact reference depth in R^1/R^2;
- :mod:`metricdepth.cli` -- the ``metricdepth`` command-line tool.
"""

__version__ = "0.1.0"

from .spaces import (  # noqa: E402
    SPD,
    Euclidean,
    Product,
    Space,
    Sphere,
    Spider3,
    SpiderPoint,
    parse_space,
)
from .depth import (  # noqa: E402
    AnchorSet,
    HalfspaceProbTable,
    approx_depth,
    halfspace_prob_table,
    in_sample_deepest,
    jiggle_anchors,
    refine_deepest,
)
from .estimators import (  # noqa: E402
    EstimatorResult,
    breakdown_lower_bound,
    frechet_mean,
    frechet_median,
    geodesic_distance_depth,
    mhd_median,
)
from .inference import (  # noqa: E402
    GroupedSample,
    TestResult,
    depth_ranks,
    kruskal_wallis_depth_test,
    wilcoxon_depth_test,
)
from .simulation import (  # noqa: E402
    PopulationSpec,
    SimulationConfig,
    SimulationResult,
    breakdown_experiment,
    run_simulation,
    sample_contaminated,
    sample_population,
)
from .tukey import tukey_depth_1d, tukey_depth_2d  # noqa: E402

__all__ = [
    "__version__",
    "Space", "Euclidean", "Sphere", "SPD", "Spider3", "SpiderPoint",
    "Product", "parse_space",
    "AnchorSet", "HalfspaceProbTable",
    "halfspace_prob_table", "approx_depth",
    "jiggle_anchors", "in_sample_deepest", "refine_deepest",
    "EstimatorResult", "frechet_mean", "frechet_median",
    "geodesic_distance_depth", "mhd_median", "breakdown_lower_bound",
    "GroupedSample", "TestResult", "depth_ranks",
    "wilcoxon_depth_test", "kruskal_wallis_depth_test",
    "PopulationSpec", "SimulationConfig", "SimulationResult",
    "sample_population", "sample_contaminated", "run_simulation",
    "breakdown_experiment",
    "tukey_depth_1d", "tukey_depth_2d",
]
