#!/usr/bin/env python3
"""Robust location estimation for covariance-matrix data.

Compares three center estimates on SPD(2) with the affine-invariant
metric, with and without 10% location outliers: the depth median, the
intrinsic (Frechet) mean, and the intrinsic median. The depth median and
intrinsic median shrug off the contamination; the mean is dragged.
"""

import numpy as np

from metricdepth.estimators import frechet_mean, frechet_median, mhd_median
from metricdepth.simulation import SimulationConfig, canonical_center, sample_contaminated
from metricdepth.spaces import SPD

space = SPD(2)
center = canonical_center(space)  # identity matrix


def fit_all(sample, seed):
    return {
        "depth median": mhd_median(space, sample, jiggle_k=5, budget=32, seed=seed),
        "intrinsic mean": frechet_mean(space, sample),
        "intrinsic median": frechet_median(space, sample),
    }


for case, label in [(1, "clean"), (2, "10% location outliers")]:
    cfg = SimulationConfig(case=case, space=space, n=150, reps=1,
                           base_variance=0.5, offset=2.0, seed=11)
    sample, mask = sample_contaminated(cfg, rep_seed=42)
    print(f"\n--- {label} (n={len(sample)}, outliers={int((~mask).sum())}) ---")
    for name, result in fit_all(sample, seed=7).items():
        err = space.distance_matrix([result.point], [center])[0, 0]
        print(f"{name:>17}: distance to true center = {err:.4f}")

print("""
The gap widens with contamination: halfspace counts ignore how far the
outlying matrices sit, while the mean's squared-distance objective does not.
""")
