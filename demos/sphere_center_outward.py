#!/usr/bin/env python3
"""Depth on the unit sphere: a center-outward ranking for directional data.

Draws a wrapped-normal cloud on S^2, evaluates anchored halfspace depth at
every observation, and shows that depth decreases monotonically with
distance from the population center. Writes a plot-ready CSV (ambient
coordinates + depth) you can feed to any 3-d scatter tool.
"""

import numpy as np
from scipy.stats import spearmanr

from metricdepth import approx_depth, jiggle_anchors
from metricdepth.io import write_csv_rows
from metricdepth.simulation import PopulationSpec, canonical_center, sample_population
from metricdepth.spaces import Sphere

space = Sphere(2)
center = canonical_center(space)  # the first basis direction
spec = PopulationSpec(space, center, scatter=0.5, label="wrapped normal")

points = sample_population(spec, n=100, seed=2026)

# Anchors: the sample plus 5 perturbed copies of each point. Extra anchors
# can only sharpen the depth values (they add candidate halfspaces).
anchors = jiggle_anchors(space, points, k=5, radius_frac=0.1, seed=1)
records = approx_depth(space, points, anchors, points)

depths = records.depth_num / records.depth_den
dists = space.distance_matrix(points, [center])[:, 0]
rho = spearmanr(depths, dists).statistic

deepest = points[int(np.argmax(depths))]
print(f"points: {len(points)}   anchors: {len(anchors)}")
print(f"depth range: [{depths.min():.3f}, {depths.max():.3f}]")
print(f"Spearman(depth, distance to center): {rho:.3f}  (strongly negative)")
print(f"deepest point: {np.array2string(np.asarray(deepest), precision=3)}")
print(f"distance(deepest, center): {dists[int(np.argmax(depths))]:.3f}")

rows = [
    {"x": p[0], "y": p[1], "z": p[2], "depth": d, "dist_to_center": dd}
    for p, d, dd in zip(points, depths, dists)
]
write_csv_rows("sphere_depth.csv", ["x", "y", "z", "depth", "dist_to_center"], rows)
print("wrote sphere_depth.csv (color by the 'depth' column to see the pattern)")
