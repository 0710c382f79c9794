"""The four benchmark workloads: inputs, CLI arguments and output checks.

Each op is one ``metricdepth`` CLI command on its own pre-generated input.
An op's input is a pure function of (workload, benchmark seed, input
index). ``check`` validates an op's output against invariants that hold
for any seed and returns a summary that, for the reference seed, is
compared with the outputs recorded in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

DEPTH_COLUMNS = ["query_index", "depth_num", "depth_den", "anchor1_index", "anchor2_index"]
# Distances closer than this are a tie the checker will not decide.
TIE_TOL = 1e-9
REL_TOL = 1e-6
RADIUS_FRAC = 0.1  # jiggle radius, as a fraction of the median pairwise distance


@dataclass
class Op:
    """One prepared input: files on disk plus what the checker needs."""

    index: int
    geometry: str
    cli_seed: int
    files: dict
    points: dict


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, index])


def _write(path: Path, points: tuple) -> Path:
    path.write_text(inputs.encode(points))
    return path


class DepthWorkload:
    """``depth`` on one sample: ``--self`` with sample anchors, or
    ``--query`` with jiggled anchors."""

    command = "depth"

    def __init__(self, name, geometries, n, variance, queries=0, query_variance=0.0, jiggle=0):
        self.name = name
        self.geometries = geometries
        self.n = n
        self.variance = variance
        self.queries = queries
        self.query_variance = query_variance
        self.jiggle = jiggle

    def prepare(self, seed: int, index: int, directory: Path) -> Op:
        rng = _rng(seed, index)
        cli_seed = int(rng.integers(2**31))
        geometry = self.geometries[index % len(self.geometries)]
        sample = inputs.sample(geometry, self.n, self.variance, rng)
        files = {"data": _write(directory / f"{index}-data.csv", sample)}
        points = {"sample": sample, "queries": sample}
        if self.queries:
            queries = inputs.sample(geometry, self.queries, self.query_variance, rng)
            files["query"] = _write(directory / f"{index}-query.csv", queries)
            points["queries"] = queries
        return Op(index, geometry, cli_seed, files, points)

    def argv(self, op: Op, out: Path) -> list:
        args = ["depth", "--space", op.geometry, "--data", str(op.files["data"])]
        args += ["--query", str(op.files["query"])] if self.queries else ["--self"]
        anchors = f"jiggle:{self.jiggle}" if self.jiggle else "sample"
        return args + ["--anchors", anchors, "--radius-frac", str(RADIUS_FRAC),
                       "--seed", str(op.cli_seed), "--out", str(out / "depth.csv")]

    def anchors(self, op: Op) -> tuple:
        """Anchor points as arrays: the sample itself, or the library's
        jiggled anchor set for this op's seed (the checker does not
        re-implement jiggling, only distances)."""
        if not self.jiggle:
            return op.points["sample"]
        if "anchors" not in op.points:
            from metricdepth.depth import jiggle_anchors
            from metricdepth.io import read_points
            from metricdepth.spaces import parse_space

            space = parse_space(op.geometry)
            sample = read_points(op.files["data"], space)
            anchor_set = jiggle_anchors(space, sample, self.jiggle, RADIUS_FRAC, op.cli_seed)
            kinds = [kind for kind, _ in op.points["sample"]]
            pts = [p if len(kinds) > 1 else (p,) for p in anchor_set.points]
            op.points["anchors"] = tuple(
                (kind, np.stack([np.asarray(p[c], float) for p in pts]))
                for c, kind in enumerate(kinds))
        return op.points["anchors"]

    def check(self, op: Op, out: Path):
        path = out / "depth.csv"
        with open(path, newline="") as handle:
            table = list(csv.reader(handle))
        if not table or table[0] != DEPTH_COLUMNS:
            return ["depth CSV header mismatch"], None
        rows = np.array(table[1:], dtype=np.int64).reshape(-1, 5)
        problems = check_depth_rows(rows, op.points["sample"], op.points["queries"],
                                    self.anchors(op))
        summary = {"csv_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        return problems, summary

    def compare(self, summary: dict, reference: dict) -> list:
        if summary["csv_sha256"] != reference["csv_sha256"]:
            return ["depth CSV differs from the reference output"]
        return []


def check_depth_rows(rows: np.ndarray, sample: tuple, queries: tuple, anchors: tuple) -> list:
    """Invariants of depth rows (query, num, den, a1, a2) for any input:
    one row per query in order, denominator n, two distinct in-range
    anchors, an admissible pair d(q, a1) <= d(q, a2), and a numerator equal
    to a recount of #{i : d(X_i, a1) <= d(X_i, a2)} (rows whose recount
    straddles a tie within TIE_TOL accept either side)."""
    n, m, n_anchors = len(sample[0][1]), len(queries[0][1]), len(anchors[0][1])
    problems = []
    if rows.shape[0] != m or not np.array_equal(rows[:, 0], np.arange(m)):
        return [f"expected query rows 0..{m - 1}, got {rows.shape[0]} rows"]
    num, den, a1, a2 = rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4]
    if np.any(den != n):
        problems.append(f"depth_den differs from n={n} in {np.sum(den != n)} rows")
    bad = (a1 == a2) | (a1 < 0) | (a2 < 0) | (a1 >= n_anchors) | (a2 >= n_anchors)
    if np.any(bad):
        return problems + [f"{np.sum(bad)} rows without two distinct valid anchors"]
    used, pos = np.unique(np.concatenate([a1, a2]), return_inverse=True)
    used_anchors = inputs.take(anchors, used)
    to_first = inputs.paired_distance(queries, inputs.take(used_anchors, pos[:m]))
    to_second = inputs.paired_distance(queries, inputs.take(used_anchors, pos[m:]))
    inadmissible = to_first > to_second + TIE_TOL
    if np.any(inadmissible):
        problems.append(f"{np.sum(inadmissible)} rows with an inadmissible anchor pair")
    dist = inputs.distance_matrix(sample, used_anchors)
    d1, d2 = dist[:, pos[:m]], dist[:, pos[m:]]
    low = np.sum(d1 < d2 - TIE_TOL, axis=0)
    high = np.sum(d1 <= d2 + TIE_TOL, axis=0)
    miscounted = (num < low) | (num > high)
    if np.any(miscounted):
        problems.append(f"{np.sum(miscounted)} rows whose depth_num is not the recount")
    return problems


class PermTestWorkload:
    """``test --test kw`` on three groups: Kruskal-Wallis plus pairwise Wilcoxon."""

    command = "test"
    geometries = ("sphere:2",)

    def __init__(self, name, group_size, variances, permutations):
        self.name = name
        self.group_size = group_size
        self.variances = variances
        self.permutations = permutations

    def prepare(self, seed: int, index: int, directory: Path) -> Op:
        rng = _rng(seed, index)
        cli_seed = int(rng.integers(2**31))
        geometry = self.geometries[0]
        files = {}
        for g, var in enumerate(self.variances):
            files[f"g{g + 1}"] = _write(directory / f"{index}-g{g + 1}.csv",
                                        inputs.sample(geometry, self.group_size, var, rng))
        return Op(index, geometry, cli_seed, files, {})

    def argv(self, op: Op, out: Path) -> list:
        args = ["test", "--space", op.geometry]
        for path in op.files.values():
            args += ["--groups", str(path)]
        return args + ["--test", "kw", "--permutations", str(self.permutations),
                       "--seed", str(op.cli_seed), "--out", str(out / "test.json")]

    def check(self, op: Op, out: Path):
        payload = json.loads((out / "test.json").read_text())
        return check_test_payload(payload, self.permutations, len(self.variances))

    def compare(self, summary: dict, reference: dict) -> list:
        problems = []
        if summary["hits"] != reference["hits"]:
            problems.append(f"permutation hits {summary['hits']} != reference {reference['hits']}")
        if not _close(summary["statistics"], reference["statistics"]):
            problems.append("test statistics differ from the reference beyond 1e-6")
        return problems


def check_test_payload(payload: dict, permutations: int, groups: int):
    """Every p-value is (1 + hits) / (1 + P) with whole hits in [0, P];
    statistics are finite; one pairwise test per pair of groups."""
    tests = [payload] + list(payload.get("pairwise_wilcoxon", []))
    problems = []
    if len(tests) != 1 + groups * (groups - 1) // 2:
        problems.append(f"expected {groups * (groups - 1) // 2} pairwise tests, got {len(tests) - 1}")
    hits, stats = [], []
    for test in tests:
        p, stat = test["p_value"], test["statistic"]
        h = round(p * (permutations + 1)) - 1
        if not 0 <= h <= permutations or (1 + h) / (1 + permutations) != p:
            problems.append(f"p-value {p!r} is not (1 + hits) / {permutations + 1}")
        if not math.isfinite(stat):
            problems.append(f"non-finite statistic {stat!r}")
        hits.append(h)
        stats.append(stat)
    return problems, {"hits": hits, "statistics": stats}


class SimulateWorkload:
    """``simulate`` with the acceptance settings; the op's input is its seed."""

    command = "simulate"
    geometries = ("spd:2",)
    estimators = ("mhd", "fm")
    reps = 2

    def __init__(self, name):
        self.name = name

    def prepare(self, seed: int, index: int, directory: Path) -> Op:
        cli_seed = int(_rng(seed, index).integers(2**31))
        return Op(index, self.geometries[0], cli_seed, {}, {})

    def argv(self, op: Op, out: Path) -> list:
        return ["simulate", "--space", op.geometry, "--case", "2", "--n", "100",
                "--reps", str(self.reps), "--estimators", ",".join(self.estimators),
                "--jiggle", "2", "--budget", "32", "--threads", "1",
                "--seed", str(op.cli_seed), "--out-dir", str(out)]

    def check(self, op: Op, out: Path):
        with open(out / "errors_long.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        keys = sorted((r["estimator"], int(r["rep"])) for r in rows)
        expected = sorted((e, rep) for e in self.estimators for rep in range(self.reps))
        errors = [float(r["error"]) for r in rows]
        problems = []
        if keys != expected:
            problems.append(f"expected {len(expected)} (estimator, rep) rows, got {keys}")
        if not all(math.isfinite(e) and e >= 0 for e in errors):
            problems.append(f"errors not all finite and non-negative: {errors}")
        return problems, {"errors": errors}

    def compare(self, summary: dict, reference: dict) -> list:
        if not _close(summary["errors"], reference["errors"]):
            return ["simulation errors differ from the reference beyond 1e-6"]
        return []


def _close(values, reference) -> bool:
    return len(values) == len(reference) and all(
        abs(v - r) <= REL_TOL * max(abs(r), 1e-300) for v, r in zip(values, reference))


WORKLOADS = {
    w.name: w for w in (
        DepthWorkload("depth-self", ("spd:2", "sphere:2", "euclidean:5"), n=400, variance=0.5),
        DepthWorkload("depth-jiggle", ("spd:2", "sphere:2", "product:spd:2+sphere:2"), n=230,
                      variance=0.5, queries=10, query_variance=2.0, jiggle=3),
        PermTestWorkload("permtest", group_size=30, variances=(0.3, 0.3, 0.6), permutations=99),
        SimulateWorkload("simulate"),
    )
}
