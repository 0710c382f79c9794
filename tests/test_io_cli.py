import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import metricdepth
from metricdepth import _native
from metricdepth.cli import main
from metricdepth.depth import DEPTH_DTYPE, approx_depth, jiggle_anchors
from metricdepth.errors import DataError, GeometryError
from metricdepth.io import (
    manifest_path_for,
    read_depth_reports_csv,
    read_points,
    write_depth_reports_csv,
    write_depth_reports_json,
    write_points,
)
from metricdepth.spaces import SPD, Euclidean, Product, Sphere, Spider3, parse_space

from conftest import dense_min_counts, kernel_threads, numpy_kernels, random_points


@pytest.fixture
def runner():
    return CliRunner()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def invoke(runner, args, expect_exit=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect_exit, result.output
    return result


def child_env(**extra):
    """This process's environment and ``extra``, with the tested package's
    source first on PYTHONPATH, for a child Python."""
    src = str(Path(metricdepth.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def write_inputs(directory, space, inputs, seed):
    """Writes a row's input files, as its recipe says, and returns their
    options and paths."""
    rng = np.random.default_rng(seed)
    args = []
    for i, (option, size, *repeats) in enumerate(inputs):
        points = random_points(space, size, rng)
        if repeats:
            points += [points[j] for j in rng.permutation(size)[:repeats[0]]]
        path = directory / f"input{i}.csv"
        write_points(path, space, points)
        args += [option, str(path)]
    return args


# ------------------------------------------------------------------ file IO

def test_point_files_round_trip(tmp_path, rng):
    spaces = [Euclidean(3), Sphere(2), SPD(2), Spider3(),
              Product((SPD(2), Euclidean(3)))]
    for idx, space in enumerate(spaces):
        pts = random_points(space, 7, rng)
        path = tmp_path / f"pts{idx}.csv"
        write_points(path, space, pts)
        back = read_points(path, space)
        assert len(back) == len(pts)
        assert (np.diag(space.distance_matrix(pts, back)) <= 1e-12).all()


def test_read_points_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(DataError, match="row 2"):
        read_points(path, Euclidean(1))


@pytest.mark.parametrize("space, good", [
    (Euclidean(2), "1.0,2.0"),
    (Sphere(2), "1.0,0.0,0.0"),
    (SPD(2), "1.0,0.0,0.0,1.0"),
])
def test_read_points_names_the_geometry_of_a_bad_token(tmp_path, space, good):
    path = tmp_path / "bad.csv"
    path.write_text(f"{good}\n{good.replace('0', 'x', 1)}\n")
    with pytest.raises(DataError, match=f"row 2: bad {space.kind} row: "):
        read_points(path, space)


def test_depth_report_round_trip(tmp_path, rng):
    # The records' five names are what the benchmark reads of each row; the
    # CSV reads back to an equal array, and the JSON writer writes the bytes
    # of json.dumps, whose depth is Python's num / den.
    space = Sphere(2)
    points = random_points(space, 30, rng)
    depths = approx_depth(space, points, jiggle_anchors(space, points, 2, seed=1), points)
    assert depths.dtype == DEPTH_DTYPE and len(depths) == 30
    assert [(r.query_index, r.depth_num, r.depth_den, r.anchor1, r.anchor2)
            for r in depths] == depths.tolist()
    path = tmp_path / "depths.csv"
    write_depth_reports_csv(path, depths)
    back = read_depth_reports_csv(path)
    assert back.dtype == DEPTH_DTYPE and np.array_equal(back, depths)
    objects = [{"query_index": q, "depth_num": num, "depth_den": den, "depth": num / den,
                "anchor1_index": a1, "anchor2_index": a2}
               for q, num, den, a1, a2 in depths.tolist()]
    for records, want in ((depths, objects), (depths[:1], objects[:1]), (depths[:0], [])):
        write_depth_reports_json(path, records)
        assert path.read_text() == json.dumps(want, indent=2) + "\n"


def test_depth_report_reader_rejects_junk(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        read_depth_reports_csv(path)
    path.write_text("query_index,depth_num,depth_den,anchor1_index,anchor2_index\n")
    with pytest.raises(DataError, match="no depth rows"):
        read_depth_reports_csv(path)


# -------------------------------------------------------------- cmd: depth

def test_cmd_depth_self(tmp_path, runner):
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n")
    out = tmp_path / "depths.csv"
    invoke(runner, ["depth", "--space", "euclidean:1", "--data", str(data),
                    "--self", "--out", str(out)])
    reports = read_depth_reports_csv(out)
    assert [(r.depth_num, r.depth_den) for r in reports] == [(1, 3), (2, 3), (1, 3)]
    manifest = json.loads(manifest_path_for(out).read_text())
    assert manifest["seed"] == 0 and str(data) in manifest["inputs"]


def test_cli_reads_each_input_once_and_records_its_digest(tmp_path, runner, monkeypatch):
    data, other = tmp_path / "data.csv", tmp_path / "other.csv"
    data.write_text("1\n2\n3\n4\n")
    other.write_text("2.5\n0\n7\n")
    config = tmp_path / "sim.cfg"
    config.write_text("space = euclidean:1\ncase = 1\nn = 5\nreps = 1\nestimators = fm\n")
    depths = tmp_path / "depths.csv"
    invoke(runner, ["depth", "--space", "euclidean:1", "--data", str(data), "--self",
                    "--out", str(depths)])
    reads, real_open = [], io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if "w" not in mode:
            reads.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    space = ["--space", "euclidean:1"]
    for args, inputs, out in (
            (["depth", *space, "--data", str(data), "--query", str(other)], (data, other),
             tmp_path / "d.csv"),
            (["test", *space, "--groups", str(data), "--groups", str(other),
              "--permutations", "99"], (data, other), tmp_path / "t.json"),
            (["plotdata", *space, "--data", str(data), "--depths", str(depths)],
             (data, depths), tmp_path / "p.csv"),
            (["simulate", "--config", str(config)], (config,), tmp_path / "sim")):
        reads.clear()
        invoke(runner, [*args, "--out-dir" if args[0] == "simulate" else "--out", str(out)])
        assert sorted(reads) == sorted(map(str, inputs))
        manifest = json.loads(manifest_path_for(out).read_text())
        assert manifest["inputs"] == {str(path): sha256_file(path) for path in inputs}


def test_cmd_depth_json_and_reproducibility(tmp_path, runner):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(str(v) for v in np.linspace(0, 1, 9)) + "\n")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["depth", "--space", "euclidean:1", "--data", str(data), "--self",
            "--anchors", "jiggle:3", "--seed", "7", "--format", "json"]
    invoke(runner, args + ["--out", str(out1)])
    invoke(runner, args + ["--out", str(out2)])
    assert sha256_file(out1) == sha256_file(out2)
    assert json.loads(out1.read_text())[0]["depth_den"] == 9


@pytest.mark.parametrize("spec", ["euclidean:3", "sphere:2", "spd:2", "spd:3", "spider3",
                                  "product:sphere:2+euclidean:1"])
@pytest.mark.parametrize("anchors", ["sample", "jiggle:2"])
def test_cmd_depth_self_equals_query_of_the_data(tmp_path, runner, rng, spec, anchors):
    # --self scans the table's rank codes; --query on the same file reads
    # freshly computed query distances. The CSVs must be the same bytes.
    space = parse_space(spec)
    data = tmp_path / "data.csv"
    write_points(data, space, random_points(space, 40, rng) * 2)
    outs = {}
    for mode in (["--self"], ["--query", str(data)]):
        out = tmp_path / f"{mode[0][2:]}.csv"
        invoke(runner, ["depth", "--space", spec, "--data", str(data), *mode,
                        "--anchors", anchors, "--seed", "3", "--out", str(out)])
        outs[mode[0]] = out.read_bytes()
    assert outs["--self"] == outs["--query"]


@pytest.mark.parametrize("spec", ["jiggle:\u00b2", "jiggle:\u0663", "jiggle:", "jiggle:-1",
                                  "jiggle:+3", "jiggle: 3", "jiggle"])
def test_cmd_depth_rejects_anchor_counts_that_are_not_ascii_digits(tmp_path, runner, spec):
    # '²' passes str.isdigit() but not int(); '٣' (Arabic-Indic three)
    # passes both and would run as K = 3.
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n")
    result = runner.invoke(main, ["depth", "--space", "euclidean:1", "--data", str(data),
                                  "--self", "--anchors", spec, "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output
    assert "--anchors must be 'sample' or 'jiggle:K'" in result.output
    assert not (tmp_path / "x.csv").exists()


def test_cmd_depth_requires_query_choice(tmp_path, runner):
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n")
    result = runner.invoke(main, ["depth", "--space", "euclidean:1", "--data",
                                  str(data), "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


def test_cmd_depth_invalid_point_is_data_error(tmp_path, runner):
    data = tmp_path / "data.csv"
    data.write_text("1,0,0\n5,0,0\n")  # second row far from unit norm
    result = runner.invoke(main, ["depth", "--space", "sphere:2", "--data", str(data),
                                  "--self", "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 3
    assert "row 2" in result.output


def test_cmd_depth_spider_demo_center_branch(tmp_path, runner):
    from metricdepth.simulation import PopulationSpec, sample_population

    space = Spider3()
    spec = PopulationSpec(space, space.validate_point((1.0, 2)), 0.25)
    pts = sample_population(spec, 100, seed=21)
    data = tmp_path / "trees.csv"
    write_points(data, space, pts)
    out = tmp_path / "depths.csv"
    invoke(runner, ["depth", "--space", "spider3", "--data", str(data), "--self",
                    "--out", str(out)])
    depths = read_depth_reports_csv(out)
    deepest = depths.query_index[np.argmax(depths.depth_num / depths.depth_den)]
    assert pts[deepest].branch == 2


@pytest.mark.parametrize("inputs", [(("--data", 300),), (("--data", 300, 20),)],
                         ids=["untied", "tied"])
def test_cmd_depth_self_is_the_dense_least_count(tmp_path, runner, inputs):
    # 300 euclidean:2 points span several anchor blocks: untied they take
    # the upper-triangle table, with 20 repeated rows the full square. Every
    # row must be the masked argmin over the row-major table.
    space = Euclidean(2)
    args = write_inputs(tmp_path, space, inputs, 14)
    out = tmp_path / "depths.csv"
    invoke(runner, ["depth", "--space", "euclidean:2", *args, "--self", "--out", str(out)])
    points = read_points(args[1], space)
    dist = space.distance_matrix(points, points)
    n = len(dist)
    counts = (dist[:, :, None] <= dist[:, None, :]).sum(axis=0)
    got = np.array([(r.depth_num, r.anchor1, r.anchor2)
                    for r in read_depth_reports_csv(out)])
    assert len(got) == n
    for start in range(0, n, 40):
        want = dense_min_counts(counts, n, dist[start:start + 40])
        assert np.array_equal(got[start:start + 40], np.stack(want, axis=1)), start


# -------------------------------------------------------------- cmd: median

def test_cmd_median_mhd_with_bound(tmp_path, runner):
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n")
    out = tmp_path / "median.json"
    invoke(runner, ["median", "--space", "euclidean:1", "--data", str(data),
                    "--estimator", "mhd", "--jiggle", "0", "--budget", "0",
                    "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["point"] == "2.0"
    assert payload["breakdown_lower_bound"] == pytest.approx(0.4)


def test_cmd_median_converged_is_null_for_mhd_only(tmp_path, runner):
    # Refinement runs its whole budget with no stopping test, so the depth
    # median reports no convergence; the intrinsic mean and median report
    # the outcome of theirs.
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n4\n")
    converged = {}
    for est in ("mhd", "fm", "gdd"):
        out = tmp_path / f"{est}.json"
        invoke(runner, ["median", "--space", "euclidean:1", "--data", str(data),
                        "--estimator", est, "--jiggle", "1", "--budget", "3",
                        "--out", str(out)])
        converged[est] = json.loads(out.read_text())["converged"]
    assert converged == {"mhd": None, "fm": True, "gdd": True}


def test_cmd_median_fm_is_mean(tmp_path, runner, rng):
    values = rng.standard_normal((10, 2))
    data = tmp_path / "data.csv"
    data.write_text("\n".join(",".join(repr(float(v)) for v in row)
                              for row in values) + "\n")
    out = tmp_path / "mean.json"
    invoke(runner, ["median", "--space", "euclidean:2", "--data", str(data),
                    "--estimator", "fm", "--out", str(out)])
    payload = json.loads(out.read_text())
    point = np.array([float(t) for t in payload["point"].split(",")])
    assert np.allclose(point, values.mean(axis=0), atol=1e-8)


def test_cmd_median_gdd_fm_agree_on_symmetric_pair(tmp_path, runner):
    # The mean-distance objective of {-1, 1} is flat on the segment, so both
    # estimators must return minimizers with the same objective value; the
    # squared objective is strict, so fm lands on the midpoint exactly.
    data = tmp_path / "data.csv"
    data.write_text("-1\n1\n")
    payloads = {}
    for est in ("fm", "gdd"):
        out = tmp_path / f"{est}.json"
        invoke(runner, ["median", "--space", "euclidean:1", "--data", str(data),
                        "--estimator", est, "--out", str(out)])
        payloads[est] = json.loads(out.read_text())
    assert float(payloads["fm"]["point"]) == pytest.approx(0.0, abs=1e-8)
    gdd_point = float(payloads["gdd"]["point"])
    assert -1.0 <= gdd_point <= 1.0
    assert payloads["gdd"]["objective"] == pytest.approx(1.0, abs=1e-9)
    assert (abs(gdd_point + 1) + abs(gdd_point - 1)) / 2 == pytest.approx(
        payloads["gdd"]["objective"])


@pytest.mark.parametrize("args", [
    ["median", "--jiggle", "-1"],
    ["median", "--budget", "-2"],
    ["median", "--radius-frac", "nan"],
    ["median", "--radius-frac", "-0.5"],
    ["depth", "--self", "--radius-frac", "-1", "--anchors", "jiggle:2"],
    ["depth", "--self", "--radius-frac", "nan"],
    ["depth", "--self", "--radius-frac", "inf", "--anchors", "sample"],
])
def test_cmd_bad_settings_are_usage_errors_before_writing(tmp_path, runner, args):
    # Bad settings are bad input, not a numerical failure: they stop at the
    # option with exit 2, as simulate stops them with exit 3, and no output
    # file or manifest is written.
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n5\n")
    out = tmp_path / "out.json"
    result = runner.invoke(main, [*args, "--space", "euclidean:1", "--data", str(data),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "numerical failure" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.mark.parametrize("args", [
    ["depth", "--self", "--anchors", "jiggle:2"],
    ["median", "--jiggle", "2", "--budget", "4"],
    ["median", "--jiggle", "0", "--budget", "4"],
])
def test_cmd_unsquarable_radius_is_a_numerical_failure(tmp_path, runner, args):
    # A finite --radius-frac whose step radius has no finite square fails in
    # jiggling, or with --jiggle 0 in refinement: exit 4 naming the radius,
    # with no output file or manifest.
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n5\n8\n")
    result = runner.invoke(main, [*args, "--space", "euclidean:1", "--data", str(data),
                                  "--radius-frac", "1e200", "--out", str(tmp_path / "out")])
    assert result.exit_code == 4, result.output
    assert "numerical failure: step radius 3e+200 has no finite square" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_cmd_median_numerical_failure_exit_code(tmp_path, runner):
    data = tmp_path / "data.csv"
    data.write_text("1,0,0\n-1,0,0\n")  # antipodal pair on the sphere
    result = runner.invoke(main, ["median", "--space", "sphere:2", "--data", str(data),
                                  "--estimator", "fm", "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 4


def test_cmd_median_rejects_proposals_outside_the_cone(tmp_path, runner):
    # Refinement steps of ten times the median distance leave the SPD cone
    # through rounding on this sample; those proposals are rejected, and the
    # median is at least as deep as the refinement's start.
    from metricdepth.simulation import SimulationConfig, sample_contaminated

    space = SPD(3)
    sample, _ = sample_contaminated(SimulationConfig(case=1, space=space, n=20), 0)
    data = tmp_path / "spd3.csv"
    write_points(data, space, sample)
    depths = []
    for budget in ("0", "16"):
        out = tmp_path / f"median{budget}.json"
        result = runner.invoke(main, ["median", "--space", "spd:3", "--data", str(data),
                                      "--jiggle", "2", "--budget", budget,
                                      "--radius-frac", "10", "--out", str(out)])
        assert result.exit_code == 0, result.output
        depths.append(json.loads(out.read_text())["depth_num"])
    assert depths[1] >= depths[0]


def test_cmd_median_names_the_failed_refinement_step(tmp_path, runner, monkeypatch):
    # A draw of proposals that fails ends the median with exit 4, naming its
    # step; no result file is written.
    def failing_steps(self, bases, scatters, normals):
        raise GeometryError("matrix is not positive definite")

    space = SPD(2)
    data, out = tmp_path / "spd2.csv", tmp_path / "median.json"
    write_points(data, space, random_points(space, 12, np.random.default_rng(0)))
    monkeypatch.setattr(SPD, "normal_steps", failing_steps)
    result = runner.invoke(main, ["median", "--space", "spd:2", "--data", str(data),
                                  "--jiggle", "0", "--budget", "16", "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "numerical failure: refinement step " in result.output
    assert "try a smaller --radius-frac" in result.output
    assert not out.exists()


# ---------------------------------------------------------------- cmd: test

def _write_group(path, rng, shift=0.0, n=12):
    values = rng.standard_normal(n) + shift
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


def test_cmd_test_identical_groups_not_rejected(tmp_path, runner, rng):
    g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    _write_group(g1, rng)
    g2.write_text(g1.read_text())
    out = tmp_path / "test.json"
    invoke(runner, ["test", "--space", "euclidean:1", "--groups", str(g1),
                    "--groups", str(g2), "--test", "wilcoxon",
                    "--permutations", "999", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["p_value"] >= 0.05


def test_cmd_test_separated_groups_rejected(tmp_path, runner, rng):
    g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    _write_group(g1, rng, shift=0.0)
    _write_group(g2, rng, shift=50.0)
    out = tmp_path / "test.json"
    invoke(runner, ["test", "--space", "euclidean:1", "--groups", str(g1),
                    "--groups", str(g2), "--test", "wilcoxon",
                    "--permutations", "999", "--out", str(out)])
    assert json.loads(out.read_text())["p_value"] <= 0.01


def test_cmd_test_kw_pairwise_matrix(tmp_path, runner, rng):
    files = []
    for i in range(4):
        path = tmp_path / f"g{i}.csv"
        _write_group(path, rng, n=8)
        files.append(path)
    out = tmp_path / "kw.json"
    args = ["test", "--space", "euclidean:1", "--test", "kw",
            "--permutations", "99", "--out", str(out)]
    for f in files:
        args += ["--groups", str(f)]
    invoke(runner, args)
    payload = json.loads(out.read_text())
    assert payload["test"] == "kruskal-wallis"
    assert len(payload["pairwise_wilcoxon"]) == 6  # upper triangle of 4x4


# One row per command, geometry and input recipe: the command's own
# options, then each input file's option, point count and, if given, how
# many of those points it repeats at its end, drawn in order from one
# generator of the row's seed. The command takes its own --seed, if any.
# `test` rows take the benchmark's three sphere:2 groups of 30, and groups
# of 64 and 65, the edges of the compiled table's runs of 64 uint8 codes;
# three groups of 30 that each repeat 6 of their points, so the pooled
# codes tie; and two groups of 130, whose 260 pooled points take uint16
# codes and five runs of the depth counts' 64 lanes.
# The spd:2 query rows with jiggle:9 anchors (n_A = 1000) take 10 queries
# to the least-count pass, on two threads where two CPUs are allowed, and
# 60 to the pair sort and scan. jiggle:3 on 300 points gives 1200 anchors
# and uint16 counts, on 200 points 800 anchors and uint8 counts: enough
# that the ranks, table, pair sort and scan spread over every CPU. The
# tied euclidean:2 file takes the full-square table. Each median's budget
# accepts moves, after which refinement draws again from the new point;
# spider3's streams read two normals, the second picking a branch. The
# spd:2 median at budget 64 rejects most of its proposals by a witness
# pair without a scan (44 of 64 here), and the spd:2+sphere:2 median
# measures its blocks of proposals in one product distance call.
# spd:k for k >= 3 has no row: its distances take LAPACK's eigvalsh, whose
# last bits depend on the BLAS thread count.
SELF, QUERY = ["depth", "--self", "--anchors", "jiggle:3"], ["depth", "--anchors", "jiggle:3"]
JIGGLED = (("sphere:2", 300, 200), ("spd:2", 300, 200), ("euclidean:5", 300, 200),
           ("product:spd:2+sphere:2", 300, 200), ("sphere:2", 200, 100), ("spd:2", 200, 100))
KW = ["test", "--test", "kw", "--permutations"]
MHD = ["median", "--estimator", "mhd", "--jiggle"]
SIMULATE = ["simulate", "--case", "2", "--n", "30", "--reps", "2", "--estimators", "mhd,fm",
            "--jiggle", "2", "--budget", "8"]
EQUIVALENCE = [
    pytest.param([*KW, "99", "--seed", "5"], "sphere:2", (("--groups", 30),) * 3, 5,
                 id="kw-sphere2-3x30"),
    pytest.param([*KW, "99", "--seed", "6"], "sphere:2", (("--groups", 64), ("--groups", 65)), 6,
                 id="kw-sphere2-64-65"),
    pytest.param([*KW, "199"], "euclidean:1", (("--groups", 10),) * 3, 9, id="kw-euclidean1-3x10"),
    *(pytest.param([*KW, "999", "--seed", seed], "sphere:2", (("--groups", 40),) * 3, 10,
                   id=f"kw-sphere2-3x40-seed{seed}") for seed in ("0", "4294967301", "-1")),
    pytest.param(["test", "--test", "wilcoxon", "--permutations", "999"], "sphere:2",
                 (("--groups", 60),) * 2, 11, id="wilcoxon-sphere2-2x60"),
    pytest.param([*KW, "99", "--seed", "2"], "sphere:2", (("--groups", 30, 6),) * 3, 19,
                 id="kw-sphere2-3x36-tied"),
    pytest.param(["test", "--test", "wilcoxon", "--permutations", "99"], "sphere:2",
                 (("--groups", 130),) * 2, 20, id="wilcoxon-sphere2-2x130"),
    pytest.param(["depth", "--anchors", "jiggle:9", "--seed", "7"], "spd:2",
                 (("--data", 100), ("--query", 10)), 7, id="depth-spd2-10-queries"),
    pytest.param(["depth", "--anchors", "jiggle:9", "--seed", "8"], "spd:2",
                 (("--data", 100), ("--query", 60)), 8, id="depth-spd2-60-queries"),
    pytest.param(["depth", "--anchors", "jiggle:2", "--seed", "1"], "product:spd:2+sphere:2",
                 (("--data", 20), ("--query", 10)), 12, id="query-product-20-10"),
    pytest.param(SELF, "spd:2", (("--data", 30),), 13, id="self-spd2-30"),
    pytest.param(SELF, "euclidean:2", (("--data", 300, 20),), 14, id="self-euclidean2-300-tied"),
    *(pytest.param(SELF, spec, (("--data", n),), 15, id=f"self-{spec.replace(':', '')}-{n}")
      for spec, n, _ in JIGGLED),
    *(pytest.param(QUERY, spec, (("--data", n), ("--query", m)), 15,
                   id=f"query-{spec.replace(':', '')}-{n}-{m}") for spec, n, m in JIGGLED),
    *(pytest.param([*MHD, "2", "--budget", "32"], spec, (("--data", 30),), 16,
                   id=f"median-{spec.replace(':', '')}")
      for spec in ("euclidean:3", "sphere:2", "spd:2")),
    pytest.param([*MHD, "3", "--budget", "64"], "spd:2", (("--data", 60),), 26,
                 id="median-spd2-60-budget64"),
    pytest.param([*MHD, "2", "--budget", "32"], "product:spd:2+sphere:2", (("--data", 40),), 27,
                 id="median-product-spd2-sphere2"),
    pytest.param([*MHD, "3", "--budget", "16"], "spider3", (("--data", 40),), 17,
                 id="median-spider3"),
    pytest.param([*MHD, "3", "--budget", "16"], "product:spider3+euclidean:2",
                 (("--data", 40),), 17, id="median-product-spider3"),
    pytest.param(SIMULATE, "spd:2", (), 0, id="simulate-spd2"),
    pytest.param(SIMULATE, "sphere:2", (), 0, id="simulate-sphere2"),
]


def in_process(condition):
    def run(args):
        with condition():
            invoke(CliRunner(), args)

    return run


def on_one_cpu(args):
    # A child process on one of the CPUs this one may run on, with OpenBLAS
    # on one thread, as `taskset -c 0` and OPENBLAS_NUM_THREADS=1 run it.
    cpu = min(os.sched_getaffinity(0))
    ran = subprocess.run([sys.executable, "-m", "metricdepth.cli", *args], capture_output=True,
                         text=True, env=child_env(OPENBLAS_NUM_THREADS="1"),
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert ran.returncode == 0, ran.stderr


# Each row writes the same bytes under every condition: the compiled
# kernels on every CPU, on one thread, in a child on one CPU, and the numpy
# bodies. Each condition's manifest names its kernels and thread count.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
CONDITIONS = {"native": (in_process(nullcontext), "native", CPUS),
              "one-thread": (in_process(lambda: kernel_threads(1)), "native", 1),
              "numpy": (in_process(numpy_kernels), "numpy", 1)}
if hasattr(os, "sched_setaffinity"):
    CONDITIONS["one-cpu"] = (on_one_cpu, "native", 1)


@pytest.mark.parametrize("command, spec, inputs, seed", EQUIVALENCE)
def test_cli_writes_the_same_bytes_under_every_kernel_condition(tmp_path, command, spec, inputs,
                                                                seed):
    if _native.library() is None:
        pytest.skip("the compiled core does not load, so there is nothing to compare with numpy")
    args = [*command, "--space", spec, *write_inputs(tmp_path, parse_space(spec), inputs, seed)]
    outputs = {}
    for name, (run, kernels, threads) in CONDITIONS.items():
        out = tmp_path / name
        run([*args, "--out-dir" if command[0] == "simulate" else "--out", str(out)])
        manifest = json.loads(manifest_path_for(out).read_text())
        assert (name, manifest["kernels"], manifest["threads"]) == (name, kernels, threads)
        files = [out / "errors_long.csv", out / "summary.csv"] if out.is_dir() else [out]
        outputs[name] = [path.read_bytes() for path in files]
    differ = [name for name in outputs if outputs[name] != outputs["native"]]
    assert not differ, f"{differ} wrote other bytes than native"


def test_cmd_test_small_group_is_data_error(tmp_path, runner):
    g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    g1.write_text("1\n")
    g2.write_text("1\n2\n")
    result = runner.invoke(main, ["test", "--space", "euclidean:1", "--groups",
                                  str(g1), "--groups", str(g2), "--test", "wilcoxon",
                                  "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 3


# ------------------------------------------------------------ cmd: simulate

def test_cmd_simulate_smoke_and_reproducible(tmp_path, runner):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    args = ["simulate", "--space", "euclidean:2", "--case", "1", "--n", "20",
            "--reps", "8", "--jiggle", "1", "--budget", "8", "--seed", "3",
            "--estimators", "mhd,fm"]
    invoke(runner, args + ["--out-dir", str(out1)])
    invoke(runner, args + ["--out-dir", str(out2)])
    summary = (out1 / "summary.csv").read_text().splitlines()
    assert summary[0] == "estimator,case,space,k,n,median_error,se"
    assert len(summary) == 3
    assert sha256_file(out1 / "errors_long.csv") == sha256_file(out2 / "errors_long.csv")
    assert sha256_file(out1 / "summary.csv") == sha256_file(out2 / "summary.csv")
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["space"] == "euclidean:2"


def test_cmd_simulate_config_file(tmp_path, runner):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = euclidean:2\ncase = 1\nn = 15\nreps = 4\n"
                   "jiggle = 1\nbudget = 4\nestimators = \"mhd\"\n# comment\n")
    out = tmp_path / "out"
    invoke(runner, ["simulate", "--config", str(cfg), "--out-dir", str(out)])
    rows = (out / "summary.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("mhd,1,euclidean:2,2,15")


@pytest.mark.parametrize("bad", [
    ["--n", "0"],
    ["--jiggle", "-1"],
    ["--budget", "-3"],
    ["--variance", "-1"],
    ["--variance", "nan"],
    ["--variance", "inf"],
    ["--offset", "nan"],
    ["--scale-factor", "inf"],
    ["--threads", "0"],
    ["--threads", "-2"],
    ["--estimators", "mhd,mhd"],
])
def test_cmd_simulate_rejects_bad_settings_before_writing(tmp_path, runner, bad):
    out = tmp_path / "out"
    args = ["simulate", "--space", "euclidean:2", "--case", "2", "--n", "20",
            "--reps", "2", "--estimators", "mhd,fm", "--out-dir", str(out)]
    result = runner.invoke(main, args + bad)
    assert result.exit_code == 3, result.output
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("line, cause", [("reps = many", "invalid literal"),
                                         ("space = bogus:2", "unknown space kind"),
                                         ("rep = 2", "unknown simulate settings")])
def test_cmd_simulate_bad_config_value_is_data_error(tmp_path, runner, line, cause):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"space = euclidean:2\ncase = 1\nn = 15\n{line}\n")
    result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 3, result.output
    assert line.split(" = ")[0] in result.output and cause in result.output
    assert not list(tmp_path.rglob("*.csv"))


def test_cmd_simulate_missing_required(tmp_path, runner):
    result = runner.invoke(main, ["simulate", "--out-dir", str(tmp_path / "x")])
    assert result.exit_code == 2


# ------------------------------------------------------------ cmd: plotdata

def test_cmd_plotdata_round_trip(tmp_path, runner):
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n")
    depths = tmp_path / "depths.csv"
    invoke(CliRunner(), ["depth", "--space", "euclidean:1", "--data", str(data),
                         "--self", "--out", str(depths)])
    out = tmp_path / "plot.csv"
    invoke(runner, ["plotdata", "--space", "euclidean:1", "--data", str(data),
                    "--depths", str(depths), "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "c1,depth_num,depth_den,depth"
    assert len(lines) == 4  # n rows in -> n rows out


def test_cmd_plotdata_spider_columns(tmp_path, runner):
    space = Spider3()
    data = tmp_path / "trees.csv"
    write_points(data, space, [space.validate_point((r, b))
                               for r, b in [(1, 1), (2, 2), (0.5, 3)]])
    depths = tmp_path / "depths.csv"
    invoke(CliRunner(), ["depth", "--space", "spider3", "--data", str(data),
                         "--self", "--out", str(depths)])
    out = tmp_path / "plot.csv"
    invoke(runner, ["plotdata", "--space", "spider3", "--data", str(data),
                    "--depths", str(depths), "--out", str(out)])
    assert out.read_text().splitlines()[0] == "branch,radius,depth_num,depth_den,depth"


def test_cmd_plotdata_row_mismatch(tmp_path, runner):
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n")
    depths = tmp_path / "depths.csv"
    write_depth_reports_csv(depths, np.rec.array([(0, 1, 3, 0, 1)], dtype=DEPTH_DTYPE))
    result = runner.invoke(main, ["plotdata", "--space", "euclidean:1", "--data",
                                  str(data), "--depths", str(depths),
                                  "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 3
    assert "mismatch" in result.output


@pytest.mark.parametrize("rows, cause", [
    (["0,1,3,0,1", "1,0,0,0,1", "2,1,3,0,1"], "row 3: depth 0/0"),
    (["0,1,3,0,1", "1,4,3,0,1", "2,1,3,0,1"], "row 3: depth 4/3"),
    (["0,1,3,0,1", "0,2,3,0,1", "2,1,3,0,1"], "query indices must be 0..2"),
    (["0,1,3,0,1", f"{10**30},1,3,0,1", "2,1,3,0,1"], "row 3: values must fit in int64"),
], ids=["zero-denominator", "count-above-denominator", "repeated-query-index",
        "index-beyond-int64"])
def test_cmd_plotdata_rejects_bad_depth_rows(tmp_path, runner, rows, cause):
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n")
    depths = tmp_path / "depths.csv"
    depths.write_text("query_index,depth_num,depth_den,anchor1_index,anchor2_index\n"
                      + "\n".join(rows) + "\n")
    result = runner.invoke(main, ["plotdata", "--space", "euclidean:1", "--data",
                                  str(data), "--depths", str(depths),
                                  "--out", str(tmp_path / "plot.csv")])
    assert result.exit_code == 3, result.output
    assert cause in result.output and "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "depths.csv"]


# ------------------------------------------------------------- output bytes

# Command, geometry, input recipe and seed as in EQUIVALENCE, then the
# SHA-256 prefix of the file the command writes, as recorded with numpy 2.4
# on x86-64. A plotdata row first writes the self-depths of its data. The
# one-point sample has no admissible pair: anchors -1 and depth 1/1. The
# median rows pin the depth median's JSON: its in-sample step takes the
# sort and scan, and each refinement scan the least-count pass.
OUTPUT_DIGESTS = [
    pytest.param(["depth", "--self"], "spd:2", (("--data", 40, 5),), 21,
                 "5a3383d184fcc36e", id="depth-csv-sample"),
    pytest.param(["depth", "--self", "--format", "json"], "spd:2", (("--data", 40, 5),), 21,
                 "ddd839c2929fff7c", id="depth-json-sample"),
    pytest.param(["depth", "--anchors", "jiggle:3", "--seed", "4"], "sphere:2",
                 (("--data", 30), ("--query", 12)), 22, "9ec6cd53d30b8acc",
                 id="depth-csv-jiggle3"),
    pytest.param(["depth", "--anchors", "jiggle:3", "--seed", "4", "--format", "json"],
                 "sphere:2", (("--data", 30), ("--query", 12)), 22, "dc1a61c9558c9b7d",
                 id="depth-json-jiggle3"),
    pytest.param(["depth", "--self"], "euclidean:2", (("--data", 1),), 23,
                 "70dbef6f14ebfa28", id="depth-csv-one-point"),
    pytest.param(["depth", "--self", "--format", "json"], "euclidean:2", (("--data", 1),), 23,
                 "9c764f6247ef6729", id="depth-json-one-point"),
    pytest.param(["plotdata"], "spider3", (("--data", 30),), 24, "17d3787c139a16e2",
                 id="plotdata-spider3"),
    pytest.param(["plotdata"], "product:spd:2+euclidean:2", (("--data", 30),), 25,
                 "31865c25ca311913", id="plotdata-product-spd2-euclidean2"),
    pytest.param(["median", "--estimator", "mhd", "--jiggle", "3", "--budget", "64"], "spd:2",
                 (("--data", 60),), 26, "06516db11f9c9612", id="median-mhd-spd2"),
    pytest.param(["median", "--estimator", "mhd", "--jiggle", "3", "--budget", "64"],
                 "sphere:2", (("--data", 60),), 27, "addaa61976080ba6", id="median-mhd-sphere2"),
]


@pytest.mark.parametrize("command, spec, inputs, seed, digest", OUTPUT_DIGESTS)
def test_cli_outputs_keep_their_bytes(tmp_path, runner, command, spec, inputs, seed, digest):
    args = ["--space", spec, *write_inputs(tmp_path, parse_space(spec), inputs, seed)]
    if command == ["plotdata"]:
        depths = tmp_path / "depths.csv"
        invoke(runner, ["depth", "--self", *args, "--out", str(depths)])
        args += ["--depths", str(depths)]
    out = tmp_path / "out"
    invoke(runner, [*command, *args, "--out", str(out)])
    assert sha256_file(out)[:16] == digest


# ----------------------------------------------------------- exit codes e2e

def test_manifest_records_the_invoked_arguments(tmp_path, runner, monkeypatch):
    # In process (a test runner, the benchmark), sys.argv belongs to the host.
    monkeypatch.setattr(sys, "argv", ["host", "--unrelated", "flag"])
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n")
    out = tmp_path / "d.csv"
    depth_args = ["depth", "--space", "euclidean:1", "--data", str(data), "--self",
                  "--out", str(out)]
    simulate_args = ["simulate", "--space", "euclidean:1", "--case", "1", "--n", "5",
                     "--reps", "2", "--estimators", "fm", "--out-dir", str(tmp_path / "sim")]
    plotdata_args = ["plotdata", "--space", "euclidean:1", "--data", str(data), "--depths",
                     str(out), "--out", str(tmp_path / "plot.csv")]
    for args, written in ((depth_args, out), (simulate_args, tmp_path / "sim"),
                          (plotdata_args, tmp_path / "plot.csv")):
        invoke(runner, args)
        assert json.loads(manifest_path_for(written).read_text())["command"] == args


def test_exit_codes_via_subprocess(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("1\n2\n3\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("1\ntwo\n3\n")
    antipodal = tmp_path / "antipodal.csv"
    antipodal.write_text("1,0,0\n-1,0,0\n")

    def run(*args):
        return subprocess.run([sys.executable, "-m", "metricdepth.cli", *args],
                              capture_output=True, text=True)

    ok = run("depth", "--space", "euclidean:1", "--data", str(data), "--self",
             "--out", str(tmp_path / "d.csv"))
    assert ok.returncode == 0
    manifest = json.loads(manifest_path_for(tmp_path / "d.csv").read_text())
    assert manifest["command"] == ["depth", "--space", "euclidean:1", "--data", str(data),
                                   "--self", "--out", str(tmp_path / "d.csv")]
    assert run("depth").returncode == 2
    unparseable = run("depth", "--space", "euclidean:1", "--data", str(bad), "--self",
                      "--out", str(tmp_path / "e.csv"))
    assert unparseable.returncode == 3 and "row 2" in unparseable.stderr
    failure = run("median", "--space", "sphere:2", "--data", str(antipodal),
                  "--estimator", "fm", "--out", str(tmp_path / "m.json"))
    assert failure.returncode == 4 and "numerical failure" in failure.stderr
    assert "Traceback" not in unparseable.stderr + failure.stderr
    # Every input file is read as UTF-8; one that is not is bad data.
    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes(b"1\n\xff\n3\n")
    out = tmp_path / "never"
    for args in (["depth", "--data", str(undecodable), "--self", "--out", str(out)],
                 ["depth", "--data", str(data), "--query", str(undecodable), "--out", str(out)],
                 ["test", "--groups", str(data), "--groups", str(undecodable), "--out", str(out)],
                 ["plotdata", "--data", str(data), "--depths", str(undecodable),
                  "--out", str(out)],
                 ["simulate", "--config", str(undecodable), "--out-dir", str(out)]):
        if args[0] != "simulate":
            args[1:1] = ["--space", "euclidean:1"]
        ran = run(*args)
        assert ran.returncode == 3 and str(undecodable) in ran.stderr, (args, ran.stderr)
        assert "Traceback" not in ran.stderr
        assert not list(tmp_path.glob("never*")), args


def test_cli_test_leaves_numpy_random_unloaded(tmp_path, rng):
    # On the compiled kernels a permutation test draws its orders in C, so a
    # fresh `test` process never imports numpy.random (about 15 ms).
    if _native.library() is None:
        pytest.skip("the compiled kernels cannot be built here")
    points, groups = random_points(Sphere(2), 30, rng), []
    for g in range(3):
        write_points(tmp_path / f"g{g}.csv", Sphere(2), points[10 * g:10 * g + 10])
        groups += ["--groups", str(tmp_path / f"g{g}.csv")]
    out = tmp_path / "kw.json"
    code = ("import sys; from metricdepth.cli import main; "
            "main(sys.argv[1:], standalone_mode=False); print('numpy.random' in sys.modules)")
    ran = subprocess.run([sys.executable, "-c", code, "test", "--space", "sphere:2", *groups,
                          "--test", "kw", "--permutations", "99", "--out", str(out)],
                         capture_output=True, text=True, env=child_env(), check=True)
    assert json.loads(manifest_path_for(out).read_text())["kernels"] == "native"
    assert ran.stdout.strip().splitlines()[-1] == "False"


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the library and the CLI must run
    # on numpy and click alone.
    code = ("import sys, metricdepth, metricdepth.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env(), check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["metricdepth", "metricdepth.spaces"])
def test_star_imports_bind_every_public_name(module):
    # A name left in __all__ after its definition goes breaks only these.
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
