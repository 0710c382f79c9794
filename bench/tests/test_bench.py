"""Tests of the benchmark's own logic: the tail rule, self time from nested
spans, the output checker, and agreement with BENCHMARK.json.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import DepthWorkload, PermTestWorkload, check_depth_rows  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    values = list(np.random.default_rng(0).permutation(30) + 1.0)
    value, percentile, beyond = run.tail(values)
    assert value == 20.0
    assert sum(v > value for v in values) == beyond == 10
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_with_eleven_samples_is_the_minimum():
    assert run.tail(range(1, 12)) == (1, 100 / 11, 10)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("seconds", [1.0, 18.0, 60.0])
@pytest.mark.parametrize("cycle", [1, 3])
def test_planned_ops_put_the_tail_above_the_median(seconds, cycle):
    ops = run.planned_ops(seconds, cycle)
    assert ops % cycle == 0 and ops >= run.MIN_OPS
    value, percentile, beyond = run.tail(range(ops))
    assert beyond == run.TAIL_BEYOND and percentile >= 200 / 3
    assert value > np.median(range(ops))


def test_self_time_subtracts_direct_children():
    # (op, id, parent, name, start, end): root 0-10 holds a 1-4 and b 5-6;
    # a holds c 2-3.
    recorded = [
        (0, 0, -1, "root", 0.0, 10.0),
        (0, 1, 0, "a", 1.0, 4.0),
        (0, 2, 1, "c", 2.0, 3.0),
        (0, 3, 0, "b", 5.0, 6.0),
    ]
    assert spans.self_times(recorded) == {"root": 6.0, "a": 2.0, "c": 1.0, "b": 1.0}


def test_self_time_of_same_name_nesting_adds_up_to_the_outer_span():
    recorded = [
        (0, 0, -1, "cli", 0.0, 4.0),
        (0, 1, 0, "spaces.distance_matrix", 1.0, 3.0),
        (0, 2, 1, "spaces.distance_matrix", 1.5, 2.0),
        (0, 3, 1, "spaces.distance_matrix", 2.0, 2.5),
    ]
    out = spans.self_times(recorded)
    assert out == {"cli": 2.0, "spaces.distance_matrix": 2.0}


def test_tracer_counts_calls_and_work_on_the_outermost_span_only():
    tracer = spans.Tracer()

    def inner(n):
        return n

    def outer(n):
        return traced_inner(n) + traced_inner(n)

    traced_inner = tracer.wrap("layer", inner, lambda a, k, r: (("layer.work", r),))
    traced_outer = tracer.wrap("layer", outer, lambda a, k, r: (("layer.work", r),))
    assert traced_outer(3) == 6
    assert tracer.calls["layer"] == 1
    assert tracer.work["layer.work"] == 6
    ids = {sid: parent for _, sid, parent, _, _, _ in tracer.spans}
    assert ids == {0: -1, 1: 0, 2: 0}


def test_tracer_counts_errors():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("layer", fail)()
    assert tracer.errors["layer"] == 1


def test_installed_patches_every_binding_and_restores_on_exit():
    import metricdepth.cli
    import metricdepth.depth
    from metricdepth.spaces import SPD

    original = metricdepth.depth.approx_depth
    original_distance = SPD.distance_matrix
    with spans.installed(spans.Tracer()):
        assert metricdepth.cli.approx_depth is metricdepth.depth.approx_depth
        assert metricdepth.depth.approx_depth is not original
        assert SPD.distance_matrix is not original_distance
    assert metricdepth.cli.approx_depth is original
    assert SPD.distance_matrix is original_distance


def test_reference_distances_match_the_library():
    from metricdepth.spaces import parse_space

    rng = np.random.default_rng(1)
    spec = "product:spd:2+sphere:2"
    pts = inputs.sample(spec, 12, 1.0, rng)
    space = parse_space(spec)
    lib_points = [space.decode_point(row) for row in inputs.encode(pts).splitlines()]
    expected = space.distance_matrix(lib_points, lib_points)
    np.testing.assert_allclose(inputs.distance_matrix(pts, pts), expected, atol=1e-9)


def _depth_rows(sample, geometry):
    from metricdepth.depth import approx_depth
    from metricdepth.spaces import parse_space

    space = parse_space(geometry)
    lib_points = [space.decode_point(row) for row in inputs.encode(sample).splitlines()]
    reports = approx_depth(space, lib_points, lib_points, lib_points)
    return np.array([[r.query_index, r.depth_num, r.depth_den, r.anchor1, r.anchor2]
                     for r in reports])


@pytest.mark.parametrize("geometry", ["spd:2", "sphere:2", "euclidean:3"])
def test_checker_accepts_library_depths_and_rejects_corrupted_rows(geometry):
    sample = inputs.sample(geometry, 25, 0.5, np.random.default_rng(2))
    rows = _depth_rows(sample, geometry)
    assert check_depth_rows(rows, sample, sample, sample) == []
    for column, delta in ((1, 1), (1, -1), (2, 1)):
        bad = rows.copy()
        bad[3, column] += delta
        assert check_depth_rows(bad, sample, sample, sample)
    swapped = rows.copy()
    swapped[:, [3, 4]] = swapped[:, [4, 3]]
    assert check_depth_rows(swapped, sample, sample, sample)


def _runner(workload, tmp_path):
    runner = run.Runner(workload, 0, tmp_path / "work")
    runner.run(0, timed=True)
    assert runner.ops[0]["error"] is None
    assert runner.check(None) == []
    return runner


def test_runner_counts_a_corrupted_depth_row_as_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "POOL", 1)
    runner = _runner(DepthWorkload("t", ("sphere:2",), n=20, variance=0.5), tmp_path)
    path = runner.ops[0]["out"] / "depth.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = str(int(fields[1]) + 1)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    [(number, problems)] = runner.check(None)
    assert number == 0 and "recount" in problems[0]


def test_runner_counts_a_corrupted_p_value_as_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "POOL", 1)
    workload = PermTestWorkload("t", group_size=8, variances=(0.3, 0.3, 0.6), permutations=99)
    runner = _runner(workload, tmp_path)
    path = runner.ops[0]["out"] / "test.json"
    payload = json.loads(path.read_text())
    payload["pairwise_wilcoxon"][1]["p_value"] = 0.123
    path.write_text(json.dumps(payload))
    [(number, problems)] = runner.check(None)
    assert number == 0 and "0.123" in problems[0]


def test_runner_counts_a_failing_command_as_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "POOL", 1)
    workload = DepthWorkload("t", ("sphere:2",), n=20, variance=0.5)
    runner = run.Runner(workload, 0, tmp_path / "work")
    runner.pool[0].files["data"].write_text("not,a,point\n")
    runner.run(0, timed=True)
    [(number, problems)] = runner.check(None)
    assert "exit code 3" in problems[0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ops = [{"seconds": 1.0, "traced": True, "timed": True, "cal_s": 0.02},
           {"seconds": 1.0, "traced": False, "timed": True, "cal_s": 0.02}] * 11
    fake = SimpleNamespace(ops=ops)
    layer, _ = run.per_layer(fake, spans.Tracer(), {})
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[name] == m["unit"] for name, m in layer.items())
    e2e, _ = run.end_to_end(fake, [1.0, 2.0, 3.0], 100.0)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(units[name] == m["unit"] for name, m in e2e.items())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_end_to_end_scales_op_time_by_the_calibration():
    # The reference work took half its reference time: the host ran twice as
    # fast as the reference host, so each calibrated op time is twice the wall time.
    ops = [{"seconds": s, "traced": False, "timed": True, "cal_s": run.REFERENCE_S / 2}
           for s in [1.0] * 11 + [3.0]]
    metrics, notes = run.end_to_end(SimpleNamespace(ops=ops), [1.3, 5.0, 1.2, 2.0], 10.0)
    assert metrics["ops_per_s.cal"]["value"] == pytest.approx(12 / 28)
    assert metrics["op_s.cal.p50"]["value"] == pytest.approx(2.0)
    assert metrics["setup_s"]["value"] == 1.2
    assert notes["ops_per_s"] == pytest.approx(12 / 14)
