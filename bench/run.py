"""Benchmark of the ``metricdepth`` CLI.

Usage, from the repository root:

    python3 bench/run.py --workload depth-self --seed 1 --seconds 18 --trace 0

One client drives ``metricdepth.cli.main`` in this process in a closed
loop: the next command starts when the previous one returns. Inputs are
generated from ``--seed`` and written before timing starts; one warm-up
op runs untimed; then a fixed number of ops runs, one per NOMINAL_OP_S of
``--seconds`` (at least MIN_OPS, in whole geometry cycles), so the count
does not depend on how fast the host runs.
Every op's output is checked after the loop. With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` each op runs twice, once bare and once with spans around
the library's public functions, and the JSON holds the per-layer metrics.
``--record-reference`` rewrites ``reference.json`` from the outputs of
the reference seed. Scratch files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy is imported, here and in child processes
    for _var in BLAS_VARS:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from calibration import REFERENCE_S, Calibrator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
REFERENCE_INPUTS = 6  # input indices 0..5 of the reference seed
POOL = 60  # distinct inputs per run; ops past the pool reuse them in order
SETUP_SAMPLES = 4  # fresh-import timings, spread evenly through the timed loop
NOMINAL_OP_S = 0.6  # typical op time of every workload on the 2-core reference host
MIN_OPS = 30  # so that op_s.tail, with 10 ops beyond it, is at p67 or above
TAIL_BEYOND = 10
CAP_FACTOR = 3  # the loop stops after CAP_FACTOR x --seconds even if ops are left
IMPORT_CMD = [sys.executable, "-c", "import metricdepth.cli"]


def tail(values) -> tuple:
    """(value, percentile, ops beyond) at the highest percentile that leaves
    at least TAIL_BEYOND samples strictly above it; the maximum (100th
    percentile, none beyond) when there are too few samples."""
    ordered = sorted(values)
    below = len(ordered) - TAIL_BEYOND
    if below < 1:
        return ordered[-1], 100.0, 0
    return ordered[below - 1], 100.0 * below / len(ordered), TAIL_BEYOND


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def planned_ops(seconds: float, cycle: int, minimum: int = MIN_OPS) -> int:
    """Timed ops of a run: one per NOMINAL_OP_S of ``seconds``, at least
    ``minimum``, rounded up to whole geometry cycles."""
    ops = max(minimum, math.ceil(seconds / NOMINAL_OP_S))
    return -(-ops // cycle) * cycle


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing metricdepth.cli."""
    start = time.perf_counter()
    subprocess.run(IMPORT_CMD, env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def import_breakdown() -> dict:
    """Self import time of each top-level package, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *IMPORT_CMD[1:]], env=child_env(),
                          cwd=ROOT, check=True, capture_output=True, text=True)
    totals = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[0].startswith("import time:") or "self" in fields[0]:
            continue
        package = fields[2].strip().split(".")[0]
        self_us = int(fields[0].split(":")[1])
        totals[package] = totals.get(package, 0) + self_us * 1e-6
    return totals


class Runner:
    """Runs ops of one workload and keeps their timings and outputs."""

    def __init__(self, workload, seed: int, workdir: Path):
        import metricdepth.cli

        if not Path(metricdepth.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported {metricdepth.cli.__file__}, not the checkout's")
        self.main = metricdepth.cli.main
        self.workload = workload
        self.workdir = workdir
        (workdir / "inputs").mkdir(parents=True)
        self.pool = [workload.prepare(seed, i, workdir / "inputs") for i in range(POOL)]
        self.ops = []  # dicts: op input, out dir, seconds, error, traced, timed

    def run(self, index: int, timed: bool, tracer=None) -> None:
        op = self.pool[index % POOL]
        out = self.workdir / "out" / str(len(self.ops))
        out.mkdir(parents=True)
        argv = self.workload.argv(op, out)
        sink = io.StringIO()
        error = None
        main = tracer.wrap(f"cli.{self.workload.command}", self.main) if tracer else self.main
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                main(argv, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"exit code {exc.code}: {sink.getvalue().strip()}"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.ops.append({"op": op, "out": out, "seconds": elapsed, "error": error,
                         "traced": tracer is not None, "timed": timed})

    def check(self, reference: dict | None) -> list:
        """Check every op's output; returns (op number, problems) per failed op."""
        failures = []
        for number, record in enumerate(self.ops):
            problems = [record["error"]] if record["error"] else []
            if not problems:
                try:
                    problems, summary = self.workload.check(record["op"], record["out"])
                except (OSError, ValueError, KeyError) as exc:
                    problems, summary = [f"unreadable output: {exc}"], None
                index = record["op"].index
                if reference is not None and summary is not None and index < len(reference):
                    problems += self.workload.compare(summary, reference[index])
            if problems:
                failures.append((number, problems))
        return failures


def run_loop(runner: Runner, ops: int, cap_s: float, tracer=None) -> list:
    """Closed loop of ``ops`` timed ops, cut short only after ``cap_s``.
    With a tracer, each op runs bare and traced, alternating which goes
    first. Without one, the calibration work is timed between ops, and
    each op keeps the mean of the timings just before and just after it
    as ``cal_s``; SETUP_SAMPLES fresh-import timings are taken at evenly
    spaced ops and returned."""
    runner.run(0, timed=False)  # warm-up
    calibrator = None if tracer else Calibrator()
    setup_at = set() if tracer else {k * ops // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
    setup_times = []
    start = time.perf_counter()
    for i in range(ops):
        if i and time.perf_counter() - start >= cap_s:
            break
        index = i + 1
        if tracer:
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    tracer.op = index
                    with spans.installed(tracer):
                        runner.run(index, timed=True, tracer=tracer)
                else:
                    runner.run(index, timed=True)
            continue
        if i in setup_at:
            setup_times.append(setup_sample())
            cal_before = calibrator.seconds()
        runner.run(index, timed=True)
        cal_after = calibrator.seconds()
        runner.ops[-1]["cal_s"] = (cal_before + cal_after) / 2
        cal_before = cal_after
    return setup_times


def end_to_end(runner: Runner, setup_times: list, peak_rss_mb: float) -> tuple:
    """Calibrated op metrics, set-up time and memory; the wall-clock op
    metrics go to the notes. ``setup_s`` is the fastest fresh import: the
    host's drift only ever adds time."""
    timed = [r for r in runner.ops if r["timed"]]
    wall = [r["seconds"] for r in timed]
    cal = [r["seconds"] * REFERENCE_S / r["cal_s"] for r in timed]
    metrics = {
        "ops_per_s.cal": {"value": len(cal) / sum(cal), "unit": "1/s"},
        "op_s.cal.p50": {"value": statistics.median(cal), "unit": "s"},
        "op_s.cal.tail": {"value": tail(cal)[0], "unit": "s"},
        "setup_s": {"value": min(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    wall_tail, tail_pct, beyond = tail(wall)
    notes = {"timed_ops": len(wall), "tail_percentile": tail_pct, "tail_ops_beyond": beyond,
             "ops_per_s": len(wall) / sum(wall), "op_s.p50": statistics.median(wall),
             "op_s.tail": wall_tail, "setup_s.samples": setup_times,
             "op_s.samples": wall, "cal_s.samples": [r["cal_s"] for r in timed]}
    return metrics, notes


LAYER_NAMES = sorted({name for _, _, name, _ in spans.FUNCTIONS}
                     | {f"spaces.{method}" for method, _ in spans.METHODS}
                     | {f"cli.{w.command}" for w in WORKLOADS.values()})


def per_layer(runner: Runner, tracer: spans.Tracer, imports: dict) -> tuple:
    traced = [r["seconds"] for r in runner.ops if r["traced"]]
    bare = [r["seconds"] for r in runner.ops if r["timed"] and not r["traced"]]
    ops, op_time = len(traced), sum(traced)
    self_s = spans.self_times(tracer.spans)
    work = tracer.work

    def value(v, unit):
        return {"value": float(v), "unit": unit}

    def rate(counter, layer):
        return value(work[counter] / self_s[layer] if self_s.get(layer) else 0.0, "1/s")

    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = value(tracer.calls[name] / ops, "count")
        metrics[f"{name}.self_s"] = value(self_s.get(name, 0.0) / ops, "s")
        metrics[f"{name}.errors"] = value(tracer.errors[name] / ops, "count")
    queries = work["depth.jiggle_anchors.queries"]
    metrics.update({
        "depth.approx_depth.pairs_per_s": rate("depth.approx_depth.pairs", "depth.approx_depth"),
        "depth.halfspace_prob_table.cmp_per_s": rate("depth.halfspace_prob_table.cmps",
                                                     "depth.halfspace_prob_table"),
        "depth.jiggle_anchors.anchors": value(work["depth.jiggle_anchors.anchors"] / ops, "count"),
        "depth.jiggle_anchors.hit_frac": value(
            work["depth.jiggle_anchors.hit_queries"] / queries if queries else 0.0, "ratio"),
        "depth.refine_deepest.proposals": value(work["depth.refine_deepest.proposals"] / ops, "count"),
        "spaces.distance_matrix.pairs_per_s": rate("spaces.distance_matrix.pairs",
                                                   "spaces.distance_matrix"),
        "inference.wilcoxon_depth_test.perm_per_s": rate("inference.wilcoxon_depth_test.perms",
                                                         "inference.wilcoxon_depth_test"),
        "inference.kruskal_wallis_depth_test.perm_per_s": rate(
            "inference.kruskal_wallis_depth_test.perms", "inference.kruskal_wallis_depth_test"),
        "estimators.frechet_mean.iterations": value(
            work["estimators.frechet_mean.iterations"] / ops, "count"),
        "simulation.run_simulation.replicates": value(
            work["simulation.run_simulation.replicates"] / ops, "count"),
        "simulation.run_simulation.failed": value(
            work["simulation.run_simulation.failed"] / ops, "count"),
        "io.read_points.rows": value(work["io.read_points.rows"] / ops, "count"),
    })
    shares = {
        "depth.approx_depth.self_frac": ["depth.approx_depth"],
        "depth.halfspace_prob_table.self_frac": ["depth.halfspace_prob_table"],
        "inference.self_frac": [n for n in LAYER_NAMES if n.startswith("inference.")],
        "spaces.self_frac": [n for n in LAYER_NAMES if n.startswith("spaces.")],
    }
    for metric, layers in shares.items():
        metrics[metric] = value(sum(self_s.get(n, 0.0) for n in layers) / op_time, "ratio")
    metrics["trace.overhead_frac"] = value(op_time / sum(bare) - 1.0, "ratio")
    for package in ("scipy", "numpy", "click", "metricdepth"):
        metrics[f"import.{package}_s"] = value(imports.get(package, 0.0), "s")
    notes = {"traced_ops": ops, "bare_ops": len(bare), "spans": len(tracer.spans)}
    return metrics, notes


# The layer each workload is meant to load, and the share of op time its
# self time must reach in the traced run.
LAYER_CHECKS = {
    "depth-self": ("depth.approx_depth.self_frac", 0.50),
    "depth-jiggle": ("depth.halfspace_prob_table.self_frac", 0.50),
    "permtest": ("inference.self_frac", 0.75),
    "simulate": ("spaces.self_frac", 0.33),
}


def summary_line(args, metrics: dict, notes: dict, failed: int, attempted: int) -> str:
    """One readable line: every end-to-end metric with its unit and the op
    counts, or the traced run's layer check and overhead."""
    head = f"{args.workload} seed {args.seed}: "
    fail = f"fail_frac {failed}/{attempted} = {failed / attempted:.3g}"
    if args.trace:
        return head + f"{notes['layer_check']} | trace.overhead_frac " \
            f"{metrics['trace.overhead_frac']['value']:+.3f} over {notes['traced_ops']} op pairs | {fail}"
    parts = [f"{name} {m['value']:.4g} {m['unit']}" for name, m in metrics.items()]
    wall = f"wall: ops_per_s {notes['ops_per_s']:.4g} 1/s, op_s.p50 {notes['op_s.p50']:.4g} s, " \
        f"op_s.tail {notes['op_s.tail']:.4g} s (p{notes['tail_percentile']:.1f}, " \
        f"{notes['tail_ops_beyond']} ops beyond, {notes['timed_ops']} timed ops)"
    return head + " | ".join(parts + [wall, fail])


def environment() -> dict:
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS}}


def record_reference() -> int:
    """Run the reference inputs of every workload once and store their outputs."""
    sys.path.insert(0, str(SRC))
    reference = {}
    for name, workload in WORKLOADS.items():
        workdir = ROOT / ".bench_out" / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        runner = Runner(workload, REFERENCE_SEED, workdir)
        for index in range(REFERENCE_INPUTS):
            runner.run(index, timed=False)
        summaries = []
        for record in runner.ops:
            if record["error"]:
                raise RuntimeError(f"{name}: reference op failed: {record['error']}")
            problems, summary = workload.check(record["op"], record["out"])
            if problems:
                raise RuntimeError(f"{name}: reference op fails its checks: {problems}")
            summaries.append(summary)
        reference[name] = summaries
        shutil.rmtree(workdir)
        print(f"{name}: recorded {len(summaries)} reference outputs")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "metricdepth" / "cli.py").is_file():
        print(f"error: no metricdepth sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)

    imports = import_breakdown() if args.trace else None
    runner = Runner(workload, args.seed, workdir)
    tracer = spans.Tracer() if args.trace else None
    cycle = len(workload.geometries)
    # A traced run does half as many op pairs: each op runs bare and traced.
    if tracer:
        ops = planned_ops(args.seconds / 2, cycle, MIN_OPS // 2)
    else:
        ops = planned_ops(args.seconds, cycle)
    setup_times = run_loop(runner, ops, CAP_FACTOR * args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = None
    if args.seed == REFERENCE_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())[args.workload]
    failures = runner.check(reference)
    if args.trace:
        metrics, notes = per_layer(runner, tracer, imports)
        tracer.write(workdir / "spans.csv.gz")
        check_name, floor = LAYER_CHECKS[args.workload]
        share = metrics[check_name]["value"]
        notes["layer_check"] = f"{check_name} = {share:.3f} (needs >= {floor:.2f}): " \
                               f"{'ok' if share >= floor else 'NOT MET'}"
    else:
        metrics, notes = end_to_end(runner, setup_times, peak_rss_mb)
    attempted = len(runner.ops)
    notes["fail_frac"] = len(failures) / attempted
    notes["failures"] = [{"op": number, "problems": problems} for number, problems in failures[:20]]
    notes["environment"] = environment()
    notes["workload"] = args.workload
    notes["seed"] = args.seed
    notes["reference_checked"] = reference is not None

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps({**result, "notes": notes}, indent=1) + "\n")
    shutil.rmtree(workdir / "inputs")
    shutil.rmtree(workdir / "out")
    for number, problems in failures[:5]:
        print(f"failed op {number}: {'; '.join(problems)}")
    print(summary_line(args, metrics, notes, len(failures), attempted))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
