"""Command-line interface.

Subcommands: ``depth`` (evaluate depths to CSV/JSON), ``median`` (location
estimators), ``test`` (depth-rank permutation tests), ``simulate`` (the
Monte Carlo harness), ``plotdata`` (join coordinates with depths for
external plotting). Exit codes: 0 success, 2 usage error, 3 data error,
4 numerical failure. Every command honors ``--seed`` and writes a
manifest JSON next to its output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .depth import _check_radius_frac, approx_depth, jiggle_anchors
from .errors import DataError, GeometryError, NumericalError, PointValidationError
from .estimators import ESTIMATORS, fit_estimator
from .inference import GroupedSample, kruskal_wallis_depth_test, wilcoxon_depth_test
from .io import (
    LONG_CSV_COLUMNS,
    SUMMARY_CSV_COLUMNS,
    ManifestTimer,
    estimator_result_to_json,
    read_depth_reports_csv,
    read_points,
    read_text,
    test_result_to_json,
    write_csv_rows,
    write_depth_reports_csv,
    write_depth_reports_json,
    write_plot_csv,
)
from .simulation import SimulationConfig, run_simulation
from .spaces import parse_space

EXIT_DATA_ERROR = 3
EXIT_NUMERICAL_ERROR = 4


def _space_argument(ctx, param, value):
    try:
        return parse_space(value)
    except GeometryError as exc:
        raise click.BadParameter(str(exc), ctx=ctx, param=param)


def _parse_anchor_spec(text: str) -> int:
    """'sample' -> 0 jiggles, 'jiggle:K' -> K."""
    if text == "sample":
        return 0
    name, sep, param = text.partition(":")
    if name == "jiggle" and sep and param.isascii() and param.isdigit():
        return int(param)
    raise click.BadParameter("--anchors must be 'sample' or 'jiggle:K'")


def _radius_frac_argument(ctx, param, value):
    try:
        _check_radius_frac(value)
    except GeometryError as exc:
        raise click.BadParameter(str(exc), ctx=ctx, param=param)
    return value


space_option = click.option("--space", "space", required=True, callback=_space_argument,
                            help="Geometry, e.g. euclidean:2, sphere:2, spd:3, spider3, "
                                 "product:spd:2+euclidean:3.")
seed_option = click.option("--seed", type=int, default=0, show_default=True)
radius_frac_option = click.option(
    "--radius-frac", type=float, default=0.1, show_default=True, callback=_radius_frac_argument,
    help="Jiggle radius as a fraction of the median pairwise distance.")
out_option = click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
                          required=True, help="Output file; a manifest JSON is written "
                                              "alongside it.")
INPUT_PATH = click.Path(exists=True, dir_okay=False, path_type=Path)
data_option = click.option("--data", type=INPUT_PATH, required=True,
                           help="Point file (one encoded point per row).")
_ARGV = "metricdepth.argv"


class CommandGroup(click.Group):
    """Keeps the argument list it parsed for the manifests, and maps library
    errors to exit codes for every command."""

    def parse_args(self, ctx, args):
        ctx.meta[_ARGV] = list(args)
        return super().parse_args(ctx, args)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DataError, PointValidationError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA_ERROR)
        except (NumericalError, GeometryError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL_ERROR)


def _manifest_timer(config: dict, seed) -> ManifestTimer:
    """Times the running command; its manifest records the invoked arguments."""
    return ManifestTimer(click.get_current_context().meta[_ARGV], config, seed)


def _read_input(timer: ManifestTimer, path: Path, space) -> list:
    return read_points(path, space, timer.manifest.inputs)


@click.group(cls=CommandGroup)
@click.version_option(__version__)
def main():
    """Halfspace depth, depth medians, and depth-rank tests on metric spaces."""


@main.command("depth")
@space_option
@data_option
@click.option("--query", type=INPUT_PATH, default=None,
              help="Query point file; mutually exclusive with --self.")
@click.option("--self", "self_query", is_flag=True,
              help="Evaluate depth at the data points themselves.")
@click.option("--anchors", default="sample", show_default=True,
              help="'sample' or 'jiggle:K' for K perturbed copies per point.")
@radius_frac_option
@seed_option
@out_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def cmd_depth(space, data, query, self_query, anchors, radius_frac, seed, out, fmt):
    """Evaluate anchored halfspace depth of query points w.r.t. a sample."""
    if self_query == (query is not None):
        raise click.UsageError("exactly one of --query and --self is required")
    jiggles = _parse_anchor_spec(anchors)
    timer = _manifest_timer({"space": space.spec_string, "anchors": anchors,
                             "radius_frac": radius_frac, "format": fmt, "self": self_query},
                            seed)
    sample = space.stack(_read_input(timer, data, space))
    queries = sample if self_query else _read_input(timer, query, space)
    anchor_set = jiggle_anchors(space, sample, jiggles, radius_frac, seed)
    depths = approx_depth(space, sample, anchor_set, queries)
    (write_depth_reports_csv if fmt == "csv" else write_depth_reports_json)(out, depths)
    timer.finish(out)
    click.echo(f"wrote {len(depths)} depth rows to {out}")


@main.command("median")
@space_option
@data_option
@click.option("--estimator", type=click.Choice(ESTIMATORS), default="mhd",
              show_default=True, help="mhd = depth median, fm = intrinsic mean, "
                                      "gdd = intrinsic median.")
@click.option("--jiggle", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--budget", type=click.IntRange(min=0), default=64, show_default=True)
@radius_frac_option
@seed_option
@out_option
def cmd_median(space, data, estimator, jiggle, budget, radius_frac, seed, out):
    """Fit a location estimator and write its result JSON."""
    timer = _manifest_timer({"space": space.spec_string, "estimator": estimator,
                             "jiggle": jiggle, "budget": budget, "radius_frac": radius_frac},
                            seed)
    sample = _read_input(timer, data, space)
    result = fit_estimator(estimator, space, sample, jiggle, radius_frac, budget, seed)
    payload = estimator_result_to_json(space, result)
    payload["estimator"] = estimator
    out.write_text(json.dumps(payload, indent=2) + "\n")
    timer.finish(out)
    click.echo(f"{estimator} finished: objective {result.objective:.6g}")


@main.command("test")
@space_option
@click.option("--groups", "group_files", multiple=True, required=True, type=INPUT_PATH,
              help="One point file per group (repeat the flag).")
@click.option("--test", "test_name", type=click.Choice(["wilcoxon", "kw"]), default="kw",
              show_default=True)
@click.option("--permutations", type=int, default=999, show_default=True)
@seed_option
@out_option
def cmd_test(space, group_files, test_name, permutations, seed, out):
    """Depth-rank permutation test across group files."""
    if len(group_files) < 2:
        raise click.UsageError("--groups needs at least 2 files")
    timer = _manifest_timer({"space": space.spec_string, "test": test_name,
                             "permutations": permutations,
                             "groups": [str(g) for g in group_files]}, seed)
    labels = [Path(g).stem for g in group_files]
    groups = [tuple(_read_input(timer, path, space)) for path in group_files]
    if test_name == "wilcoxon":
        if len(group_files) != 2:
            raise click.UsageError("wilcoxon takes exactly 2 groups")
        result = wilcoxon_depth_test(space, groups[0], groups[1],
                                     n_permutations=permutations, seed=seed)
        payload = test_result_to_json(result)
        payload["group_labels"] = labels
    else:
        grouped = GroupedSample(tuple(zip(labels, groups)))
        result = kruskal_wallis_depth_test(space, grouped,
                                           n_permutations=permutations, seed=seed)
        payload = test_result_to_json(result)
        if len(groups) > 2:
            pairwise = []
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    pair = wilcoxon_depth_test(space, groups[i], groups[j],
                                               n_permutations=permutations, seed=seed)
                    pairwise.append({"group1": labels[i], "group2": labels[j],
                                     "p_value": pair.p_value,
                                     "statistic": pair.statistic})
            payload["pairwise_wilcoxon"] = pairwise
    out.write_text(json.dumps(payload, indent=2) + "\n")
    timer.finish(out)
    click.echo(f"{payload['test']} p-value: {payload['p_value']:.4g}")


def _read_config_file(path: Path, digests: dict) -> dict:
    """key = value lines; '#' comments; values parsed as JSON when possible."""
    values = {}
    for lineno, line in enumerate(read_text(path, digests).splitlines(), start=1):
        row = line.split("#", 1)[0].strip()
        if not row:
            continue
        key, sep, value = row.partition("=")
        if not sep:
            raise DataError(f"{path}: line {lineno}: expected key=value")
        key = key.strip()
        value = value.strip().strip('"')
        try:
            values[key] = json.loads(value)
        except json.JSONDecodeError:
            values[key] = value
    return values


def _estimator_names(value) -> tuple:
    """'mhd,fm' (or a list of names) -> ('mhd', 'fm')."""
    if isinstance(value, str):
        return tuple(tok.strip() for tok in value.split(",") if tok.strip())
    return tuple(value)


# ``simulate`` setting (flag or config-file key) -> SimulationConfig field and
# its conversion. Settings not given take the field's default.
_SIMULATE_FIELDS = {
    "space": ("space", lambda value: parse_space(str(value))),
    "case": ("case", int),
    "n": ("n", int),
    "reps": ("reps", int),
    "estimators": ("estimators", _estimator_names),
    "contamination": ("contamination", float),
    "offset": ("offset", float),
    "scale_factor": ("scale_factor", float),
    "variance": ("base_variance", float),
    "jiggle": ("jiggle_k", int),
    "budget": ("refine_budget", int),
    "radius_frac": ("radius_frac", float),
    "seed": ("seed", int),
    "threads": ("n_jobs", int),
}


@main.command("simulate")
@click.option("--config", "config_file", type=INPUT_PATH, default=None,
              help="key=value file mirroring the flags below; flags override it.")
@click.option("--space", default=None, help="Geometry (see 'depth --help').")
@click.option("--case", type=click.IntRange(1, 4), default=None)
@click.option("--n", type=int, default=None)
@click.option("--reps", type=int, default=None)
@click.option("--estimators", default=None, help="Comma list from {mhd,fm,gdd}.")
@click.option("--contamination", type=float, default=None)
@click.option("--offset", type=float, default=None)
@click.option("--scale-factor", type=float, default=None)
@click.option("--variance", type=float, default=None, help="Inlier tangent variance.")
@click.option("--jiggle", type=int, default=None)
@click.option("--budget", type=int, default=None)
@click.option("--radius-frac", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--threads", type=int, default=None,
              help="Worker processes for replicates (default 1); never more than "
                   "the replicates or the CPUs the process may run on.")
@click.option("--out-dir", type=click.Path(file_okay=False, path_type=Path), required=True)
def cmd_simulate(config_file, out_dir, **flags):
    """Run the Monte Carlo comparison and write long + summary CSVs."""
    inputs = {}
    settings = _read_config_file(config_file, inputs) if config_file else {}
    unknown = sorted(set(settings) - set(_SIMULATE_FIELDS))
    if unknown:
        raise DataError(f"{config_file}: unknown simulate settings: {', '.join(unknown)}")
    settings.update({k: v for k, v in flags.items() if v is not None})
    missing = [key for key in ("space", "case", "n") if settings.get(key) is None]
    if missing:
        raise click.UsageError(f"missing required settings: {', '.join(missing)}")
    fields = {}
    for key, (name, convert) in _SIMULATE_FIELDS.items():
        value = settings.get(key)
        if value is None:
            continue
        try:
            fields[name] = convert(value)
        except (TypeError, ValueError) as exc:
            raise DataError(f"bad simulate setting {key} = {value!r}: {exc}") from exc
    config = SimulationConfig(**fields)
    timer = _manifest_timer({**settings, "resolved_offset": config.resolved_offset(),
                             "space": config.space.spec_string}, config.seed)
    timer.manifest.inputs.update(inputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_simulation(config)
    write_csv_rows(out_dir / "errors_long.csv", LONG_CSV_COLUMNS, result.long_rows())
    write_csv_rows(out_dir / "summary.csv", SUMMARY_CSV_COLUMNS, result.summary_rows())
    timer.finish(out_dir)
    for name in config.estimators:
        click.echo(f"{name}: median error {result.medians[name]:.4f} "
                   f"(se {result.std_errors[name]:.4f})")
    if result.failures:
        click.echo(f"warning: failed replicates {result.failures}", err=True)


@main.command("plotdata")
@space_option
@data_option
@click.option("--depths", type=INPUT_PATH, required=True,
              help="Depth CSV produced by the 'depth' command.")
@out_option
def cmd_plotdata(space, data, depths, out):
    """Join point coordinates with depth values into a plot-ready CSV."""
    timer = _manifest_timer({"space": space.spec_string}, None)
    points = _read_input(timer, data, space)
    rows = read_depth_reports_csv(depths, timer.manifest.inputs)
    if len(points) != len(rows):
        raise DataError(
            f"row count mismatch: {len(points)} points vs {len(rows)} depths"
        )
    rows = rows[rows.query_index.argsort(kind="stable")]
    if (rows.query_index != range(len(points))).any():
        raise DataError(f"{depths}: query indices must be 0..{len(points) - 1}, each once")
    write_plot_csv(out, space, points, rows)
    timer.finish(out)
    click.echo(f"wrote {len(rows)} plot rows to {out}")


if __name__ == "__main__":
    main()
