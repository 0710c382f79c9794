"""File formats: point CSVs, depth reports, result JSON, run manifests.

Point files hold one encoded point per row in the active space's encoding
(vectors as comma-separated coordinates, matrices row-major flattened,
spider points as ``branch,radius``, products joined with ``|``). Depths
are :data:`metricdepth.depth.DEPTH_DTYPE` record arrays, written one CSV
row or JSON object per record as exact numerator/denominator integers;
JSON adds a convenience float. Text files are read as UTF-8.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, _native
from .depth import DEPTH_DTYPE
from .errors import DataError, PointValidationError
from .estimators import EstimatorResult
from .inference import TestResult
from .spaces import Space

MANIFEST_SCHEMA = "metricdepth.manifest/1"

DEPTH_CSV_COLUMNS = ("query_index", "depth_num", "depth_den",
                     "anchor1_index", "anchor2_index")
LONG_CSV_COLUMNS = ("estimator", "case", "space", "k", "n", "rep", "error")
SUMMARY_CSV_COLUMNS = ("estimator", "case", "space", "k", "n", "median_error", "se")


def read_points(path, space: Space, digests: dict | None = None) -> list:
    """Parse one point per non-empty row, reporting row numbers on failure.

    The rows are decoded and validated as one stack; a failure names the
    line of the first bad row, the one a row-by-row read would stop at.
    ``digests`` is passed to :func:`read_text`.
    """
    path = Path(path)
    text = read_text(path, digests)
    rows, linenos = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        row = line.strip()
        if row and not row.startswith("#"):
            rows.append(row)
            linenos.append(lineno)
    if not rows:
        raise DataError(f"{path}: no points found")
    try:
        return space.decode_points(rows)
    except PointValidationError as exc:
        raise DataError(f"{path}: row {linenos[exc.row]}: {exc}") from exc


def read_text(path: Path, digests: dict | None = None) -> str:
    """The file's text; an unreadable file or one that is not UTF-8 is a
    ``DataError`` naming it. The bytes are read once: ``digests``, when
    given, records their SHA-256 under ``str(path)`` for the manifest."""
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    return text


def write_points(path, space: Space, points) -> None:
    Path(path).write_text("".join(space.encode_point(p) + "\n" for p in points))


def _write_csv_lines(path, columns, lines) -> None:
    # The bytes csv.writer writes for fields that need no quoting.
    with open(path, "w", newline="") as handle:
        handle.write("\r\n".join([",".join(columns), *lines]) + "\r\n")


def write_depth_reports_csv(path, depths: np.recarray) -> None:
    _write_csv_lines(path, DEPTH_CSV_COLUMNS,
                     [f"{q},{num},{den},{a1},{a2}" for q, num, den, a1, a2 in depths.tolist()])


def read_depth_reports_csv(path, digests: dict | None = None) -> np.recarray:
    path = Path(path)
    rows = list(csv.reader(read_text(path, digests).splitlines()))
    if not rows:
        raise DataError(f"{path}: empty depth file")
    if tuple(rows[0]) != DEPTH_CSV_COLUMNS:
        raise DataError(f"{path}: row 1: expected header {','.join(DEPTH_CSV_COLUMNS)}")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            q, num, den, a1, a2 = values = tuple(int(v) for v in row)
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: bad depth row {row!r}") from exc
        if den < 1 or not 0 <= num <= den:
            raise DataError(f"{path}: row {lineno}: depth {num}/{den} needs "
                            "depth_den >= 1 and 0 <= depth_num <= depth_den")
        if not all(-(1 << 63) <= v < 1 << 63 for v in values):
            raise DataError(f"{path}: row {lineno}: values must fit in int64, got {row!r}")
        records.append(values)
    if not records:
        raise DataError(f"{path}: no depth rows found")
    return np.array(records, dtype=DEPTH_DTYPE).view(np.recarray)


def write_depth_reports_json(path, depths: np.recarray) -> None:
    """The bytes of ``json.dumps(objects, indent=2)`` and a newline, where
    each record's object adds ``depth``, ``num / den`` as json writes a
    float (its ``repr``), to the CSV's fields."""
    objects = [f'  {{\n    "query_index": {q},\n    "depth_num": {num},\n'
               f'    "depth_den": {den},\n    "depth": {num / den!r},\n'
               f'    "anchor1_index": {a1},\n    "anchor2_index": {a2}\n  }}'
               for q, num, den, a1, a2 in depths.tolist()]
    Path(path).write_text("[\n" + ",\n".join(objects) + "\n]\n" if objects else "[]\n")


def write_plot_csv(path, space: Space, points, depths: np.recarray) -> None:
    """Each point's coordinates, then its depth as count, n and float."""
    coords = [space.encode_point(p).replace("|", ",") for p in points]
    if space.spec_string == "spider3":
        names = ["branch", "radius"]
    else:
        names = [f"c{i + 1}" for i in range(coords[0].count(",") + 1)]
    _write_csv_lines(path, [*names, "depth_num", "depth_den", "depth"],
                     [f"{c},{num},{den},{num / den}" for c, num, den in
                      zip(coords, depths.depth_num.tolist(), depths.depth_den.tolist())])


def estimator_result_to_json(space: Space, result: EstimatorResult) -> dict:
    extras = {
        key: (value if not isinstance(value, np.generic) else value.item())
        for key, value in result.extras.items()
    }
    return {
        "point": space.encode_point(result.point),
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        **extras,
    }


def test_result_to_json(result: TestResult) -> dict:
    return {
        "test": result.test,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "n_permutations": result.n_permutations,
        "seed": result.seed,
        "group_labels": list(result.group_labels),
        "group_sizes": list(result.group_sizes),
    }


def write_csv_rows(path, columns, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


@dataclass
class RunManifest:
    """Reproducibility record written alongside every command output.

    ``kernels`` names the kernels that build halfspace tables, scan
    queries and count the permutation tests' depths in this process:
    ``"native"`` for the compiled core, ``"numpy"`` when it could not be
    built. ``threads`` is the most threads a compiled kernel call may run
    on (see :func:`metricdepth._native.threads`), 1 on numpy: the ranks,
    table build, scan and permutation depth counts split a call over up to
    that many when its work pays for them. Outputs are the same bytes with
    both kernels and any thread count.
    """

    command: list
    config: dict
    seed: int | None
    inputs: dict = field(default_factory=dict)
    kernels: str = "numpy"
    threads: int = 1
    version: str = __version__
    schema: str = MANIFEST_SCHEMA
    wall_time_s: float = 0.0

    def write(self, output_path) -> Path:
        target = manifest_path_for(output_path)
        target.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return target


def manifest_path_for(output_path) -> Path:
    output_path = Path(output_path)
    if output_path.is_dir():
        return output_path / "manifest.json"
    return output_path.with_name(output_path.name + ".manifest.json")


class ManifestTimer:
    """Times a command body; :func:`read_text` records input digests."""

    def __init__(self, command: list, config: dict, seed=None):
        self.manifest = RunManifest(command=list(command), config=dict(config), seed=seed)
        self._start = time.perf_counter()

    def finish(self, output_path) -> Path:
        self.manifest.wall_time_s = round(time.perf_counter() - self._start, 6)
        self.manifest.kernels = _native.kernels()
        self.manifest.threads = _native.threads() if self.manifest.kernels == "native" else 1
        return self.manifest.write(output_path)
