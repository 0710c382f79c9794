"""Spans around the public functions of each ``metricdepth`` layer.

The tracer wraps functions from outside the library: each module-level
function is replaced under every name that binds it in a loaded
``metricdepth`` module (``cli``, ``estimators`` and ``simulation`` import
``approx_depth``, ``mhd_median`` and the others by name), and each
``Space`` method is replaced on every geometry class that defines it.
A span records (op, id, parent, name, start, end). Calls and work counts
are taken on the outermost span of a name only, so a product space's
component distance calls do not count twice; self time is counted on
every span, so nested spans add up to the outer call's duration.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _jiggle_hits(args, kwargs, result):
    # Queries whose minimizing pair uses a jiggled anchor (approx_depth).
    provenance = getattr(_arg(args, kwargs, 2, "anchors"), "provenance", ())
    if not any(tag == "jiggled" for tag, _ in provenance):
        return ()
    hits = sum(1 for r in result
               if r.anchor1 >= 0 and "jiggled" in (provenance[r.anchor1][0],
                                                   provenance[r.anchor2][0]))
    return (("depth.jiggle_anchors.hit_queries", hits),
            ("depth.jiggle_anchors.queries", len(result)))


def _depth_work(args, kwargs, result):
    n_anchors = len(_arg(args, kwargs, 2, "anchors"))
    pairs = len(_arg(args, kwargs, 3, "queries")) * n_anchors**2
    return (("depth.approx_depth.pairs", pairs),) + tuple(_jiggle_hits(args, kwargs, result))


# (module, attribute, span name, work counter); a counter maps
# (args, kwargs, result) to (counter name, amount) pairs.
FUNCTIONS = (
    ("depth", "approx_depth", "depth.approx_depth", _depth_work),
    ("depth", "halfspace_prob_table", "depth.halfspace_prob_table",
     lambda a, k, r: (("depth.halfspace_prob_table.cmps", r.n * len(r.counts) ** 2),)),
    ("depth", "jiggle_anchors", "depth.jiggle_anchors",
     lambda a, k, r: (("depth.jiggle_anchors.anchors", len(r)),)),
    ("depth", "refine_deepest", "depth.refine_deepest",
     lambda a, k, r: (("depth.refine_deepest.proposals", _arg(a, k, 4, "budget")),)),
    ("depth", "in_sample_deepest", "depth.in_sample_deepest", None),
    ("inference", "wilcoxon_depth_test", "inference.wilcoxon_depth_test",
     lambda a, k, r: (("inference.wilcoxon_depth_test.perms", r.n_permutations),)),
    ("inference", "kruskal_wallis_depth_test", "inference.kruskal_wallis_depth_test",
     lambda a, k, r: (("inference.kruskal_wallis_depth_test.perms", r.n_permutations),)),
    ("estimators", "frechet_mean", "estimators.frechet_mean",
     lambda a, k, r: (("estimators.frechet_mean.iterations", r.iterations),)),
    ("estimators", "mhd_median", "estimators.mhd_median", None),
    ("simulation", "run_simulation", "simulation.run_simulation",
     lambda a, k, r: (("simulation.run_simulation.replicates", len(r.errors[r.config.estimators[0]])),
                      ("simulation.run_simulation.failed", sum(r.failures.values())))),
    ("simulation", "sample_contaminated", "simulation.sample_contaminated", None),
    ("io", "read_points", "io.read_points", lambda a, k, r: (("io.read_points.rows", len(r)),)),
    ("io", "write_depth_reports_csv", "io.write", None),
    ("io", "write_csv_rows", "io.write", None),
)

# Space methods: (method, work counter); the span name is "spaces.<method>".
METHODS = (
    ("distance_matrix",
     lambda a, k, r: (("spaces.distance_matrix.pairs", r.shape[0] * r.shape[1]),)),
    ("exp", None),
    ("random_tangent", None),
    ("mean_log", None),
    ("validate_point", None),
)


class Tracer:
    """In-memory span recorder; one instance per run, single-threaded."""

    def __init__(self):
        self.op = -1
        self.spans = []  # (op, id, parent id or -1, name, start, end)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.work = defaultdict(float)
        self._stack = []  # (id, name) of open spans

    def _open(self, name):
        parent, parent_name = self._stack[-1] if self._stack else (-1, None)
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append((sid, name))
        return sid, parent, parent_name != name

    def _close(self, sid, parent, name, start, end):
        self._stack.pop()
        self.spans[sid] = (self.op, sid, parent, name, start, end)

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, outermost = tracer._open(name)
            if outermost:
                tracer.calls[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(sid, parent, name, start, time.perf_counter())
            if outermost and count is not None:
                for key, amount in count(args, kwargs, result):
                    tracer.work[key] += amount
            return result

        return traced

    def write(self, path) -> None:
        """Spans as gzip CSV: op,id,parent,name,start_s,end_s."""
        with gzip.open(path, "wt") as handle:
            handle.write("op,id,parent,name,start_s,end_s\n")
            for op, sid, parent, name, start, end in self.spans:
                handle.write(f"{op},{sid},{parent},{name},{start!r},{end!r}\n")


def self_times(spans) -> dict:
    """Self time summed per name: each span's duration minus the part of
    its interval covered by its direct children."""
    children = defaultdict(list)
    for _, sid, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for _, sid, _, name, start, end in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target in the loaded ``metricdepth`` modules for the
    duration of the block, then restore the originals."""
    import metricdepth.io
    from metricdepth.spaces import Space

    undo = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "metricdepth" or key.startswith("metricdepth."))]
    for module_name, attr, name, count in FUNCTIONS:
        original = getattr(sys.modules[f"metricdepth.{module_name}"], attr)
        wrapped = tracer.wrap(name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)
    for method, count in METHODS:
        for cls in [Space] + _subclasses(Space):
            if method in vars(cls):
                original = vars(cls)[method]
                undo.append((cls, method, original))
                setattr(cls, method, tracer.wrap(f"spaces.{method}", original, count))
    manifest = metricdepth.io.RunManifest
    undo.append((manifest, "write", manifest.write))
    manifest.write = tracer.wrap("io.write", manifest.write)
    try:
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
