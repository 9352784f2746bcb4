"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public functions of the ``dasf`` package, in the module
namespaces the program resolves them through at call time, by wrappers that
record one span per call: name, start, end, parent span, run id and
iteration id. Nothing inside ``dasf`` is edited; work a wrapped function does
inline (for example the ``C^T C`` product in ``assemble_local_instance``)
lands in its caller's self time. Spans stay in memory until ``dump``.

Counts are recorded at the same boundaries (records scanned by a transport
query, FLOPs of a covariance, inner solver iterations, ...), so that ratios
are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN_FIELDS = ("name", "start", "end", "parent", "run", "iteration")


class Tracer:
    """Span store plus the counters the wrappers update."""

    def __init__(self):
        self.spans: list[list] = []   # rows of SPAN_FIELDS; parent is a row index or -1
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.run = -1
        self.iteration = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrapping

    def wrap(self, fn, name, enter=None, leave=None, span=True):
        """Return fn wrapped so that each call records a span named ``name``
        (a string, or a callable of the call's args giving the name).
        ``enter(tracer, args, kwargs)`` runs before the span opens and
        ``leave(tracer, args, kwargs, result)`` after it closes; ``span=False``
        keeps only the hooks, so the call's time stays with its caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(self, args, kwargs)
            if not span:
                out = fn(*args, **kwargs)
            else:
                label = name if isinstance(name, str) else name(args, kwargs)
                row = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                       self.run, self.iteration]
                self._stack.append(len(self.spans))
                self.spans.append(row)
                row[1] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    row[2] = perf_counter()
                    self._stack.pop()
            if leave is not None:
                leave(self, args, kwargs, out)
            return out

        return wrapper

    def install(self, points) -> None:
        """Patch every trace point; see ``POINTS`` for their form."""
        for attr, modules, name, enter, leave, span in points:
            for mod_name in modules:
                owner, _, member = mod_name.partition(":")
                owner = importlib.import_module(owner)
                if member:
                    owner = getattr(owner, member)
                if not hasattr(owner, attr):
                    continue
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, enter, leave, span))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------------
    # aggregation

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name self time and call count, plus the total time covered by
        root spans."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _, _), c in zip(self.spans, child):
            self_s[name] += (end - start) - c
            calls[name] += 1
        return self_s, calls, covered

    def spans_named(self, name: str) -> list[tuple[int, float, float]]:
        """(run id, start, end) of every span with this name, in call order."""
        return [(run, start, end) for n, start, end, _, run, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


# ----------------------------------------------------------------------
# hooks


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _enter_run(tr, args, kwargs):
    tr.run += 1
    tr.iteration = -1


def _enter_step(tr, args, kwargs):
    tr.iteration = int(_arg(args, kwargs, 4, "iteration"))


def _leave_query(tr, args, kwargs, out):
    tr.counts["engine.transport_query.records_scanned"] += len(args[0].records)


def _leave_fuse(tr, args, kwargs, out):
    tr.counts["engine.fuse_and_forward.samples_in"] += _arg(args, kwargs, 4, "data").size


def _leave_cov(tr, args, kwargs, out):
    d, n = _arg(args, kwargs, 0, "y").shape
    tr.counts["signals.covariance.flops_computed"] += 2.0 * d * d * n


def _solve_name(args, kwargs):
    return "sfo.solve." + _arg(args, kwargs, 0, "instance").problem.kind


def _leave_solve(tr, args, kwargs, out):
    instance = _arg(args, kwargs, 0, "instance")
    key = _solve_name(args, kwargs)
    tr.samples[key + ".inner_iters"].append(out.iterations)
    tr.samples[key + ".local_dim"].append(instance.dim)


def _leave_sample(tr, args, kwargs, out):
    tr.counts["signals.sample.samples_generated"] += out.y.size


def _leave_prune_miss(tr, args, kwargs, out):
    tr.counts["network.prune.misses"] += 1


def _leave_write(tr, args, kwargs, out):
    out_dir = Path(_arg(args, kwargs, 1, "out_dir"))
    tr.counts["experiments.write_study_outputs.bytes_written"] += sum(
        p.stat().st_size for p in out_dir.iterdir() if p.is_file())


_PKG = "dasf"
_ENG = "dasf.engine"
_EXP = "dasf.experiments"

# (function name, modules whose namespace binds it, span name, enter, leave, span?)
# Only the listed namespaces are patched: solve_instance is traced where the
# engine resolves it (local solves), not inside solve_centralized.
POINTS = (
    ("dasf_run", (_PKG, _ENG, _EXP), "engine.dasf_run", _enter_run, None, True),
    ("dasf_step", (_PKG, _ENG), "engine.dasf_step", _enter_step, None, True),
    ("prune_to_tree_cached", (_ENG,), "network.prune", None, None, True),
    ("prune_to_tree", (_ENG,), "network.prune", None, _leave_prune_miss, False),
    ("plan_local_layout", (_ENG,), "engine.plan_local_layout", None, None, True),
    ("assemble_local_instance", (_ENG,), "engine.assemble", None, None, True),
    ("build_transition_matrix", (_ENG,), "engine.build_transition_matrix", None, None, True),
    ("build_anchor", (_ENG,), "engine.build_anchor", None, None, True),
    ("fuse_and_forward", (_ENG,), "engine.fuse_and_forward", None, _leave_fuse, True),
    ("distribute_update", (_ENG,), "engine.distribute_update", None, None, True),
    ("solve_instance", (_ENG,), _solve_name, None, _leave_solve, True),
    ("align_to_anchor", (_ENG,), "sfo.align", None, None, True),
    ("evaluate_objective", (_ENG,), "sfo.evaluate_objective", None, None, True),
    ("constraint_residuals", (_ENG,), "sfo.constraint_residuals", None, None, True),
    ("scalars", (_ENG + ":TransportLog",), "engine.transport_query", None, _leave_query, True),
    ("estimate_covariance", ("dasf.sfo",), "signals.covariance", None, _leave_cov, True),
    ("solve_centralized", (_PKG, _EXP), "sfo.solve_centralized", None, None, True),
    ("sample_stationary", (_PKG, _EXP), "signals.sample", None, _leave_sample, True),
    ("sample_adaptive", (_PKG, _EXP), "signals.sample", None, _leave_sample, True),
    ("make_erdos_renyi", (_PKG, "dasf.network"), "network.graph_build", None, None, True),
    ("make_random_tree", (_PKG, "dasf.network"), "network.graph_build", None, None, True),
    ("make_fully_connected", (_PKG, "dasf.network"), "network.graph_build", None, None, True),
    ("make_path", (_PKG, "dasf.network"), "network.graph_build", None, None, True),
    ("validate_config", (_PKG, _EXP), "experiments.validate_config", None, None, True),
    ("run_study", (_PKG, _EXP), "experiments.run_study", None, None, True),
    ("run_tracking", (_PKG, _EXP), "experiments.run_tracking", None, None, True),
    ("write_study_outputs", (_EXP,), "experiments.write_study_outputs", None, _leave_write, True),
    ("tracking_reference", (_EXP,), "experiments.tracking_reference", None, None, True),
)

FAMILIES = ("mmse",)   # the only family the workloads run (see known_failures.py)

# Per-layer metrics with their units, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("engine.transport_query.calls", "count"),
    ("engine.transport_query.self_s", "s"),
    ("engine.transport_query.records_scanned", "count"),
    ("engine.transport.records", "count"),
    ("engine.dasf_step.calls", "count"),
    ("engine.dasf_step.self_s", "s"),
    ("engine.dasf_step.p50_ms", "ms"),
    ("engine.dasf_step.p99_ms", "ms"),
    ("engine.dasf_step.late_over_early", "ratio"),
    ("engine.plan_local_layout.self_s", "s"),
    ("engine.build_transition_matrix.self_s", "s"),
    ("engine.build_anchor.self_s", "s"),
    ("engine.assemble.self_s", "s"),
    ("engine.distribute_update.self_s", "s"),
    ("engine.dasf_run.self_s", "s"),
    ("engine.fuse_and_forward.calls", "count"),
    ("engine.fuse_and_forward.self_s", "s"),
    ("engine.fuse_and_forward.samples_in", "count"),
    ("signals.covariance.calls", "count"),
    ("signals.covariance.self_s", "s"),
    ("signals.covariance.flops_computed", "flop"),
    ("sfo.evaluate_objective.self_s", "s"),
    *((f"sfo.solve.{fam}.{field}", unit) for fam in FAMILIES
      for field, unit in (("calls", "count"), ("self_s", "s"),
                          ("inner_iters_mean", "count"), ("local_dim_mean", "count"))),
    ("sfo.solve_centralized.self_s", "s"),
    ("sfo.constraint_residuals.self_s", "s"),
    ("sfo.align.self_s", "s"),
    ("network.prune.calls", "count"),
    ("network.prune.self_s", "s"),
    ("network.prune.cache_hit_ratio", "ratio"),
    ("network.graph_build.self_s", "s"),
    ("signals.sample.calls", "count"),
    ("signals.sample.self_s", "s"),
    ("signals.sample.samples_generated", "count"),
    ("experiments.tracking_reference.calls", "count"),
    ("experiments.tracking_reference.self_s", "s"),
    ("experiments.validate_config.self_s", "s"),
    ("experiments.run_study.self_s", "s"),
    ("experiments.run_tracking.self_s", "s"),
    ("experiments.write_study_outputs.self_s", "s"),
    ("experiments.write_study_outputs.bytes_written", "B"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tr: Tracer, traced_wall_s: float, transport_records: int,
                  overhead_frac: float) -> dict[str, float]:
    """Fold the spans and counters into the PER_LAYER metrics; a layer the
    workload never entered reads 0."""
    self_s, calls, covered = tr.self_times()
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif field == "calls":
            out[name] = calls.get(layer, 0)
        elif name in tr.counts:
            out[name] = tr.counts[name]
        else:
            out[name] = 0
    for fam in FAMILIES:
        key = f"sfo.solve.{fam}"
        for field, sample in (("inner_iters_mean", "inner_iters"), ("local_dim_mean", "local_dim")):
            values = tr.samples.get(f"{key}.{sample}")
            out[f"{key}.{field}"] = statistics.fmean(values) if values else 0
    steps = tr.spans_named("engine.dasf_step")
    if steps:
        ms = [(end - start) * 1e3 for _, start, end in steps]
        out["engine.dasf_step.p50_ms"] = statistics.median(ms)
        out["engine.dasf_step.p99_ms"] = _percentile(ms, 99)
        out["engine.dasf_step.late_over_early"] = _late_over_early(steps)
    prunes = calls.get("network.prune", 0)
    if prunes:
        out["network.prune.cache_hit_ratio"] = 1.0 - tr.counts["network.prune.misses"] / prunes
    out["engine.transport.records"] = transport_records
    out["trace.overhead_frac"] = overhead_frac
    out["trace.coverage"] = covered / traced_wall_s
    return out


def _late_over_early(steps: list[tuple[int, float, float]]) -> float:
    """Median over runs of the mean iteration period in the run's last tenth
    over its first tenth. The period runs from one dasf_step call to the
    next, so it holds the step plus the per-iteration bookkeeping after it
    (objective, residuals, transport query)."""
    starts: dict[int, list[float]] = defaultdict(list)
    for run, start, _ in steps:
        starts[run].append(start)
    ratios = []
    for times in starts.values():
        periods = [b - a for a, b in zip(times, times[1:])]
        tenth = len(periods) // 10
        if tenth:
            ratios.append(statistics.fmean(periods[-tenth:])
                          / statistics.fmean(periods[:tenth]))
    return statistics.median(ratios) if ratios else 0
