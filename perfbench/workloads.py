"""The benchmark's workloads and the correctness checks every run must pass.

A workload is built in two steps. ``inputs(seed, rep, size)`` is set-up: it
makes everything the program is handed (configs, graphs, signal models,
batches, centralized references) from the seed, untimed. ``execute`` is the
timed section: it calls the public ``dasf`` API on those inputs and returns
one ``RunOutcome`` per distributed run it attempted.

Every ``dasf`` name is looked up on the package at call time, so the
tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dasf

# Objective increase per iteration allowed in batch mode (acceptance
# criterion 4 uses the same absolute bound).
OBJECTIVE_RISE_TOL = 1e-9

# Normalized errors below this are treated as exact: a relative distance of
# 1e-10 to the reference is well under what any family's solver tolerance
# or the batch statistics resolve, so reordering a sum cannot move the
# reported accuracy.
EPS_FLOOR = 1e-20

# What a failing run may raise; SolverError, GraphConnectivityError and the
# study runner's "every run failed" are RuntimeErrors, LinAlgError is a
# ValueError. Such a run is counted as failed, with its reason.
RUN_ERRORS = (RuntimeError, ValueError)


@dataclass
class RunOutcome:
    """One distributed run as the benchmark saw it."""

    label: str
    result: dasf.RunResult | None
    n_filters: int
    batch_mode: bool
    tolerance: float
    error: str | None = None     # exception text when the run raised
    # what the run was handed, when the benchmark built it itself: lets the
    # objective check include the step from the starting point
    problem: dasf.SfoProblem | None = None
    batch: dasf.SampleBatch | None = None

    @property
    def iterations(self) -> int:
        return len(self.result.records) if self.result is not None else 0


def check_run(run: RunOutcome) -> str | None:
    """The reason a run is wrong, or None when it passes every check."""
    if run.error is not None:
        return run.error
    result = run.result
    if not result.records:
        return "no iterations recorded"
    audit = dasf.audit_transport(result.transport, run.n_filters)
    if not audit.ok:
        return f"transport audit failed: {audit.issues[0]}"
    if not all(np.isfinite(x).all() for x in result.x_history):
        return "non-finite iterate"
    if run.batch_mode:
        objective = result.objective_trace()
        if run.problem is not None:
            start = dasf.sfo.evaluate_objective(run.problem, result.x_history[0], run.batch)
            objective = np.concatenate([[start], objective])
        rise = float(np.diff(objective).max(initial=-np.inf))
        if not np.isfinite(objective).all() or rise > OBJECTIVE_RISE_TOL:
            return f"objective rose by {rise:.3e} in one iteration"
    eps = result.records[-1].epsilon
    if not eps < run.tolerance:
        return f"final normalized error {eps:.3e} is not below {run.tolerance:g}"
    return None


def sub_seed(seed: int, *keys: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *keys])


def int_seed(seed: int, *keys: int) -> int:
    return int(sub_seed(seed, *keys).generate_state(1)[0])


class Workload:
    name = ""
    why = ""
    sizes: dict[str, dict] = {}
    tolerance = math.inf

    def inputs(self, seed: int, rep: int, size: str):
        raise NotImplementedError

    def tolerance_for(self, size: str) -> float:
        """Final-error tolerance; tiny runs are too short to converge, so
        they are held to every check but this one."""
        return self.tolerance if size == "full" else math.inf

    def execute(self, inputs, work_dir: Path) -> list[RunOutcome]:
        raise NotImplementedError


@dataclass
class StudyInputs:
    """A validated study config and the final-error tolerance its runs meet."""

    config: dasf.ExperimentConfig
    tolerance: float


def _execute_study(run_study, config: dasf.ExperimentConfig, batch_mode: bool,
                   tolerance: float) -> list[RunOutcome]:
    """Run a study and return one outcome per Monte-Carlo run. When the
    study itself raises, every run of it is counted as failed with that
    reason."""
    n_filters = config.n_filters
    try:
        study = run_study(config)
    except RUN_ERRORS as exc:
        reason = f"study raised {type(exc).__name__}: {exc}"
        return [RunOutcome(f"run {i}", None, n_filters, batch_mode, tolerance, error=reason)
                for i in range(config.runs)]
    runs = [RunOutcome(f"run {i}", r, n_filters, batch_mode, tolerance)
            for i, r in zip(study.run_indices, study.run_results)]
    runs += [RunOutcome(f"run {i}", None, n_filters, batch_mode, tolerance, error=msg)
             for i, msg in study.failed]
    return runs


class StudyMmseEr(Workload):
    """run_study on the paper's main use: a Monte-Carlo study on Erdos-Renyi
    graphs redrawn every run, outputs written to disk. The network, batch
    size and run length are the criterion-8 TRO study's; the family is MMSE
    because the constrained families fail some runs of this shape (see
    known_failures.py)."""

    name = "study_mmse_er"
    why = ("run_study, batch-mode MMSE on Erdos-Renyi K=15 in the criterion-8 shape: time "
           "spread over solve, fusion, covariance, reference, sampling and output writing")
    sizes = {
        "full": dict(runs=2, iterations=150, samples=2500),
        "tiny": dict(runs=2, iterations=8, samples=200),
    }
    # runs reach 1e-15 or less
    tolerance = 1e-6

    def inputs(self, seed, rep, size):
        s = self.sizes[size]
        raw = {
            "schema_version": 1,
            "problem": {"kind": "mmse", "n_filters": 3},
            "network": {"kind": "erdos_renyi", "nodes": 15, "channels": 4, "edge_prob": 0.4},
            "signals": {"sources": 3, "noise_var": 0.3},
            "run": {"monte_carlo_runs": s["runs"], "iterations": s["iterations"],
                    "samples": s["samples"], "seed": int_seed(seed, rep), "workers": 1},
        }
        return StudyInputs(dasf.validate_config(raw), self.tolerance_for(size))

    def execute(self, inputs, work_dir):
        with tempfile.TemporaryDirectory(dir=work_dir) as out:
            config = inputs.config.with_overrides(out_dir=out)
            return _execute_study(dasf.run_study, config, True, inputs.tolerance)


@dataclass
class SingleRun:
    """Everything one dasf_run call is handed."""

    label: str
    problem: dasf.SfoProblem
    graph: dasf.NetworkGraph
    batch: dasf.SampleBatch
    reference: np.ndarray
    iterations: int
    x0_seed: int
    tolerance: float


def _mmse_run(label: str, graph: dasf.NetworkGraph, rng, samples: int, n_filters: int,
              iterations: int, x0_seed: int, tolerance: float) -> SingleRun:
    """A batch-mode MMSE run on graph, with one source per filter."""
    problem = dasf.MmseProblem(n_filters=n_filters)
    model = dasf.SignalModel(channels=graph.channels, source_var=0.5, noise_var=0.3,
                             mix_y=rng.uniform(-0.5, 0.5, (graph.total_channels, n_filters)))
    batch = dasf.sample_stationary(model, 0, samples, rng)
    reference = dasf.solve_centralized(problem, batch).x
    return SingleRun(label, problem, graph, batch, reference, iterations, x0_seed, tolerance)


def _execute_single(runs: list[SingleRun]) -> list[RunOutcome]:
    out = []
    for r in runs:
        outcome = RunOutcome(r.label, None, r.problem.n_filters, True, r.tolerance,
                             problem=r.problem, batch=r.batch)
        try:
            outcome.result = dasf.dasf_run(r.problem, r.graph, r.batch, r.iterations,
                                           rng_seed=r.x0_seed, reference=r.reference)
        except RUN_ERRORS as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
        out.append(outcome)
    return out


class MmseBigN(Workload):
    """One batch-mode MMSE run at N = 10^4."""

    name = "mmse_bigN"
    why = ("one batch-mode MMSE run at N=10^4 on Erdos-Renyi K=10, M=30: N-bound fusion, "
           "covariance and objective evaluation dominate")
    sizes = {
        "full": dict(nodes=10, samples=10_000, n_filters=2, iterations=150),
        "tiny": dict(nodes=10, samples=500, n_filters=2, iterations=10),
    }
    # runs reach rounding noise, near 1e-29
    tolerance = 1e-6

    def inputs(self, seed, rep, size):
        return self.build(seed, rep, self.tolerance_for(size), **self.sizes[size])

    def build(self, seed, rep, tolerance, nodes, samples, n_filters, iterations):
        rng = np.random.default_rng(sub_seed(seed, rep))
        graph = dasf.make_erdos_renyi(nodes, 3, 0.4, rng)
        return [_mmse_run("mmse", graph, rng, samples, n_filters, iterations,
                          int_seed(seed, rep, 1), tolerance)]

    def execute(self, runs, work_dir):
        return _execute_single(runs)


class LongTreeSmallN(Workload):
    """One long MMSE run on a random tree where many nodes forward raw rows."""

    name = "long_tree_smallN"
    why = ("one MMSE run for thousands of iterations, N=200, random tree K=16 with 1/2 "
           "channels per node: per-iteration Python overhead and raw forwarding dominate")
    sizes = {
        "full": dict(nodes=16, samples=200, n_filters=3, iterations=2000),
        "tiny": dict(nodes=16, samples=200, n_filters=3, iterations=30),
    }
    # runs reach rounding noise, near 1e-29
    tolerance = 1e-6

    def inputs(self, seed, rep, size):
        return self.build(seed, rep, self.tolerance_for(size), **self.sizes[size])

    def build(self, seed, rep, tolerance, nodes, samples, n_filters, iterations):
        rng = np.random.default_rng(sub_seed(seed, rep))
        channels = [1 + k % 2 for k in range(nodes)]
        graph = dasf.make_random_tree(nodes, channels, rng)
        return [_mmse_run("tree", graph, rng, samples, n_filters, iterations,
                          int_seed(seed, rep, 1), tolerance)]

    def execute(self, runs, work_dir):
        return _execute_single(runs)


class TrackingAdaptive(Workload):
    """run_tracking: MMSE with a drifting steering vector, fresh batch every
    iteration, closed-form reference every iteration."""

    name = "tracking_adaptive"
    why = ("run_tracking, MMSE with drift in adaptive mode, N=2000: a fresh batch and "
           "reference every iteration, so sampling dominates and no batch is reused")
    sizes = {
        "full": dict(runs=3, iterations=150, samples=2000),
        "tiny": dict(runs=1, iterations=9, samples=200),
    }
    # the batch-estimation floor is about M/N = 0.015
    tolerance = 0.1

    def inputs(self, seed, rep, size):
        s = self.sizes[size]
        i = s["iterations"]
        raw = {
            "schema_version": 1,
            "problem": {"kind": "mmse", "n_filters": 1},
            "network": {"kind": "erdos_renyi", "nodes": 10, "channels": 3, "edge_prob": 0.4},
            "signals": {"noise_var": 0.3,
                        "drift": {"delta_std": 1.5,
                                  "schedule": [[0, 0.0], [i // 3, 0.0], [2 * i // 3, 1.0]]}},
            "run": {"monte_carlo_runs": s["runs"], "iterations": i, "samples": s["samples"],
                    "mode": "adaptive", "seed": int_seed(seed, rep), "workers": 1},
        }
        return StudyInputs(dasf.validate_config(raw), self.tolerance_for(size))

    def execute(self, inputs, work_dir):
        return _execute_study(lambda config: dasf.run_tracking(config, write=False),
                              inputs.config, False, inputs.tolerance)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (StudyMmseEr(), MmseBigN(), LongTreeSmallN(), TrackingAdaptive())
}
