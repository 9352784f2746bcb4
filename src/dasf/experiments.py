"""Experiment configuration, Monte-Carlo studies, and result emission.

A study is described by one YAML file (dialect documented in the README,
versioned by a top-level ``schema_version: 1`` key) with five sections:
problem, network, signals, run, output. ``validate_config`` turns the raw
mapping into a frozen ExperimentConfig, collecting one error per violated
field; ``ExperimentConfig.with_overrides`` checks a CLI override by the rule
of its config key. Both read one rule table, ``_RULES``. ``run_study``
executes the Monte-Carlo loop, computes a reference per run, and writes
per-run CSVs, an aggregate CSV (with the drift weight as a ``lambda`` column
in tracking studies), a resolved config echo, and a gnuplot script for the
error curves. A study whose every run fails raises StudyFailedError.

Tracking studies (a drift schedule, adaptive mode) draw each iteration's
batch as its second-order statistics (``sample_drift_statistics``), exactly
in distribution with the samples ``sample_adaptive`` returns but without
the M x N noise draw. A run draws its windows in blocks of consecutive
iterations, one call per block, when the block's first window is
requested; a block's stacked statistics and ramp normals hold at most
DRAW_BLOCK_ENTRIES entries (one window when a single one holds more), so
the block size, and with it the run's per-seed values, follows from M, N
and that constant. A block's batches come with their MMSE conditioning
decisions, from one stacked screen of the block, so no solve factorizes a
covariance to decide its ridge. Per-seed values differ from earlier versions, which drew
each window on its own or drew the samples, while their distribution does
not. ``sample_adaptive`` still returns samples, and the other modes still
draw them.
"""

from __future__ import annotations

import ctypes
import dataclasses
import logging
import math
import os
import platform
import sys
import time
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy
import yaml

from . import network as net
from .engine import RunResult, dasf_run, normalized_error
from .sfo import (
    MmseProblem,
    QcqpProblem,
    ScqpProblem,
    SfoProblem,
    TroProblem,
    solve_centralized,
)
from .signals import (
    DriftSpec,
    LambdaSchedule,
    SignalModel,
    sample_drift_statistics,
    sample_stationary,
)

__all__ = [
    "ConfigError",
    "DriftConfig",
    "ExperimentConfig",
    "load_config",
    "validate_config",
    "StudyResult",
    "StudyFailedError",
    "run_study",
    "run_tracking",
    "write_study_outputs",
    "tracking_reference",
]

logger = logging.getLogger(__name__)

PROBLEM_KINDS = ("mmse", "qcqp", "tro", "scqp")
TOPOLOGY_KINDS = ("fully_connected", "erdos_renyi", "random_tree", "path")
SAMPLE_MODES = ("batch", "adaptive")

DEFAULT_SAMPLES = 10_000
DEFAULT_RUNS = 100
MAX_CHANNELS = 10_000   # M x M statistics of that many one-channel nodes take 800 MB
# entries of a tracking run's block of drift draws: its stacked statistics
# and the normals of its ramp windows
DRAW_BLOCK_ENTRIES = 2**16


class ConfigError(Exception):
    """Aggregated validation failures, one entry per offending field path."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__(
            "invalid experiment config:\n" + "\n".join(f"  - {e}" for e in self.errors)
        )


class StudyFailedError(RuntimeError):
    """Every Monte-Carlo run of a study failed. The message counts the
    failures by exception type and quotes the first one."""


@dataclass(frozen=True)
class DriftConfig:
    """Tracking drift: schedule breakpoints in iteration units, drift scale."""

    delta_std: float
    schedule: tuple[tuple[float, float], ...]   # (iteration, weight) pairs


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved study description.

    filter_widths usually holds one width; several run the same study once
    per width (a sweep), each into its own output subdirectory.
    sources/interferers of None track the filter width.
    """

    schema_version: int
    problem_kind: str
    filter_widths: tuple[int, ...]
    term_seed: int
    radius_scale: float
    topology: str
    nodes: int
    channels: tuple[int, ...]
    edge_prob: float | None
    graph_seed: int | None
    sources: int | None
    interferers: int | None
    source_var: float
    noise_var: float
    mix_scale: float
    drift: DriftConfig | None
    runs: int
    iterations: int
    samples: int
    sample_mode: str
    seed: int
    workers: int
    out_dir: str
    applied_defaults: tuple[str, ...] = ()

    @property
    def n_filters(self) -> int:
        if len(self.filter_widths) != 1:
            raise ValueError("config sweeps several filter widths, expand it first")
        return self.filter_widths[0]

    @property
    def total_channels(self) -> int:
        return sum(self.channels)

    def with_overrides(self, seed=None, runs=None, iterations=None,
                       out_dir=None, sample_mode=None) -> "ExperimentConfig":
        """CLI-flag overrides; None keeps the configured value. A value
        passes the rule of its run key in _RULES, as in validate_config."""
        given = {"seed": seed, "monte_carlo_runs": runs, "iterations": iterations,
                 "mode": sample_mode}
        given = {key: value for key, value in given.items() if value is not None}
        rules = {key: _RULES["run"][key] for key in given}
        errors: list[str] = []
        taken = _read_section("run", given, rules, errors, [])
        if errors:
            raise ConfigError(errors)
        cfg = dataclasses.replace(
            self, **{rules[key].field: value for key, value in taken.items()},
            out_dir=self.out_dir if out_dir is None else str(out_dir))
        _check_semantics(cfg)
        return cfg

    def expand_filter_sweep(self) -> tuple["ExperimentConfig", ...]:
        return tuple(
            dataclasses.replace(self, filter_widths=(q,)) for q in self.filter_widths
        )


# --------------------------------------------------------------------------
# validation


def load_config(path) -> dict:
    """Read one YAML config file into a raw mapping."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    except yaml.YAMLError as exc:
        raise ConfigError([f"config: not valid YAML: {exc}"]) from exc
    except ValueError as exc:     # e.g. an integer literal past Python's digit limit
        raise ConfigError([f"config: unreadable value: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be a mapping"])
    return raw


class _Rule(NamedTuple):
    """How validate_config reads one config key."""

    field: str | None          # the ExperimentConfig field it fills; None: a cross-check only
    kind: type | None = None   # int, float or str; None takes the value as it is
    default: object = None
    required: bool = False
    check: Callable[[object], str | None] | None = None   # the error message, or None
    logged: bool = False       # an applied default is listed in applied_defaults
    nested: dict[str, _Rule] | None = None   # the rules of a nested mapping's keys


def _coerce(value, kind):
    """The value as the rule's kind, and None; or None and what is wrong."""
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        return None, f"expected an integer, got {value!r}"
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None, f"expected a number, got {value!r}"
        # false for inf and nan, and for an integer beyond the float range
        if not abs(value) <= sys.float_info.max:
            return None, f"expected a finite number, got {value!r}"
        return float(value), None
    if kind is str and not isinstance(value, str):
        return None, f"expected a string, got {value!r}"
    return value, None


def _positive(v):
    return None if v > 0 else f"must be positive, got {v}"


def _non_negative(v):
    return None if v >= 0 else f"must not be negative, got {v}"


def _kind_of(kinds):
    return lambda v: (None if v in kinds
                      else f"unknown kind {v!r}, expected one of {', '.join(kinds)}")


def _sample_mode(v):
    return None if v in SAMPLE_MODES else f"expected one of {', '.join(SAMPLE_MODES)}, got {v!r}"


def _positive_ints(v):
    """The check for "a positive integer or a list of them"."""
    if isinstance(v, bool) or not isinstance(v, (int, list)):
        return f"expected an integer or a list, got {v!r}"
    for item in v if isinstance(v, list) else [v]:
        if isinstance(item, bool) or not isinstance(item, int) or item < 1:
            return f"expected positive integers, got {item!r}"
    return None


def _filter_widths(v):
    message = _positive_ints(v)
    if message is None and isinstance(v, list):
        if not v:
            message = "empty sweep"
        elif len(set(v)) != len(v):
            message = "sweep values must be distinct"
    return message


def _schedule(v):
    """[[iteration, weight], ...] of finite numbers, with the ordering and
    range rules of LambdaSchedule."""
    if not isinstance(v, list) or not v:
        return "required, a non-empty list of [iteration, weight] pairs"
    for item in v:
        if (not isinstance(item, list) or len(item) != 2
                or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in item)):
            return f"entries must be [iteration, weight] pairs, got {item!r}"
        if not all(abs(x) <= sys.float_info.max for x in item):
            return f"entries must be finite numbers, got {item!r}"
    try:
        LambdaSchedule(*zip(*v))
    except ValueError as exc:
        return str(exc)
    return None


# Every config key, by section: the one statement of its field, kind,
# default, requiredness, check and default logging. validate_config reads
# every section by these rules, ExperimentConfig.with_overrides the run keys
# a CLI flag gives. A section holding a required key is itself required.
_RULES: dict[str, dict[str, _Rule]] = {
    "problem": {
        "kind": _Rule("problem_kind", str, required=True, check=_kind_of(PROBLEM_KINDS)),
        "n_filters": _Rule("filter_widths", required=True, check=_filter_widths),
        "term_seed": _Rule("term_seed", int, 0, check=_non_negative),
        "radius_scale": _Rule("radius_scale", float, 1.5, check=lambda v: None if v >= 1.0
                              else "must be at least 1 so the response plane meets the ball"),
    },
    "network": {
        "kind": _Rule("topology", str, required=True, check=_kind_of(TOPOLOGY_KINDS)),
        # every node has a channel, so the cap holds before channels is expanded
        "nodes": _Rule("nodes", int, required=True, check=lambda v: _positive(v)
                       if v <= MAX_CHANNELS else f"must be at most {MAX_CHANNELS}, got {v}"),
        "channels": _Rule("channels", required=True, check=_positive_ints),
        "total_channels": _Rule(None, int),
        "edge_prob": _Rule("edge_prob", float, check=lambda v: None if 0.0 < v <= 1.0
                           else f"must be in (0, 1], got {v}"),
        "graph_seed": _Rule("graph_seed", int, check=_non_negative),
    },
    "signals": {
        "sources": _Rule("sources", int, check=_positive),
        "interferers": _Rule("interferers", int, check=_positive),
        "source_var": _Rule("source_var", float, 0.5, check=_positive, logged=True),
        "noise_var": _Rule("noise_var", float, 0.1, check=_positive, logged=True),
        "mix_scale": _Rule("mix_scale", float, 0.5, check=_positive, logged=True),
        "drift": _Rule("drift", nested={
            "delta_std": _Rule("delta_std", float, 0.5, check=_positive),
            "schedule": _Rule("schedule", required=True, check=_schedule),
        }),
    },
    "run": {
        "monte_carlo_runs": _Rule("runs", int, DEFAULT_RUNS, check=_positive, logged=True),
        "iterations": _Rule("iterations", int, required=True, check=_non_negative),
        "samples": _Rule("samples", int, DEFAULT_SAMPLES, check=_positive, logged=True),
        "mode": _Rule("sample_mode", str, "batch", check=_sample_mode, logged=True),
        "seed": _Rule("seed", int, 0, check=_non_negative, logged=True),
        "workers": _Rule("workers", int, 1, check=_positive),
    },
    "output": {
        "dir": _Rule("out_dir", str, "results", logged=True),
    },
}


def _read_section(path: str, data, rules: dict[str, _Rule], errors: list[str],
                  defaults: list[str]) -> dict:
    """Each key's value by its rule, None where it failed. Errors carry the
    key's path; an unknown key is one; logged defaults are noted."""
    if data is not None and not isinstance(data, dict):
        errors.append(f"{path}: must be a mapping")
    data = data if isinstance(data, dict) else {}
    values = {}
    for key, rule in rules.items():
        name = f"{path}.{key}"
        if key not in data:
            if rule.required:
                errors.append(f"{name}: required, no default")
            elif rule.logged:
                defaults.append(f"{name} = {rule.default!r}")
            values[key] = rule.default
            continue
        value, message = _coerce(data[key], rule.kind)
        if message is None and rule.check is not None:
            message = rule.check(value)
        if message:
            errors.append(f"{name}: {message}")
            value = None
        elif rule.nested is not None and value is not None:
            value = _read_section(name, value, rule.nested, errors, defaults)
        values[key] = value
    errors.extend(f"{path}.{key}: unknown key" for key in data if key not in rules)
    return values


def validate_config(raw: dict) -> ExperimentConfig:
    """Check every field, apply and log defaults, return the frozen config.

    All violations are collected and raised together as one ConfigError with
    ``errors`` naming each field path: each key's own, by its rule in
    _RULES, then those that relate keys.
    """
    errors: list[str] = []
    defaults: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be a mapping"])

    version = raw.get("schema_version")
    if version is None:
        errors.append("schema_version: required, no default")
    elif version != 1:
        errors.append(f"schema_version: only version 1 is supported, got {version!r}")
    errors.extend(f"{key}: unknown section" for key in raw
                  if key != "schema_version" and key not in _RULES)

    read = {}
    for section, rules in _RULES.items():
        if section not in raw and any(rule.required for rule in rules.values()):
            errors.append(f"{section}: required section")
        read[section] = _read_section(section, raw.get(section), rules, errors, defaults)

    netsec = read["network"]
    nodes, channels, total = netsec["nodes"], netsec["channels"], netsec["total_channels"]
    if isinstance(channels, int):
        channels = [channels] * (nodes or 1)
    elif channels is not None and nodes is not None and len(channels) != nodes:
        errors.append(
            f"network.channels: list length {len(channels)} does not match nodes {nodes}")
    if total is not None and channels is not None and total != sum(channels):
        errors.append(
            f"network.total_channels: {total} does not match the channel sum {sum(channels)}")
    if netsec["kind"] == "erdos_renyi" and netsec["edge_prob"] is None:
        errors.append("network.edge_prob: required for erdos_renyi")
    if netsec["kind"] not in (None, "erdos_renyi") and netsec["edge_prob"] is not None:
        errors.append(f"network.edge_prob: not meaningful for kind {netsec['kind']!r}")
    if errors:
        raise ConfigError(errors)

    values = {rule.field: read[section][key]
              for section, rules in _RULES.items() for key, rule in rules.items() if rule.field}
    widths, drift = values["filter_widths"], values["drift"]
    values["filter_widths"] = tuple(widths) if isinstance(widths, list) else (widths,)
    values["channels"] = tuple(channels)
    if drift is not None:
        values["drift"] = DriftConfig(
            delta_std=drift["delta_std"],
            schedule=tuple((float(t), float(w)) for t, w in drift["schedule"]))
    config = ExperimentConfig(schema_version=1, **values, applied_defaults=tuple(defaults))
    _check_semantics(config)
    for line in defaults:
        logger.info("config default applied: %s", line)
    return config


def _check_semantics(config: ExperimentConfig) -> None:
    """Cross-field rules that need the resolved values."""
    errors: list[str] = []
    if config.problem_kind == "mmse" and config.sources is not None:
        bad = [q for q in config.filter_widths if q != config.sources]
        if bad:
            errors.append(
                f"signals.sources: {config.sources} conflicts with problem.n_filters "
                f"{bad[0]} (the estimation target provides one row per filter)")
    if config.drift is not None:
        if config.problem_kind != "mmse":
            errors.append("signals.drift: tracking drift is only supported with problem.kind mmse")
        if any(q != 1 for q in config.filter_widths):
            errors.append("problem.n_filters: drift tracking uses a single steering vector, width must be 1")
        if config.sample_mode != "adaptive":
            errors.append("run.mode: a drift schedule needs adaptive mode (fresh batch per iteration)")
    widest = max(config.filter_widths)
    if widest > config.total_channels:
        errors.append(f"problem.n_filters: width {widest} exceeds the network's "
                      f"{config.total_channels} channels")
    if config.total_channels > MAX_CHANNELS:
        errors.append(f"network.channels: {config.total_channels} channels in all, "
                      f"above the cap of {MAX_CHANNELS}")
    if errors:
        raise ConfigError(errors)
    local_dim_bound = max(config.channels) + widest * (config.nodes - 1)
    if config.samples < local_dim_bound:
        warnings.warn(
            f"run.samples = {config.samples} is below the largest possible local "
            f"dimension {local_dim_bound}; covariance estimates may be rank deficient",
            RuntimeWarning,
            stacklevel=2,
        )


# --------------------------------------------------------------------------
# study execution


@dataclass
class StudyResult:
    """Aggregated outcome of one study (one problem, one filter width).

    epsilon rows are completed runs; column j is the error of the filter
    after j updates, so column 0 is the initial point. Aggregates are taken
    across completed runs only.
    """

    config: ExperimentConfig
    n_filters: int
    run_results: list[RunResult]
    run_indices: tuple[int, ...]
    failed: tuple[tuple[int, str], ...]
    run_wall_s: tuple[float, ...]   # wall time of each completed run, in run_indices order
    epsilon: np.ndarray
    epsilon_median: np.ndarray
    epsilon_mean: np.ndarray
    epsilon_sem: np.ndarray
    engine_variant: str

    @property
    def run_count(self) -> int:
        return len(self.run_indices)

    def final_epsilons(self) -> np.ndarray:
        return self.epsilon[:, -1]


def _build_graph(config: ExperimentConfig, rng) -> net.NetworkGraph:
    seed = config.graph_seed if config.graph_seed is not None else rng
    if config.topology == "fully_connected":
        return net.make_fully_connected(config.nodes, config.channels)
    if config.topology == "path":
        return net.make_path(config.nodes, config.channels)
    if config.topology == "erdos_renyi":
        return net.make_erdos_renyi(config.nodes, config.channels, config.edge_prob, seed)
    if config.topology == "random_tree":
        return net.make_random_tree(config.nodes, config.channels, seed)
    raise ValueError(f"unknown topology {config.topology!r}")


def _build_problem(config: ExperimentConfig) -> SfoProblem:
    """Deterministic problem data shared by every Monte-Carlo run."""
    m, n_filters = config.total_channels, config.n_filters
    if config.problem_kind == "mmse":
        return MmseProblem(n_filters=n_filters)
    if config.problem_kind == "tro":
        return TroProblem(n_filters=n_filters)
    rng = np.random.default_rng(config.term_seed)
    linear = rng.standard_normal((m, n_filters))
    if config.problem_kind == "scqp":
        return ScqpProblem(n_filters=n_filters, linear_term=linear)
    gain = rng.standard_normal(m)
    target = rng.standard_normal(n_filters)
    radius = config.radius_scale * float(np.linalg.norm(target) / np.linalg.norm(gain))
    return QcqpProblem(
        n_filters=n_filters,
        linear_term=linear,
        gain_vector=gain,
        target_response=target,
        radius=radius,
    )


def _build_model(config: ExperimentConfig, problem: SfoProblem, rng) -> SignalModel:
    m = config.total_channels
    if config.drift is not None:
        times = tuple(t * config.samples for t, _ in config.drift.schedule)
        weights = tuple(w for _, w in config.drift.schedule)
        spec = DriftSpec(
            p0=rng.uniform(-config.mix_scale, config.mix_scale, m),
            delta=rng.normal(0.0, config.drift.delta_std, m),
            schedule=LambdaSchedule(times, weights),
        )
        return SignalModel(channels=config.channels, source_var=config.source_var,
                           noise_var=config.noise_var, drift=spec)
    sources = config.sources if config.sources is not None else config.n_filters
    mix_y = rng.uniform(-config.mix_scale, config.mix_scale, (m, sources))
    mix_v = None
    if problem.uses_second_stream:
        interferers = config.interferers if config.interferers is not None else sources
        mix_v = rng.uniform(-config.mix_scale, config.mix_scale, (m, interferers))
    return SignalModel(channels=config.channels, source_var=config.source_var,
                       noise_var=config.noise_var, mix_y=mix_y, mix_v=mix_v)


def tracking_reference(model: SignalModel, t0, n_samples) -> np.ndarray:
    """Closed-form estimator target for the drifting model over one batch
    window: the average true covariance and cross-correlation across the
    window's sample times, solved directly. With p(tau) = p0 + lambda(tau)
    delta, U = [p0, delta] and S = [[1, m1], [m1, m2]] for the window means
    m1 of lambda and m2 of lambda^2, the covariance is sv U S U^T + nv I and
    the cross-correlation sv U S e1, so the target is the rank-2 form
    sv U (nv I + sv S U^T U)^{-1} S e1. Arrays of window starts and lengths
    (broadcast) give a stack of targets, one (M, 1) per window, in one call.
    A noise_var of 0 raises LinAlgError: the covariance then has rank at
    most 2."""
    sv, nv = model.source_var, model.noise_var
    if nv == 0.0:
        raise np.linalg.LinAlgError("tracking reference: noise_var is 0, the window "
                                    "covariance is singular")
    lam1, lam2 = model.drift.schedule.window_means(t0, n_samples)
    u = model.drift.basis
    s = np.empty(np.shape(lam1) + (2, 2))
    s[..., 0, 0] = 1.0
    s[..., 0, 1] = s[..., 1, 0] = lam1
    s[..., 1, 1] = lam2
    return sv * (u @ np.linalg.solve(nv * np.eye(2) + sv * (s @ (u.T @ u)), s[..., :1]))


def _single_run(config: ExperimentConfig, variant: str, run_index: int,
                seed_seq: np.random.SeedSequence) -> tuple[RunResult, np.ndarray]:
    """One Monte-Carlo run with the given engine variant; returns the run
    plus its error trace including the initial point."""
    rng = np.random.default_rng(seed_seq)
    graph = _build_graph(config, rng)
    problem = _build_problem(config)
    model = _build_model(config, problem, rng)
    n = config.samples

    if config.drift is not None:
        # every window's target in one call (window 0 also scores x0);
        # iteration i fuses window i
        targets = tracking_reference(model, n * np.arange(max(config.iterations, 1)), n)

        def reference(i):
            return targets[i]

        m = config.total_channels
        size = max(1, DRAW_BLOCK_ENTRIES // (m * m + m + 1 + n))
        held = (-1, ())   # the block being fused: its index and batches

        def batch(i):
            nonlocal held
            block, at = divmod(i, size)
            if held[0] != block:
                held = (-1, ())   # the old block goes before the next is drawn
                first = block * size
                windows = np.arange(first, min(first + size, config.iterations))
                held = block, sample_drift_statistics(model, n * windows, n, rng)
            return held[1][at]
    else:
        # the reference is solved on the first batch, which batch mode
        # reuses; adaptive mode draws a fresh batch every iteration, so its
        # error floors at estimation level
        first = sample_stationary(model, 0, n, rng)
        reference = solve_centralized(problem, first).x
        batch = first if config.sample_mode == "batch" else (
            lambda i: sample_stationary(model, 0, n, rng))

    x0 = problem.random_feasible(graph.total_channels, rng)
    result = dasf_run(
        problem, graph, batch, config.iterations, mode=variant, x0=x0,
        reference=reference, run_index=run_index, warn_on_bound=(run_index == 0),
    )
    # a fixed reference is measured symmetry-aligned, as dasf_run measures it
    eps0_ref = reference(0) if callable(reference) else result.reference
    eps0 = normalized_error(result.x_history[0], eps0_ref)
    eps_full = np.concatenate([[eps0], result.epsilon_trace()])
    return result, eps_full


def _run_worker(args) -> tuple[int, RunResult | None, np.ndarray | None, str | None, float]:
    """One run and its wall time; any error becomes that run's recorded
    failure, so the rest of the study goes on."""
    config, variant, run_index, seed_seq = args
    start = time.perf_counter()
    try:
        result, eps = _single_run(config, variant, run_index, seed_seq)
        return run_index, result, eps, None, time.perf_counter() - start
    except Exception as exc:
        logger.debug("run %d raised", run_index, exc_info=True)
        return run_index, None, None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start


def _failure_counts(failed) -> dict[str, int]:
    """Failed runs counted by exception type, the most frequent first."""
    return dict(Counter(error.partition(":")[0] for _, error in failed).most_common())


def _run_variant(config: ExperimentConfig) -> StudyResult:
    master = np.random.SeedSequence(config.seed)
    children = master.spawn(config.runs)
    # a fully connected topology uses its star directly, any other is pruned
    variant = "fc" if config.topology == "fully_connected" else "ti"
    payloads = [(config, variant, idx, children[idx]) for idx in range(config.runs)]

    # the pool forks all its workers at the first submit, so it is sized to
    # the runs, and one run goes in-process
    pool_size = min(config.workers, config.runs)
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(_run_worker, payloads))
    else:
        outcomes = [_run_worker(p) for p in payloads]

    results: list[RunResult] = []
    indices: list[int] = []
    walls: list[float] = []
    eps_rows: list[np.ndarray] = []
    failed: list[tuple[int, str]] = []
    for idx, result, eps, error, wall in outcomes:
        if error is not None:
            logger.warning("run %d failed: %s", idx, error)
            failed.append((idx, error))
            continue
        results.append(result)
        indices.append(idx)
        walls.append(wall)
        eps_rows.append(eps)
    if not results:
        counts = ", ".join(f"{n} {name}" for name, n in _failure_counts(failed).items())
        raise StudyFailedError(
            f"every Monte-Carlo run failed ({counts}); first error: {failed[0][1]}")

    epsilon = np.vstack(eps_rows)
    n_done = epsilon.shape[0]
    if n_done > 1:
        sem = epsilon.std(axis=0, ddof=1) / math.sqrt(n_done)
    else:
        sem = np.zeros(epsilon.shape[1])
    return StudyResult(
        config=config,
        n_filters=config.n_filters,
        run_results=results,
        run_indices=tuple(indices),
        failed=tuple(failed),
        run_wall_s=tuple(walls),
        epsilon=epsilon,
        epsilon_median=np.median(epsilon, axis=0),
        epsilon_mean=epsilon.mean(axis=0),
        epsilon_sem=sem,
        engine_variant=variant,
    )


def run_study(config: ExperimentConfig, write: bool = True):
    """Execute the Monte-Carlo study described by the config.

    Returns one StudyResult, or a list of them when the config sweeps
    several filter widths (each sweep value writes into ``q<width>/`` under
    the output directory). A drift config has a single width and runs the
    same way.
    """
    variants = config.expand_filter_sweep()
    studies = []
    for variant_config in variants:
        study = _run_variant(variant_config)
        if write:
            out = Path(config.out_dir)
            if len(variants) > 1:
                out = out / f"q{variant_config.n_filters}"
            write_study_outputs(study, out)
        studies.append(study)
    return studies[0] if len(studies) == 1 else studies


def run_tracking(config: ExperimentConfig, write: bool = True) -> StudyResult:
    """Tracking study: drifting steering vector, per-iteration closed-form
    reference, error medians across runs. The remaining drift rules are
    enforced when the config is validated."""
    if config.drift is None:
        raise ConfigError(["signals.drift: required for a tracking study"])
    return run_study(config, write=write)


# --------------------------------------------------------------------------
# output emission


_PROC_MAPS = Path("/proc/self/maps")
_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> dict[str, int | None] | None:
    """The thread count each OpenBLAS mapped into this process reports now,
    by library file name, read through its own getter (nothing is set);
    None when no OpenBLAS is found or the process map cannot be read."""
    try:
        lines = _PROC_MAPS.read_text().splitlines()
    except OSError:
        return None
    counts = {}
    for path in sorted({line.split(maxsplit=5)[-1] for line in lines if "openblas" in line}):
        name = Path(path).name
        if "openblas" not in name or ".so" not in name:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        getter = next((getattr(lib, g) for g in _THREAD_GETTERS if hasattr(lib, g)), None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
        counts[name] = None if getter is None else getter()
    return counts or None


def write_study_outputs(study: StudyResult, out_dir: Path) -> None:
    """Emit run_<idx>.csv per run, aggregate.csv (with a lambda column when
    tracking), study.meta, and the gnuplot script epsilon.gp that plots
    aggregate.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for idx, result in zip(study.run_indices, study.run_results):
        result.to_csv(out_dir / f"run_{idx}.csv")

    columns = {
        "epsilon_median": study.epsilon_median,
        "epsilon_mean": study.epsilon_mean,
        "epsilon_sem": study.epsilon_sem,
    }
    tracking = study.config.drift is not None
    if tracking:
        times, weights = zip(*study.config.drift.schedule)
        columns["lambda"] = np.interp(np.arange(study.epsilon.shape[1]), times, weights)
    # floats as repr, the whole text in one join
    lines = [",".join(["iter", *columns])]
    lines += [",".join([str(j), *map(repr, row)]) for j, row in enumerate(
        zip(*(np.asarray(c, dtype=float).tolist() for c in columns.values())))]
    (out_dir / "aggregate.csv").write_text("\n".join(lines) + "\n")

    try:        # NumPy reports its build dependencies from 1.26 on
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    meta = {
        "resolved_config": dataclasses.asdict(study.config),
        "n_filters": study.n_filters,
        "engine_variant": study.engine_variant,
        "completed_runs": study.run_count,
        "failed_runs": [[idx, msg] for idx, msg in study.failed],
        "failure_counts": _failure_counts(study.failed),
        "run_wall_s": list(study.run_wall_s),
        "tx_scalars": [result.transport.scalars() for result in study.run_results],
        "tx_records": [len(result.transport) for result in study.run_results],
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "blas": {key: blas.get(key) for key in ("name", "version")} if blas else None,
            "thread_env": {var: os.environ.get(var) for var in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "blas_threads": _blas_threads(),
        },
    }
    (out_dir / "study.meta").write_text(yaml.safe_dump(meta, sort_keys=True))

    gp = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'iteration'",
        "set ylabel 'normalized error'",
        "set key top right",
    ]
    curves = [
        "plot 'aggregate.csv' skip 1 using 1:2 with lines title 'median'",
        "     'aggregate.csv' skip 1 using 1:3 with lines title 'mean'",
    ]
    if tracking:
        gp += ["set y2label 'mixing weight'", "set y2range [0:1.1]", "set y2tics"]
        curves.append("     'aggregate.csv' skip 1 using 1:5 axes x1y2 with lines title 'lambda'")
    gp.append(", \\\n".join(curves))
    (out_dir / "epsilon.gp").write_text("\n".join(gp) + "\n")
