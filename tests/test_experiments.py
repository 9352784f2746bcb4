import concurrent.futures
import copy
import csv
import importlib.util
import io
import json
import os
import platform
import re
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg as sla
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import dasf
import dasf.cli
import dasf.experiments as experiments
import oracles
from dasf import signals
from dasf.experiments import (
    MAX_CHANNELS,
    ConfigError,
    ExperimentConfig,
    StudyResult,
    _build_problem,
    load_config,
    run_study,
    run_tracking,
    tracking_reference,
    validate_config,
)
from dasf.sfo import FEASIBILITY_RTOL
from dasf.signals import DriftSpec, LambdaSchedule, SignalModel


def _base_raw():
    return {
        "schema_version": 1,
        "problem": {"kind": "mmse", "n_filters": 1},
        "network": {"kind": "fully_connected", "nodes": 3, "channels": 2},
        "run": {"monte_carlo_runs": 2, "iterations": 3, "samples": 400, "seed": 0},
    }


def _errors_of(raw):
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    return info.value.errors


# ---------------------------------------------------------------------------
# validation


def test_minimal_config_resolves_with_defaults():
    config = validate_config(_base_raw())
    assert isinstance(config, ExperimentConfig)
    assert config.problem_kind == "mmse"
    assert config.filter_widths == (1,)
    assert config.channels == (2, 2, 2)
    assert config.total_channels == 6
    assert config.sample_mode == "batch"
    assert config.out_dir == "results"
    assert any("run.mode" in line for line in config.applied_defaults)
    assert any("output.dir" in line for line in config.applied_defaults)


def test_schema_version_is_mandatory():
    raw = _base_raw()
    del raw["schema_version"]
    assert any("schema_version" in e for e in _errors_of(raw))
    raw["schema_version"] = 2
    assert any("only version 1" in e for e in _errors_of(raw))


def test_all_violations_reported_together():
    raw = _base_raw()
    raw["problem"] = {"kind": "nonsense"}          # bad kind, missing width
    raw["network"]["nodes"] = -2
    raw["run"]["iterations"] = -1
    errors = _errors_of(raw)
    assert len(errors) >= 4
    joined = "\n".join(errors)
    assert "problem.kind" in joined
    assert "problem.n_filters" in joined
    assert "network.nodes" in joined
    assert "run.iterations" in joined
    # the exception message renders one bullet per failure
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    assert str(info.value).count("\n  - ") == len(errors)


def test_total_channels_mismatch_names_both_values():
    raw = _base_raw()
    raw["network"]["total_channels"] = 7
    (error,) = _errors_of(raw)
    assert "7" in error and "does not match the channel sum 6" in error
    raw["network"]["total_channels"] = 6
    assert validate_config(raw).total_channels == 6


def test_unknown_sections_and_keys_rejected():
    raw = _base_raw()
    raw["extra"] = {}
    raw["problem"]["bogus"] = 1
    raw["run"]["typo_key"] = 2
    errors = _errors_of(raw)
    assert any(e.startswith("extra:") for e in errors)
    assert any("problem.bogus" in e for e in errors)
    assert any("run.typo_key" in e for e in errors)


def test_channels_list_must_match_nodes():
    raw = _base_raw()
    raw["network"]["channels"] = [2, 3]
    assert any("does not match nodes" in e for e in _errors_of(raw))
    raw["network"]["channels"] = [2, 3, 4]
    assert validate_config(raw).channels == (2, 3, 4)


def test_channel_entries_validated():
    raw = _base_raw()
    raw["network"]["channels"] = [2, 0, 2]
    assert any("positive integers" in e for e in _errors_of(raw))
    raw["network"]["channels"] = "six"
    assert any("expected an integer or a list" in e for e in _errors_of(raw))


def test_edge_prob_rules():
    raw = _base_raw()
    raw["network"]["kind"] = "erdos_renyi"
    assert any("edge_prob: required" in e for e in _errors_of(raw))
    raw["network"]["edge_prob"] = 0.8
    assert validate_config(raw).edge_prob == 0.8
    raw["network"]["edge_prob"] = 1.5
    assert any("must be in (0, 1]" in e for e in _errors_of(raw))
    raw2 = _base_raw()
    raw2["network"]["edge_prob"] = 0.5
    assert any("not meaningful" in e for e in _errors_of(raw2))


def test_type_errors_are_specific():
    raw = _base_raw()
    raw["run"]["iterations"] = True
    raw["run"]["samples"] = "many"
    raw["problem"]["kind"] = 3
    errors = _errors_of(raw)
    assert any("run.iterations: expected an integer" in e for e in errors)
    assert any("run.samples: expected an integer" in e for e in errors)
    assert any("problem.kind: expected a string" in e for e in errors)


def test_filter_width_sweep_accepted():
    raw = _base_raw()
    raw["problem"]["n_filters"] = [1, 3, 5, 7]
    raw["network"] = {"kind": "erdos_renyi", "nodes": 30, "channels": 15,
                      "edge_prob": 0.8}
    config = validate_config(raw)
    assert config.filter_widths == (1, 3, 5, 7)
    with pytest.raises(ValueError):
        config.n_filters
    expanded = config.expand_filter_sweep()
    assert [c.n_filters for c in expanded] == [1, 3, 5, 7]
    assert all(c.seed == config.seed for c in expanded)


def test_filter_width_sweep_must_be_distinct():
    raw = _base_raw()
    raw["problem"]["n_filters"] = [1, 3, 3]
    assert any("distinct" in e for e in _errors_of(raw))
    raw["problem"]["n_filters"] = []
    assert any("empty sweep" in e for e in _errors_of(raw))
    raw["problem"]["n_filters"] = [1, 0]
    assert any("positive integers" in e for e in _errors_of(raw))


def test_mmse_source_count_must_match_width():
    raw = _base_raw()
    raw["signals"] = {"sources": 2}
    assert any("signals.sources" in e for e in _errors_of(raw))
    raw["signals"] = {"sources": 1}
    assert validate_config(raw).sources == 1


def test_drift_semantics():
    raw = _base_raw()
    raw["run"]["mode"] = "adaptive"
    raw["signals"] = {"drift": {"delta_std": 0.5,
                                "schedule": [[0, 0.0], [3, 1.0]]}}
    config = validate_config(raw)
    assert config.drift is not None
    assert config.drift.schedule == ((0.0, 0.0), (3.0, 1.0))

    batchy = copy.deepcopy(raw)
    batchy["run"]["mode"] = "batch"
    assert any("adaptive" in e for e in _errors_of(batchy))

    wrong_kind = copy.deepcopy(raw)
    wrong_kind["problem"]["kind"] = "qcqp"
    assert any("mmse" in e for e in _errors_of(wrong_kind))

    wide = copy.deepcopy(raw)
    wide["problem"]["n_filters"] = 2
    assert any("width must be 1" in e for e in _errors_of(wide))


def test_drift_schedule_validation():
    raw = _base_raw()
    raw["run"]["mode"] = "adaptive"
    raw["signals"] = {"drift": {"schedule": [[5, 0.0], [2, 1.0]]}}
    assert any("non-decreasing" in e for e in _errors_of(raw))
    raw["signals"]["drift"]["schedule"] = [[0, 0.0], [2, 1.5]]
    assert any("[0, 1]" in e for e in _errors_of(raw))
    raw["signals"]["drift"]["schedule"] = []
    assert any("non-empty" in e for e in _errors_of(raw))
    raw["signals"]["drift"] = {"schedule": [[0, 0.0]], "typo": 1}
    assert any("drift.typo" in e for e in _errors_of(raw))


def test_filter_width_wider_than_network_rejected(tmp_path):
    raw = _base_raw()
    raw["problem"]["n_filters"] = 7
    (error,) = _errors_of(raw)
    assert error.startswith("problem.n_filters") and "7" in error and "6 channels" in error
    raw["output"] = {"dir": str(tmp_path / "out")}
    cfg = tmp_path / "wide.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert dasf.cli.main(["run", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


def test_node_count_is_bounded():
    # nodes is checked before an integer channels is expanded to one entry
    # per node, since every node has a channel
    raw = _base_raw()
    for nodes in (MAX_CHANNELS + 1, 10**20):
        raw["network"]["nodes"] = nodes
        assert _errors_of(raw) == (f"network.nodes: must be at most {MAX_CHANNELS}, got {nodes}",)
    raw["network"]["nodes"] = MAX_CHANNELS
    assert _errors_of(raw) == (f"network.channels: {2 * MAX_CHANNELS} channels in all, "
                               f"above the cap of {MAX_CHANNELS}",)
    raw["network"]["channels"] = 1
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        assert validate_config(raw).total_channels == MAX_CHANNELS


def _adaptive_raw(kind, nodes, channels, iterations):
    raw = _base_raw()
    raw["problem"]["kind"] = kind
    raw["network"] = {"kind": "path", "nodes": nodes, "channels": channels}
    raw["run"].update({"iterations": iterations, "mode": "adaptive", "samples": 10_000})
    return raw


def test_adaptive_run_length_is_not_bounded_by_its_statistics():
    # an adaptive run keeps no statistics per iteration, so neither its
    # length nor a switch to adaptive mode meets a memory rule
    config = validate_config(_adaptive_raw("mmse", 2000, 4, 1000))
    assert (config.iterations, config.total_channels) == (1000, 8000)
    # 500 channels over more than `budget` iterations passed a 2 GB budget
    for kind, budget in (("mmse", 1000), ("scqp", 1000), ("tro", 500)):
        assert validate_config(_adaptive_raw(kind, 250, 2, budget + 1)).iterations == budget + 1
        raw = _adaptive_raw(kind, 250, 2, budget + 1)
        raw["run"]["mode"] = "batch"
        assert validate_config(raw).with_overrides(sample_mode="adaptive").sample_mode == "adaptive"
        config = validate_config(_adaptive_raw(kind, 250, 2, budget))
        assert config.with_overrides(iterations=budget + 1).iterations == budget + 1


def test_huge_yaml_integer_is_a_config_error(tmp_path, capsys):
    # past Python's integer-string digit limit the YAML loader raises ValueError
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(yaml.safe_dump(_base_raw()).replace("seed: 0", "seed: " + "1" * 5000))
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    (error,) = info.value.errors
    assert error.startswith("config: unreadable value: ") and "digits" in error
    assert dasf.cli.main(["run", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "details": [error]}


def test_low_sample_count_warns():
    raw = _base_raw()
    raw["problem"]["n_filters"] = 2
    raw["run"]["samples"] = 5       # below channels + width * (nodes - 1)
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        validate_config(raw)


def test_with_overrides():
    config = validate_config(_base_raw())
    changed = config.with_overrides(seed=9, runs=7, iterations=11,
                                    out_dir="elsewhere", sample_mode="adaptive")
    assert (changed.seed, changed.runs, changed.iterations) == (9, 7, 11)
    assert changed.out_dir == "elsewhere"
    assert changed.sample_mode == "adaptive"
    assert config.seed == 0 and config.runs == 2     # original untouched


@pytest.mark.parametrize("overrides, path", [
    ({"runs": 0}, "run.monte_carlo_runs: must be positive"),
    ({"runs": -2}, "run.monte_carlo_runs: must be positive"),
    ({"iterations": -1}, "run.iterations: must not be negative"),
    ({"seed": -5}, "run.seed: must not be negative"),
    ({"sample_mode": "foo"}, "run.mode: expected one of batch, adaptive"),
])
def test_overrides_pass_the_field_rules(tmp_path, capsys, overrides, path):
    config = validate_config(_base_raw())
    with pytest.raises(ConfigError) as info:
        config.with_overrides(**overrides)
    (error,) = info.value.errors
    assert error.startswith(path)
    # the CLI reports the same error as a config failure, before any run
    flags = {"runs": "--runs", "iterations": "--iters", "seed": "--seed",
             "sample_mode": "--mode"}
    raw = _base_raw()
    raw["output"] = {"dir": str(tmp_path / "out")}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    argv = [arg for key, value in overrides.items() for arg in (flags[key], str(value))]
    assert dasf.cli.main(["run", str(cfg), *argv]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "details": [error]}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key", [
    ("run", "seed"), ("problem", "term_seed"), ("network", "graph_seed")])
def test_negative_seeds_rejected(section, key):
    raw = _base_raw()
    raw[section][key] = -1
    (error,) = _errors_of(raw)
    assert error == f"{section}.{key}: must not be negative, got -1"


def _drift_raw():
    raw = _base_raw()
    raw["run"]["mode"] = "adaptive"
    raw["signals"] = {"drift": {"schedule": [[0, 0.0], [3, 1.0]]}}
    return raw


_UNSET = object()


def _raw_with(section, key, value=_UNSET):
    """A valid config (a tracking one for the drift keys) with the key set
    to value, or without the key."""
    raw = _drift_raw() if section == "signals.drift" else _base_raw()
    owner = raw["signals"]["drift"] if section == "signals.drift" else raw.setdefault(section, {})
    owner.pop(key, None)
    if value is not _UNSET:
        owner[key] = value
    return raw


_REQUIRED = object()
_KIND_ERRORS = {int: "expected an integer", float: "expected a number", str: "expected a string"}

# every key's rule, stated a second time: the field it fills, its kind, its
# default (or _REQUIRED), whether an applied default is logged, and a value
# its check rejects with the message (None: no value of its kind is)
_KEY_RULES = [
    ("problem", "kind", "problem_kind", str, _REQUIRED, False,
     "ring", "unknown kind 'ring', expected one of mmse, qcqp, tro, scqp"),
    ("problem", "n_filters", "filter_widths", None, _REQUIRED, False,
     0, "expected positive integers, got 0"),
    ("problem", "term_seed", "term_seed", int, 0, False, -1, "must not be negative, got -1"),
    ("problem", "radius_scale", "radius_scale", float, 1.5, False,
     0.99, "must be at least 1 so the response plane meets the ball"),
    ("network", "kind", "topology", str, _REQUIRED, False, "ring",
     "unknown kind 'ring', expected one of fully_connected, erdos_renyi, random_tree, path"),
    ("network", "nodes", "nodes", int, _REQUIRED, False, 0, "must be positive, got 0"),
    ("network", "channels", "channels", None, _REQUIRED, False,
     [2, 0, 2], "expected positive integers, got 0"),
    ("network", "total_channels", None, int, None, False, None, None),
    ("network", "edge_prob", "edge_prob", float, None, False, 0.0, "must be in (0, 1], got 0.0"),
    ("network", "graph_seed", "graph_seed", int, None, False, -1, "must not be negative, got -1"),
    ("signals", "sources", "sources", int, None, False, 0, "must be positive, got 0"),
    ("signals", "interferers", "interferers", int, None, False, 0, "must be positive, got 0"),
    ("signals", "source_var", "source_var", float, 0.5, True, 0.0, "must be positive, got 0.0"),
    ("signals", "noise_var", "noise_var", float, 0.1, True, 0.0, "must be positive, got 0.0"),
    ("signals", "mix_scale", "mix_scale", float, 0.5, True, -0.5, "must be positive, got -0.5"),
    ("signals.drift", "delta_std", "delta_std", float, 0.5, False,
     0.0, "must be positive, got 0.0"),
    ("signals.drift", "schedule", "schedule", None, _REQUIRED, False,
     [], "required, a non-empty list of [iteration, weight] pairs"),
    ("run", "monte_carlo_runs", "runs", int, 100, True, 0, "must be positive, got 0"),
    ("run", "iterations", "iterations", int, _REQUIRED, False, -1, "must not be negative, got -1"),
    ("run", "samples", "samples", int, 10_000, True, 0, "must be positive, got 0"),
    ("run", "mode", "sample_mode", str, "batch", True,
     "online", "expected one of batch, adaptive, got 'online'"),
    ("run", "seed", "seed", int, 0, True, -1, "must not be negative, got -1"),
    ("run", "workers", "workers", int, 1, False, 0, "must be positive, got 0"),
    ("output", "dir", "out_dir", str, "results", True, None, None),
]


@pytest.mark.parametrize("section, key, field, kind, default, logged, rejected, message",
                         _KEY_RULES, ids=[f"{s}.{k}" for s, k, *_ in _KEY_RULES])
def test_each_key_keeps_its_rule(section, key, field, kind, default, logged, rejected, message):
    path = f"{section}.{key}"
    if default is _REQUIRED:
        assert _errors_of(_raw_with(section, key)) == (f"{path}: required, no default",)
    else:
        config = validate_config(_raw_with(section, key))
        if field is not None:
            owner = config.drift if section == "signals.drift" else config
            assert getattr(owner, field) == default
        assert (f"{path} = {default!r}" in config.applied_defaults) == logged
    if kind is not None:
        assert _errors_of(_raw_with(section, key, True)) == (
            f"{path}: {_KIND_ERRORS[kind]}, got True",)
    if rejected is not None:
        assert _errors_of(_raw_with(section, key, rejected)) == (f"{path}: {message}",)


def test_sections_with_a_required_key_are_required():
    for section in ("problem", "network", "run"):
        raw = _base_raw()
        del raw[section]
        assert _errors_of(raw)[0] == f"{section}: required section"
    raw = _base_raw()
    raw.pop("signals", None)
    raw.pop("output", None)
    assert validate_config(raw).out_dir == "results"


@pytest.mark.parametrize("section, key", [
    ("problem", "radius_scale"), ("network", "edge_prob"), ("signals", "source_var"),
    ("signals", "noise_var"), ("signals", "mix_scale"), ("signals.drift", "delta_std")])
def test_non_finite_numbers_rejected(section, key):
    # YAML's .inf and .nan load as floats; an integer past the float range
    # has no finite float either
    for text, shown in ((".inf", "inf"), ("-.inf", "-inf"), (".nan", "nan"),
                        ("1" + "0" * 400, "1" + "0" * 400)):
        (error,) = _errors_of(_raw_with(section, key, yaml.safe_load(text)))
        assert error == f"{section}.{key}: expected a finite number, got {shown}"


@pytest.mark.parametrize("entry", [[float("inf"), 1.0], [0, float("nan")], [10**400, 0.5]])
def test_drift_schedule_rejects_non_finite_entries(entry):
    raw = _drift_raw()
    raw["signals"]["drift"]["schedule"].append(entry)
    (error,) = _errors_of(raw)
    assert error == f"signals.drift.schedule: entries must be finite numbers, got {entry!r}"


_RULES = experiments._RULES
_DRIFT_RULES = _RULES["signals"]["drift"].nested
_KEYS = sorted({key for rules in _RULES.values() for key in rules} | set(_DRIFT_RULES))

# YAML-like values: scalars (small and huge integers, every float including
# inf and nan, the table's kind names among the strings), and lists and
# mappings of them
_YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.integers(-10**30, 10**30)
    | st.floats() | st.text(max_size=5)
    | st.sampled_from(experiments.PROBLEM_KINDS + experiments.TOPOLOGY_KINDS
                      + experiments.SAMPLE_MODES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10)

# every path of the table a drawn value may take: whole sections, their
# keys, the drift keys, and unknown ones
_PATHS = ([("schema_version",), ("extra",), *((name,) for name in _RULES)]
          + [(name, key) for name, rules in _RULES.items() for key in [*rules, "typo"]]
          + [("signals", "drift", key) for key in [*_DRIFT_RULES, "typo"]])


def _valid_raws():
    sweep = _base_raw()
    sweep["problem"] = {"kind": "tro", "n_filters": [1, 2], "term_seed": 3}
    sweep["network"] = {"kind": "erdos_renyi", "nodes": 4, "channels": [1, 2, 1, 2],
                        "total_channels": 6, "edge_prob": 0.5, "graph_seed": 1}
    sweep["signals"] = {"sources": 2, "interferers": 3, "noise_var": 0.2}
    sweep["output"] = {"dir": "elsewhere"}
    return [_base_raw(), _drift_raw(), sweep]


@settings(max_examples=100, deadline=None)
@given(base=st.sampled_from(range(3)),
       edits=st.lists(st.tuples(st.sampled_from(_PATHS), st.just(_UNSET) | _YAML_VALUES),
                      max_size=3))
def test_validator_raises_only_config_errors(base, edits):
    # a valid config with up to three paths set to drawn values or removed
    raw = _valid_raws()[base]
    for path, value in edits:
        *parents, last = path
        owner = raw
        for key in parents:
            if not isinstance(owner.get(key), dict):
                owner[key] = {}
            owner = owner[key]
        if value is _UNSET:
            owner.pop(last, None)
        else:
            owner[last] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            config = validate_config(raw)
        except ConfigError as exc:
            assert exc.errors and all(isinstance(e, str) for e in exc.errors)
            return
    assert isinstance(config, ExperimentConfig)


def test_readme_full_config_is_valid_and_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("A full config:\n\n```yaml\n", 1)[1].split("```", 1)[0]
    config = validate_config(yaml.safe_load(block))
    assert config.applied_defaults == ()     # every logged default is spelled out
    # the commented drift keys, uncommented
    full = yaml.safe_load(re.sub(r"^( *)# ( *\w+:)", r"\1\2", block, flags=re.M))
    drift = full["signals"]["drift"]
    assert set(full) == {"schema_version", *_RULES}
    documented = {(name, key) for name in _RULES for key in full[name]}
    documented |= {("signals.drift", key) for key in drift}
    assert documented == ({(name, key) for name, rules in _RULES.items() for key in rules}
                          | {("signals.drift", key) for key in _DRIFT_RULES})


def test_override_recheck_catches_new_conflicts():
    raw = _base_raw()
    raw["run"]["mode"] = "adaptive"
    raw["signals"] = {"drift": {"schedule": [[0, 0.0], [3, 1.0]]}}
    config = validate_config(raw)
    with pytest.raises(ConfigError):
        config.with_overrides(sample_mode="batch")


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="top level"):
        load_config(listy)


# ---------------------------------------------------------------------------
# deterministic problem construction


def test_problem_terms_deterministic_in_term_seed():
    raw = _base_raw()
    raw["problem"] = {"kind": "qcqp", "n_filters": 2, "term_seed": 5}
    config = validate_config(raw)
    p1 = _build_problem(config)
    p2 = _build_problem(config)
    assert np.array_equal(p1.linear_term, p2.linear_term)
    assert np.array_equal(p1.gain_vector, p2.gain_vector)
    assert p1.radius == p2.radius
    assert p1.radius == pytest.approx(
        1.5 * np.linalg.norm(p1.target_response) / np.linalg.norm(p1.gain_vector))

    raw["problem"]["term_seed"] = 6
    p3 = _build_problem(validate_config(raw))
    assert not np.array_equal(p1.linear_term, p3.linear_term)


def _validate_wide_qcqp():
    # M = 2000 channels and a sweep up to Q = 1000: a 16 MB linear term
    raw = {"schema_version": 1,
           "problem": {"kind": "qcqp", "n_filters": [1, 3, 1000], "term_seed": 4},
           "network": {"kind": "path", "nodes": 1000, "channels": 2},
           "run": {"iterations": 15, "samples": 5000}}
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        return validate_config(raw)


def test_validation_skips_the_linear_term_to_the_runs_radius():
    config = _validate_wide_qcqp()
    for width in config.expand_filter_sweep():
        skipped, built = _build_problem(width, linear_term=False), _build_problem(width)
        assert skipped.radius == built.radius
        assert np.array_equal(skipped.gain_vector, built.gain_vector)
        assert np.array_equal(skipped.target_response, built.target_response)
        assert skipped.linear_term.shape == built.linear_term.shape
        assert skipped.linear_term.strides == (0, 0)


def test_qcqp_validation_does_not_build_the_linear_term():
    tracemalloc.start()
    try:
        _validate_wide_qcqp()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_tracking_reference_constant_schedule():
    # weight pinned at zero: the window-averaged statistics are the p0 model
    p0 = np.array([0.4, -0.2, 0.7])
    spec = DriftSpec(p0=p0, delta=np.array([1.0, 1.0, 1.0]),
                     schedule=LambdaSchedule((0.0,), (0.0,)))
    model = SignalModel(channels=(3,), source_var=2.0, noise_var=0.3, drift=spec)
    ref = tracking_reference(model, 0, 500)
    cov = 2.0 * np.outer(p0, p0) + 0.3 * np.eye(3)
    expected = np.linalg.solve(cov, 2.0 * p0[:, None])
    assert np.allclose(ref, expected, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    t0=st.integers(min_value=0, max_value=900),
    n_samples=st.integers(min_value=1, max_value=400),
)
def test_tracking_reference_closed_form_equals_sample_average(seed, t0, n_samples):
    # knots at 100, 400 and 700: windows start before, between and past them
    rng = np.random.default_rng(seed)
    spec = DriftSpec(p0=rng.standard_normal(5), delta=rng.standard_normal(5),
                     schedule=LambdaSchedule((100.0, 400.0, 700.0), (0.0, 1.0, 0.3)))
    model = SignalModel(channels=(2, 3), source_var=0.7, noise_var=0.2, drift=spec)
    lam = spec.schedule(np.arange(t0, t0 + n_samples))
    p = spec.p0[:, None] + lam[None, :] * spec.delta[:, None]
    cov = 0.7 * (p @ p.T) / n_samples + 0.2 * np.eye(5)
    expected = np.linalg.solve(cov, 0.7 * p.mean(axis=1)[:, None])
    ref = tracking_reference(model, t0, n_samples)
    assert np.linalg.norm(ref - expected) <= 1e-12 * np.linalg.norm(expected)


def _reference_by_interp(model, t0, n_samples):
    """The reference as first written: lambda at every sample time, and the
    full M x M covariance solved."""
    lam = model.drift.schedule(np.arange(t0, t0 + n_samples))
    lam1, lam2 = lam.mean(), np.mean(lam * lam)
    p0, delta = model.drift.p0, model.drift.delta
    mixed = np.outer(p0, delta)
    ppt = np.outer(p0, p0) + lam1 * (mixed + mixed.T) + lam2 * np.outer(delta, delta)
    cov = model.source_var * ppt + model.noise_var * np.eye(p0.shape[0])
    cross = model.source_var * (p0 + lam1 * delta)[:, None]
    return sla.solve(cov, cross, assume_a="pos")


# a ramp between non-integer knots, a step (a repeated knot), a hold
_KNOTS = LambdaSchedule((100.5, 400.0, 650.0, 650.0, 700.25), (0.0, 1.0, 0.8, 0.1, 0.3))


_KNOT_WINDOWS = [
    (0, 50), (0, 1000), (90, 20), (100, 1), (101, 300), (350, 300), (399, 2),
    (640, 20), (650, 1), (649, 1), (690, 400), (800, 100), (0, 651)]


@pytest.mark.parametrize("t0, n_samples", _KNOT_WINDOWS)
def test_tracking_reference_matches_interpolated_form(t0, n_samples):
    rng = np.random.default_rng(t0 + n_samples)
    spec = DriftSpec(p0=rng.uniform(-0.5, 0.5, 30), delta=rng.normal(0.0, 0.5, 30),
                     schedule=_KNOTS)
    model = SignalModel(channels=(10, 20), source_var=0.5, noise_var=0.1, drift=spec)
    lam = _KNOTS(np.arange(t0, t0 + n_samples))
    assert np.allclose(_KNOTS.window_means(t0, n_samples), (lam.mean(), np.mean(lam * lam)),
                       rtol=1e-14, atol=1e-16)
    expected = _reference_by_interp(model, t0, n_samples)
    ref = tracking_reference(model, t0, n_samples)
    assert np.linalg.norm(ref - expected) <= 1e-12 * np.linalg.norm(expected)


def test_tracking_references_in_one_call_match_each_window():
    rng = np.random.default_rng(12)
    spec = DriftSpec(p0=rng.uniform(-0.5, 0.5, 30), delta=rng.normal(0.0, 0.5, 30),
                     schedule=_KNOTS)
    model = SignalModel(channels=(10, 20), source_var=0.5, noise_var=0.1, drift=spec)
    t0, n = np.array(_KNOT_WINDOWS).T
    stacked = tracking_reference(model, t0, n)
    assert stacked.shape == (len(_KNOT_WINDOWS), 30, 1)
    for ref, (t, k) in zip(stacked, _KNOT_WINDOWS):
        one = tracking_reference(model, t, k)
        assert one.shape == (30, 1)
        assert np.linalg.norm(ref - one) <= 1e-12 * np.linalg.norm(one)
    # consecutive windows of one length, as a tracking run asks for them
    run = tracking_reference(model, 40 * np.arange(25), 40)
    for i, ref in enumerate(run):
        one = tracking_reference(model, 40 * i, 40)
        assert np.linalg.norm(ref - one) <= 1e-12 * np.linalg.norm(one)


def test_tracking_reference_without_noise_raises():
    spec = DriftSpec(p0=np.ones(4), delta=np.arange(4.0), schedule=_KNOTS)
    model = SignalModel(channels=(4,), source_var=1.0, noise_var=0.0, drift=spec)
    with pytest.raises(np.linalg.LinAlgError, match="noise_var is 0"):
        tracking_reference(model, 0, 200)


# ---------------------------------------------------------------------------
# study execution and outputs


def _study_raw(tmp_path, **run_over):
    raw = _base_raw()
    raw["run"].update({"monte_carlo_runs": 2, "iterations": 3, "samples": 300})
    raw["run"].update(run_over)
    raw["output"] = {"dir": str(tmp_path / "out")}
    return raw


def test_zero_iteration_study_reports_initial_error(tmp_path):
    raw = _study_raw(tmp_path, monte_carlo_runs=1, iterations=0)
    config = validate_config(raw)
    study = run_study(config)
    assert isinstance(study, StudyResult)
    assert study.epsilon.shape == (1, 1)
    assert study.epsilon[0, 0] > 0
    agg = (tmp_path / "out" / "aggregate.csv").read_text().strip().split("\n")
    assert agg[0] == "iter,epsilon_median,epsilon_mean,epsilon_sem"
    assert len(agg) == 2
    row = agg[1].split(",")
    assert row[0] == "0"
    assert float(row[1]) == pytest.approx(study.epsilon[0, 0])
    run_csv = (tmp_path / "out" / "run_0.csv").read_text().strip().split("\n")
    assert len(run_csv) == 1      # header only: no iterations were performed


def test_study_outputs_complete_and_reproducible(tmp_path):
    config_a = validate_config(_study_raw(tmp_path / "a"))
    config_b = validate_config(_study_raw(tmp_path / "b"))
    study_a = run_study(config_a)
    study_b = run_study(config_b)
    assert np.array_equal(study_a.epsilon, study_b.epsilon)
    out_a, out_b = tmp_path / "a" / "out", tmp_path / "b" / "out"
    for name in ("aggregate.csv", "epsilon.gp", "run_0.csv", "run_1.csv", "study.meta"):
        assert (out_a / name).exists(), name
    assert not (out_a / "epsilon.dat").exists()
    gp = (out_a / "epsilon.gp").read_text()
    assert "'aggregate.csv' skip 1" in gp and "set datafile separator ','" in gp
    assert (out_a / "aggregate.csv").read_bytes() == (out_b / "aggregate.csv").read_bytes()
    assert (out_a / "run_1.csv").read_bytes() == (out_b / "run_1.csv").read_bytes()
    # columns: initial point plus one per update
    assert study_a.epsilon.shape == (2, 4)
    assert np.all(np.isfinite(study_a.epsilon))
    meta = (out_a / "study.meta").read_text()
    assert "resolved_config" in meta and "completed_runs: 2" in meta


def test_seed_override_changes_trajectories(tmp_path):
    config = validate_config(_study_raw(tmp_path))
    study_a = run_study(config, write=False)
    study_b = run_study(config.with_overrides(seed=123), write=False)
    assert not np.array_equal(study_a.epsilon, study_b.epsilon)
    study_c = run_study(config.with_overrides(runs=3), write=False)
    assert study_c.epsilon.shape[0] == 3
    # same master seed: shared run indices produced identical trajectories
    assert np.allclose(study_c.epsilon[:2], study_a.epsilon)


def test_sweep_writes_per_width_subdirs(tmp_path):
    raw = _study_raw(tmp_path, monte_carlo_runs=1, iterations=2)
    raw["problem"]["kind"] = "scqp"
    raw["problem"]["n_filters"] = [1, 2]
    studies = run_study(validate_config(raw))
    assert isinstance(studies, list) and len(studies) == 2
    assert [s.n_filters for s in studies] == [1, 2]
    assert (tmp_path / "out" / "q1" / "aggregate.csv").exists()
    assert (tmp_path / "out" / "q2" / "aggregate.csv").exists()
    assert not (tmp_path / "out" / "aggregate.csv").exists()


def test_workers_do_not_change_results(tmp_path):
    serial = validate_config(_study_raw(tmp_path / "serial"))
    parallel = validate_config(_study_raw(tmp_path / "parallel", workers=2))
    study_s = run_study(serial, write=False)
    study_p = run_study(parallel, write=False)
    assert np.array_equal(study_s.epsilon, study_p.epsilon)


@pytest.mark.parametrize("workers, runs, pool_sizes", [(64, 2, [2]), (2, 3, [2]), (4, 1, [])])
def test_pool_is_sized_to_the_runs(tmp_path, monkeypatch, workers, runs, pool_sizes):
    # the pool forks every worker at its first submit; a stand-in records
    # its size and maps in-process, so no process starts
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # the study imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    pooled = run_study(validate_config(
        _study_raw(tmp_path, monte_carlo_runs=runs, workers=workers)), write=False)
    assert sizes == pool_sizes
    serial = run_study(validate_config(
        _study_raw(tmp_path, monte_carlo_runs=runs, workers=1)), write=False)
    assert np.array_equal(pooled.epsilon, serial.epsilon)
    assert pooled.run_indices == serial.run_indices == tuple(range(runs))


def test_adaptive_mode_uses_fresh_batches(tmp_path):
    raw = _study_raw(tmp_path, monte_carlo_runs=1, iterations=4, mode="adaptive")
    study = run_study(validate_config(raw), write=False)
    # estimation noise floors the error: it must stay strictly positive
    assert study.epsilon.shape == (1, 5)
    assert np.all(study.epsilon > 0)


def test_tracking_study_and_outputs(tmp_path):
    raw = _study_raw(tmp_path, monte_carlo_runs=2, iterations=3, mode="adaptive")
    raw["signals"] = {"drift": {"delta_std": 0.4,
                                "schedule": [[0, 0.0], [3, 1.0]]}}
    config = validate_config(raw)
    study = run_study(config)
    assert study.config.drift is not None
    assert study.epsilon.shape == (2, 4)
    out = tmp_path / "out"
    agg = (out / "aggregate.csv").read_text().strip().split("\n")
    assert agg[0] == "iter,epsilon_median,epsilon_mean,epsilon_sem,lambda"
    values = [float(line.split(",")[4]) for line in agg[1:]]
    assert values == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])
    assert not (out / "lambda.dat").exists()
    assert "lambda" in (out / "epsilon.gp").read_text()


@pytest.mark.parametrize("entries, size", [(2 * (36 + 6 + 1 + 300), 2), (10**6, 10), (1, 1),
                                           (3 * (36 + 6 + 1 + 300), 3)])
def test_tracking_run_draws_its_windows_in_blocks(tmp_path, monkeypatch, entries, size):
    # blocks of max(1, DRAW_BLOCK_ENTRIES // (M^2 + M + 1 + N)) consecutive
    # windows (M = 6, N = 300), each drawn in one call when its first window
    # is requested; a block is dropped once the next block's windows are in
    # use, and the last block holds what is left (one window at size 3)
    monkeypatch.setattr(signals, "DRAW_BLOCK_ENTRIES", entries)
    events, blocks = [], []
    real_draw, real_run = signals.sample_drift_statistics, experiments.dasf_run

    def draw(model, starts, n, rng):
        # every block before the previous one is gone
        assert all(ref() is None for ref in blocks[:-1])
        events.append(("draw", (np.asarray(starts) // n).tolist()))
        batches = real_draw(model, starts, n, rng)
        blocks.append(weakref.ref(batches[0].cov_y.base))
        return batches

    def run(problem, graph, batch, *args, **kwargs):
        def logged(i):
            got = batch(i)
            events.append(("get", i))
            return got
        return real_run(problem, graph, logged, *args, **kwargs)

    monkeypatch.setattr(signals, "sample_drift_statistics", draw)
    monkeypatch.setattr(experiments, "dasf_run", run)
    raw = _study_raw(tmp_path, monte_carlo_runs=1, iterations=10, mode="adaptive")
    raw["signals"] = {"drift": {"schedule": [[0, 0.0], [4, 0.0], [8, 1.0]]}}
    study = run_study(validate_config(raw), write=False)
    assert study.run_count == 1 and np.isfinite(study.epsilon).all()
    expected = []
    for first in range(0, 10, size):
        windows = list(range(first, min(first + size, 10)))
        expected += [("draw", windows)] + [("get", i) for i in windows]
    assert events == expected


def test_tracking_plot_columns_match_the_aggregate_header(tmp_path):
    # every curve of epsilon.gp reads a column aggregate.csv has, under the
    # name its title promises; lambda (column 5) goes on the second y axis
    raw = _study_raw(tmp_path, monte_carlo_runs=1, iterations=2, mode="adaptive")
    raw["signals"] = {"drift": {"schedule": [[0, 0.0], [2, 1.0]]}}
    run_study(validate_config(raw))
    out = tmp_path / "out"
    header = (out / "aggregate.csv").read_text().split("\n")[0].split(",")
    gp = (out / "epsilon.gp").read_text()
    assert "set datafile separator ','" in gp
    curves = re.findall(r"'([^']*)' skip 1 using (\d+):(\d+)( axes x1y2)? with lines "
                        r"title '([^']*)'", gp)
    assert len(curves) == gp.count(" using ") == 3
    plotted = {}
    for name, x, y, axes, title in curves:
        assert name == "aggregate.csv" and header[int(x) - 1] == "iter"
        plotted[title] = (header[int(y) - 1], bool(axes))
    assert plotted == {"median": ("epsilon_median", False),
                       "mean": ("epsilon_mean", False),
                       "lambda": ("lambda", True)}
    assert header.index("lambda") + 1 == 5


def test_tight_qcqp_ball_completes_every_run(tmp_path):
    # radius_scale 1: the ball only touches the response plane
    raw = _study_raw(tmp_path, monte_carlo_runs=3, iterations=6)
    raw["problem"] = {"kind": "qcqp", "n_filters": 2, "radius_scale": 1.0}
    raw["network"] = {"kind": "fully_connected", "nodes": 5, "channels": 2}
    study = run_study(validate_config(raw), write=False)
    assert study.run_count == 3 and not study.failed
    for result in study.run_results:
        assert result.residual_trace().max() <= FEASIBILITY_RTOL


def test_unexpected_run_error_is_recorded(tmp_path, monkeypatch):
    real = experiments._single_run

    def flaky(config, variant, run_index, seed_seq):
        if run_index == 1:
            raise KeyError("lost")
        return real(config, variant, run_index, seed_seq)

    monkeypatch.setattr(experiments, "_single_run", flaky)
    study = run_study(validate_config(_study_raw(tmp_path, monte_carlo_runs=3, workers=1)))
    assert study.run_indices == (0, 2)
    assert study.failed == ((1, "KeyError: 'lost'"),)
    meta = yaml.safe_load((tmp_path / "out" / "study.meta").read_text())
    assert meta["failed_runs"] == [[1, "KeyError: 'lost'"]]
    assert meta["failure_counts"] == {"KeyError": 1}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
        "blas": {"name": blas["name"], "version": blas["version"]},
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "blas_threads": _loaded_openblas_threads()}
    assert meta["completed_runs"] == 2
    # one wall time per completed run, none for the failed one
    assert len(meta["run_wall_s"]) == 2 and meta["run_wall_s"] == list(study.run_wall_s)
    assert all(isinstance(w, float) and w >= 0.0 for w in meta["run_wall_s"])


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loaded_openblas_threads():
    """What the benchmark's machine facts read of each loaded OpenBLAS, as
    ``study.meta`` records it: threads by library file name, or None."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_machine", Path(__file__).resolve().parents[1] / "perfbench" / "machine.py")
    machine = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(machine)
    return {entry["library"]: entry["threads"] for entry in machine.blas_runtime()} or None


def test_meta_records_each_loaded_blas_thread_count(tmp_path, monkeypatch):
    # read through each OpenBLAS's own getter, as the benchmark reads it, and
    # never set: the environment and the libraries' counts stay as found
    before, threads = dict(os.environ), _loaded_openblas_threads()
    run_study(validate_config(_study_raw(tmp_path / "a", monte_carlo_runs=1)))
    env = yaml.safe_load((tmp_path / "a" / "out" / "study.meta").read_text())["environment"]
    assert env["blas_threads"] == threads == _loaded_openblas_threads()
    assert dict(os.environ) == before
    if threads is not None:
        assert all("openblas" in name and isinstance(n, int) and n >= 1
                   for name, n in threads.items())
    # no OpenBLAS in the process map, or no process map: null
    (tmp_path / "maps").write_text("7f00-7f01 r-xp 00000000 08:01 1 /usr/lib/libm.so.6\n"
                                   "7f02-7f03 rw-p 00000000 00:00 0\n")
    for maps, out in ((tmp_path / "maps", "b"), (tmp_path / "missing", "c")):
        monkeypatch.setattr(experiments, "_PROC_MAPS", maps)
        run_study(validate_config(_study_raw(tmp_path / out, monte_carlo_runs=1)))
        meta = yaml.safe_load((tmp_path / out / "out" / "study.meta").read_text())
        assert meta["environment"]["blas_threads"] is None


def test_meta_records_the_blas_and_its_thread_variables_as_found(tmp_path, monkeypatch):
    # the thread variables are read as found, unset ones as null, and never set
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    run_study(validate_config(_study_raw(tmp_path / "a", monte_carlo_runs=1)))
    assert dict(os.environ) == before
    env = yaml.safe_load((tmp_path / "a" / "out" / "study.meta").read_text())["environment"]
    assert env["thread_env"] == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3",
                                 "MKL_NUM_THREADS": None}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert isinstance(env["blas"]["name"], str) and env["blas"]["name"]

    # a NumPy that reports no BLAS (or no build configuration) records null
    def no_blas(mode):
        return {"Build Dependencies": {}}

    def no_modes():     # NumPy before 1.26 takes no ``mode``
        return None

    for fake, out in ((no_blas, "b"), (no_modes, "c")):
        monkeypatch.setattr(np, "show_config", fake)
        run_study(validate_config(_study_raw(tmp_path / out, monte_carlo_runs=1)))
        meta = yaml.safe_load((tmp_path / out / "out" / "study.meta").read_text())
        assert meta["environment"]["blas"] is None


_AWKWARD_MESSAGES = (
    'it\'s "quoted": a colon',
    "two\nlines: the second\tindented",
    "non-ASCII: résumé, 日本, \U0001F600",
    "long and escaped: " + "é: 'x' \"y\" " * 12,
)


@pytest.mark.parametrize("tracking", [False, True])
def test_study_outputs_equal_the_csv_module_and_safe_dumper_forms(tmp_path, monkeypatch,
                                                                    tracking):
    # each output file is held to the form it was first written in: run CSVs
    # from csv.writer, aggregate.csv from per-value repr joins, study.meta
    # from yaml.safe_dump, also with failed-run messages that need quoting,
    # escapes and folding, and its config echo to the mapping first written
    real = experiments._single_run

    def flaky(config, variant, run_index, seed_seq):
        if run_index >= 2:
            raise RuntimeError(_AWKWARD_MESSAGES[run_index - 2])
        return real(config, variant, run_index, seed_seq)

    monkeypatch.setattr(experiments, "_single_run", flaky)
    raw = _study_raw(tmp_path, monte_carlo_runs=2 + len(_AWKWARD_MESSAGES), iterations=4,
                     workers=1)
    if tracking:
        raw["run"]["mode"] = "adaptive"
        raw["signals"] = {"drift": {"delta_std": 0.4, "schedule": [[0, 0.0], [3, 1.0]]}}
    study = run_study(validate_config(raw))
    out = tmp_path / "out"
    for idx, result in zip(study.run_indices, study.run_results):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(dasf.engine.CSV_HEADER.split(","))
        for r in result.records:
            writer.writerow([r.run, r.iteration, r.node, repr(r.objective), repr(r.epsilon),
                             repr(r.max_residual), r.tx_samples, r.solver_iters, r.local_dim])
        assert (out / f"run_{idx}.csv").read_bytes() == buf.getvalue().encode()
    columns = [study.epsilon_median, study.epsilon_mean, study.epsilon_sem]
    header = "iter,epsilon_median,epsilon_mean,epsilon_sem"
    if tracking:
        times, weights = zip(*study.config.drift.schedule)
        columns.append(np.interp(np.arange(study.epsilon.shape[1]), times, weights))
        header += ",lambda"
    lines = [header] + [",".join([str(j), *(repr(float(c[j])) for c in columns)])
                        for j in range(study.epsilon.shape[1])]
    assert (out / "aggregate.csv").read_text() == "\n".join(lines) + "\n"
    text = (out / "study.meta").read_text()
    meta = yaml.safe_load(text)
    assert [msg for _, msg in meta["failed_runs"]] == [
        f"RuntimeError: {msg}" for msg in _AWKWARD_MESSAGES]
    assert meta["resolved_config"] == oracles.frozen_resolved_dict(study.config)
    assert text == yaml.safe_dump(meta, sort_keys=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_meta_lists_one_wall_time_per_completed_run(tmp_path, workers):
    run_study(validate_config(_study_raw(tmp_path, monte_carlo_runs=3, workers=workers)))
    meta = yaml.safe_load((tmp_path / "out" / "study.meta").read_text())
    walls = meta["run_wall_s"]
    assert meta["completed_runs"] == 3 and len(walls) == 3
    assert all(isinstance(w, float) and w >= 0.0 for w in walls)


def test_meta_lists_each_completed_runs_transport_totals(tmp_path, monkeypatch):
    # the log's running totals, one per completed run in run_indices order;
    # no record is expanded to write them
    real = experiments._single_run

    def flaky(config, variant, run_index, seed_seq):
        if run_index == 1:
            raise KeyError("lost")
        return real(config, variant, run_index, seed_seq)

    def refuse(*args, **kwargs):
        raise AssertionError("the log was expanded")

    monkeypatch.setattr(experiments, "_single_run", flaky)
    raw = _study_raw(tmp_path, monte_carlo_runs=3, workers=1)
    raw["network"] = {"kind": "path", "nodes": 4, "channels": [3, 1, 1, 2]}
    raw["problem"]["n_filters"] = 2
    raw["signals"] = {"sources": 2}
    study = run_study(validate_config(raw), write=False)
    monkeypatch.setattr(dasf.engine.TransportLog, "sent", refuse)
    experiments.write_study_outputs(study, tmp_path / "out")
    meta = yaml.safe_load((tmp_path / "out" / "study.meta").read_text())
    assert study.run_indices == (0, 2)
    logs = [result.transport for result in study.run_results]
    assert meta["tx_scalars"] == [sum(r.tx_samples for r in result.records)
                                  for result in study.run_results]
    assert meta["tx_scalars"] == [log.scalars() for log in logs]
    assert meta["tx_records"] == [len(log) for log in logs]
    monkeypatch.undo()
    assert meta["tx_records"] == [len(log.records) for log in logs]
    assert all(n > 0 for n in meta["tx_scalars"] + meta["tx_records"])


def test_study_whose_runs_all_fail_raises_typed_error(tmp_path, monkeypatch):
    def failing(config, variant, run_index, seed_seq):
        if run_index == 1:
            raise KeyError("lost")
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(experiments, "_single_run", failing)
    with pytest.raises(experiments.StudyFailedError) as info:
        run_study(validate_config(_study_raw(tmp_path, monte_carlo_runs=3)))
    assert isinstance(info.value, RuntimeError)
    assert str(info.value) == ("every Monte-Carlo run failed (2 LinAlgError, 1 KeyError); "
                               "first error: LinAlgError: singular")
    assert "StudyFailedError" in experiments.__all__
    assert "StudyFailedError" not in dasf.__all__
    assert not (tmp_path / "out").exists()


def test_engine_variant_follows_topology(tmp_path, monkeypatch):
    # an Erdos-Renyi draw at edge_prob 1 is complete, but the study still
    # prunes, and records the variant it ran
    modes = []
    real = experiments.dasf_run

    def spy(*args, mode, **kwargs):
        modes.append(mode)
        return real(*args, mode=mode, **kwargs)

    monkeypatch.setattr(experiments, "dasf_run", spy)
    raw = _study_raw(tmp_path)
    raw["network"] = {"kind": "erdos_renyi", "nodes": 3, "channels": 2, "edge_prob": 1.0}
    study = run_study(validate_config(raw), write=False)
    assert study.engine_variant == "ti" and modes == ["ti", "ti"]


def test_run_tracking_rejects_non_drift_config(tmp_path):
    config = validate_config(_study_raw(tmp_path))
    with pytest.raises(ConfigError) as info:
        run_tracking(config, write=False)
    assert any("drift" in e for e in info.value.errors)


def test_topology_ordering_fully_connected_beats_tree(tmp_path):
    base = {
        "schema_version": 1,
        "problem": {"kind": "qcqp", "n_filters": 2, "term_seed": 2},
        "network": {"kind": "fully_connected", "nodes": 5, "channels": 2},
        "run": {"monte_carlo_runs": 4, "iterations": 8, "samples": 800, "seed": 7},
        "output": {"dir": str(tmp_path)},
    }
    fc = validate_config(base)
    tree_raw = copy.deepcopy(base)
    tree_raw["network"]["kind"] = "random_tree"
    tree = validate_config(tree_raw)
    study_fc = run_study(fc, write=False)
    study_tree = run_study(tree, write=False)
    assert study_fc.engine_variant == "fc"
    assert study_tree.engine_variant == "ti"
    med_fc = np.median(study_fc.epsilon[:, -1])
    med_tree = np.median(study_tree.epsilon[:, -1])
    assert med_fc <= med_tree
