"""Identity report: one SHA-256 digest per run of a fixed suite of runs.

    python3 tests/identity.py [SRC]

imports ``dasf`` from SRC (default: the ``src/`` beside this directory) and
prints one line per run: the case, the run index and a SHA-256 over the
bytes of the run's ``x_history``, the repr of its records and the repr of
its transport records; a run that failed prints its error instead. The
script uses only the public API, so it runs unchanged against the source of
another commit, and two commits' reports compare line by line:

    git worktree add ../parent HEAD~1
    python3 tests/identity.py ../parent/src > parent.txt
    python3 tests/identity.py > head.txt
    diff parent.txt head.txt

The suite: each family in batch mode on an Erdos-Renyi graph and on a
random tree, each family in stationary adaptive mode, two tracking studies
in the shape of the benchmark's ``tracking_adaptive``, the study of
acceptance criterion 10, one 2000-iteration run in the shape of the
benchmark's ``long_tree_smallN``, and five MMSE studies that take every
branch of the conditioning screen: N < M samples, and a noise so small that
the Cholesky factor fails and the eigenvalues decide, in batch, stationary
adaptive and tracking runs. It takes a few seconds.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parents[1] / "src"))
import dasf  # noqa: E402

FAMILIES = ("mmse", "qcqp", "tro", "scqp")


def digest(result) -> str:
    h = hashlib.sha256()
    for x in result.x_history:
        h.update(np.ascontiguousarray(x).tobytes())
    h.update(repr(result.records).encode())
    h.update(repr(result.transport.records).encode())
    return h.hexdigest()


def study_lines(case: str, study) -> list[str]:
    lines = [f"{case} run {i} {digest(r)}" for i, r in zip(study.run_indices, study.run_results)]
    lines += [f"{case} run {i} failed: {msg}" for i, msg in study.failed]
    return sorted(lines, key=lambda line: int(line.split()[2]))


def family_config(kind: str, network: dict, mode: str) -> dasf.ExperimentConfig:
    return dasf.validate_config({
        "schema_version": 1,
        "problem": {"kind": kind, "n_filters": 2},
        "network": {**network, "nodes": 7, "channels": 2},
        "signals": {"sources": 2},
        "run": {"monte_carlo_runs": 3, "iterations": 25, "samples": 300, "mode": mode,
                "seed": 3, "workers": 1},
    })


def tracking_config(seed: int, runs: int, network: dict, drift: dict,
                    noise: dict) -> dasf.ExperimentConfig:
    return dasf.validate_config({
        "schema_version": 1,
        "problem": {"kind": "mmse", "n_filters": 1},
        "network": {"kind": "erdos_renyi", **network},
        "signals": {**noise, "drift": drift},
        "run": {"monte_carlo_runs": runs, "iterations": 150, "samples": 2000,
                "mode": "adaptive", "seed": seed, "workers": 1},
    })


def screen_lines() -> list[str]:
    # MMSE on Erdos-Renyi K = 10 with 3 channels per node (M = 30): the
    # screen's rank rule (N = 20 < M) and its eigenvalue branch (noise 1e-14)
    lines = []
    drift = {"schedule": [[0, 0.0], [4, 1.0]]}
    for case, mode, samples, noise, signals in (
            ("batch_n20", "batch", 20, 0.1, {}),
            ("batch_noise", "batch", 300, 1e-14, {}),
            ("adaptive_noise", "adaptive", 300, 1e-14, {}),
            ("drift_n20", "adaptive", 20, 0.1, {"drift": drift}),
            ("drift_noise", "adaptive", 300, 1e-14, {"drift": drift})):
        config = dasf.validate_config({
            "schema_version": 1,
            "problem": {"kind": "mmse", "n_filters": 1},
            "network": {"kind": "erdos_renyi", "nodes": 10, "channels": 3, "edge_prob": 0.5},
            "signals": {"noise_var": noise, **signals},
            "run": {"monte_carlo_runs": 3, "iterations": 8, "samples": samples, "mode": mode,
                    "seed": 5, "workers": 1},
        })
        lines += study_lines(f"screen_{case}", dasf.run_study(config, write=False))
    return lines


def long_tree_lines() -> list[str]:
    # long_tree_smallN's shape: MMSE on a random tree of 16 nodes with 1 or 2
    # channels each, Q = 3, N = 200, 2000 iterations
    rng = np.random.default_rng(np.random.SeedSequence([1, 0]))
    graph = dasf.make_random_tree(16, [1 + k % 2 for k in range(16)], rng)
    problem = dasf.MmseProblem(n_filters=3)
    model = dasf.SignalModel(channels=graph.channels, source_var=0.5, noise_var=0.3,
                             mix_y=rng.uniform(-0.5, 0.5, (graph.total_channels, 3)))
    batch = dasf.sample_stationary(model, 0, 200, rng)
    reference = dasf.solve_centralized(problem, batch).x
    result = dasf.dasf_run(problem, graph, batch, 2000, rng_seed=11, reference=reference)
    return [f"long_tree run 0 {digest(result)}"]


def report() -> list[str]:
    lines = []
    topologies = {"er": {"kind": "erdos_renyi", "edge_prob": 0.5}, "tree": {"kind": "random_tree"}}
    for mode, nets in (("batch", topologies), ("adaptive", {"er": topologies["er"]})):
        for net, network in nets.items():
            for kind in FAMILIES:
                study = dasf.run_study(family_config(kind, network, mode), write=False)
                lines += study_lines(f"{mode}_{kind}_{net}", study)
    for seed in (7, 29001):
        drift = {"delta_std": 1.5, "schedule": [[0, 0.0], [50, 0.0], [100, 1.0]]}
        config = tracking_config(seed, 3, {"nodes": 10, "channels": 3, "edge_prob": 0.4},
                                 drift, {"noise_var": 0.3})
        lines += study_lines(f"tracking_{seed}", dasf.run_tracking(config, write=False))
    drift = {"delta_std": 0.5, "schedule": [[0, 0.0], [40, 0.0], [80, 0.4],
                                            [119.9995, 0.4], [120, 1.0]]}
    config = tracking_config(11, 20, {"nodes": 10, "channels": 4, "edge_prob": 0.8}, drift, {})
    lines += study_lines("criterion_10", dasf.run_study(config, write=False))
    return lines + long_tree_lines() + screen_lines()


if __name__ == "__main__":
    print(f"dasf from {Path(dasf.__file__).parent}", file=sys.stderr)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # the low-sample warning
        print("\n".join(report()))
