"""Failures of the current program that the benchmark's workloads avoid.

    python3 perfbench/known_failures.py

Not part of the benchmark runs. A workload must pass every check on every
seed, and the constrained families (qcqp, tro, scqp) fail some runs of
every shape tried, so the workloads run MMSE only (see README.md). This
script runs pinned cases of each failure, each held to the benchmark's own
checks, and prints every failure with its reason. It exits 1 while any case
fails, so a fix in the program shows as exit 0.

- QCQP with an active ball, N=10^4, Erdos-Renyi K=10, M=30, Q=2: the
  objective rises by more than 1e-9 in one iteration (about one run in ten).
- TRO and SCQP studies on Erdos-Renyi K=15, 4 channels/node, Q=3, and TRO
  on the long_tree_smallN tree: within the first five iterations a local
  solve raises SolverError, because a node's filter block has nearly lost
  rank and so has the compressed metric (about one run in 300 to 3000).
"""

import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "dasf" / "__init__.py").is_file():
    sys.exit("perfbench: src/dasf not found next to perfbench/")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dasf  # noqa: E402
from workloads import (RunOutcome, SingleRun, _execute_single, _execute_study,  # noqa: E402
                       check_run, sub_seed)

warnings.filterwarnings("ignore", message="constraint count")

QCQP_SEEDS = (8, 19, 23)        # objective rises of 1.4e-9, 3.5e-9 and 9.4e-9
STUDY_SEEDS = {                 # one SolverError each, in run 0 or run 1
    "tro": (2395135177, 3589025398),
    "scqp": (945986852, 2791644207),
}
TREE_CASE = (72, 1393, 771711011)   # tree seed, repetition, starting-point seed


def _mixing(rng, m: int, width: int) -> np.ndarray:
    return rng.uniform(-0.5, 0.5, (m, width))


def qcqp_run(seed: int) -> SingleRun:
    rng = np.random.default_rng(seed)
    graph = dasf.make_erdos_renyi(10, 3, 0.4, rng)
    m = graph.total_channels
    linear, gain, target = rng.standard_normal((m, 2)), rng.standard_normal(m), rng.standard_normal(2)
    problem = dasf.QcqpProblem(n_filters=2, linear_term=linear, gain_vector=gain,
                               target_response=target,
                               radius=1.5 * float(np.linalg.norm(target) / np.linalg.norm(gain)))
    model = dasf.SignalModel(channels=graph.channels, source_var=0.5, noise_var=0.3,
                             mix_y=_mixing(rng, m, 2))
    batch = dasf.sample_stationary(model, 0, 10_000, rng)
    reference = dasf.solve_centralized(problem, batch).x
    return SingleRun(f"qcqp seed {seed}", problem, graph, batch, reference, 150, seed, 1e-6)


def tree_run(seed: int, rep: int, x0_seed: int) -> SingleRun:
    rng = np.random.default_rng(sub_seed(seed, rep))
    graph = dasf.make_random_tree(16, [1 + k % 2 for k in range(16)], rng)
    problem = dasf.TroProblem(n_filters=3)
    m = graph.total_channels
    model = dasf.SignalModel(channels=graph.channels, source_var=0.5, noise_var=0.3,
                             mix_y=_mixing(rng, m, 3), mix_v=_mixing(rng, m, 3))
    batch = dasf.sample_stationary(model, 0, 200, rng)
    reference = dasf.solve_centralized(problem, batch).x
    return SingleRun(f"tro tree seed {seed} rep {rep}", problem, graph, batch, reference, 20,
                     x0_seed, float("inf"))


def study_outcomes(kind: str, seed: int) -> list[RunOutcome]:
    signals = {"sources": 8, "noise_var": 0.3}
    if kind == "tro":
        signals["interferers"] = 8
    raw = {
        "schema_version": 1,
        "problem": {"kind": kind, "n_filters": 3},
        "network": {"kind": "erdos_renyi", "nodes": 15, "channels": 4, "edge_prob": 0.4},
        "signals": signals,
        "run": {"monte_carlo_runs": 2, "iterations": 150, "samples": 2500, "seed": seed,
                "workers": 1},
    }
    with tempfile.TemporaryDirectory() as out:
        config = dasf.validate_config(raw).with_overrides(out_dir=out)
        outcomes = _execute_study(dasf.run_study, config, True, float("inf"))
    for o in outcomes:
        o.label = f"{kind} study seed {seed} {o.label}"
    return outcomes


def main() -> int:
    outcomes = _execute_single([qcqp_run(s) for s in QCQP_SEEDS] + [tree_run(*TREE_CASE)])
    for kind, seeds in STUDY_SEEDS.items():
        for s in seeds:
            outcomes += study_outcomes(kind, s)
    failed = 0
    for o in outcomes:
        reason = check_run(o)
        failed += reason is not None
        print(f"{o.label}: {reason or 'ok'}")
    print(f"{failed} of {len(outcomes)} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
