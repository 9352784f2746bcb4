"""Guard on the exported surface: every listed name exists, the package
exports exactly the names it exported before, and neither importing it nor
any family's solve or study loads scipy.optimize."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dasf

MODULES = ("dasf.cli", "dasf.engine", "dasf.experiments", "dasf.network",
           "dasf.sfo", "dasf.signals")

PACKAGE_ALL = [
    "ConvergenceRecord",
    "RunResult",
    "TransportLog",
    "TransportRecord",
    "audit_transport",
    "dasf_run",
    "dasf_step",
    "normalized_error",
    "select_updating_node",
    "GraphConnectivityError",
    "NetworkGraph",
    "PrunedTree",
    "make_erdos_renyi",
    "make_fully_connected",
    "make_path",
    "make_random_tree",
    "prune_to_tree",
    "ConfigError",
    "ExperimentConfig",
    "StudyResult",
    "load_config",
    "run_study",
    "run_tracking",
    "validate_config",
    "CompressedInstance",
    "InfeasibleProblemError",
    "MmseProblem",
    "QcqpProblem",
    "ScqpProblem",
    "SfoProblem",
    "SolveOutcome",
    "SolverError",
    "TroProblem",
    "solve_centralized",
    "solve_instance",
    "DriftSpec",
    "LambdaSchedule",
    "SampleBatch",
    "SignalModel",
    "sample_adaptive",
    "sample_stationary",
    "__version__",
]


@pytest.mark.parametrize("name", ("dasf",) + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_are_frozen():
    assert len(PACKAGE_ALL) == 42
    assert dasf.__all__ == PACKAGE_ALL


# a tight ball, so the QCQP solve goes through the secular equation, and an
# SCQP solve, which always does
_FOOTPRINT_PROBE = """
import json, sys
import numpy as np
import dasf
from dasf.sfo import FEASIBILITY_RTOL
at_import = "scipy.optimize" in sys.modules
rng = np.random.default_rng(4)
a, c, d = rng.standard_normal((5, 2)), rng.standard_normal(5), rng.standard_normal(2)
batch = dasf.SampleBatch(y=rng.standard_normal((5, 300)), channels=(5,))
outs = [dasf.solve_centralized(prob, batch) for prob in (
    dasf.QcqpProblem(n_filters=2, linear_term=a, gain_vector=c, target_response=d,
                     radius=1.1 * np.linalg.norm(d) / np.linalg.norm(c)),
    dasf.ScqpProblem(n_filters=2, linear_term=a))]
print(json.dumps({"at_import": at_import,
                  "after_solves": "scipy.optimize" in sys.modules,
                  "iterations": [out.iterations for out in outs],
                  "feasible": all(bool(out.residuals.max() <= FEASIBILITY_RTOL) for out in outs)}))
"""


def _probe(script):
    src = str(Path(dasf.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_leaves_scipy_optimize_unloaded():
    probe = _probe(_FOOTPRINT_PROBE)
    assert not probe["at_import"] and not probe["after_solves"]
    assert all(it > 0 for it in probe["iterations"]) and probe["feasible"]


# the same study in-process, then with two forked workers
_STUDY_PROBE = """
import json, sys
from dasf import run_study, validate_config
counts = [run_study(validate_config({
    "schema_version": 1, "problem": {"kind": %r, "n_filters": 1},
    "network": {"kind": "erdos_renyi", "nodes": 4, "channels": 2, "edge_prob": 0.8},
    "signals": {"sources": 1},
    "run": {"monte_carlo_runs": 2, "iterations": 2, "samples": 200, "workers": workers}}),
    write=False).run_count for workers in (1, 2)]
print(json.dumps([counts, "scipy.optimize" in sys.modules]))
"""


@pytest.mark.parametrize("kind", ["mmse", "qcqp", "tro", "scqp"])
def test_parallel_study_leaves_scipy_optimize_unloaded(kind):
    assert _probe(_STUDY_PROBE % kind) == [[2, 2], False]


# plans of graphs above 32 nodes, a path and an Erdos-Renyi graph, and a
# short run on each
_PLAN_PROBE = """
import json, sys
import numpy as np
import dasf
rng = np.random.default_rng(0)
dims = []
for graph in (dasf.make_path(40, 1), dasf.make_erdos_renyi(40, 1, 0.1, rng_seed=0)):
    batch = dasf.SampleBatch(y=rng.standard_normal((40, 50)), channels=graph.channels,
                             s=rng.standard_normal((2, 50)))
    run = dasf.dasf_run(dasf.MmseProblem(n_filters=2), graph, batch, 3, rng_seed=0)
    dims += [rec.local_dim for rec in run.records]
print(json.dumps([dims, "scipy.sparse" in sys.modules]))
"""


def test_planning_leaves_scipy_sparse_unloaded():
    dims, loaded = _probe(_PLAN_PROBE)
    assert len(dims) == 6 and all(d >= 2 for d in dims) and not loaded
