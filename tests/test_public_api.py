"""Guard on the exported surface: every listed name exists, and the package
exports exactly the names it exported before."""

import importlib

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
