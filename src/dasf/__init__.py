"""Distributed adaptive signal fusion: simulation library and study runner.

Subpackages by responsibility: ``network`` (topologies, tree pruning),
``signals`` (synthetic streams, batch statistics), ``sfo`` (problem families
and their solvers), ``engine`` (the distributed iteration itself),
``experiments`` (Monte-Carlo studies), ``cli`` (command-line runner).

``import dasf`` loads the engine and what it runs on: ``network``,
``signals``, ``sfo`` and their numpy and LAPACK. The study runner
``experiments``, and with it pyyaml, SciPy's package and the process pool,
loads on first use: the first time one of its names exported here is read,
or when a module imports it.
"""

from .engine import (
    ConvergenceRecord,
    RunResult,
    TransportLog,
    TransportRecord,
    audit_transport,
    dasf_run,
    dasf_step,
    normalized_error,
    select_updating_node,
)
from .network import (
    GraphConnectivityError,
    NetworkGraph,
    PrunedTree,
    make_erdos_renyi,
    make_fully_connected,
    make_path,
    make_random_tree,
    prune_to_tree,
)
from .sfo import (
    CompressedInstance,
    InfeasibleProblemError,
    MmseProblem,
    QcqpProblem,
    ScqpProblem,
    SfoProblem,
    SolveOutcome,
    SolverError,
    TroProblem,
    solve_centralized,
    solve_instance,
)
from .signals import (
    DriftSpec,
    LambdaSchedule,
    SampleBatch,
    SignalModel,
    sample_adaptive,
    sample_stationary,
)

__version__ = "0.1.0"

# the names of the study runner, which loads when one of them is first read
_EXPERIMENTS = ("ConfigError", "ExperimentConfig", "StudyResult", "load_config",
                "run_study", "run_tracking", "validate_config")


def __getattr__(name):
    if name in _EXPERIMENTS:
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPERIMENTS})

__all__ = [
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
