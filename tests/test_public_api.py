"""Guard on the exported surface: every listed name exists, the package
exports exactly the names it exported before, no module imports a name it
neither uses nor re-exports, and neither importing it nor
any family's solve, batch or tracking study loads scipy.optimize, the
scipy.linalg package or the numpy.f2py that package's array-API set-up
imports. The four LAPACK routines dasf binds from SciPy's compiled extension
are the ones scipy.linalg.lapack exports, bit for bit."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that it never reads and
    does not list in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = stmt.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            exported |= set(ast.literal_eval(stmt.value))
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", sorted(Path(dasf.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_keeps_an_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_a_dropped_name():
    source = ("from functools import cached_property\nimport numpy as np\n"
              "from .engine import BranchSegment, dasf_run\n"
              "__all__ = ['dasf_run']\nx = np.zeros(1)\n")
    assert _unused_imports(source) == ["line 1: cached_property", "line 3: BranchSegment"]


# modules no import, solve or study may load: the secular equations are
# solved in the library, and LAPACK comes from the compiled extension alone,
# which dasf loads without entering it in sys.modules
UNLOADED = ("scipy.optimize", "scipy.linalg", "scipy.linalg._flapack", "numpy.f2py")

# a tight ball, so the QCQP solve goes through the secular equation, and an
# SCQP solve, which always does
_FOOTPRINT_PROBE = """
import json
import numpy as np
import dasf
from dasf.sfo import FEASIBILITY_RTOL
at_import = loaded()
rng = np.random.default_rng(4)
a, c, d = rng.standard_normal((5, 2)), rng.standard_normal(5), rng.standard_normal(2)
batch = dasf.SampleBatch(y=rng.standard_normal((5, 300)), channels=(5,))
outs = [dasf.solve_centralized(prob, batch) for prob in (
    dasf.QcqpProblem(n_filters=2, linear_term=a, gain_vector=c, target_response=d,
                     radius=1.1 * np.linalg.norm(d) / np.linalg.norm(c)),
    dasf.ScqpProblem(n_filters=2, linear_term=a))]
print(json.dumps({"at_import": at_import,
                  "after_solves": loaded(),
                  "iterations": [out.iterations for out in outs],
                  "feasible": all(bool(out.residuals.max() <= FEASIBILITY_RTOL) for out in outs)}))
"""


def _env(*first):
    """This environment, with first and then the checkout's src/ ahead on the path."""
    src = str(Path(dasf.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [*first, src, os.environ.get("PYTHONPATH")]))}


def _probe(script):
    """Run script in a fresh interpreter, where loaded() lists the UNLOADED
    modules present, and return what it prints as JSON."""
    script = (f"import sys\nUNLOADED = {UNLOADED!r}\n"
              "def loaded(): return [m for m in UNLOADED if m in sys.modules]\n" + script)
    proc = subprocess.run([sys.executable, "-c", script], env=_env(),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_leaves_scipy_optimize_unloaded():
    probe = _probe(_FOOTPRINT_PROBE)
    assert probe["at_import"] == [] and probe["after_solves"] == []
    assert all(it > 0 for it in probe["iterations"]) and probe["feasible"]


# the same study in-process, then with two forked workers
_STUDY_PROBE = """
import json
from dasf import run_study, validate_config
counts = [run_study(validate_config({
    "schema_version": 1, "problem": {"kind": %r, "n_filters": 1},
    "network": {"kind": "erdos_renyi", "nodes": 4, "channels": 2, "edge_prob": 0.8},
    "signals": {"sources": 1},
    "run": {"monte_carlo_runs": 2, "iterations": 2, "samples": 200, "workers": workers}}),
    write=False).run_count for workers in (1, 2)]
print(json.dumps([counts, loaded()]))
"""


@pytest.mark.parametrize("kind", ["mmse", "qcqp", "tro", "scqp"])
def test_parallel_study_leaves_scipy_optimize_unloaded(kind):
    assert _probe(_STUDY_PROBE % kind) == [[2, 2], []]


# adaptive MMSE under drift: each drawn block's conditioning screen factorizes
_TRACKING_PROBE = """
import json
from dasf import run_tracking, validate_config
study = run_tracking(validate_config({
    "schema_version": 1, "problem": {"kind": "mmse", "n_filters": 1},
    "network": {"kind": "erdos_renyi", "nodes": 4, "channels": 2, "edge_prob": 0.8},
    "signals": {"sources": 1, "drift": {"schedule": [[0, 0.0], [3, 1.0]]}},
    "run": {"monte_carlo_runs": 2, "iterations": 3, "samples": 200, "mode": "adaptive"}}),
    write=False)
print(json.dumps([study.run_count, loaded()]))
"""


def test_tracking_study_leaves_scipy_linalg_unloaded():
    assert _probe(_TRACKING_PROBE) == [2, []]


def test_missing_lapack_extension_names_the_directory(tmp_path):
    # a scipy without its compiled LAPACK: import dasf fails, naming where it looked
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("__version__ = '0'\n")
    proc = subprocess.run([sys.executable, "-c", "import dasf"], env=_env(str(tmp_path)),
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith(
        f"ImportError: no compiled LAPACK extension _flapack in {tmp_path / 'scipy' / 'linalg'}")


def test_lapack_routines_are_scipys():
    from dasf import _lapack
    from scipy.linalg import lapack

    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((6, 4)), rng.standard_normal((6, 6))
    spd = b @ b.T + np.eye(6)
    singular = spd.copy()
    singular[:, 2] = 0.0
    calls = [("dgesvd", (a,), {"full_matrices": 0}),
             ("dgesv", (spd, b[:, :2]), {}),
             ("dgesv", (singular, b[:, :2]), {}),
             ("dpotrf", (spd,), {"lower": 1, "clean": 0}),
             ("dpotrf", (-spd,), {"lower": 1, "clean": 0})]
    infos = []
    for name, args, kwargs in calls:
        ours, theirs = getattr(_lapack, name), getattr(lapack, name)
        assert ours is theirs
        mine = ours(*(x.copy() for x in args), **kwargs)
        ref = theirs(*(x.copy() for x in args), **kwargs)
        assert all(np.array_equal(x, y) and np.asarray(x).dtype == np.asarray(y).dtype
                   for x, y in zip(mine, ref, strict=True))
        infos.append(int(mine[-1]))
    # a singular dgesv reports its zero pivot, an indefinite dpotrf the order
    # of its first leading minor that is not positive
    assert infos == [0, 0, 3, 0, 1]


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
