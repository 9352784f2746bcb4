"""Runs that failed, rose or ended silently wrong while the local solvers
worked in the unwhitened coordinates of C, with their compressed metric
C^T C near rank loss, and while the mmse ridge was decided per local solve.
Each case is pinned by its seeds and checked the way the benchmark checks a
run: it completes, stays finite, passes the transport audit, and its
objective rises by at most 1e-9 in one iteration."""

import warnings

import numpy as np
import pytest

from dasf.engine import audit_transport, dasf_run
from dasf.experiments import run_study, validate_config
from dasf.network import make_random_tree
from dasf.sfo import TroProblem, evaluate_objective, solve_centralized
from dasf.signals import SignalModel, sample_stationary

RISE_TOL = 1e-9


def _check(result, n_filters, f0=None):
    assert audit_transport(result.transport, n_filters).ok
    assert all(np.isfinite(x).all() for x in result.x_history)
    objective = result.objective_trace()
    if f0 is not None:
        objective = np.concatenate([[f0], objective])
    assert np.isfinite(objective).all()
    assert np.diff(objective).max() <= RISE_TOL


def _study(tmp_path, **sections):
    raw = {"schema_version": 1, **sections}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_study(validate_config(raw).with_overrides(out_dir=str(tmp_path)))


def test_tro_long_tree_case_completes():
    # a node block near rank loss: "trace ratio did not converge" in unwhitened
    # coordinates
    seed, rep, x0_seed = 72, 1393, 771711011
    rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
    graph = make_random_tree(16, [1 + k % 2 for k in range(16)], rng)
    m = graph.total_channels
    model = SignalModel(channels=graph.channels, source_var=0.5, noise_var=0.3,
                        mix_y=rng.uniform(-0.5, 0.5, (m, 3)),
                        mix_v=rng.uniform(-0.5, 0.5, (m, 3)))
    batch = sample_stationary(model, 0, 200, rng)
    problem = TroProblem(n_filters=3)
    reference = solve_centralized(problem, batch).x
    result = dasf_run(problem, graph, batch, 20, rng_seed=x0_seed, reference=reference)
    _check(result, 3, evaluate_objective(problem, result.x_history[0], batch))


@pytest.mark.parametrize("kind, seed, run", [
    ("tro", 2395135177, 0),
    ("tro", 3589025398, 1),
    ("scqp", 945986852, 1),
    ("scqp", 2791644207, 1),
])
def test_constrained_study_case_completes(tmp_path, kind, seed, run):
    # TRO: "trace ratio did not converge"; SCQP: residuals of 3e-8 and 2e-6
    signals = {"sources": 8, "noise_var": 0.3}
    if kind == "tro":
        signals["interferers"] = 8
    study = _study(
        tmp_path,
        problem={"kind": kind, "n_filters": 3},
        network={"kind": "erdos_renyi", "nodes": 15, "channels": 4, "edge_prob": 0.4},
        signals=signals,
        run={"monte_carlo_runs": 2, "iterations": 150, "samples": 2500, "seed": seed,
             "workers": 1},
    )
    assert study.failed == ()
    _check(study.run_results[study.run_indices.index(run)], 3)


@pytest.mark.parametrize("topology", [
    {"kind": "erdos_renyi", "edge_prob": 0.5},
    {"kind": "random_tree"},
], ids=["erdos_renyi", "random_tree"])
def test_mmse_with_large_mixing_converges(tmp_path, topology):
    # with mix_scale 1e6 the network covariance is loaded, and the local
    # solves were loaded by their own conditioning instead: the runs ended at
    # eps 14 and 244 with nothing recorded
    study = _study(
        tmp_path,
        problem={"kind": "mmse", "n_filters": 2},
        network={**topology, "nodes": 8, "channels": 3},
        signals={"mix_scale": 1e6},
        run={"monte_carlo_runs": 4, "iterations": 40, "samples": 500, "seed": 3,
             "workers": 1},
    )
    assert study.failed == ()
    for result in study.run_results:
        _check(result, 2)
    assert study.final_epsilons().max() < 1e-6


def _qcqp_study(tmp_path, topology, n_filters, radius_scale):
    return _study(
        tmp_path,
        problem={"kind": "qcqp", "n_filters": n_filters, "term_seed": 4,
                 "radius_scale": radius_scale},
        network={**topology, "nodes": 5, "channels": 2},
        run={"monte_carlo_runs": 4, "iterations": 15, "workers": 1},
    )


@pytest.mark.parametrize("topology, n_filters", [
    ({"kind": "random_tree"}, 2),
    ({"kind": "erdos_renyi", "edge_prob": 0.6}, 3),
], ids=["random_tree", "erdos_renyi"])
@pytest.mark.parametrize("radius_scale", [1 + 1e-11, 1 + 1e-12], ids=["1e-11", "1e-12"])
def test_qcqp_near_tight_ball_completes(tmp_path, topology, n_filters, radius_scale):
    # a secular bracket that did not close, or a LinAlgError from the
    # near-singular metric of near-rank-one iterates
    study = _qcqp_study(tmp_path, topology, n_filters, radius_scale)
    assert study.failed == ()
    assert study.run_count == 4
    for result in study.run_results:
        assert all(np.isfinite(x).all() for x in result.x_history)
        assert audit_transport(result.transport, n_filters).ok


def test_qcqp_near_tight_ball_descends(tmp_path):
    # rose by 1.2e-9 in one iteration
    study = _qcqp_study(tmp_path, {"kind": "random_tree"}, 2, 1 + 1e-6)
    assert study.failed == ()
    for result in study.run_results:
        _check(result, 2)
