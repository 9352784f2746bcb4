"""Runs that failed, rose or ended silently wrong while the local solvers
worked in the unwhitened coordinates of C, with their compressed metric
C^T C near rank loss, while the mmse ridge was decided per local solve,
while the trace ratio stopped on an absolute tolerance, and while branch
directions were dropped by the eigenvalues of their Grams. Each case is pinned
by its seeds and checked the way the benchmark checks a run: it completes,
stays finite, passes the transport audit, and its objective rises by at
most 1e-9 in one iteration. Where no run can complete, the check is that
each fails with an error that names the cause."""

import logging
import re
import warnings

import numpy as np
import pytest

import oracles
from dasf import engine, sfo
from dasf.engine import audit_transport, dasf_run
from dasf.experiments import run_study, validate_config
from dasf.network import make_erdos_renyi, make_path, make_random_tree
from dasf.sfo import MmseProblem, ScqpProblem, TroProblem, evaluate_objective, solve_centralized
from dasf.signals import SignalModel, sample_stationary

RISE_TOL = 1e-9
TRO_RISE_RTOL = 1e-7    # rise per iteration, relative to rho, where rho rounds R_v away


def _check(result, n_filters, f0=None, rise_tol=RISE_TOL):
    assert audit_transport(result.transport, n_filters).ok
    assert all(np.isfinite(x).all() for x in result.x_history)
    objective = result.objective_trace()
    if f0 is not None:
        objective = np.concatenate([[f0], objective])
    assert np.isfinite(objective).all()
    assert np.diff(objective).max() <= rise_tol


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


_RANK_ONE_GRAPHS = {
    "random_tree": lambda: make_random_tree(8, 2, rng_seed=5),
    "erdos_renyi": lambda: make_erdos_renyi(8, 2, 0.4, rng_seed=5),
    "path": lambda: make_path(8, 2),
}


@pytest.mark.parametrize("topology", sorted(_RANK_ONE_GRAPHS))
@pytest.mark.parametrize("kind", ["mmse", "tro", "scqp"])
def test_rank_deficient_branches_descend(kind, topology):
    # the start point's rows at nodes 3 and up are rank one, so every
    # branch of those nodes alone keeps one direction of its filter rows and
    # drops the other; C @ anchor must still be x, and no step may rise
    rng = np.random.default_rng(44)
    graph = _RANK_ONE_GRAPHS[topology]()
    m = graph.total_channels
    model = SignalModel(channels=graph.channels, source_var=0.5, noise_var=0.3,
                        mix_y=rng.uniform(-0.5, 0.5, (m, 2)),
                        mix_v=rng.uniform(-0.5, 0.5, (m, 2)))
    batch = sample_stationary(model, 0, 500, rng)
    problem = {"mmse": MmseProblem(n_filters=2), "tro": TroProblem(n_filters=2),
               "scqp": ScqpProblem(n_filters=2, linear_term=rng.standard_normal((m, 2)))}[kind]
    x0 = rng.standard_normal((m, 2))
    low = slice(graph.block_slice(3).start, m)
    x0[low, 1] = x0[low, 0]
    if kind == "tro":
        x0 = np.linalg.qr(x0)[0]       # orthonormal columns, low rows still rank one
    elif kind == "scqp":
        x0 /= np.sqrt(np.sum(x0 * x0))  # on the unit sphere
    result = dasf_run(problem, graph, batch, 2 * graph.node_count, x0=x0)
    full = {q: engine._plan(graph, q, 2).local_dim for q in graph.nodes}
    assert any(rec.local_dim < full[rec.node] for rec in result.records)
    _check(result, 2, evaluate_objective(problem, x0, batch))


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


SMALL_TOPOLOGIES = pytest.mark.parametrize("topology", [
    {"kind": "erdos_renyi", "edge_prob": 0.5},
    {"kind": "random_tree"},
], ids=["erdos_renyi", "random_tree"])


@SMALL_TOPOLOGIES
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


def test_qcqp_nearly_rank_one_branches_descend(tmp_path):
    # near a tight ball the iterates tend to rank one; a rank rule on the
    # branch Grams' eigenvalues dropped directions at singular-value ratios
    # of 1e-5, C @ anchor missed x, and every run rose by 7.5e-8 to 1.1e-6
    study = _study(
        tmp_path,
        problem={"kind": "qcqp", "n_filters": 2, "radius_scale": 1 + 1e-9},
        network={"kind": "erdos_renyi", "edge_prob": 0.6, "nodes": 5, "channels": 2},
        run={"monte_carlo_runs": 4, "iterations": 15, "samples": 500, "seed": 0,
             "workers": 1},
    )
    assert study.failed == ()
    for result in study.run_results:
        _check(result, 2)


_BALL_SHORTCUT = ("open defect (ROADMAP item 7): near a tight ball the objective rises above "
                  "1e-9 in one iteration; see the CHANGES.md FOUND line on solve_qcqp's "
                  "'ball touches the plane' shortcut at radius_scale 1.0 and 1 + 1e-12")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_BALL_SHORTCUT)
@pytest.mark.parametrize("radius_scale, seed", [(1.0, 2), (1 + 1e-12, 1)],
                         ids=["1.0-seed2", "1e-12-seed1"])
def test_qcqp_ball_touching_the_plane_descends(tmp_path, radius_scale, seed):
    # the largest one-step rises are 5.4e-9 and 1.1e-6; a mend that brings
    # both under RISE_TOL turns these strict xfails into failures, to be
    # unmarked then
    study = _study(
        tmp_path,
        problem={"kind": "qcqp", "n_filters": 2, "radius_scale": radius_scale,
                 "term_seed": 0},
        network={"kind": "erdos_renyi", "edge_prob": 0.6, "nodes": 5, "channels": 2},
        run={"monte_carlo_runs": 4, "iterations": 15, "samples": 500, "seed": seed,
             "workers": 1},
    )
    assert study.failed == ()
    for result in study.run_results:
        _check(result, 2)


def _tro_noise_study(tmp_path, topology, noise_var):
    return _study(
        tmp_path,
        problem={"kind": "tro", "n_filters": 2},
        network={**topology, "nodes": 8, "channels": 3},
        signals={"sources": 3, "interferers": 3, "noise_var": noise_var},
        run={"monte_carlo_runs": 4, "iterations": 40, "workers": 1},
    )


@SMALL_TOPOLOGIES
@pytest.mark.parametrize("noise_var", [1e-4, 1e-6])
def test_tro_small_noise_study_completes(tmp_path, topology, noise_var):
    # the ratio grows like 1 / noise_var and its fixed-point steps stall near
    # 1e-11 of it, above the absolute tolerance the solver stopped on: "trace
    # ratio did not converge", and every run of the study failed from 1e-5 down
    study = _tro_noise_study(tmp_path, topology, noise_var)
    assert study.failed == ()
    assert study.run_count == 4
    for result in study.run_results:
        _check(result, 2)


@SMALL_TOPOLOGIES
@pytest.mark.parametrize("noise_var", [1e-9, 1e-12])
def test_tro_tiny_noise_solves_meet_oracle_or_name_rho(tmp_path, monkeypatch, caplog,
                                                      topology, noise_var):
    # near rho ~ 1e9 and beyond, R_v - rho R_y rounds R_v away: every solve
    # the study makes, local or centralized, either returns the bisection
    # oracle's ratio within criterion 7's gap or fails naming rho's scale.
    # A run that completes may see its objective -rho rise by rounding at
    # that scale (by up to 1e-8 of rho in one iteration at noise 1e-9), so its
    # rise is bounded relative to rho instead of by RISE_TOL
    gaps = []
    solve_tro = sfo._SOLVERS["tro"]

    def checked(instance):
        out = solve_tro(instance)
        best = oracles.tro_rho_bisect(instance.cov_y, instance.cov_v,
                                      np.eye(instance.dim), instance.problem.n_filters)
        gaps.append(abs(-instance.objective(out.x) - best) / (1.0 + best))
        return out

    monkeypatch.setitem(sfo._SOLVERS, "tro", checked)
    with caplog.at_level(logging.WARNING, logger="dasf.experiments"):
        try:
            results = _tro_noise_study(tmp_path, topology, noise_var).run_results
        except RuntimeError as exc:
            assert str(exc).startswith("every Monte-Carlo run failed")
            results = []
    errors = [record.args[1] for record in caplog.records
              if record.msg == "run %d failed: %s"]
    assert len(results) + len(errors) == 4
    assert max(gaps, default=0.0) <= 1e-6
    for result in results:
        _check(result, 2, rise_tol=TRO_RISE_RTOL * abs(result.objective_trace()[-1]))
    for error in errors:
        named = re.fullmatch(r"SolverError: trace ratio did not converge in \d+ "
                             r"iterations \(rho ~ (\S+), last step \S+\)", error)
        assert named, error
        assert float(named.group(1)) > 1e8
