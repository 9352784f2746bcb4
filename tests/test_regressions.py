"""Runs that failed, rose or ended silently wrong while the local solvers
worked in the unwhitened coordinates of C, with their compressed metric
C^T C near rank loss, while the mmse ridge was decided per local solve,
while the trace ratio stopped on an absolute tolerance, and while branch
directions were dropped by the eigenvalues of their Grams. Each case is pinned
by its seeds and checked the way the benchmark checks a run: it completes,
stays finite, passes the transport audit, and its objective rises by at
most 1e-9 in one iteration. Where no run can complete, the check is that
each fails with an error that names the cause. One graph froze the
adjacency array its caller had passed in. NaN or infinite model parameters
were accepted, and their runs failed late under a covariance message.
Channel counts that were not integers were truncated without a word. Where
a QCQP ball only touched the plane, the local solve returned the plane's
minimum-norm point above a feasible, lower anchor. A batch could be built
with neither samples nor statistics, and batches compared by their sample
fields alone. A network of 10000 four-channel nodes passed the cap meant to
bound its M x M statistics. A graph's per-node accessors answered for another
node when handed a node id of 0 or below, and a run asked for a negative
number of iterations failed inside numpy. A QCQP radius whose square
overflows failed every run with an OverflowError that named no cause, and
the validator accepted the radius scale that gave it."""

import dataclasses
import logging
import re
import sys
import warnings

import numpy as np
import pytest
import yaml

import dasf.cli
import oracles
from dasf import engine, sfo
from dasf.engine import audit_transport, dasf_run
from dasf.experiments import ConfigError, run_study, validate_config
from dasf.network import NetworkGraph, make_erdos_renyi, make_path, make_random_tree
from dasf.sfo import (MmseProblem, QcqpProblem, ScqpProblem, TroProblem, evaluate_objective,
                      solve_centralized)
from dasf.signals import DriftSpec, LambdaSchedule, SampleBatch, SignalModel, sample_stationary

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


@pytest.mark.parametrize("seed", range(4), ids=lambda seed: f"seed{seed}")
@pytest.mark.parametrize("radius_scale", [1.0, 1 + 1e-12], ids=["1.0", "1e-12"])
def test_qcqp_ball_touching_the_plane_descends(tmp_path, radius_scale, seed):
    # where the ball only touches the plane, the local solve returned X_p
    # even where the feasible anchor lies lower: one-step rises of 2.5e-9 to
    # 5.4e-9 at radius_scale 1.0 and of 1.1e-6 at 1 + 1e-12 (seed 1)
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


def test_graph_leaves_the_callers_adjacency_writable():
    # the graph freezes its own copy of a boolean adjacency, so the caller
    # can still edit the array it passed in, and the edit leaves the graph
    adj = np.zeros((3, 3), dtype=bool)
    adj[[0, 1], [1, 2]] = adj[[1, 2], [0, 1]] = True
    graph = NetworkGraph(adj, (1, 1, 1))
    adj[0, 2] = adj[2, 0] = True
    assert adj.flags.writeable and not graph.adjacency.flags.writeable
    assert not graph.adjacency[0, 2]
    assert graph.edges() == ((1, 2), (2, 3))


@pytest.mark.parametrize("channels", [2.5, 2.0, True, np.True_, np.float64(3.0), "2",
                                      (1, 2.5, 1), (1, True, 1), (1, None, 1)])
@pytest.mark.parametrize("build", [
    lambda ch: make_path(3, ch),
    lambda ch: make_random_tree(3, ch, rng_seed=0),
    lambda ch: make_erdos_renyi(3, ch, 1.0, rng_seed=0),
    lambda ch: NetworkGraph(~np.eye(3, dtype=bool), ch),
])
def test_channel_counts_must_be_integers(build, channels):
    # make_path(3, 2.5) had 2 channels per node, and make_path(2, True) 1
    bad = channels if np.isscalar(channels) else channels[1]
    message = f"a channel count must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(channels)


def test_numpy_integer_channel_counts_stay_accepted():
    for channels in (np.int64(2), np.uint8(2), (np.int32(2), 2, np.int16(2)), np.array([2, 2, 2])):
        graph = make_path(3, channels)
        assert graph.channels == (2, 2, 2)
        assert all(type(m) is int for m in graph.channels)


NAN, INF = float("nan"), float("inf")
_SCHEDULE = LambdaSchedule((0.0,), (0.5,))


def _model(**given):
    fields = dict(channels=(1, 2), source_var=0.5, noise_var=0.1, mix_y=np.ones((3, 1)))
    return SignalModel(**{**fields, **given})


@pytest.mark.parametrize("name, build", [
    ("noise_var", lambda: _model(noise_var=NAN)),
    ("source_var", lambda: _model(source_var=NAN)),
    ("source_var", lambda: _model(source_var=INF)),
    ("noise_var", lambda: _model(noise_var=-INF)),
    ("source_var", lambda: _model(source_var=10**400)),
    ("mix_y", lambda: _model(mix_y=[[1.0], [NAN], [0.0]])),
    ("mix_v", lambda: _model(mix_v=[[1.0], [0.0], [INF]])),
    ("p0", lambda: DriftSpec([1.0, NAN, 0.0], np.ones(3), _SCHEDULE)),
    ("delta", lambda: DriftSpec(np.ones(3), [0.0, 0.0, -INF], _SCHEDULE)),
    ("schedule values", lambda: LambdaSchedule((0.0,), (NAN,))),
    ("schedule times", lambda: LambdaSchedule((0.0, NAN), (0.5, 0.5))),
    ("schedule times", lambda: LambdaSchedule((0.0, INF), (0.5, 0.5))),
])
def test_non_finite_model_parameters_fail_at_construction(name, build):
    # they were accepted, and each run failed much later with "mmse:
    # covariance has non-finite entries" (a NaN schedule gave lambda = NaN)
    with pytest.raises(ValueError, match=f"^{name} must"):
        build()


def test_model_accepts_every_number_the_validator_accepts():
    # one rule for both: finite means at most the largest float in size
    big = sys.float_info.max
    raw = {"schema_version": 1, "problem": {"kind": "mmse", "n_filters": 1},
           "network": {"kind": "path", "nodes": 2, "channels": 1},
           "signals": {"source_var": big, "noise_var": big},
           "run": {"iterations": 1}}
    config = validate_config(raw)
    model = _model(source_var=config.source_var, noise_var=config.noise_var)
    assert model.source_var == model.noise_var == big


def test_batch_without_samples_comes_only_from_statistics():
    # SampleBatch(y=None) was accepted and built a batch with no statistics:
    # its n_samples and cov_y then failed on None
    with pytest.raises(ValueError, match=r"needs its samples y.*SampleBatch.from_statistics"):
        SampleBatch(y=None, channels=(2,))
    batch = SampleBatch.from_statistics((2,), np.eye(2), np.zeros((2, 1)), 1.0, 3)
    assert batch.y is None and batch.n_samples == 3 and batch.channels == (2,)
    # from_statistics skips __init__, so it must still set every field
    assert all(hasattr(batch, f.name) for f in dataclasses.fields(SampleBatch))


def test_sample_batches_compare_and_hash_by_identity():
    # the frozen dataclass compared and hashed (y, channels, t, v, s) only:
    # two statistics batches with different statistics were equal, == on two
    # sample batches raised ValueError, and hash of one raised TypeError
    a = SampleBatch.from_statistics((2,), np.eye(2), np.zeros((2, 1)), 1.0, 3)
    b = SampleBatch.from_statistics((2,), 5 * np.eye(2), np.ones((2, 1)), 7.0, 9)
    assert a != b and a == a
    y = np.ones((2, 4))
    c, d = SampleBatch(y=y, channels=(2,)), SampleBatch(y=y, channels=(2,))
    assert (c == d) is False and (c == c) is True
    for batch in (a, b, c, d):
        assert hash(batch) == object.__hash__(batch)
    assert len({a, b, c, d, a, c}) == 4


def test_channel_cap_bounds_the_channels_not_the_nodes():
    # MAX_NODES = 10000 capped network.nodes alone: 10000 four-channel nodes
    # (M = 40000, 12.8 GB per M x M statistic) validated in batch mode
    raw = {
        "schema_version": 1,
        "problem": {"kind": "mmse", "n_filters": 1},
        "network": {"kind": "path", "nodes": 10_000, "channels": 4},
        "run": {"iterations": 3, "samples": 400},
    }
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    assert info.value.errors == ("network.channels: 40000 channels in all, "
                                 "above the cap of 10000",)


@pytest.mark.parametrize("node", [0, -1, -3, 4, 10])
def test_graph_accessors_refuse_a_node_outside_the_graph(node):
    # on a path of 3 nodes, channel_count(0) returned 3, degree(0) -4,
    # block_slice(0) slice(6, 0) and neighbors(-1) (2,): a negative index
    # read another node's entry; past K they raised a bare IndexError
    graph = make_path(3, (1, 2, 3))
    for accessor in (graph.channel_count, graph.block_slice, graph.neighbors, graph.degree):
        with pytest.raises(ValueError, match=rf"^node {node} is not in 1\.\.3$"):
            accessor(node)
    assert [graph.channel_count(k) for k in graph.nodes] == [1, 2, 3]
    assert [graph.block_slice(k) for k in graph.nodes] == [slice(0, 1), slice(1, 3), slice(3, 6)]
    assert [graph.neighbors(k) for k in graph.nodes] == [(2,), (1, 3), (2,)]
    assert [graph.degree(k) for k in graph.nodes] == [1, 2, 1]


@pytest.mark.parametrize("n_iterations", [-1, -2])
def test_run_refuses_a_negative_iteration_count(n_iterations):
    # -1 raised "IndexError: index 0 is out of bounds" and -2 numpy's
    # "negative dimensions" ValueError, after the initial point was drawn
    rng = np.random.default_rng(0)
    graph = make_path(3, 2)
    batch = SampleBatch(y=rng.standard_normal((6, 50)), channels=graph.channels,
                        s=rng.standard_normal((1, 50)))
    with pytest.raises(ValueError, match=rf"^n_iterations must be non-negative, "
                                         rf"got {n_iterations}$"):
        dasf_run(MmseProblem(n_filters=1), graph, batch, n_iterations, rng_seed=0)


def test_qcqp_radius_with_an_overflowing_square_is_refused():
    # radius**2 raised "OverflowError: (34, 'Numerical result out of range')"
    # in random_feasible, a message that names no cause
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^radius must have a finite square, got 1e\+160$"):
        QcqpProblem(n_filters=1, linear_term=rng.standard_normal((4, 1)),
                    gain_vector=rng.standard_normal(4), target_response=np.ones(1), radius=1e160)


def _assert_overflowing_radius_refused(tmp_path, n_filters):
    # radius_scale 1e300 validated, and every run then failed on the radius's
    # ValueError in a StudyFailedError; the validator builds each width's
    # problem from the config's term_seed and refuses the scale by name
    raw = {"schema_version": 1,
           "problem": {"kind": "qcqp", "n_filters": n_filters, "term_seed": 4,
                       "radius_scale": 1e300},
           "network": {"kind": "path", "nodes": 5, "channels": 2},
           "run": {"iterations": 15}, "output": {"dir": str(tmp_path / "out")}}
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    (error,) = info.value.errors
    assert re.fullmatch(r"problem\.radius_scale: 1e\+300 gives no QCQP at width 1: "
                        r"radius must have a finite square, got \S+", error)
    assert validate_config({**raw, "problem": {**raw["problem"], "radius_scale": 1e100}})
    cfg = tmp_path / "radius.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert dasf.cli.main(["run", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


def test_qcqp_study_with_an_overflowing_radius_names_it(tmp_path):
    _assert_overflowing_radius_refused(tmp_path, 1)


def test_qcqp_sweep_with_an_overflowing_radius_names_it(tmp_path):
    _assert_overflowing_radius_refused(tmp_path, [1, 2])
