"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers; the
lines are echoed together after the run. Shared Monte-Carlo material is
built once in module-scoped fixtures.
"""

import time

import numpy as np
import pytest

import oracles
from dasf.engine import (
    audit_transport,
    build_transition_matrix,
    dasf_run,
    dasf_step,
)
from dasf.experiments import run_study, validate_config
from dasf.network import (
    GraphConnectivityError,
    NetworkGraph,
    make_erdos_renyi,
    make_fully_connected,
    make_path,
    make_random_tree,
    prune_to_tree,
)
from dasf.sfo import (
    MmseProblem,
    QcqpProblem,
    ScqpProblem,
    TroProblem,
    centralized_instance,
    evaluate_objective,
    solve_centralized,
    solve_instance,
)
from dasf.signals import SampleBatch, SignalModel, estimate_covariance, sample_stationary


def _mixed_batch(graph, n, rng, n_sources, n_extras=None, s_rows=0, noise=0.1):
    m = graph.total_channels
    mix_y = rng.uniform(-0.5, 0.5, (m, n_sources))
    mix_v = None if n_extras is None else rng.uniform(-0.5, 0.5, (m, n_extras))
    model = SignalModel(channels=graph.channels, source_var=0.5, noise_var=noise,
                        mix_y=mix_y, mix_v=mix_v)
    batch = sample_stationary(model, 0, n, rng)
    if s_rows:
        return SampleBatch(y=batch.y, channels=batch.channels, v=batch.v,
                           s=batch.s[:s_rows])
    return batch


def _family_problem(kind, m, q, rng):
    if kind == "mmse":
        return MmseProblem(n_filters=q)
    if kind == "tro":
        return TroProblem(n_filters=q)
    if kind == "scqp":
        return ScqpProblem(n_filters=q, linear_term=rng.standard_normal((m, q)))
    d = rng.standard_normal(q)
    c = rng.standard_normal(m)
    return QcqpProblem(
        n_filters=q,
        linear_term=rng.standard_normal((m, q)),
        gain_vector=c,
        target_response=d,
        radius=1.3 * np.linalg.norm(d) / np.linalg.norm(c),
    )


@pytest.fixture(scope="module")
def family_runs():
    """20 seeds x 200 iterations for each problem family on small networks."""
    out = {"mmse": [], "qcqp": [], "tro": [], "scqp": []}
    for seed in range(20):
        try:
            graph = make_erdos_renyi(5, 2, 0.8, rng_seed=seed)
        except GraphConnectivityError:
            graph = make_random_tree(5, 2, rng_seed=seed)
        for kind in out:
            rng = np.random.default_rng(1000 + seed)
            prob = _family_problem(kind, 10, 2, rng)
            batch = _mixed_batch(
                graph, 400, rng,
                n_sources=2,
                n_extras=2 if kind == "tro" else None,
                s_rows=2 if kind == "mmse" else 0,
            )
            run = dasf_run(prob, graph, batch, 200, mode="ti",
                           x0=prob.random_feasible(10, rng),
                           warn_on_bound=False)
            f0 = evaluate_objective(prob, run.x_history[0], batch)
            out[kind].append((prob, batch, run, f0))
    return out


def test_criterion_1_centralized_equivalence_mmse(criterion_report):
    rng = np.random.default_rng(42)
    graph = make_fully_connected(10, 4)
    batch = _mixed_batch(graph, 10_000, rng, n_sources=1, s_rows=1)
    # closed-form solution of the network-wide normal equations on the batch
    cov = batch.y @ batch.y.T / batch.n_samples
    cross = batch.y @ batch.s.T / batch.n_samples
    x_star = np.linalg.solve(cov, cross)
    start = time.perf_counter()
    run = dasf_run(MmseProblem(n_filters=1), graph, batch, 500, mode="fc",
                   rng_seed=1, reference=x_star)
    elapsed = time.perf_counter() - start
    eps = run.epsilon_trace()
    hit = np.nonzero(eps < 1e-6)[0]
    first = int(hit[0]) if hit.size else -1
    ok = eps[-1] < 1e-6 and first >= 0 and elapsed < 10.0
    criterion_report(
        1, ok,
        f"MMSE FC K=10 M=40 Q=1 N=1e4: eps dropped below 1e-6 at iteration "
        f"{first}, final {eps[-1]:.3e}, runtime {elapsed:.1f}s < 10s")


def test_criterion_2_centralized_equivalence_tro(criterion_report):
    rng = np.random.default_rng(3)
    graph = make_random_tree(10, 6, rng_seed=2)
    batch = _mixed_batch(graph, 4000, rng, n_sources=4, n_extras=4, noise=0.3)
    prob = TroProblem(n_filters=2)
    x_star = solve_centralized(prob, batch).x
    start = time.perf_counter()
    run = dasf_run(prob, graph, batch, 1000, mode="ti", rng_seed=1,
                   reference=x_star)
    elapsed = time.perf_counter() - start
    eps = run.epsilon_trace()
    hit = np.nonzero(eps < 1e-3)[0]
    first = int(hit[0]) if hit.size else -1
    ok = eps[-1] < 1e-3 and first >= 0 and elapsed < 60.0
    criterion_report(
        2, ok,
        f"TRO tree K=10 M=60 Q=2: eps below 1e-3 at iteration {first}, "
        f"final {eps[-1]:.3e} after symmetry alignment, runtime {elapsed:.1f}s < 60s")


def test_criterion_3_feasibility_of_every_iterate(criterion_report, family_runs):
    worst = 0.0
    checked = 0
    for kind in ("qcqp", "tro", "scqp"):
        for _, _, run, _ in family_runs[kind]:
            res = run.residual_trace()
            checked += res.size
            worst = max(worst, float(res.max()))
    ok = worst <= 1e-6 and checked >= 3 * 20 * 200
    criterion_report(
        3, ok,
        f"constrained families, 20 seeds x 200 iterations each: "
        f"{checked} recorded iterates, max constraint residual {worst:.3e} <= 1e-6")


def test_criterion_4_monotone_descent(criterion_report, family_runs):
    worst = -np.inf
    sequences = 0
    for kind, entries in family_runs.items():
        for _, _, run, f0 in entries:
            seq = np.concatenate([[f0], run.objective_trace()])
            worst = max(worst, float(np.diff(seq).max()))
            sequences += 1
    ok = worst <= 1e-9 and sequences == 80
    criterion_report(
        4, ok,
        f"all four families, {sequences} runs: largest per-iteration objective "
        f"increase {worst:.3e} <= 1e-9")


def test_criterion_5_transition_matrix_identities(criterion_report):
    rng = np.random.default_rng(50)
    worst_rel = worst_ortho = 0.0
    fc_exact = True
    triples = 0
    for i in range(100):
        style = i % 4
        nodes = int(rng.integers(3, 8))
        channels = tuple(int(c) for c in rng.integers(1, 5, nodes))
        if style == 0:
            graph = make_fully_connected(nodes, channels)
        elif style == 1:
            graph = make_path(nodes, channels)
        elif style == 2:
            graph = make_random_tree(nodes, channels, rng_seed=i)
        else:
            try:
                graph = make_erdos_renyi(nodes, channels, 0.7, rng_seed=i)
            except GraphConnectivityError:
                graph = make_random_tree(nodes, channels, rng_seed=i)
        m = graph.total_channels
        q_width = int(rng.integers(1, min(4, m) + 1))
        x = rng.standard_normal((m, q_width))
        root = int(rng.integers(1, nodes + 1))
        tree = prune_to_tree(graph, root)
        layout = oracles.plan_tree_layout(tree, graph, q_width)
        c = build_transition_matrix(graph, layout, x)
        anchor = c.T @ x
        maps = oracles.branch_maps(graph, layout, x, c)
        y = rng.standard_normal((m, 30))
        b = rng.standard_normal((m, 3))

        def whitened(fused):
            # q whitens each compressed branch's fused rows
            return np.vstack([fused[:layout.own_channels]]
                             + [t.T @ fused[seg.cols] for seg, _, t in maps])

        fused_y = whitened(oracles.fuse_and_forward(graph, tree, layout, x, y, "y"))
        fused_b = whitened(oracles.fuse_and_forward(graph, tree, layout, x, b, "det:b"))
        rel_y = np.linalg.norm(fused_y - c.T @ y) / max(1.0, np.linalg.norm(c.T @ y))
        rel_b = np.linalg.norm(fused_b - c.T @ b) / max(1.0, np.linalg.norm(c.T @ b))
        anchor_gap = float(np.abs(c @ anchor - x).max())
        worst_ortho = max(worst_ortho, float(np.abs(c.T @ c - np.eye(c.shape[1])).max()))
        worst_rel = max(worst_rel, rel_y, rel_b, anchor_gap)
        if graph.is_complete() and not oracles.layout_views(layout, graph)[2]:
            expected = np.zeros_like(c)
            expected[graph.block_slice(root), :layout.own_channels] = np.eye(
                layout.own_channels)
            for seg, cols, t in maps:
                (member,) = seg.members
                expected[graph.block_slice(member), cols] = x[graph.block_slice(member)] @ t
            fc_exact = (fc_exact and np.array_equal(c != 0.0, expected != 0.0)
                        and np.array_equal(c[:, :layout.own_channels],
                                           expected[:, :layout.own_channels]))
            worst_rel = max(worst_rel, float(np.abs(c - expected).max()))
        triples += 1
    ok = triples == 100 and worst_rel <= 1e-12 and fc_exact
    criterion_report(
        5, ok,
        f"100 random (graph, q, X) triples: worst relative gap between whitened "
        f"fused streams/terms and the transition-matrix products, and of C @ anchor "
        f"to X {worst_rel:.3e} <= 1e-12 (largest |C^T C - I| {worst_ortho:.3e}), "
        f"fully connected structure exact: {fc_exact}")


def test_criterion_6_fc_ti_bit_identical(criterion_report):
    rng = np.random.default_rng(60)
    graph = make_fully_connected(6, 3)
    identical = True
    compared = 0
    for kind in ("tro", "mmse"):
        prob = _family_problem(kind, 18, 2, rng)
        batch = _mixed_batch(graph, 600, rng, n_sources=2,
                             n_extras=2 if kind == "tro" else None,
                             s_rows=2 if kind == "mmse" else 0)
        run_fc = dasf_run(prob, graph, batch, 24, mode="fc", rng_seed=6)
        run_ti = dasf_run(prob, graph, batch, 24, mode="ti", rng_seed=6)
        for a, b in zip(run_fc.x_history, run_ti.x_history):
            identical = identical and np.array_equal(a, b)
            compared += 1
    ok = identical and compared == 50
    criterion_report(
        6, ok,
        f"complete K=6 graph, TRO and MMSE, 24 iterations each: {compared} "
        f"states compared, fully connected and pruned code paths bit-identical: "
        f"{identical}")


def test_criterion_7_solver_oracle_gaps(criterion_report):
    rng = np.random.default_rng(70)
    gaps = {"mmse": 0.0, "qcqp": 0.0, "tro": 0.0, "scqp": 0.0}
    for kind in gaps:
        for i in range(100):
            dim = int(rng.integers(3, 13))
            q = int(rng.integers(1, 3))
            if kind == "tro":
                q = min(q, dim - 1)
            n = 300
            y = rng.standard_normal((dim, n))
            prob = _family_problem(kind, dim, q, rng)
            if kind == "mmse":
                s = rng.standard_normal((q, n))
                inst = centralized_instance(prob, SampleBatch(y=y, channels=(dim,), s=s))
                f_ref = oracles.mse_of(oracles.lstsq_estimator(y, s), y, s)
            elif kind == "qcqp":
                inst = centralized_instance(prob, SampleBatch(y=y, channels=(dim,)))
                _, f_ref = oracles.qcqp_slsqp(
                    estimate_covariance(y), prob.linear_term, prob.gain_vector,
                    prob.target_response, prob.radius, np.eye(dim),
                    np.random.default_rng(i))
            elif kind == "tro":
                v = rng.standard_normal((dim, n)) + y
                inst = centralized_instance(prob, SampleBatch(y=y, channels=(dim,), v=v))
                rho = oracles.tro_rho_bisect(
                    estimate_covariance(y), estimate_covariance(v), np.eye(dim), q)
                f_ref = -rho
            else:
                inst = centralized_instance(prob, SampleBatch(y=y, channels=(dim,)))
                _, f_ref = oracles.scqp_slsqp(
                    estimate_covariance(y), prob.linear_term, np.eye(dim),
                    np.random.default_rng(i))
            out = solve_instance(inst)
            gaps[kind] = max(gaps[kind],
                             abs(inst.objective(out.x) - f_ref) / (1.0 + abs(f_ref)))
    worst = max(gaps.values())
    ok = worst <= 1e-6
    detail = ", ".join(f"{k} {v:.2e}" for k, v in gaps.items())
    criterion_report(
        7, ok,
        f"100 instances per solver, dimension <= 12: worst relative objective "
        f"gap vs oracles ({detail}) <= 1e-6")


def test_criterion_8_topology_trend(criterion_report):
    start = time.perf_counter()

    def config(kind, **net_extra):
        raw = {
            "schema_version": 1,
            "problem": {"kind": "tro", "n_filters": 3},
            "network": {"kind": kind, "nodes": 15, "channels": 4, **net_extra},
            "signals": {"sources": 8, "interferers": 8, "noise_var": 0.3},
            "run": {"monte_carlo_runs": 20, "iterations": 150, "samples": 2500,
                    "seed": 5},
        }
        return validate_config(raw)

    medians = {}
    for name, cfg in (("fc", config("fully_connected")),
                      ("er08", config("erdos_renyi", edge_prob=0.8)),
                      ("er02", config("erdos_renyi", edge_prob=0.2)),
                      ("path", config("path"))):
        study = run_study(cfg, write=False)
        medians[name] = float(np.median(study.epsilon[:, -1]))
    elapsed = time.perf_counter() - start
    ordered = (medians["fc"] <= medians["er08"]
               <= medians["er02"] <= medians["path"])
    ok = ordered and elapsed < 300.0
    criterion_report(
        8, ok,
        f"TRO K=15 M=60 Q=3, 20 runs x 150 iterations: median final eps "
        f"FC {medians['fc']:.2e} <= ER(0.8) {medians['er08']:.2e} <= "
        f"ER(0.2) {medians['er02']:.2e} <= path {medians['path']:.2e}, "
        f"runtime {elapsed:.0f}s < 300s")


def test_criterion_9_filter_width_trend(criterion_report):
    raw = {
        "schema_version": 1,
        "problem": {"kind": "scqp", "n_filters": [1, 3, 5], "term_seed": 3},
        "network": {"kind": "erdos_renyi", "nodes": 10, "channels": 6,
                    "edge_prob": 0.4},
        "signals": {"sources": 15, "noise_var": 0.5},
        "run": {"monte_carlo_runs": 20, "iterations": 100, "samples": 2000,
                "seed": 9},
    }
    studies = run_study(validate_config(raw), write=False)
    meds = [float(np.median(s.epsilon[:, 100])) for s in studies]
    ok = meds[0] >= meds[1] >= meds[2]
    criterion_report(
        9, ok,
        f"SCQP K=10 M=60, 20 runs: median eps at iteration 100 for Q=1,3,5 is "
        f"{meds[0]:.2e} >= {meds[1]:.2e} >= {meds[2]:.2e} (non-increasing in Q)")


def test_criterion_10_tracking(criterion_report):
    raw = {
        "schema_version": 1,
        "problem": {"kind": "mmse", "n_filters": 1},
        "network": {"kind": "erdos_renyi", "nodes": 10, "channels": 4,
                    "edge_prob": 0.8},
        "signals": {"drift": {"delta_std": 0.5,
                              "schedule": [[0, 0.0], [40, 0.0], [80, 0.4],
                                           [119.9995, 0.4], [120, 1.0]]}},
        "run": {"monte_carlo_runs": 20, "iterations": 150, "samples": 2000,
                "mode": "adaptive", "seed": 11},
    }
    study = run_study(validate_config(raw), write=False)
    med = np.median(study.epsilon, axis=0)
    # columns: j holds the error after j updates; the step hits the batch of
    # iteration 120, so column 121 is the first state measured post-step
    jump_ratio = med[121] / med[120]
    recovered = float(med[122:142].min())       # within 2K = 20 iterations
    plateau_pre = float(np.median(med[25:40]))
    ramp_worst = float(med[41:81].max())
    ok = (jump_ratio > 2.0
          and recovered <= med[120]
          and ramp_worst <= 10.0 * plateau_pre)
    criterion_report(
        10, ok,
        f"tracking MMSE, 20 runs: step jump ratio {jump_ratio:.1f} > 2, "
        f"recovered to {recovered:.2e} <= pre-step {med[120]:.2e} within 20 "
        f"iterations, ramp peak {ramp_worst:.2e} <= 10x plateau {plateau_pre:.2e}")


def test_criterion_11_data_access_discipline(criterion_report, family_runs):
    # compressed-capable networks must never emit raw channel rows
    issues = []
    raw_on_capable = 0
    for kind, entries in family_runs.items():
        for _, _, run, _ in entries:
            audit = audit_transport(run.transport, 2)
            issues.extend(audit.issues)
            raw_on_capable += audit.raw_records

    # fallback-heavy graph: single-channel nodes below Q=2 must go raw, the
    # updating node may receive raw rows only from fallback senders
    adjacency = np.zeros((6, 6), dtype=int)
    for a, b in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)):
        adjacency[a - 1, b - 1] = adjacency[b - 1, a - 1] = 1
    graph = NetworkGraph(adjacency, (3, 1, 1, 3, 1, 1))
    rng = np.random.default_rng(110)
    prob = TroProblem(n_filters=2)
    batch = _mixed_batch(graph, 500, rng, n_sources=2, n_extras=2)
    x = prob.random_feasible(10, rng)
    from dasf.engine import TransportLog
    log = TransportLog()
    raw_total = 0
    misattributed = 0
    for i in range(24):
        x, info = dasf_step(prob, graph, x, batch, i, mode="ti", log=log)
        fallback = oracles.frozen_plan_local_layout(prune_to_tree(graph, info.node), graph,
                                                    2).fallback
        for rec in log.sent(iteration=i, kind="raw"):
            raw_total += 1
            if rec.sender not in fallback:
                misattributed += 1
    audit = audit_transport(log, 2)
    issues.extend(audit.issues)
    ok = (not issues and raw_on_capable == 0 and raw_total > 0
          and misattributed == 0)
    criterion_report(
        11, ok,
        f"transport audit clean over {4 * 20} runs plus a fallback graph: "
        f"0 raw sends on compression-capable networks, {raw_total} raw sends "
        f"all from fallback nodes, every per-iteration per-sender stream "
        f"within the Q-channel cap ({len(issues)} violations)")
