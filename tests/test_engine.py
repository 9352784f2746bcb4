import csv
import gc
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dasf import engine
from dasf.engine import (
    CSV_HEADER,
    ConvergenceRecord,
    TransportLog,
    TransportRecord,
    audit_transport,
    build_transition_matrix,
    dasf_run,
    dasf_step,
    normalized_error,
    select_updating_node,
    write_records_csv,
)
from dasf.network import (
    NetworkGraph,
    PrunedTree,
    breadth_first_forest,
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
    align_to_anchor,
    centralized_instance,
    constraint_residuals,
    evaluate_objective,
    solve_centralized,
)
from dasf.signals import SampleBatch


def _random_batch(graph, n, rng, with_v=False, s_rows=0):
    m = graph.total_channels
    y = rng.standard_normal((m, n))
    v = y + 0.5 * rng.standard_normal((m, n)) if with_v else None
    s = rng.standard_normal((s_rows, n)) if s_rows else None
    return SampleBatch(y=y, channels=graph.channels, v=v, s=s)


def _qcqp(m, q, rng):
    d = rng.standard_normal(q)
    c = rng.standard_normal(m)
    return QcqpProblem(
        n_filters=q,
        linear_term=rng.standard_normal((m, q)),
        gain_vector=c,
        target_response=d,
        radius=1.5 * np.linalg.norm(d) / np.linalg.norm(c),
    )


def _assert_c_is_the_frozen_template_plus_branches(c, ref):
    # a C the kernel built at a point that drops no direction is the frozen
    # layout's template of identity entries plus the compressed entries
    c = c.copy()
    c.reshape(-1)[ref.c_index[0]] = 0.0
    assert np.array_equal(c, ref.c_template)


def test_select_updating_node_round_robin():
    assert select_updating_node(0, 5) == 1
    assert select_updating_node(4, 5) == 5
    assert select_updating_node(7, 5) == 3
    assert all(select_updating_node(i, 1) == 1 for i in range(4))


def test_star_tree_shape():
    graph = make_fully_connected(4, 2)
    tree = prune_to_tree(graph, 2)
    assert tree.root == 2
    assert tree.parent == {1: 2, 3: 2, 4: 2}
    assert set(tree.order) == {1, 2, 3, 4} and tree.order[0] == 2
    assert tree.branch_roots() == (1, 3, 4)
    assert all(tree.branch(k) == (k,) for k in (1, 3, 4))


def test_plans_are_per_graph_and_die_with_it():
    # the same root prunes a path to a chain and a complete graph to a star;
    # a graph's plans and layouts go when the graph does, by reference
    # count alone: plans and layouts hold no cycle the collector must find
    gc.collect()
    gc.disable()
    try:
        rng = np.random.default_rng(22)
        prob = MmseProblem(n_filters=1)
        path = make_path(4, 1)
        full = make_fully_connected(4, 1)
        for graph, parent in ((path, {2: 1, 3: 2, 4: 3}), (full, {2: 1, 3: 1, 4: 1})):
            batch = _random_batch(graph, 20, rng, s_rows=1)
            _, info = dasf_step(prob, graph, prob.random_feasible(4, rng), batch, iteration=0)
            assert oracles.layout_views(info.layout, graph)[0].parent == parent
            if graph is path:
                layout = weakref.ref(info.layout)
        assert path in engine._PLANS and full in engine._PLANS

        planned = len(engine._PLANS)
        gone = [weakref.ref(path), layout] + [weakref.ref(p) for p in engine._PLANS[path].values()]
        del path, graph
        assert [ref() for ref in gone] == [None] * len(gone)
        assert len(engine._PLANS) == planned - 1 and full in engine._PLANS
    finally:
        gc.enable()


def test_a_layout_dies_with_its_holder_while_its_plans_live():
    # plans hold arrays only: a layout dasf_step returns is freed once the
    # caller drops it, though its graph and plans are still alive
    gc.collect()
    gc.disable()
    try:
        rng = np.random.default_rng(24)
        prob = MmseProblem(n_filters=1)
        graph = make_path(4, 1)
        batch = _random_batch(graph, 20, rng, s_rows=1)
        _, info = dasf_step(prob, graph, prob.random_feasible(4, rng), batch, iteration=1)
        layout = weakref.ref(info.layout)
        plans = [weakref.ref(p) for p in engine._PLANS[graph].values()]
        del info
        assert layout() is None
        assert all(ref() is not None for ref in plans) and graph in engine._PLANS
    finally:
        gc.enable()


def test_plan_made_once_per_updating_node(monkeypatch):
    # every updating node's plan comes from one pass per (graph, filter
    # width) over its block of roots, made at the block's first request and
    # reused by later runs; a small graph is one block
    passes = []
    real = engine._plan_roots

    def counted(graph, roots, n_filters):
        passes.append((graph, tuple(roots.tolist()), n_filters))
        return real(graph, roots, n_filters)

    monkeypatch.setattr(engine, "_plan_roots", counted)
    rng = np.random.default_rng(23)
    graph = make_random_tree(5, 2, rng_seed=4)
    batch = _random_batch(graph, 60, rng, s_rows=2)
    prob = MmseProblem(n_filters=2)
    for _ in range(2):
        dasf_run(prob, graph, batch, 3 * 5, rng_seed=0)
    dasf_step(prob, graph, prob.random_feasible(graph.total_channels, rng), batch, iteration=3)
    every = (0, 1, 2, 3, 4)
    assert passes == [(graph, every, 2)]
    dasf_run(MmseProblem(n_filters=1), graph, _random_batch(graph, 60, rng, s_rows=1), 5,
             rng_seed=0)
    assert passes == [(graph, every, 2), (graph, every, 1)]

    # blocks of two roots (4 entries over 2 channels): a root's first
    # request plans its block only
    monkeypatch.setattr(engine, "BLOCK_ENTRIES", 2 * graph.total_channels)
    passes.clear()
    other = make_random_tree(5, 2, rng_seed=4)
    dasf_run(prob, other, batch, 3, rng_seed=0)
    assert passes == [(other, (0, 1), 2), (other, (2, 3), 2)]
    dasf_run(prob, other, batch, 5, rng_seed=0)
    assert passes[2:] == [(other, (4,), 2)]
    x = rng.standard_normal((other.total_channels, 2))
    for root in other.nodes:
        by_block, whole = engine._plan(other, root, 2), engine._plan(graph, root, 2)
        assert oracles.layout_views(by_block, other) == oracles.layout_views(whole, graph)
        for name in ("fusion_sends", "mix_sends", "local_dim"):
            assert getattr(by_block, name) == getattr(whole, name), name
        ref = oracles.frozen_plan_local_layout(oracles.frozen_prune_to_tree(other, root), other, 2)
        for layout in (by_block, whole):
            c = build_transition_matrix(other, layout, x)
            _assert_c_is_the_frozen_template_plus_branches(c, ref)


def test_plan_on_a_long_path_stays_small():
    # a short run on a large graph plans the block of roots it visits, not
    # every root: on a 3000-node path (43 roots a block) the first plan
    # request peaks near 40 MB, where planning every root would take K x K
    # index arrays of 72 MB each
    graph = make_path(3000, 1)
    tracemalloc.start()
    try:
        layout = engine._plan(graph, 1500, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    tree, branches, _ = oracles.layout_views(layout, graph)
    assert [seg.root for seg in branches] == [1499, 1501]
    assert tree.parent[1] == 2 and tree.parent[3000] == 2999
    assert layout.fusion_sends[0] == (3000, 2999, "compressed", 1)


_TOPOLOGIES = {
    "fully_connected": lambda k, ch, seed: make_fully_connected(k, ch),
    "erdos_renyi": lambda k, ch, seed: make_erdos_renyi(k, ch, 0.3, rng_seed=seed),
    "random_tree": lambda k, ch, seed: make_random_tree(k, ch, rng_seed=seed),
    "path": lambda k, ch, seed: make_path(k, ch),
}


@pytest.mark.parametrize("kind", sorted(_TOPOLOGIES))
@pytest.mark.parametrize("nodes", [1, 12])
def test_step_tree_is_the_pruned_tree(kind, nodes):
    # the tree a step's fusion sends walk, read back from its layout, is at
    # every updating node the tree prune_to_tree floods
    rng = np.random.default_rng(31)
    graph = _TOPOLOGIES[kind](nodes, 2, 31)
    prob = MmseProblem(n_filters=2)
    batch = _random_batch(graph, 60, rng, s_rows=2)
    x = prob.random_feasible(graph.total_channels, rng)
    for q in graph.nodes:
        _, info = dasf_step(prob, graph, x, batch, iteration=q - 1)
        assert info.node == q
        assert oracles.layout_views(info.layout, graph)[0] == prune_to_tree(graph, q)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(_TOPOLOGIES)),
    nodes=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(kind="path", nodes=1, seed=0)
@example(kind="path", nodes=40, seed=0)
@example(kind="erdos_renyi", nodes=40, seed=1)
def test_graph_plans_equal_the_frozen_per_root_planner(kind, nodes, seed):
    # the planning pass gives every root the tree the pruning as first
    # written gives, and the layout the per-root planner as first written
    # gives, field by field, at a filter width drawn from every valid one;
    # prune_to_tree, seeded or not, and the flood over a block of roots that
    # does not start at the first node give the same trees
    rng = np.random.default_rng(seed)
    channels = tuple(int(c) for c in rng.integers(1, 6, nodes))
    graph = _TOPOLOGIES[kind](nodes, channels, seed)
    n_filters = int(rng.integers(1, graph.total_channels + 1))
    block = np.arange(nodes // 3, nodes)
    depth, parent = breadth_first_forest(graph, block)
    x = rng.standard_normal((graph.total_channels, n_filters))
    for root in graph.nodes:
        layout = engine._plan(graph, root, n_filters)
        tree = oracles.frozen_prune_to_tree(graph, root)
        ours, branches, fallback = oracles.layout_views(layout, graph)
        assert (ours.root, ours.parent, ours.order) == (tree.root, tree.parent, tree.order)
        assert all(ours.children(k) == tree.children(k) for k in graph.nodes)
        assert ours == tree == prune_to_tree(graph, root)
        if root - 1 in block:
            at = root - 1 - block[0]
            assert PrunedTree.from_arrays(depth[at].argsort(kind="stable"), parent[at]) == tree
        ref = oracles.frozen_plan_local_layout(tree, graph, n_filters)
        for name in ("node", "n_filters", "own_channels", "own_rows", "local_dim",
                     "fusion_sends", "mix_sends", "fusion_rows", "mix_rows"):
            assert getattr(layout, name) == getattr(ref, name), name
        assert (branches, fallback) == (ref.branches, ref.fallback)
        for seg, ref_seg in zip(branches, ref.branches):
            assert np.array_equal(seg.rows, ref_seg.rows) and seg.rows.dtype == ref_seg.rows.dtype
        for ours_a, ref_a in zip(layout.c_index[:2], ref.c_index[:2]):
            assert ours_a.shape == ref_a.shape and ours_a.dtype == ref_a.dtype
            assert np.array_equal(ours_a, ref_a) and not ours_a.flags.writeable
        assert layout.c_index[2] == ref.c_index[2]
        assert not layout.c_index[3].flags.writeable
        _assert_c_is_the_frozen_template_plus_branches(
            build_transition_matrix(graph, layout, x), ref)
        # a tree handed in, seeded ties too, is planned by the same rules
        seeded = prune_to_tree(graph, root, rng_seed=seed)
        assert seeded == oracles.frozen_prune_to_tree(graph, root, rng_seed=seed)
        by_tree = oracles.plan_tree_layout(seeded, graph, n_filters)
        ref = oracles.frozen_plan_local_layout(seeded, graph, n_filters)
        seeded_tree, branches, fallback = oracles.layout_views(by_tree, graph)
        assert (seeded_tree, branches, by_tree.fusion_sends, by_tree.mix_sends, fallback) == (
            seeded, ref.branches, ref.fusion_sends, ref.mix_sends, ref.fallback)
        assert by_tree.c_index[2] == ref.c_index[2]
        _assert_c_is_the_frozen_template_plus_branches(
            build_transition_matrix(graph, by_tree, x), ref)


# ---------------------------------------------------------------------------
# layout planning


def test_layout_all_compressed():
    graph = make_path(3, 2)
    tree = prune_to_tree(graph, 3)
    layout = oracles.plan_tree_layout(tree, graph, 1)
    _, branches, fallback = oracles.layout_views(layout, graph)
    assert layout.node == 3
    assert layout.own_channels == 2
    assert not fallback
    assert layout.local_dim == 3          # 2 own + 1 compressed branch
    (seg,) = branches
    assert seg.root == 2 and seg.members == (2, 1) and not seg.raw
    assert seg.offset == 2 and seg.width == 1


def test_layout_single_fallback_inside_branch():
    graph = NetworkGraph(
        adjacency=np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
        channels=(1, 1, 3),
    )
    tree = prune_to_tree(graph, 3)
    layout = oracles.plan_tree_layout(tree, graph, 2)
    _, branches, fallback = oracles.layout_views(layout, graph)
    assert fallback == frozenset({1})
    (seg,) = branches
    assert not seg.raw and seg.width == 2  # branch root still compresses
    assert oracles.subtree_channels(graph, tree, 2) == 2
    assert {k: tree.branch(k) for k in fallback} == {1: (1,)}


def test_layout_whole_branch_raw():
    graph = NetworkGraph(
        adjacency=np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
        channels=(4, 1, 1),
    )
    tree = prune_to_tree(graph, 1)
    layout = oracles.plan_tree_layout(tree, graph, 3)
    _, branches, fallback = oracles.layout_views(layout, graph)
    assert fallback == frozenset({2, 3})
    (seg,) = branches
    assert seg.raw and seg.root == 2
    assert seg.members == (2, 3)
    assert seg.width == 2 and seg.offset == 4
    assert tree.branch(2) == (2, 3)
    assert layout.local_dim == 6


def test_layout_rejects_filter_wider_than_network():
    graph = make_path(3, 1)
    tree = prune_to_tree(graph, 1)
    with pytest.raises(ValueError):
        oracles.plan_tree_layout(tree, graph, 4)


# ---------------------------------------------------------------------------
# transition matrix and anchor


def test_transition_matrix_structure_fully_connected():
    graph = make_fully_connected(3, 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 1))
    tree = prune_to_tree(graph, 2)
    layout = oracles.plan_tree_layout(tree, graph, 1)
    c = build_transition_matrix(graph, layout, x)
    anchor = c.T @ x
    expected = np.zeros((6, 4))
    expected[2:4, 0:2] = np.eye(2)     # updating node rows
    expected[0:2, 2] = x[0:2, 0]       # branch 1, whitened up to sign
    expected[4:6, 3] = x[4:6, 0]       # branch 3, whitened up to sign
    assert np.array_equal(c != 0.0, expected != 0.0)
    assert np.array_equal(c[:, :2], expected[:, :2])
    # the SVD picks each column's sign; its column times its anchor entry
    # is the branch's filter block, whose norm the entry carries
    for col, rows in ((2, slice(0, 2)), (3, slice(4, 6))):
        assert np.allclose(c[rows, col] * anchor[col, 0], x[rows, 0], rtol=0, atol=1e-15)
        assert abs(anchor[col, 0]) == pytest.approx(np.linalg.norm(x[rows]), rel=1e-15)


def test_anchor_maps_back_to_current_filter():
    rng = np.random.default_rng(1)
    graph = make_random_tree(6, 2, rng_seed=3)
    x = rng.standard_normal((12, 2))
    for q in graph.nodes:
        tree = prune_to_tree(graph, q)
        layout = oracles.plan_tree_layout(tree, graph, 2)
        c = build_transition_matrix(graph, layout, x)
        anchor = c.T @ x
        assert anchor.shape == (layout.local_dim, 2)
        assert np.allclose(c @ anchor, x, atol=1e-13)


def test_transition_matrix_one_block_per_row():
    rng = np.random.default_rng(2)
    graph = make_random_tree(5, 3, rng_seed=9)
    x = rng.standard_normal((15, 2))
    tree = prune_to_tree(graph, 4)
    layout = oracles.plan_tree_layout(tree, graph, 2)
    c = build_transition_matrix(graph, layout, x)
    branches = oracles.layout_views(layout, graph)[1]
    bounds = [0] + [seg.offset for seg in branches] + [layout.local_dim]
    for k in graph.nodes:
        rows = c[graph.block_slice(k)]
        hits = sum(
            1 for a, b in zip(bounds, bounds[1:])
            if np.any(rows[:, a:b] != 0.0)
        )
        assert hits == 1


def _local_instance(problem, graph, layout, x, batch):
    """The compressed instance the updating node solves, and its C: the
    network-wide instance taken through the transition matrix."""
    c = build_transition_matrix(graph, layout, x)
    anchor = c.T @ x
    return centralized_instance(problem, batch).compressed(c, anchor), c


def test_compressed_terms_equal_transition_products():
    rng = np.random.default_rng(3)
    graph = make_random_tree(6, 2, rng_seed=5)
    prob = _qcqp(12, 2, rng)
    batch = _random_batch(graph, 40, rng)
    x = prob.random_feasible(12, rng)
    tree = prune_to_tree(graph, 3)
    layout = oracles.plan_tree_layout(tree, graph, 2)
    inst, c = _local_instance(prob, graph, layout, x, batch)
    assert np.allclose(inst.cov_y, c.T @ batch.cov_y @ c, atol=1e-12)
    assert np.allclose(inst.term("linear"), c.T @ prob.linear_term, atol=1e-12)
    assert np.allclose(inst.term("gain"), c.T @ prob.gain_vector[:, None], atol=1e-12)
    # the local metric C^T C is the identity: each compressed branch block
    # is X_b T_b with T_b whitening the branch's Gram
    assert np.allclose(c.T @ c, np.eye(layout.local_dim), atol=1e-12)
    for seg, cols, t in oracles.branch_maps(graph, layout, x, c):
        assert np.allclose(x[seg.rows] @ t, c[seg.rows, cols], atol=1e-12)
        gram = x[seg.rows].T @ x[seg.rows]
        assert np.allclose(t.T @ gram @ t, np.eye(t.shape[1]), atol=1e-12)


def test_local_objective_matches_global_through_map():
    rng = np.random.default_rng(4)
    graph = make_random_tree(5, 2, rng_seed=11)
    prob = _qcqp(10, 2, rng)
    batch = _random_batch(graph, 60, rng)
    x = prob.random_feasible(10, rng)
    tree = prune_to_tree(graph, 2)
    layout = oracles.plan_tree_layout(tree, graph, 2)
    inst, c = _local_instance(prob, graph, layout, x, batch)
    for _ in range(5):
        cand = rng.standard_normal((layout.local_dim, 2))
        lifted = c @ cand
        assert inst.objective(cand) == pytest.approx(
            evaluate_objective(prob, lifted, batch), rel=1e-10)
        assert np.allclose(inst.residuals(cand), prob.residuals_on(lifted),
                           atol=1e-10)


def test_path_fusion_hand_unrolled():
    rng = np.random.default_rng(5)
    graph = make_path(3, 2)
    x = rng.standard_normal((6, 1))
    batch = _random_batch(graph, 25, rng)
    tree = prune_to_tree(graph, 3)
    layout = oracles.plan_tree_layout(tree, graph, 1)
    fused = oracles.fuse_and_forward(graph, tree, layout, x, batch.y, "y")
    # node 1 filters its rows, node 2 adds its own filtered rows and relays
    relay = x[0:2].T @ batch.y[0:2] + x[2:4].T @ batch.y[2:4]
    assert np.allclose(fused[0:2], batch.y[4:6], atol=0)
    assert np.allclose(fused[2:], relay, atol=1e-13)


def test_raw_rows_arrive_unchanged():
    graph = NetworkGraph(
        adjacency=np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
        channels=(4, 1, 1),
    )
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 3))
    batch = _random_batch(graph, 10, rng)
    tree = prune_to_tree(graph, 1)
    layout = oracles.plan_tree_layout(tree, graph, 3)
    fused = oracles.fuse_and_forward(graph, tree, layout, x, batch.y, "y")
    assert np.array_equal(fused[0:4], batch.y[0:4])
    assert np.array_equal(fused[4], batch.y[4])   # node 2's raw row
    assert np.array_equal(fused[5], batch.y[5])   # node 3's raw row


def test_step_update_applies_branch_mixing_blocks():
    rng = np.random.default_rng(7)
    # node 4 (3 channels) roots a compressed branch; node 2 (1 channel) a raw one
    graph = NetworkGraph(
        adjacency=np.array([[0, 1, 0, 1, 0],
                            [1, 0, 0, 0, 0],
                            [0, 0, 0, 1, 0],
                            [1, 0, 1, 0, 1],
                            [0, 0, 0, 1, 0]]),
        channels=(2, 1, 2, 3, 1),
    )
    prob = MmseProblem(n_filters=2)
    batch = _random_batch(graph, 80, rng, s_rows=2)
    x = prob.random_feasible(graph.total_channels, rng)
    x_next, info = dasf_step(prob, graph, x, batch, iteration=0)
    layout, x_local = info.layout, info.x_local
    assert layout.node == 1
    assert {seg.raw for seg in oracles.layout_views(layout, graph)[1]} == {True, False}
    assert np.array_equal(x_next[layout.own_rows], x_local[:layout.own_channels])
    for seg, cols, t in oracles.branch_maps(graph, layout, x, info.transition):
        block = x_local[cols]
        if seg.raw:
            assert np.allclose(x_next[seg.rows], block, atol=1e-13)
            continue
        # every member of a compressed branch applies the branch's Q x Q
        # mixing block T_b x'_b, with T_b whitening the branch's Gram
        mix = t @ block
        assert mix.shape == (2, 2)
        for k in seg.members:
            assert np.allclose(x_next[graph.block_slice(k)],
                               x[graph.block_slice(k)] @ mix, atol=1e-13)


def test_step_update_is_consistent_with_local_solution():
    rng = np.random.default_rng(8)
    graph = make_random_tree(5, 3, rng_seed=2)
    prob = TroProblem(n_filters=2)
    batch = _random_batch(graph, 300, rng, with_v=True)
    x = prob.random_feasible(15, rng)
    x_next, info = dasf_step(prob, graph, x, batch, iteration=3)
    assert info.node == select_updating_node(3, 5)
    assert np.allclose(x_next, info.transition @ info.x_local, atol=1e-12)
    # the network-wide filtered powers equal the local ones after lifting
    lifted = info.transition @ info.x_local
    for network, local in ((batch.cov_y, info.instance.cov_y), (batch.cov_v, info.instance.cov_v)):
        local_power = info.x_local.T @ local @ info.x_local
        assert np.allclose(lifted.T @ network @ lifted, local_power,
                           atol=1e-9 * max(1.0, np.abs(local_power).max()))


def test_single_node_step_is_centralized_solve():
    rng = np.random.default_rng(9)
    graph = make_fully_connected(1, 5)
    prob = MmseProblem(n_filters=2)
    batch = _random_batch(graph, 200, rng, s_rows=2)
    x0 = prob.random_feasible(5, rng)
    x_next, info = dasf_step(prob, graph, x0, batch, iteration=0)
    direct = solve_centralized(prob, batch)
    assert np.allclose(x_next, direct.x, atol=1e-12)
    assert info.transition.shape == (5, 5)
    assert np.array_equal(info.transition, np.eye(5))


def test_fc_and_ti_modes_identical_on_complete_graph():
    rng = np.random.default_rng(10)
    graph = make_fully_connected(4, 2)
    prob = TroProblem(n_filters=2)
    batch = _random_batch(graph, 400, rng, with_v=True)
    x0 = prob.random_feasible(8, rng)
    run_fc = dasf_run(prob, graph, batch, 12, mode="fc", x0=x0)
    run_ti = dasf_run(prob, graph, batch, 12, mode="ti", x0=x0)
    for a, b in zip(run_fc.x_history, run_ti.x_history):
        assert np.array_equal(a, b)


def test_fc_mode_rejects_incomplete_graph():
    rng = np.random.default_rng(11)
    graph = make_path(3, 2)
    prob = MmseProblem(n_filters=1)
    batch = _random_batch(graph, 50, rng, s_rows=1)
    x0 = prob.random_feasible(6, rng)
    with pytest.raises(ValueError, match="^mode 'fc' requires a fully connected network$"):
        dasf_step(prob, graph, x0, batch, iteration=0, mode="fc")
    with pytest.raises(ValueError, match="^mode 'fc' requires a fully connected network$"):
        dasf_run(prob, graph, batch, 3, mode="fc", x0=x0)
    with pytest.raises(ValueError, match="^unknown mode 'xx'$"):
        dasf_step(prob, graph, x0, batch, iteration=0, mode="xx")


# ---------------------------------------------------------------------------
# the planned step kernel against the step loop as first planned


def _kernel_case(kind, topology, q, rng):
    """A problem, graph, batch list and feasible x0 for the equality tests:
    trees carry 1 or 2 channels per node, so Q = 3 plans raw branches."""
    if topology == "tree":
        graph = make_random_tree(7, [1 + k % 2 for k in range(7)], rng_seed=rng)
    elif topology == "er":
        graph = make_erdos_renyi(10, 3, 0.4, rng)
    else:
        graph = make_fully_connected(4, 2)
    m = graph.total_channels
    if kind == "mmse":
        prob = MmseProblem(n_filters=q)
    elif kind == "tro":
        prob = TroProblem(n_filters=q)
    elif kind == "qcqp":
        prob = _qcqp(m, q, rng)
    else:
        prob = ScqpProblem(n_filters=q, linear_term=rng.standard_normal((m, q)))
    batches = [_random_batch(graph, 80, rng, with_v=kind == "tro", s_rows=q if kind == "mmse" else 0)
               for _ in range(3)]
    return prob, graph, batches, prob.random_feasible(m, rng)


def _assert_runs_bitwise_equal(run, frozen):
    assert len(run.x_history) == len(frozen.x_history)
    for a, b in zip(run.x_history, frozen.x_history):
        assert np.array_equal(a, b)
    # every field, by its bits, so that NaN epsilons compare equal
    for r, f in zip(run.records, frozen.records):
        assert type(r) is type(f)
        assert [np.float64(v).tobytes() for v in r] == [np.float64(v).tobytes() for v in f]
    assert len(run.records) == len(frozen.records)
    assert run.transport.scalars() == frozen.transport.scalars()
    assert run.transport.sent() == frozen.transport.sent()
    assert (run.reference is None) == (frozen.reference is None)
    if run.reference is not None:
        assert np.array_equal(run.reference, frozen.reference)


@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("topology", ["tree", "er", "fc"])
@pytest.mark.parametrize("kind", ["mmse", "qcqp", "tro", "scqp"])
def test_run_is_bitwise_the_frozen_step_loop(kind, topology, q):
    # fixed batch with a fixed reference, then a callable batch (a fresh
    # batch per iteration) with a callable reference
    rng = np.random.default_rng(zlib.crc32(f"{kind}-{topology}-{q}".encode()))
    prob, graph, batches, x0 = _kernel_case(kind, topology, q, rng)
    mode = "fc" if topology == "fc" else "ti"
    n = 2 * graph.node_count + 1
    reference = solve_centralized(prob, batches[0]).x
    for batch, ref in ((batches[0], reference),
                       (lambda i: batches[i % 3], lambda i: (1.0 + i) * reference)):
        kwargs = dict(mode=mode, x0=x0, reference=ref, run_index=4)
        run = dasf_run(prob, graph, batch, n, **kwargs)
        frozen = oracles.frozen_dasf_run(prob, graph, batch, n, **kwargs)
        if callable(batch):
            # an adaptive run records the objective of the local instance it
            # solved, the network-wide one up to the rounding of its terms;
            # every other field stays bitwise
            assert len(run.records) == len(frozen.records)
            for r, f in zip(run.records, frozen.records):
                assert abs(r.objective - f.objective) <= 1e-12 * abs(f.objective)
            frozen.records = [f._replace(objective=r.objective)
                              for r, f in zip(run.records, frozen.records)]
        _assert_runs_bitwise_equal(run, frozen)


@pytest.mark.parametrize("kind", ["mmse", "scqp"])
def test_run_is_bitwise_the_frozen_step_loop_with_a_dropped_direction(kind):
    # two equal columns on the rows of nodes 3 and 4: the Gram of that
    # branch has rank 1 of 2 when node 2 updates, so the masked path runs
    rng = np.random.default_rng(60)
    graph = make_path(4, 2)
    prob = (MmseProblem(n_filters=2) if kind == "mmse"
            else ScqpProblem(n_filters=2, linear_term=rng.standard_normal((8, 2))))
    batch = _random_batch(graph, 80, rng, s_rows=2 if kind == "mmse" else 0)
    x0 = rng.standard_normal((8, 2))
    x0[4:, 1] = x0[4:, 0]
    x0 /= np.sqrt(np.sum(x0 * x0))      # on the unit sphere, for scqp
    run = dasf_run(prob, graph, batch, 9, x0=x0)
    _assert_runs_bitwise_equal(run, oracles.frozen_dasf_run(prob, graph, batch, 9, x0=x0))
    full = oracles.plan_tree_layout(prune_to_tree(graph, 2), graph, 2).local_dim
    assert run.records[1].node == 2 and run.records[1].local_dim < full


def test_transition_matrix_is_bitwise_the_frozen_one(monkeypatch):
    # every node of three topologies, at a generic point, at one whose
    # branches drop directions, and at ill-conditioned ones, with and without
    # a dropped direction; one dgesvd per compressed branch
    rng = np.random.default_rng(61)
    svds = []
    monkeypatch.setattr(engine, "dgesvd",
                        lambda a, svd=engine.dgesvd, **kw: svds.append(1) or svd(a, **kw))
    dropped = compressed = 0
    for graph in (make_random_tree(8, [1 + k % 3 for k in range(8)], rng_seed=rng),
                  make_erdos_renyi(7, 2, 0.4, rng), make_fully_connected(4, 3)):
        for q in (1, 2, 3):
            x = rng.standard_normal((graph.total_channels, q))
            deficient, ill = x.copy(), x.copy()
            deficient[:, -1] = deficient[:, 0]
            ill[:, -1] = ill[:, 0] + 1e-4 * rng.standard_normal(graph.total_channels)
            both = ill.copy()
            both[:, 1 % q] = both[:, 0]
            for node in graph.nodes:
                tree = prune_to_tree(graph, node)
                layout = oracles.plan_tree_layout(tree, graph, q)
                branches = oracles.layout_views(layout, graph)[1]
                for point in (x, deficient, ill, both):
                    c = build_transition_matrix(graph, layout, point)
                    anchor = c.T @ point
                    if point is x:
                        _assert_c_is_the_frozen_template_plus_branches(
                            c, oracles.frozen_plan_local_layout(tree, graph, q))
                    c_ref, anchor_ref = oracles.frozen_transition_matrix(graph, layout, point)
                    assert np.array_equal(c, c_ref) and np.array_equal(anchor, anchor_ref)
                    compressed += sum(not seg.raw for seg in branches)
                    dropped += c.shape[1] < layout.local_dim
    assert dropped and len(svds) == compressed and not layout.c_index[3].flags.writeable


@pytest.mark.parametrize("kind", ["mmse", "qcqp", "tro", "scqp"])
def test_step_forms_the_anchor_only_for_families_that_read_it(kind):
    # MMSE's closed form never reads C^T x, so its instances carry none; the
    # other families' instances carry the anchor C^T x of the step's C, at
    # every node of the round robin
    rng = np.random.default_rng(zlib.crc32(f"anchor-{kind}".encode()))
    prob, graph, batches, x = _kernel_case(kind, "er", 2, rng)
    assert prob.uses_anchor == (kind != "mmse")
    for iteration in range(graph.node_count):
        x_next, info = dasf_step(prob, graph, x, batches[iteration % 3], iteration)
        c = build_transition_matrix(graph, info.layout, x)
        anchor = c.T @ x
        assert np.array_equal(info.transition, c)
        if kind == "mmse":
            assert info.instance.anchor is None
            assert info.outcome.residuals.shape == (0,)
            assert not info.outcome.residuals.flags.writeable
        else:
            assert np.array_equal(info.instance.anchor, anchor)
        x = x_next


# ---------------------------------------------------------------------------
# statistics-domain engine against the sample-domain oracle


def _family_problem(kind, m, q, rng):
    if kind == "mmse":
        return MmseProblem(n_filters=q)
    if kind == "tro":
        return TroProblem(n_filters=q)
    if kind == "scqp":
        return ScqpProblem(n_filters=q, linear_term=rng.standard_normal((m, q)))
    return _qcqp(m, q, rng)


def _oracle_case(kind, topology):
    rng = np.random.default_rng(25)
    if topology == "tree":
        # single-channel leaves below Q = 3 forward raw rows
        graph = make_random_tree(8, (1, 2, 1, 1, 2, 1, 3, 1), rng_seed=5)
        q = 3
    else:
        graph = make_erdos_renyi(6, 2, 0.5, rng_seed=7)
        q = 2
    m, n = graph.total_channels, 400
    prob = _family_problem(kind, m, q, rng)
    sources = rng.standard_normal((q, n))
    y = rng.uniform(-0.5, 0.5, (m, q)) @ sources + 0.3 * rng.standard_normal((m, n))
    v = y + rng.uniform(-0.5, 0.5, (m, q)) @ rng.standard_normal((q, n)) if kind == "tro" else None
    batch = SampleBatch(y=y, channels=graph.channels, v=v,
                        s=sources if kind == "mmse" else None)
    x0 = prob.random_feasible(m, rng)
    return prob, graph, batch, dasf_run(prob, graph, batch, 40, x0=x0, warn_on_bound=False)


@pytest.mark.parametrize("topology", ["tree", "erdos_renyi"])
@pytest.mark.parametrize("kind", ["mmse", "qcqp", "tro", "scqp"])
def test_statistics_engine_matches_sample_domain_oracle(kind, topology):
    prob, graph, batch, result = _oracle_case(kind, topology)
    x0 = result.x_history[0]
    log = TransportLog()
    x = x0
    for i, got in enumerate(result.x_history[1:]):
        x = oracles.sample_domain_step(prob, graph, x, batch, i, log)
        assert np.abs(got - x).max() <= 1e-10 * np.abs(x).max(), i
    assert result.transport.records == log.records
    assert (topology == "tree") == any(r.kind == "raw" for r in log.records)


def test_statistics_engine_matches_sample_domain_oracle_per_step():
    # each step from the engine's own iterate, which the trajectory test
    # follows only from x0: one branch Gram of this case reaches a condition
    # number of about 6.5e6, where a single whitening from the Gram put the
    # two steps 2.9e-10 apart
    prob, graph, batch, result = _oracle_case("qcqp", "tree")
    for i, (x, got) in enumerate(zip(result.x_history, result.x_history[1:])):
        want = oracles.sample_domain_step(prob, graph, x, batch, i, TransportLog())
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), i


# ---------------------------------------------------------------------------
# transport accounting


def test_transport_log_and_audit_on_step():
    rng = np.random.default_rng(12)
    graph = make_path(4, 2)
    prob = _qcqp(8, 2, rng)
    batch = _random_batch(graph, 100, rng)
    x = prob.random_feasible(8, rng)
    log = TransportLog()
    dasf_step(prob, graph, x, batch, iteration=0, log=log)
    audit = audit_transport(log, 2)
    assert audit.ok, audit.issues
    assert audit.signal_records == 3          # 3 edges, one y send each
    assert audit.mix_records == 3
    assert audit.det_records == 6
    # deterministic terms ride the tree under their own stream names
    det = [r for r in log.records if r.stream.startswith("det:")]
    assert {r.stream for r in det} == {"det:linear", "det:gain"}
    assert len(det) == 6
    # every sender stays within the per-stream channel cap
    for sender in (1, 2, 3):
        rows = sum(r.rows for r in log.sent(iteration=0, sender=sender, stream="y"))
        assert rows <= 2
    assert log.scalars() == sum(r.scalars for r in log.sent(iteration=0))
    assert len(log) == len(log.records)


def test_transport_raw_records_below_cap():
    graph = NetworkGraph(
        adjacency=np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
        channels=(4, 1, 1),
    )
    rng = np.random.default_rng(13)
    prob = MmseProblem(n_filters=3)
    batch = _random_batch(graph, 80, rng, s_rows=3)
    x = prob.random_feasible(6, rng)
    log = TransportLog()
    dasf_step(prob, graph, x, batch, iteration=0, log=log)
    audit = audit_transport(log, 3)
    assert audit.ok, audit.issues
    assert audit.raw_records == 2
    for rec in log.sent(kind="raw"):
        assert rec.rows < 3


def test_run_tx_samples_match_transport_log():
    # a path whose thin end forwards raw rows toward node 1: each
    # iteration's count covers exactly the records that iteration appended
    graph = make_path(3, (4, 1, 1))
    rng = np.random.default_rng(20)
    prob = MmseProblem(n_filters=3)
    batch = _random_batch(graph, 60, rng, s_rows=3)
    result = dasf_run(prob, graph, batch, 9, rng_seed=4)
    log = result.transport
    assert log.sent(kind="raw")
    for rec in result.records:
        assert rec.tx_samples == sum(r.scalars for r in log.sent(iteration=rec.iteration))
    assert sum(rec.tx_samples for rec in result.records) == log.scalars()


def test_run_builds_no_transport_records(monkeypatch):
    # the log keeps the plans' schedules; records are made only on query
    made = []
    real = engine.TransportRecord

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "TransportRecord", counting)
    graph = make_path(3, (4, 1, 1))
    rng = np.random.default_rng(21)
    prob = MmseProblem(n_filters=3)
    result = dasf_run(prob, graph, _random_batch(graph, 60, rng, s_rows=3), 9, rng_seed=4)
    assert not made
    assert len(result.transport.records) == len(made) == len(result.transport) > 0


def test_run_does_not_query_the_log(monkeypatch):
    # per-step queries of a growing log would make a run quadratic
    calls = []
    real_scalars, real_sent = TransportLog.scalars, TransportLog.sent
    monkeypatch.setattr(TransportLog, "scalars",
                        lambda self: calls.append("scalars") or real_scalars(self))
    monkeypatch.setattr(TransportLog, "records",
                        property(lambda self: calls.append("records") or real_sent(self)))
    monkeypatch.setattr(TransportLog, "sent",
                        lambda self, *a, **kw: calls.append("sent") or real_sent(self, *a, **kw))
    graph = make_random_tree(6, (1, 2, 1, 3, 1, 2), rng_seed=3)
    rng = np.random.default_rng(22)
    prob = MmseProblem(n_filters=2)
    result = dasf_run(prob, graph, _random_batch(graph, 50, rng, s_rows=2), 12, rng_seed=5)
    assert calls == []
    assert result.transport.scalars() == sum(rec.tx_samples for rec in result.records)
    assert calls == ["scalars"]


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=500),
    kind=st.sampled_from(["mmse", "qcqp"]),
)
def test_log_totals_equal_expanded_records_property(nodes, seed, kind):
    rng = np.random.default_rng(seed)
    channels = tuple(int(c) for c in rng.integers(1, 4, nodes))
    graph = make_random_tree(nodes, channels, rng_seed=seed)
    q = int(rng.integers(1, min(3, graph.total_channels) + 1))
    prob = _family_problem(kind, graph.total_channels, q, rng)
    batch = _random_batch(graph, 30, rng, s_rows=q if kind == "mmse" else 0)
    result = dasf_run(prob, graph, batch, nodes + 2, rng_seed=seed, warn_on_bound=False)
    log = result.transport
    records = log.records
    assert len(log) == len(records)
    assert log.scalars() == sum(r.scalars for r in records)
    for rec in result.records:
        assert rec.tx_samples == sum(r.scalars for r in records if r.iteration == rec.iteration)
        assert rec.tx_samples == sum(r.scalars for r in log.sent(iteration=rec.iteration))


def test_audit_sums_added_records_into_a_schedule_group():
    # a plan's schedule within the cap, plus one added record of the same
    # iteration, sender and stream: only their sum breaks it
    log = TransportLog()
    schedule = ((2, 1, "compressed", 2), (3, 2, "raw", 1))
    log.add_sends(4, "y", 10, schedule, 3)
    log.add_sends(5, "y", 10, schedule, 3)
    log.add(TransportRecord(iteration=4, sender=2, receiver=1, stream="y",
                            kind="raw", rows=1, cols=10))
    audit = audit_transport(log, 2)
    assert audit.issues == ("iteration 4: node 2 sent 3 channels of stream 'y', cap is 2",)
    assert (audit.signal_records, audit.raw_records) == (5, 3)
    assert audit == oracles.frozen_audit_transport(log, 2)


_SENDS = st.tuples(st.integers(1, 5), st.integers(1, 5),
                   st.sampled_from(["compressed", "raw", "mix_block", "new_block"]),
                   st.integers(0, 6))
_ITERATIONS = st.integers(0, 3)
_STREAMS = st.sampled_from(["y", "v", "mix", "det:linear", "det:gain"])


@settings(max_examples=200, deadline=None)
@given(
    n_filters=st.integers(1, 4),
    schedules=st.lists(st.lists(_SENDS, max_size=6).map(tuple), min_size=1, max_size=4),
    entries=st.lists(st.one_of(
        # a shared schedule, or an equal-valued copy of it
        st.tuples(st.just("schedule"), _ITERATIONS, _STREAMS, st.integers(1, 5),
                  st.integers(0, 3), st.booleans()),
        # one record from add(), into any (iteration, stream) group
        st.tuples(st.just("add"), _ITERATIONS, _STREAMS, st.integers(1, 5), _SENDS),
    ), max_size=25),
)
def test_audit_equals_the_frozen_audit_property(n_filters, schedules, entries):
    log = TransportLog()
    for entry in entries:
        if entry[0] == "schedule":
            _, iteration, stream, cols, at, copy = entry
            sends = schedules[at % len(schedules)]
            if copy:
                sends = tuple(list(sends))
            log.add_sends(iteration, stream, cols, sends, sum(s[3] for s in sends))
        else:
            _, iteration, stream, cols, (sender, receiver, kind, rows) = entry
            log.add(TransportRecord(iteration, sender, receiver, stream, kind, rows, cols))
    assert audit_transport(log, n_filters) == oracles.frozen_audit_transport(log, n_filters)


def test_long_run_audit_reads_each_schedule_once(monkeypatch):
    # the long_tree_smallN shape: 2000 iterations, 60,000 sends; the audit
    # expands no record and peaks far below one record per send
    rng = np.random.default_rng(23)
    graph = make_random_tree(16, [1 + k % 2 for k in range(16)], rng)
    prob = MmseProblem(n_filters=3)
    result = dasf_run(prob, graph, _random_batch(graph, 200, rng, s_rows=3), 2000, rng_seed=6)
    log = result.transport
    assert len(log) == 60_000
    expected = oracles.frozen_audit_transport(log, 3)
    tracemalloc.start()
    try:
        audit = audit_transport(log, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit == expected and audit.ok
    assert peak < 1_000_000, peak

    def refuse(*args, **kwargs):
        raise AssertionError("the audit expanded the log")

    monkeypatch.setattr(TransportLog, "sent", refuse)
    assert audit_transport(log, 3) == expected


def test_audit_flags_violations():
    log = TransportLog()
    log.add(TransportRecord(iteration=0, sender=1, receiver=2, stream="y",
                            kind="compressed", rows=3, cols=10))
    audit = audit_transport(log, 2)
    assert not audit.ok and "cap is 2" in audit.issues[0]

    log2 = TransportLog()
    log2.add(TransportRecord(iteration=0, sender=1, receiver=2, stream="y",
                             kind="raw", rows=2, cols=10))
    audit2 = audit_transport(log2, 2)
    assert not audit2.ok
    assert any("raw" in issue for issue in audit2.issues)


# ---------------------------------------------------------------------------
# run loop, records, references


def test_run_records_structure_without_reference():
    rng = np.random.default_rng(14)
    graph = make_fully_connected(3, 2)
    prob = MmseProblem(n_filters=1)
    batch = _random_batch(graph, 150, rng, s_rows=1)
    result = dasf_run(prob, graph, batch, 5, mode="fc", rng_seed=0)
    assert len(result.records) == 5
    assert len(result.x_history) == 6
    for i, rec in enumerate(result.records):
        assert rec.iteration == i
        assert rec.node == i % 3 + 1
        assert np.isnan(rec.epsilon)
        assert rec.tx_samples > 0
    assert result.reference is None


def test_run_epsilon_against_fixed_reference():
    rng = np.random.default_rng(15)
    graph = make_fully_connected(4, 2)
    prob = MmseProblem(n_filters=1)
    batch = _random_batch(graph, 2000, rng, s_rows=1)
    ref = solve_centralized(prob, batch).x
    result = dasf_run(prob, graph, batch, 8, mode="fc", rng_seed=1, reference=ref)
    eps = result.epsilon_trace()
    assert eps[-1] < 1e-6
    assert eps[-1] < eps[0]
    assert eps[-1] == pytest.approx(normalized_error(result.final_x, ref))


def test_run_callable_reference_used_per_iteration():
    rng = np.random.default_rng(16)
    graph = make_fully_connected(3, 2)
    prob = MmseProblem(n_filters=1)
    batch = _random_batch(graph, 300, rng, s_rows=1)
    seen = []

    def ref(i):
        seen.append(i)
        return np.ones((6, 1))

    result = dasf_run(prob, graph, batch, 4, mode="fc", rng_seed=2, reference=ref)
    assert seen == [0, 1, 2, 3]
    for rec, xi in zip(result.records, result.x_history[1:]):
        assert rec.epsilon == pytest.approx(normalized_error(xi, np.ones((6, 1))))


def test_run_rejects_bad_x0_shape():
    rng = np.random.default_rng(18)
    graph = make_fully_connected(3, 2)
    prob = MmseProblem(n_filters=1)
    batch = _random_batch(graph, 50, rng, s_rows=1)
    with pytest.raises(ValueError):
        dasf_run(prob, graph, batch, 2, x0=np.zeros((5, 1)))


def test_normalized_error_values():
    ref = np.array([[1.0], [2.0]])
    assert normalized_error(ref, ref) == 0.0
    assert normalized_error(2 * ref, ref) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalized_error(ref, np.zeros((2, 1)))
    # a stack of points against a stack of references: one energy per reference
    refs = np.stack([ref, 3 * ref, -ref])
    points = np.stack([2 * ref, ref, ref])
    assert np.allclose(normalized_error(points, refs), [1.0, 4 / 9, 4.0], rtol=1e-15)
    with pytest.raises(ValueError):
        normalized_error(points, np.stack([ref, np.zeros((2, 1)), ref]))


def test_align_to_anchor_recovers_rotated_solution():
    rng = np.random.default_rng(19)
    base, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    aligned = align_to_anchor(base, base @ rot, "orthogonal")
    assert np.allclose(aligned, base @ rot, atol=1e-10)
    assert align_to_anchor(base, base @ rot, "none") is base


def test_records_csv_round_trip(tmp_path):
    records = [
        ConvergenceRecord(run=0, iteration=0, node=1, objective=-1.25,
                          epsilon=float("nan"), max_residual=0.0, tx_samples=40,
                          solver_iters=3, local_dim=7),
        ConvergenceRecord(run=0, iteration=1, node=2, objective=-2.5,
                          epsilon=0.125, max_residual=1e-12, tx_samples=40,
                          solver_iters=1, local_dim=5),
    ]
    path = tmp_path / "run.csv"
    write_records_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER.split(",")
    assert rows[0][-2:] == ["solver_iters", "local_dim"]
    assert rows[1][:3] == ["0", "0", "1"]
    assert rows[1][4] == "nan"
    assert float(rows[2][4]) == 0.125
    assert rows[1][-2:] == ["3", "7"] and rows[2][-2:] == ["1", "5"]
    assert len(rows) == 3


def test_run_records_carry_solver_effort():
    rng = np.random.default_rng(24)
    graph = make_path(4, 2)
    prob = TroProblem(n_filters=2)
    batch = _random_batch(graph, 200, rng, with_v=True)
    x0 = prob.random_feasible(8, rng)
    result = dasf_run(prob, graph, batch, 6, x0=x0)
    x = x0
    for rec in result.records:
        x, info = dasf_step(prob, graph, x, batch, rec.iteration)
        assert rec.solver_iters == info.outcome.iterations >= 1
        assert rec.local_dim == info.layout.local_dim == info.instance.dim


@pytest.mark.parametrize("source", ["fixed batch", "callable batch", "callable reference"])
@pytest.mark.parametrize("kind", ["mmse", "qcqp", "tro", "scqp"])
def test_run_records_equal_pointwise_evaluation(kind, source):
    # the run evaluates its records once over the stacked trajectory, and an
    # adaptive run takes each objective from the local instance it solved
    rng = np.random.default_rng(27)
    graph = make_erdos_renyi(5, 2, 0.6, rng_seed=3)
    m, n_iter = graph.total_channels, 9
    prob = _family_problem(kind, m, 2, rng)
    batches = [_random_batch(graph, 80, rng, with_v=kind == "tro",
                             s_rows=2 if kind == "mmse" else 0) for _ in range(n_iter)]
    # references of distinct energies: each point's error has its own denominator
    refs = [(1.0 + i) * prob.random_feasible(m, rng) for i in range(n_iter)]
    batch, reference = batches[0], solve_centralized(prob, batches[0]).x
    if source == "callable batch":
        batch = batches.__getitem__
    elif source == "callable reference":
        reference = refs.__getitem__
    result = dasf_run(prob, graph, batch, n_iter, rng_seed=8, reference=reference,
                      warn_on_bound=False)
    assert len(result.records) == n_iter
    for i, rec in enumerate(result.records):
        x = result.x_history[i + 1]
        batch_i = batches[i] if source == "callable batch" else batches[0]
        ref_i = refs[i] if source == "callable reference" else result.reference
        expected = (evaluate_objective(prob, x, batch_i),
                    float(np.max(constraint_residuals(prob, x), initial=0.0)),
                    normalized_error(x, ref_i))
        for got, want in zip((rec.objective, rec.max_residual, rec.epsilon), expected):
            assert type(got) is float
            assert abs(got - want) <= 1e-12 * abs(want), (i, got, want)
    # the trajectory is one array, and x_history views it
    base = result.x_history[0].base
    assert base is not None and all(x.base is base for x in result.x_history)


@pytest.mark.parametrize("kind", ["mmse", "tro"])
def test_run_keeps_no_batch_of_a_callable_batch(kind):
    rng = np.random.default_rng(28)
    graph = make_path(4, 2)
    prob = _family_problem(kind, graph.total_channels, 2, rng)
    drawn = []

    def batch(i):
        b = _random_batch(graph, 60, rng, with_v=kind == "tro", s_rows=2 if kind == "mmse" else 0)
        drawn.append(weakref.ref(b))
        return b

    result = dasf_run(prob, graph, batch, 6, rng_seed=1, warn_on_bound=False)
    gc.collect()
    assert len(result.records) == len(drawn) == 6
    assert all(ref() is None for ref in drawn)


def test_adaptive_run_keeps_no_statistics_per_iteration():
    # the run once stacked every batch's M x M statistics for one evaluation
    # after the loop, so its peak grew by 8 M^2 bytes per iteration; what it
    # returns per iteration (a trajectory row, a record) is far smaller
    graph = make_path(20, 3)
    rng = np.random.default_rng(29)
    m = graph.total_channels
    batch = _random_batch(graph, 200, rng, s_rows=1)
    prob = MmseProblem(n_filters=1)
    peaks = []
    for n_iter in (20, 200):
        tracemalloc.start()
        try:
            dasf_run(prob, graph, lambda i: batch, n_iter, rng_seed=1, warn_on_bound=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.25 * 180 * 8 * m * m, peaks


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("kind", ["mmse", "qcqp", "tro", "scqp"])
def test_run_of_no_iterations_returns_no_records(kind, adaptive):
    rng = np.random.default_rng(30)
    graph = make_path(4, 2)
    prob = _family_problem(kind, graph.total_channels, 2, rng)
    batch = _random_batch(graph, 60, rng, with_v=kind == "tro", s_rows=2 if kind == "mmse" else 0)
    x0 = prob.random_feasible(graph.total_channels, rng)
    result = dasf_run(prob, graph, (lambda i: batch) if adaptive else batch, 0, x0=x0,
                      reference=x0, warn_on_bound=False)
    assert result.records == [] and result.objective_trace().shape == (0,)
    assert len(result.x_history) == 1 and np.array_equal(result.final_x, x0)


def test_ill_conditioned_branch_is_whitened_to_rounding():
    # the branch of nodes 2 and 3 has singular values 1 and 1e-4, a Gram
    # with condition number 1e8: whitening from the Gram alone leaves C^T C
    # about 1e-8 off the identity, the branch's SVD rounding
    rng = np.random.default_rng(62)
    graph = make_path(3, 2)
    layout = oracles.plan_tree_layout(prune_to_tree(graph, 1), graph, 2)
    x = rng.standard_normal((6, 2))
    u, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    x[2:] = (u * [1.0, 1e-4]) @ v.T
    c = build_transition_matrix(graph, layout, x)
    anchor = c.T @ x
    assert c.shape[1] == layout.local_dim
    assert np.abs(c.T @ c - np.eye(c.shape[1])).max() <= 1e-13
    assert np.abs(c @ anchor - x).max() <= 1e-12
    t, t_plus = oracles.whitening(x[2:])
    assert np.abs(x[2:] @ t - c[2:, 2:]).max() <= 1e-12
    assert np.abs(t_plus - anchor[2:]).max() <= 1e-12


def test_nearly_rank_one_branch_keeps_both_directions():
    # singular values 1 and 1e-8: a rank rule on the Gram's eigenvalues
    # (1e-16 of the largest) dropped the second direction and missed x by
    # about 1e-8; on the singular values it is kept, and C stays orthonormal
    rng = np.random.default_rng(63)
    graph = make_path(3, 2)
    layout = oracles.plan_tree_layout(prune_to_tree(graph, 1), graph, 2)
    x = rng.standard_normal((6, 2))
    u, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    x[2:] = (u * [1.0, 1e-8]) @ v.T
    c = build_transition_matrix(graph, layout, x)
    anchor = c.T @ x
    assert c.shape[1] == layout.local_dim
    assert np.abs(c.T @ c - np.eye(c.shape[1])).max() <= 1e-13
    assert np.abs(c @ anchor - x).max() <= 1e-12


def test_branch_svd_failure_raises(monkeypatch):
    monkeypatch.setattr(engine, "dgesvd", lambda a, full_matrices: (a, a[0], a, 1))
    graph = make_fully_connected(3, 2)
    layout = oracles.plan_tree_layout(prune_to_tree(graph, 1), graph, 1)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        build_transition_matrix(graph, layout, np.ones((6, 1)))


# ---------------------------------------------------------------------------
# structural property over random topologies


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=500),
)
@example(nodes=3, seed=34)   # one raw branch, rows out of network order
@example(nodes=4, seed=24)   # a raw leaf next to a branch with a raw member
def test_transition_identities_property(nodes, seed):
    rng = np.random.default_rng(seed)
    channels = tuple(int(c) for c in rng.integers(1, 4, nodes))
    graph = make_random_tree(nodes, channels, rng_seed=seed)
    q_max = min(3, graph.total_channels)
    n_filters = int(rng.integers(1, q_max + 1))
    x = rng.standard_normal((graph.total_channels, n_filters))
    root = int(rng.integers(1, nodes + 1))
    tree = prune_to_tree(graph, root)
    layout = oracles.plan_tree_layout(tree, graph, n_filters)
    c = build_transition_matrix(graph, layout, x)
    anchor = c.T @ x
    assert np.allclose(c @ anchor, x, atol=1e-12)
    y = rng.standard_normal((graph.total_channels, 15))
    log = TransportLog()
    fused = oracles.fuse_and_forward(graph, tree, layout, x, y, "y", log=log)
    # q whitens each branch's fused rows: local signals are C^T y
    own = layout.own_channels
    maps = oracles.branch_maps(graph, layout, x, c)
    whitened = np.vstack([fused[:own]] + [t.T @ fused[seg.cols] for seg, _, t in maps])
    assert np.allclose(whitened, c.T @ y, atol=1e-10)
    # the plan's schedule is the sends the sample-domain fusion makes
    assert layout.fusion_sends == tuple(
        (r.sender, r.receiver, r.kind, r.rows) for r in log.records)
    assert len(layout.mix_sends) == nodes - 1
    # q's rows and the branches' rows cover every network row exactly once
    rows = np.concatenate([np.arange(graph.total_channels)[layout.own_rows],
                           *(seg.rows for seg in oracles.layout_views(layout, graph)[1])])
    assert np.array_equal(np.sort(rows), np.arange(graph.total_channels))
    assert not any(a.flags.writeable for a in (layout.c_index[0], layout.c_index[1],
                                               layout.c_index[3]))


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=2000),
)
@example(nodes=6, seed=17)   # Q = 3: a raw branch, an all-zero and a rank-one block
@example(nodes=3, seed=7)    # Q = 3: ratios 1e-9 and 2e-9 kept, 1e-14 dropped
def test_whitened_map_property(nodes, seed):
    # each compressed branch gets a filter block U diag(s) V^T of a random
    # scale: some of rank below Q, or all zero, and the others with
    # singular-value ratios log-uniform on [1e-14, 1]; a ratio that lands
    # within 100x of RANK_RTOL moves to 1e-14, so numpy and LAPACK agree on
    # which directions are kept
    rng = np.random.default_rng(seed)
    channels = tuple(int(c) for c in rng.integers(1, 5, nodes))
    graph = make_random_tree(nodes, channels, rng_seed=seed)
    n_filters = int(rng.integers(1, min(3, graph.total_channels) + 1))
    x = rng.standard_normal((graph.total_channels, n_filters))
    root = int(rng.integers(1, nodes + 1))
    layout = oracles.plan_tree_layout(prune_to_tree(graph, root), graph, n_filters)
    branches = oracles.layout_views(layout, graph)[1]
    kept = {}
    for seg in branches:
        if seg.raw:
            continue
        rank = int(rng.integers(0, n_filters)) if rng.random() < 0.6 else n_filters
        exponents = rng.uniform(-14.0, 0.0, n_filters - 1)
        exponents[exponents < -10.0] = -14.0
        ratios = np.concatenate([[1.0], 10.0 ** exponents])[:rank]
        kept[seg.root] = int(np.count_nonzero(ratios > 1e2 * engine.RANK_RTOL))
        u = np.linalg.qr(rng.standard_normal((seg.rows.size, n_filters)))[0][:, :rank]
        v = np.linalg.qr(rng.standard_normal((n_filters, n_filters)))[0][:, :rank]
        x[seg.rows] = 10.0 ** rng.uniform(-2.0, 2.0) * (u * ratios) @ v.T
    c = build_transition_matrix(graph, layout, x)
    anchor = c.T @ x
    maps = oracles.branch_maps(graph, layout, x, c)
    assert c.shape[1] == anchor.shape[0] == layout.own_channels + sum(
        cols.stop - cols.start for _, cols, _ in maps)
    assert np.abs(c.T @ c - np.eye(c.shape[1])).max() <= 1e-13
    # each branch keeps the directions numpy's SVD finds above RANK_RTOL,
    # and C @ anchor is x without the others
    x_kept = x.copy()
    cond = {}
    for seg in branches:
        if seg.raw:
            continue
        u, s, vt = np.linalg.svd(x[seg.rows], full_matrices=False)
        keep = s > engine.RANK_RTOL * s[0]
        assert np.count_nonzero(c[seg.rows].any(axis=0)) == keep.sum() == kept[seg.root]
        x_kept[seg.rows] = (u[:, keep] * s[keep]) @ vt[keep]
        cond[seg.root] = s[0] / s[keep][-1] if keep.any() else 1.0
    assert np.abs(c @ anchor - x_kept).max() <= 1e-12 * np.linalg.norm(x)
    # rounding in X_b T grows with the condition number of the directions kept
    x_local = rng.standard_normal((c.shape[1], n_filters))
    x_next = c @ x_local
    for seg, cols, t in maps:
        if seg.raw:
            continue
        assert np.allclose(x[seg.rows] @ t, c[seg.rows, cols], rtol=0, atol=1e-12 * cond[seg.root])
        for k in seg.members:
            rows = graph.block_slice(k)
            assert np.allclose(x_next[rows], x[rows] @ (t @ x_local[cols]),
                               rtol=0, atol=1e-11 * cond[seg.root])
