import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dasf.network import (
    GraphConnectivityError,
    NetworkGraph,
    make_erdos_renyi,
    make_fully_connected,
    make_path,
    make_random_tree,
    prune_to_tree,
)


def test_fully_connected_shape():
    g = make_fully_connected(4, 3)
    assert g.node_count == 4
    assert g.total_channels == 12
    assert g.is_complete()
    assert g.edges() == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert g.neighbors(2) == (1, 3, 4)
    assert g.degree(2) == 3


def test_single_node_graph():
    g = make_fully_connected(1, 5)
    assert g.node_count == 1
    assert g.edges() == ()
    assert g.is_complete()


def test_per_node_channels_and_blocks():
    g = make_path(3, (2, 4, 1))
    assert g.channel_count(1) == 2
    assert g.channel_count(2) == 4
    assert g.block_slice(2) == slice(2, 6)
    assert g.block_slice(3) == slice(6, 7)
    assert g.total_channels == 7


def test_path_structure():
    g = make_path(4, 1)
    assert g.edges() == ((1, 2), (2, 3), (3, 4))
    assert not g.is_complete()
    assert g.neighbors(2) == (1, 3)


def test_channels_length_mismatch_rejected():
    with pytest.raises(ValueError):
        make_path(3, (1, 2))
    with pytest.raises(ValueError):
        make_path(3, (1, 0, 2))


def test_graph_validation_rejects_asymmetric():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True  # missing the mirrored edge
    adj[1, 2] = adj[2, 1] = True
    with pytest.raises(ValueError):
        NetworkGraph(adj, (1, 1, 1))


def test_graph_validation_rejects_disconnected():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    with pytest.raises(ValueError):
        NetworkGraph(adj, (1, 1, 1, 1))


def test_graph_needs_at_least_one_node():
    for build in (lambda: NetworkGraph(np.zeros((0, 0), dtype=bool), ()),
                  lambda: make_path(0, 1),
                  lambda: make_fully_connected(0, 1),
                  lambda: make_random_tree(0, 1, rng_seed=0),
                  lambda: make_erdos_renyi(0, 1, 0.5, rng_seed=0)):
        with pytest.raises(ValueError, match="^a graph needs at least one node$"):
            build()


def _assert_lists_equal_the_dense_definitions(g):
    adj = g.adjacency
    K = g.node_count
    for k in g.nodes:
        row = tuple((np.flatnonzero(adj[k - 1]) + 1).tolist())
        assert g.neighbors(k) == row and g.degree(k) == len(row)
    iu, ju = np.triu_indices(K, 1)
    up = adj[iu, ju]
    edges = g.edges()
    assert edges == tuple(zip((iu[up] + 1).tolist(), (ju[up] + 1).tolist()))
    assert all(type(u) is int and type(v) is int for u, v in edges)
    assert g.is_complete() == (int(adj.sum()) == K * (K - 1))


def _assert_bad_entries_rejected(adj):
    K = adj.shape[0]
    loop = adj.copy()
    loop[K - 1, K - 1] = True
    with pytest.raises(ValueError, match="^self-loops are not allowed$"):
        NetworkGraph(loop, 1)
    if K > 1:
        lopsided = adj.copy()
        lopsided[0, K - 1] = not lopsided[0, K - 1]
        with pytest.raises(ValueError, match="^adjacency must be symmetric$"):
            NetworkGraph(lopsided, 1)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["complete", "path", "tree", "erdos_renyi"]),
    n=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(kind="erdos_renyi", n=8, p=0.3, seed=3)     # connected at the sixth draw
@example(kind="erdos_renyi", n=40, p=0.01, seed=7)   # never connected
@example(kind="complete", n=1, p=1.0, seed=0)
@example(kind="erdos_renyi", n=363, p=0.05, seed=2)    # 65,703 pairs: two blocks
@example(kind="erdos_renyi", n=400, p=0.02, seed=1)
@example(kind="erdos_renyi", n=800, p=0.008, seed=4)   # five blocks, connected at the fifth draw
@example(kind="tree", n=1, p=1.0, seed=0)
def test_factory_graphs_read_their_lists_from_one_adjacency(kind, n, p, seed):
    # every neighbour query equals its dense definition, and every factory
    # builds the graph its dense form as first written builds, retries included
    if kind == "erdos_renyi":
        try:
            g = make_erdos_renyi(n, 2, p, rng_seed=seed)
        except GraphConnectivityError:
            with pytest.raises(GraphConnectivityError):
                oracles.frozen_make_erdos_renyi(n, 2, p, rng_seed=seed)
            return
        ref = oracles.frozen_make_erdos_renyi(n, 2, p, rng_seed=seed)
    elif kind == "tree":
        g = make_random_tree(n, 2, rng_seed=seed)
        ref = oracles.frozen_make_random_tree(n, 2, rng_seed=seed)
    elif kind == "path":
        g, ref = make_path(n, 2), oracles.frozen_make_path(n, 2)
    else:
        g = ref = make_fully_connected(n, 2)
    assert np.array_equal(g.adjacency, ref.adjacency)
    for mine, theirs in zip(g._neighbor_arrays, ref._neighbor_arrays):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert g.channels == ref.channels
    _assert_lists_equal_the_dense_definitions(g)
    _assert_bad_entries_rejected(np.array(g.adjacency))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=12))
def test_symmetric_adjacencies_read_their_lists_from_one_adjacency(data, n):
    upper = data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, 1)] = upper
    if data.draw(st.booleans()):      # thread a path through, so it is connected
        order = data.draw(st.permutations(range(n)))
        adj[order[:-1], order[1:]] = True
    adj |= adj.T
    reach = np.eye(n, dtype=bool)
    for _ in range(n):
        reach |= (reach.astype(int) @ adj.astype(int)) > 0
    if not reach[0].all():
        with pytest.raises(ValueError, match="^graph must be connected$"):
            NetworkGraph(adj, 1)
        return
    _assert_lists_equal_the_dense_definitions(NetworkGraph(adj, 1))
    _assert_bad_entries_rejected(adj)


def test_graph_lists_stay_small():
    # the edge list and a dense build are O(E), with no K x K index arrays
    g = make_path(3000, 1)
    tracemalloc.start()
    try:
        assert len(g.edges()) == 2999
        edges_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert make_fully_connected(2000, 1).is_complete()
        complete_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges_peak < 8 * 2**20
    assert complete_peak < 128 * 2**20


def test_complete_graph_builds_its_lists_directly():
    # each row is every node but its own, built as it is: the dense
    # entrance's K x K pairs (64 MB of int64 at K = 2000) are never formed
    for k in range(1, 41):
        channels = tuple(1 + j % 3 for j in range(k))
        ours = make_fully_connected(k, channels)
        dense = NetworkGraph(~np.eye(k, dtype=bool), channels)
        for a, b in zip(ours._neighbor_arrays, dense._neighbor_arrays):
            assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable
        assert ours.channels == dense.channels
    tracemalloc.start()
    try:
        graph = make_fully_connected(2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.is_complete() and graph.degree(1000) == 1999
    assert peak < 48 * 2**20


def test_path_and_tree_builds_hold_no_dense_adjacency():
    # a 10,000-node path or tree keeps its neighbour arrays (about 0.4 MB)
    # and never allocates a K x K array (100 MB of booleans)
    for build in (lambda: make_path(10_000, 1), lambda: make_random_tree(10_000, 1, rng_seed=0)):
        tracemalloc.start()
        try:
            graph = build()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.node_count == 10_000 and len(graph.edges()) == 9_999
        assert kept < 2**20
        assert peak < 8 * 2**20


def test_adjacency_is_a_fresh_read_only_array_on_each_read():
    g = make_erdos_renyi(12, 1, 0.4, rng_seed=3)
    a, b = g.adjacency, g.adjacency
    assert a is not b and not np.shares_memory(a, b)
    assert a.dtype == bool and not a.flags.writeable and np.array_equal(a, b)
    with pytest.raises(ValueError):
        a[0, 1] = False
    # the graph keeps its channels, neighbour arrays and offsets, none K x K
    assert set(vars(g)) == {"channels", "_neighbor_arrays", "_offsets"}
    assert all(arr.ndim == 1 for arr in (*g._neighbor_arrays, g._offsets))


def test_erdos_renyi_deterministic_under_seed():
    a = make_erdos_renyi(10, 2, 0.8, rng_seed=42)
    b = make_erdos_renyi(10, 2, 0.8, rng_seed=42)
    assert np.array_equal(a.adjacency, b.adjacency)
    c = make_erdos_renyi(10, 2, 0.8, rng_seed=43)
    assert not np.array_equal(a.adjacency, c.adjacency)


def test_erdos_renyi_p_one_is_complete():
    g = make_erdos_renyi(6, 1, 1.0, rng_seed=0)
    assert g.is_complete()


def test_erdos_renyi_rejects_bad_probability():
    with pytest.raises(ValueError):
        make_erdos_renyi(5, 1, 0.0, rng_seed=0)
    with pytest.raises(ValueError):
        make_erdos_renyi(5, 1, 1.5, rng_seed=0)


def test_erdos_renyi_gives_up_when_never_connected():
    # p so small that K=40 draws are essentially never connected
    with pytest.raises(GraphConnectivityError):
        make_erdos_renyi(40, 1, 0.01, rng_seed=7)


def test_random_tree_is_a_tree():
    for seed in range(8):
        g = make_random_tree(12, 1, rng_seed=seed)
        assert g.node_count == 12
        assert len(g.edges()) == 11  # connected + K-1 edges = tree


def test_save_edge_list(tmp_path):
    g = make_path(3, 1)
    path = tmp_path / "edges.txt"
    g.save_edge_list(path)
    assert path.read_text().splitlines() == ["1 2", "2 3"]


# ---------------------------------------------------------------------------
# pruning


def test_prune_star_on_complete_graph():
    g = make_fully_connected(5, 1)
    tree = prune_to_tree(g, 3)
    assert tree.root == 3
    assert tree.branch_roots() == (1, 2, 4, 5)
    assert all(tree.parent[k] == 3 for k in (1, 2, 4, 5))
    assert all(tree.branch(n) == (n,) for n in tree.branch_roots())


def test_prune_retains_root_neighbor_edges():
    g = make_erdos_renyi(12, 1, 0.4, rng_seed=3)
    for q in g.nodes:
        tree = prune_to_tree(g, q)
        for n in g.neighbors(q):
            assert tree.parent[n] == q


def test_prune_pathological_tie_break_lowest_parent():
    # square 1-2-4-3-1: nodes 2 and 3 attach to 1; node 4 sees both 2 and 3
    adj = np.zeros((4, 4), dtype=bool)
    for u, v in ((1, 2), (1, 3), (2, 4), (3, 4)):
        adj[u - 1, v - 1] = adj[v - 1, u - 1] = True
    g = NetworkGraph(adj, (1, 1, 1, 1))
    tree = prune_to_tree(g, 1)
    assert tree.parent[4] == 2  # lowest candidate parent wins
    assert 4 in tree.branch(2) and 4 not in tree.branch(3)


def test_prune_seeded_tie_break_is_deterministic():
    g = make_fully_connected(6, 1)
    t1 = prune_to_tree(g, 2, rng_seed=9)
    t2 = prune_to_tree(g, 2, rng_seed=9)
    assert t1.parent == t2.parent


def test_prune_path_builds_chain():
    g = make_path(5, 1)
    tree = prune_to_tree(g, 5)
    assert tree.parent == {4: 5, 3: 4, 2: 3, 1: 2}
    assert tree.branch(4) == (4, 3, 2, 1)


def test_prune_rejects_unknown_root():
    g = make_path(3, 1)
    with pytest.raises(ValueError):
        prune_to_tree(g, 9)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    p=st.floats(min_value=0.3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_prune_covers_graph_with_graph_edges(n, p, seed):
    try:
        g = make_erdos_renyi(n, 1, p, rng_seed=seed)
    except GraphConnectivityError:
        return
    root = seed % n + 1
    tree = prune_to_tree(g, root)
    assert sorted(tree.order) == list(g.nodes)
    adj = g.adjacency
    for child, parent in tree.parent.items():
        assert adj[child - 1, parent - 1]
    # every non-root lies in the branch of exactly one root neighbor
    assert set(tree.branch_roots()) == set(g.neighbors(root))
    for k in tree.order[1:]:
        assert sum(k in tree.branch(n_root) for n_root in tree.branch_roots()) == 1
