import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
