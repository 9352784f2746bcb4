"""Sensor network topologies and per-iteration tree pruning.

Nodes are labeled 1..K. Node k owns ``channels[k-1]`` sensor channels; the
network-wide channel dimension is M = sum(channels). Graphs are undirected,
connected, and immutable once built. Pruning turns the graph into a spanning
tree rooted at the node that updates in the current iteration, so that data
can be fused along unique paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkGraph",
    "PrunedTree",
    "GraphConnectivityError",
    "make_fully_connected",
    "make_erdos_renyi",
    "make_random_tree",
    "make_path",
    "prune_to_tree",
    "ER_MAX_RETRIES",
    "TREE_CHILD_COUNTS",
    "TREE_CHILD_PROBS",
]


class GraphConnectivityError(RuntimeError):
    """Raised when a random graph stays disconnected after the retry budget."""


# Resample budget for Erdos-Renyi draws that come out disconnected.
ER_MAX_RETRIES = 64

# Child-count distribution for breadth-first random tree growth (mean 1.7).
TREE_CHILD_COUNTS = (0, 1, 2, 3, 4)
TREE_CHILD_PROBS = (0.2, 0.3, 0.2, 0.2, 0.1)


def _as_channels(node_count: int, channels) -> tuple[int, ...]:
    """Normalize a per-node channel spec (int or sequence) to a tuple."""
    if np.isscalar(channels):
        out = (int(channels),) * node_count
    else:
        out = tuple(int(m) for m in channels)
    if len(out) != node_count:
        raise ValueError(f"expected {node_count} channel counts, got {len(out)}")
    if any(m < 1 for m in out):
        raise ValueError("every node needs at least one sensor channel")
    return out


def _connected(adjacency: np.ndarray) -> bool:
    """Breadth-first reachability check on a boolean adjacency matrix."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        reach = adjacency[frontier].any(axis=0) & ~seen
        seen |= reach
        frontier = np.flatnonzero(reach)
    return bool(seen.all())


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Undirected connected sensor network.

    adjacency : (K, K) boolean array, symmetric with zero diagonal.
    channels  : per-node sensor channel counts (M_1, ..., M_K).

    A graph is immutable (its adjacency is a read-only array). It compares
    and hashes by identity, because field-wise equality would compare
    ndarrays, and so it can key per-graph caches.
    """

    adjacency: np.ndarray
    channels: tuple[int, ...]

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        chans = _as_channels(adj.shape[0], self.channels)
        if not _connected(adj):
            raise ValueError("graph must be connected")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "channels", chans)
        # row offsets of each node's block in the stacked M-channel layout
        offsets = np.concatenate([[0], np.cumsum(chans)])
        offsets.setflags(write=False)
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_neighbors", tuple(
            tuple(int(j) + 1 for j in np.flatnonzero(row)) for row in adj))

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    @property
    def total_channels(self) -> int:
        return int(self._offsets[-1])

    def channel_count(self, node: int) -> int:
        return self.channels[node - 1]

    def block_slice(self, node: int) -> slice:
        """Row slice of node's channels within the stacked M-row layout."""
        return slice(int(self._offsets[node - 1]), int(self._offsets[node]))

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._neighbors[node - 1]

    def degree(self, node: int) -> int:
        return len(self._neighbors[node - 1])

    def edges(self) -> tuple[tuple[int, int], ...]:
        iu = np.triu_indices(self.node_count, 1)
        mask = self.adjacency[iu]
        return tuple((int(u) + 1, int(v) + 1) for u, v in zip(iu[0][mask], iu[1][mask]))

    def is_complete(self) -> bool:
        K = self.node_count
        return int(self.adjacency.sum()) == K * (K - 1)

    def save_edge_list(self, path) -> None:
        """Write the topology as a plain-text edge list, one 'u v' per line.

        Indices are 1-based and each undirected edge is listed once (u < v).
        """
        with open(path, "w", encoding="ascii") as fh:
            for u, v in self.edges():
                fh.write(f"{u} {v}\n")


def make_fully_connected(node_count: int, channels) -> NetworkGraph:
    """Complete graph on ``node_count`` nodes."""
    adj = ~np.eye(node_count, dtype=bool)
    if node_count == 1:
        adj = np.zeros((1, 1), dtype=bool)
    return NetworkGraph(adj, _as_channels(node_count, channels))


def make_path(node_count: int, channels) -> NetworkGraph:
    """Path graph 1 - 2 - ... - K."""
    adj = np.zeros((node_count, node_count), dtype=bool)
    idx = np.arange(node_count - 1)
    adj[idx, idx + 1] = True
    adj |= adj.T
    return NetworkGraph(adj, _as_channels(node_count, channels))


def make_erdos_renyi(node_count: int, channels, edge_prob: float, rng_seed=None) -> NetworkGraph:
    """Erdos-Renyi G(K, p), resampled until connected.

    Raises GraphConnectivityError when ER_MAX_RETRIES consecutive draws come
    out disconnected.
    """
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError("edge probability must be in (0, 1]")
    chans = _as_channels(node_count, channels)
    rng = np.random.default_rng(rng_seed)
    iu = np.triu_indices(node_count, 1)
    for _ in range(ER_MAX_RETRIES):
        adj = np.zeros((node_count, node_count), dtype=bool)
        adj[iu] = rng.random(iu[0].size) < edge_prob
        adj |= adj.T
        if _connected(adj):
            return NetworkGraph(adj, chans)
    raise GraphConnectivityError(
        f"no connected draw in {ER_MAX_RETRIES} tries (K={node_count}, p={edge_prob})"
    )


def make_random_tree(node_count: int, channels, rng_seed=None) -> NetworkGraph:
    """Random tree grown breadth-first from node 1.

    Each dequeued node draws its child count from TREE_CHILD_COUNTS with
    probabilities TREE_CHILD_PROBS (truncated once K nodes exist). If every
    frontier node drew zero children before K nodes were placed, one extra
    child is forced on the last processed node so growth can continue.
    """
    rng = np.random.default_rng(rng_seed)
    adj = np.zeros((node_count, node_count), dtype=bool)
    frontier: deque[int] = deque([1])
    next_id = 2
    last = 1
    while next_id <= node_count:
        if frontier:
            node = frontier.popleft()
            want = int(rng.choice(TREE_CHILD_COUNTS, p=TREE_CHILD_PROBS))
        else:
            node, want = last, 1
        want = min(want, node_count - next_id + 1)
        for _ in range(want):
            adj[node - 1, next_id - 1] = adj[next_id - 1, node - 1] = True
            frontier.append(next_id)
            next_id += 1
        last = node
    return NetworkGraph(adj, _as_channels(node_count, channels))


@dataclass(frozen=True)
class PrunedTree:
    """Spanning tree rooted at the current updating node.

    parent maps every non-root node to its unique parent; order lists nodes
    root-first in breadth-first layers.
    """

    root: int
    parent: dict[int, int]
    order: tuple[int, ...]
    _children: dict[int, tuple[int, ...]] = field(repr=False)

    def children(self, node: int) -> tuple[int, ...]:
        return self._children.get(node, ())

    def branch_roots(self) -> tuple[int, ...]:
        """Root's neighbors in ascending order, one per branch."""
        return self.children(self.root)

    def branch(self, neighbor: int) -> tuple[int, ...]:
        """All nodes whose data flows through ``neighbor``, preorder."""
        out = []
        stack = [neighbor]
        while stack:
            k = stack.pop()
            out.append(k)
            stack.extend(reversed(self.children(k)))
        return tuple(out)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((min(k, p), max(k, p)) for k, p in self.parent.items()))


def prune_to_tree(graph: NetworkGraph, root: int, rng_seed=None) -> PrunedTree:
    """Prune a connected graph to a spanning tree rooted at ``root``.

    Simulates a token flood from the root in breadth-first layers: a node
    attaches to the neighbor whose token arrives first. Within a layer, ties
    go to the lowest-index candidate parent, or to a seeded random choice
    when ``rng_seed`` is given. All edges between the root and its neighbors
    survive by construction (the whole neighborhood is layer one).
    """
    if root not in graph.nodes:
        raise ValueError(f"root {root} not a node of the graph")
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    parent: dict[int, int] = {}
    order = [root]
    reached = {root}
    frontier = [root]
    while frontier:
        candidates: dict[int, list[int]] = {}
        for f in frontier:
            for nb in graph.neighbors(f):
                if nb not in reached:
                    candidates.setdefault(nb, []).append(f)
        frontier = []
        for node in sorted(candidates):
            cands = sorted(candidates[node])
            pick = cands[0] if rng is None else int(rng.choice(cands))
            parent[node] = pick
            reached.add(node)
            order.append(node)
            frontier.append(node)

    children: dict[int, list[int]] = {}
    for k, p in parent.items():
        children.setdefault(p, []).append(k)
    children_t = {p: tuple(sorted(ks)) for p, ks in children.items()}

    return PrunedTree(
        root=root,
        parent=parent,
        order=tuple(order),
        _children=children_t,
    )
