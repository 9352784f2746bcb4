"""Sensor network topologies and per-iteration tree pruning.

Nodes are labeled 1..K. Node k owns ``channels[k-1]`` sensor channels; the
network-wide channel dimension is M = sum(channels). Graphs are undirected,
connected, and immutable once built, with one adjacency list: neighbour
arrays in compressed-row form, built once and read by every query. Pruning
turns the graph into a spanning tree rooted at the node that updates in the
current iteration, so that data can be fused along unique paths. One
breadth-first flood (``breadth_first_forest``) over those arrays grows the
trees for any set of roots at once; it also tells whether a graph is connected.
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
    if node_count < 1:
        raise ValueError("a graph needs at least one node")
    if np.isscalar(channels):
        out = (int(channels),) * node_count
    else:
        out = tuple(int(m) for m in channels)
    if len(out) != node_count:
        raise ValueError(f"expected {node_count} channel counts, got {len(out)}")
    if any(m < 1 for m in out):
        raise ValueError("every node needs at least one sensor channel")
    return out


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Undirected connected sensor network.

    adjacency : (K, K) boolean array, symmetric with zero diagonal.
    channels  : per-node sensor channel counts (M_1, ..., M_K).

    A graph is immutable (its adjacency is a read-only array). It compares
    and hashes by identity, because field-wise equality would compare
    ndarrays, and so it can key per-graph caches. Its one adjacency list is
    ``_neighbor_arrays = (first, neighbor)``: node j's neighbours, 0-based
    and ascending, are ``neighbor[first[j]:first[j + 1]]``.
    """

    adjacency: np.ndarray
    channels: tuple[int, ...]

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        node, neighbor = np.nonzero(adj)
        if not adj[neighbor, node].all():
            raise ValueError("adjacency must be symmetric")
        chans = _as_channels(adj.shape[0], self.channels)
        first = np.zeros(adj.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(node, minlength=adj.shape[0]), out=first[1:])
        neighbor = neighbor.copy()      # np.nonzero's index arrays share one buffer
        for arr in (adj, first, neighbor):
            arr.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "_neighbor_arrays", (first, neighbor))
        if (breadth_first_forest(self, [0])[0] < 0).any():
            raise ValueError("graph must be connected")
        # row offsets of each node's block in the stacked M-channel layout
        offsets = np.concatenate([[0], np.cumsum(chans)])
        offsets.setflags(write=False)
        object.__setattr__(self, "_offsets", offsets)

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
        first, neighbor = self._neighbor_arrays
        return tuple((neighbor[first[node - 1]:first[node]] + 1).tolist())

    def degree(self, node: int) -> int:
        first, _ = self._neighbor_arrays
        return int(first[node] - first[node - 1])

    def edges(self) -> tuple[tuple[int, int], ...]:
        first, neighbor = self._neighbor_arrays
        node = np.repeat(np.arange(self.node_count), np.diff(first))
        up = node < neighbor
        return tuple(zip((node[up] + 1).tolist(), (neighbor[up] + 1).tolist()))

    def is_complete(self) -> bool:
        K = self.node_count
        return self._neighbor_arrays[1].size == K * (K - 1)

    def save_edge_list(self, path) -> None:
        """Write the topology as a plain-text edge list, one 'u v' per line.

        Indices are 1-based and each undirected edge is listed once (u < v).
        """
        with open(path, "w", encoding="ascii") as fh:
            for u, v in self.edges():
                fh.write(f"{u} {v}\n")


def make_fully_connected(node_count: int, channels) -> NetworkGraph:
    """Complete graph on ``node_count`` nodes."""
    return NetworkGraph(~np.eye(node_count, dtype=bool), channels)


def make_path(node_count: int, channels) -> NetworkGraph:
    """Path graph 1 - 2 - ... - K."""
    adj = np.zeros((node_count, node_count), dtype=bool)
    idx = np.arange(node_count - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = True
    return NetworkGraph(adj, channels)


def make_erdos_renyi(node_count: int, channels, edge_prob: float, rng_seed=None) -> NetworkGraph:
    """Erdos-Renyi G(K, p), resampled until connected.

    Raises GraphConnectivityError when ER_MAX_RETRIES consecutive draws come
    out disconnected.
    """
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError("edge probability must be in (0, 1]")
    chans = _as_channels(node_count, channels)
    rng = np.random.default_rng(rng_seed)
    # the upper triangle's pairs in row-major order, one uniform each
    upper = np.triu(np.ones((node_count, node_count), dtype=bool), 1)
    for _ in range(ER_MAX_RETRIES):
        adj = np.zeros_like(upper)
        adj[upper] = rng.random(node_count * (node_count - 1) // 2) < edge_prob
        adj |= adj.T
        try:
            return NetworkGraph(adj, chans)
        except ValueError:      # a draw can only fail by being disconnected
            pass
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
    return NetworkGraph(adj, channels)


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

    @classmethod
    def from_arrays(cls, order: np.ndarray, parent: np.ndarray) -> PrunedTree:
        """The tree whose 0-based nodes come root first in breadth-first
        ``order`` (ascending within a layer), each below ``parent[node]``."""
        kids = order[1:]
        up = dict(zip((kids + 1).tolist(), (parent[kids] + 1).tolist()))
        children: dict[int, list[int]] = {}
        for k, p in up.items():     # siblings share a layer, so they ascend
            children.setdefault(p, []).append(k)
        return cls(root=int(order[0]) + 1, parent=up, order=tuple((order + 1).tolist()),
                   _children={p: tuple(ks) for p, ks in children.items()})


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
    (depth,), (parent,) = breadth_first_forest(graph, [root - 1])
    order = depth.argsort(kind="stable")
    if rng_seed is not None:
        # each node, layer by layer and ascending, draws among its
        # neighbours one layer up
        rng = np.random.default_rng(rng_seed)
        first, neighbor = graph._neighbor_arrays
        for k in order[1:].tolist():
            near = neighbor[first[k]:first[k + 1]]
            parent[k] = rng.choice(near[depth[near] == depth[k] - 1])
    return PrunedTree.from_arrays(order, parent)


def breadth_first_forest(graph: NetworkGraph, roots) -> tuple[np.ndarray, np.ndarray]:
    """``prune_to_tree``'s trees without ``rng_seed`` at the given 0-based
    roots: (depth, parent) as (len(roots), K) arrays indexed [tree, node],
    0-based, with each root's parent -1 (and -1 for both where a node is
    out of a root's reach).

    One flood grows them all, O(K + E) per root: each layer's (tree, node)
    pairs send to all their neighbours, and the pairs not reached before
    form the next layer, each below its lowest-index sender. A layer sends
    in ascending slices of about 2^16 sends, so a pair an earlier slice
    reached has no lower-index sender in a later one.
    """
    roots = np.asarray(roots)
    k = graph.node_count
    first, neighbor = graph._neighbor_arrays
    degree = np.diff(first)
    depth = np.full(roots.size * k, -1)       # indexed tree * k + node
    parent = np.full(roots.size * k, k)       # k: no sender yet
    layer = np.arange(0, roots.size * k, k) + roots
    depth[layer] = 0
    d = 0
    while layer.size:
        d += 1
        node = layer % k
        count = degree[node]
        before = count.cumsum() - count      # the layer's sends ahead of each pair
        cuts = (np.flatnonzero(np.diff(before >> 16)) + 1).tolist() if before[-1] >> 16 else []
        reached = []
        for lo, hi in zip([0, *cuts], [*cuts, layer.size]):
            sends = count[lo:hi]
            sender = np.repeat(node[lo:hi], sends)
            # a send's neighbour: its sender's first one, plus the send's
            # rank among the sender's sends
            at = np.arange(sender.size) + np.repeat(first[node[lo:hi]] - before[lo:hi] + before[lo],
                                                    sends)
            to = np.repeat(layer[lo:hi] - node[lo:hi], sends) + neighbor[at]
            new = depth[to] < 0
            to, sender = to[new], sender[new]
            np.minimum.at(parent, to, sender)
            to = to[parent[to] == sender]    # each new pair once
            depth[to] = d
            reached.append(to)
        layer = np.sort(np.concatenate(reached))
    parent[parent == k] = -1
    return depth.reshape(-1, k), parent.reshape(-1, k)
