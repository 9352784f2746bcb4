"""Sensor network topologies and per-iteration tree pruning.

Nodes are labeled 1..K. Node k owns ``channels[k-1]`` sensor channels; the
network-wide channel dimension is M = sum(channels). Graphs are undirected,
connected, and immutable once built. A graph is its one adjacency list:
neighbour arrays in compressed-row form, with no K x K array kept. Pruning
turns the graph into a spanning tree rooted at the node that updates in the
current iteration, so that data can be fused along unique paths. One
breadth-first flood (``breadth_first_forest``) over those arrays grows the
trees for any set of roots at once; it also tells whether a graph is connected.
"""

from __future__ import annotations

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

# Erdos-Renyi pair draws and flood layers go in slices of this many entries,
# which bounds their temporaries; the slices change no draw and no tree.
SLICE_ENTRIES = 2**16


def _as_channels(node_count: int, channels) -> tuple[int, ...]:
    """Normalize a per-node channel spec (int or sequence) to a tuple."""
    if node_count < 1:
        raise ValueError("a graph needs at least one node")
    out = (channels,) * node_count if np.isscalar(channels) else tuple(channels)
    if len(out) != node_count:
        raise ValueError(f"expected {node_count} channel counts, got {len(out)}")
    for m in out:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValueError(f"a channel count must be an integer, got {m!r}")
    if any(m < 1 for m in out):
        raise ValueError("every node needs at least one sensor channel")
    return tuple(map(int, out))


@dataclass(frozen=True, eq=False, init=False)
class NetworkGraph:
    """Undirected connected sensor network.

    adjacency : (K, K) array, symmetric with zero diagonal (nonzero = edge).
    channels  : per-node sensor channel counts (M_1, ..., M_K).

    A graph is immutable and keeps no K x K array: ``adjacency`` builds a
    fresh read-only boolean array on each read. It compares and hashes by
    identity, so it can key per-graph caches. Its one adjacency list is
    ``_neighbor_arrays = (first, neighbor)``: node j's neighbours, 0-based
    and ascending, are ``neighbor[first[j]:first[j + 1]]``.
    """

    channels: tuple[int, ...]
    _neighbor_arrays: tuple[np.ndarray, np.ndarray] = field(repr=False)
    _offsets: np.ndarray = field(repr=False)

    def __init__(self, adjacency, channels):
        adj = np.asarray(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        node, neighbor = np.nonzero(adj)
        if not adj[neighbor, node].all():
            raise ValueError("adjacency must be symmetric")
        # the copy holds E entries, not the 2E of nonzero's shared buffer
        self._link(node.searchsorted(np.arange(adj.shape[0] + 1)), neighbor.copy(), channels)

    @classmethod
    def _from_lists(cls, first: np.ndarray, neighbor: np.ndarray, channels) -> NetworkGraph:
        """The graph of the neighbour arrays (first, neighbor)."""
        graph = object.__new__(cls)
        graph._link(first, neighbor, channels)
        return graph

    @classmethod
    def _from_edges(cls, node_count: int, u: np.ndarray, v: np.ndarray, channels) -> NetworkGraph:
        """The graph on ``node_count`` nodes with 0-based edges (u, v), each once."""
        key = np.sort(np.concatenate([u * node_count + v, v * node_count + u]))
        node, neighbor = np.divmod(key, node_count)
        return cls._from_lists(node.searchsorted(np.arange(node_count + 1)), neighbor, channels)

    def _link(self, first: np.ndarray, neighbor: np.ndarray, channels) -> None:
        """Keep the neighbour arrays: node j's neighbours, ascending, are
        ``neighbor[first[j]:first[j + 1]]``."""
        chans = _as_channels(first.size - 1, channels)
        # row offsets of each node's block in the stacked M-channel layout
        offsets = np.concatenate([[0], np.cumsum(chans)])
        for arr in (first, neighbor, offsets):
            arr.setflags(write=False)
        vars(self).update(channels=chans, _neighbor_arrays=(first, neighbor), _offsets=offsets)
        if (breadth_first_forest(self, [0])[0] < 0).any():
            raise ValueError("graph must be connected")

    @property
    def adjacency(self) -> np.ndarray:
        first, neighbor = self._neighbor_arrays
        adj = np.zeros((self.node_count, self.node_count), dtype=bool)
        adj[np.repeat(np.arange(self.node_count), np.diff(first)), neighbor] = True
        adj.setflags(write=False)
        return adj

    @property
    def node_count(self) -> int:
        return self._neighbor_arrays[0].size - 1

    @property
    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    @property
    def total_channels(self) -> int:
        return int(self._offsets[-1])

    def _index(self, node: int) -> int:
        """node's 0-based index; a node outside 1..K is a ValueError."""
        if not 1 <= node <= self.node_count:
            raise ValueError(f"node {node} is not in 1..{self.node_count}")
        return node - 1

    def channel_count(self, node: int) -> int:
        return self.channels[self._index(node)]

    def block_slice(self, node: int) -> slice:
        """Row slice of node's channels within the stacked M-row layout."""
        j = self._index(node)
        return slice(int(self._offsets[j]), int(self._offsets[j + 1]))

    def neighbors(self, node: int) -> tuple[int, ...]:
        first, neighbor = self._neighbor_arrays
        j = self._index(node)
        return tuple((neighbor[first[j]:first[j + 1]] + 1).tolist())

    def degree(self, node: int) -> int:
        first, _ = self._neighbor_arrays
        j = self._index(node)
        return int(first[j + 1] - first[j])

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
    """Complete graph on ``node_count`` nodes, its neighbour arrays built as
    they are (row j lists every node but j), with no K x K array of pairs."""
    k, chans = node_count, _as_channels(node_count, channels)
    neighbor = np.tile(np.arange(1, k, dtype=np.intp), (k, 1))    # row j: 1..K-1
    neighbor -= np.tri(k, k - 1, -1, dtype=bool)                  # less 1 left of column j
    return NetworkGraph._from_lists(np.arange(k + 1, dtype=np.intp) * (k - 1), neighbor.ravel(),
                                    chans)


def make_path(node_count: int, channels) -> NetworkGraph:
    """Path graph 1 - 2 - ... - K."""
    idx = np.arange(node_count - 1)
    return NetworkGraph._from_edges(node_count, idx, idx + 1, channels)


def make_erdos_renyi(node_count: int, channels, edge_prob: float, rng_seed=None) -> NetworkGraph:
    """Erdos-Renyi G(K, p), resampled until connected.

    Raises GraphConnectivityError when ER_MAX_RETRIES consecutive draws come
    out disconnected.
    """
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError("edge probability must be in (0, 1]")
    chans = _as_channels(node_count, channels)
    rng = np.random.default_rng(rng_seed)
    # a uniform per upper-triangle pair, row-major, a slice at a time; row u starts at row_start[u]
    row_start = np.arange(node_count, 0, -1).cumsum() - node_count
    pairs = node_count * (node_count - 1) // 2
    for _ in range(ER_MAX_RETRIES):
        hit = np.concatenate([   # K = 1: one empty draw
            np.flatnonzero(rng.random(min(pairs - lo, SLICE_ENTRIES)) < edge_prob) + lo
            for lo in range(0, pairs or 1, SLICE_ENTRIES)])
        u = row_start.searchsorted(hit, side="right") - 1
        try:
            return NetworkGraph._from_edges(node_count, u, hit - row_start[u] + u + 1, chans)
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
    parent = []     # of nodes 2, 3, ..., 0-based; numbered as placed, nodes leave the
    node = 0        # frontier in order, so it holds node + 1 up to the last one placed
    while len(parent) < node_count - 1:
        if node <= len(parent):     # the frontier is not empty
            node += 1
            want = int(rng.choice(TREE_CHILD_COUNTS, p=TREE_CHILD_PROBS))
        else:
            want = 1
        parent += [node - 1] * min(want, node_count - 1 - len(parent))
    return NetworkGraph._from_edges(node_count, np.array(parent, dtype=int),
                                    np.arange(1, node_count), channels)


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
    in ascending slices of about SLICE_ENTRIES sends, so a pair an earlier
    slice reached has no lower-index sender in a later one.
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
        cuts = ((np.flatnonzero(np.diff(before // SLICE_ENTRIES)) + 1).tolist()
                if before[-1] >= SLICE_ENTRIES else [])
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
