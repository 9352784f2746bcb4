"""Independent reference computations the tests compare the library against.

Everything here deliberately avoids the library's own code paths: statistics
are accumulated sample by sample, the estimation solver goes through least
squares on raw samples, the constrained solvers go through scipy's SLSQP
with multiple starts, and the trace-ratio optimum comes from scalar
bisection on the sum of principal generalized eigenvalues. The one
exception is the sample-domain engine step, which replays an iteration the
way the nodes run it, by fusing the samples up the tree with
``fuse_and_forward`` here, whitening each compressed branch from numpy's
SVD of its filter rows and updating every node from its branch's mixing
block, so that the statistics-domain engine can be held to it. It uses the
tree pruning and the layout planner as first written, with per-node loops
over one tree (``frozen_prune_to_tree`` and ``frozen_plan_local_layout``,
which the library's flood and block-of-roots planner are held to as well),
and derives its per-node channel counts and raw stacks from the tree
itself. The library's layouts are plain records of the step kernel's
inputs; the tree, branches and fallback set the tests read of one are
derived here from its send schedules and the graph alone
(``layout_views``), and the library's planner is run on a tree handed in,
a seeded one for example, by ``plan_tree_layout``. The drift statistics
draw is written window by window from the README's statement of its
generator contract and of its ramp moments (``drift_statistics_draw``), so
that the library's stacked draw is held to the same random stream; the
per-sample ramp moments it replaced stay beside it
(``ramp_moments_per_sample``), so that the draw is held to them to
rounding; it takes a window as constant when lambda, read at every one of
its samples, takes one value there (``window_lambda``). The conditioning
screen is kept in its first written form, np.linalg.cholesky of one matrix
(``cholesky_screen``), so that the library's screen, one dpotrf per matrix
of a stack, is held to the same decisions, and so are the Erdos-Renyi draw
(``frozen_make_erdos_renyi``), the path and random tree built through a
dense K x K adjacency (``frozen_make_path`` and ``frozen_make_random_tree``)
and the ``study.meta`` config echo (``frozen_resolved_dict``). The
statistics-domain step loop is kept the same way (``frozen_dasf_run``): the
transition matrix built by zero-fill and scatters, and one
``dasf_step``-shaped call per iteration with the mmse solve's checks ahead of
its LAPACK call, so that the engine's planned step kernel is held bitwise to
the same trajectory, records and log (an adaptive run's objectives, which
come from its local instances, to 1e-12 relative). The transport audit is
kept as first written too (``frozen_audit_transport``), walking one record
per send, so that the library's schedule-summarising audit is held to the
same issues and counts.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

from scipy.linalg.lapack import dgesv, dgesvd

from dasf.engine import (
    RANK_RTOL,
    RunResult,
    TransportAudit,
    TransportLog,
    TransportRecord,
    ConvergenceRecord,
    _TreePlans,
    normalized_error,
    select_updating_node,
)
from dasf.network import (
    ER_MAX_RETRIES,
    TREE_CHILD_COUNTS,
    TREE_CHILD_PROBS,
    GraphConnectivityError,
    NetworkGraph,
    PrunedTree,
    _as_channels,
)
from dasf.sfo import (
    DIAG_LOAD,
    CompressedInstance,
    SolveOutcome,
    SolverError,
    align_to_anchor,
    centralized_instance,
    check_constraint_bound,
    constraint_residuals,
    evaluate_objective,
    solve_instance,
)
from dasf.signals import (
    COND_LIMIT,
    SampleBatch,
    estimate_covariance,
    estimate_cross,
    mean_squared_norm,
)


def covariance_loop(y: np.ndarray) -> np.ndarray:
    """Sample covariance via explicit per-sample outer products."""
    m, n = y.shape
    acc = np.zeros((m, m))
    for t in range(n):
        col = y[:, t]
        acc += np.outer(col, col)
    return acc / n


def cross_loop(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Sample cross-correlation via explicit per-sample outer products."""
    s = np.atleast_2d(s)
    acc = np.zeros((y.shape[0], s.shape[0]))
    for t in range(y.shape[1]):
        acc += np.outer(y[:, t], s[:, t])
    return acc / y.shape[1]


def lstsq_estimator(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Least-squares filter min ||X^T y - s||_F, solved on the raw samples."""
    s = np.atleast_2d(s)
    x, *_ = np.linalg.lstsq(y.T, s.T, rcond=None)
    return x


def mse_of(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> float:
    diff = np.atleast_2d(s) - x.T @ y
    return float(np.sum(diff * diff)) / y.shape[1]


# ---------------------------------------------------------------------------
# SLSQP references for the constrained quadratic families


def _quad_objective(cov, a, sign, shape):
    def fun(flat):
        x = flat.reshape(shape)
        return 0.5 * float(np.sum(x * (cov @ x))) + sign * float(np.sum(x * a))

    def jac(flat):
        x = flat.reshape(shape)
        return (cov @ x + sign * a).ravel()

    return fun, jac


def qcqp_slsqp(cov, a, c, d, radius, metric, rng, starts: int = 5):
    """Best SLSQP solution of the ball-plus-linear-response program over
    several random starts. Returns (x, objective)."""
    m, q = a.shape
    shape = (m, q)
    fun, jac = _quad_objective(cov, a, -1.0, shape)

    def ball(flat):
        x = flat.reshape(shape)
        return radius**2 - float(np.sum(x * (metric @ x)))

    def ball_jac(flat):
        x = flat.reshape(shape)
        return (-2.0 * metric @ x).ravel()

    def resp(flat):
        x = flat.reshape(shape)
        return x.T @ c - d

    def resp_jac(flat):
        out = np.zeros((q, m, q))
        for j in range(q):
            out[j, :, j] = c
        return out.reshape(q, m * q)

    cons = [
        {"type": "ineq", "fun": ball, "jac": ball_jac},
        {"type": "eq", "fun": resp, "jac": resp_jac},
    ]
    best_x, best_f = None, np.inf
    x_plane = np.outer(c, d) / float(c @ c)
    inits = [x_plane] + [x_plane + 0.1 * rng.standard_normal(shape) for _ in range(starts - 1)]
    for x0 in inits:
        res = minimize(fun, x0.ravel(), jac=jac, method="SLSQP", constraints=cons,
                       options={"maxiter": 400, "ftol": 1e-14})
        x = res.x.reshape(shape)
        feas = max(0.0, -ball(res.x)) + float(np.abs(resp(res.x)).max())
        if feas < 1e-7 and res.fun < best_f:
            best_x, best_f = x, float(res.fun)
    return best_x, best_f


def scqp_slsqp(cov, a, metric, rng, starts: int = 6):
    """Best SLSQP solution of the quadratic program on the metric unit
    sphere over several random starts. Returns (x, objective)."""
    m, q = a.shape
    shape = (m, q)
    fun, jac = _quad_objective(cov, a, +1.0, shape)

    def sphere(flat):
        x = flat.reshape(shape)
        return float(np.sum(x * (metric @ x))) - 1.0

    def sphere_jac(flat):
        x = flat.reshape(shape)
        return (2.0 * metric @ x).ravel()

    cons = [{"type": "eq", "fun": sphere, "jac": sphere_jac}]
    best_x, best_f = None, np.inf
    for _ in range(starts):
        x0 = rng.standard_normal(shape)
        x0 /= np.sqrt(float(np.sum(x0 * (metric @ x0))))
        res = minimize(fun, x0.ravel(), jac=jac, method="SLSQP", constraints=cons,
                       options={"maxiter": 400, "ftol": 1e-14})
        if abs(sphere(res.x)) < 1e-7 and res.fun < best_f:
            best_x, best_f = res.x.reshape(shape), float(res.fun)
    return best_x, best_f


# ---------------------------------------------------------------------------
# trace-ratio references


def tro_rho_bisect(cov_y, cov_v, metric, q, iters: int = 200) -> float:
    """Optimal trace ratio via scalar bisection.

    The sum of the q principal generalized eigenvalues of
    (cov_v - rho * cov_y, metric) is strictly decreasing in rho and crosses
    zero exactly at the best achievable ratio.
    """

    def top_sum(rho: float) -> float:
        w = sla.eigh(cov_v - rho * cov_y, metric, eigvals_only=True)
        return float(np.sum(w[-q:]))

    lo = 0.0
    hi = 1.0
    for _ in range(200):
        if top_sum(hi) < 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("ratio bracket did not close")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if top_sum(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tro_grid_2d(cov_y, cov_v, n_grid: int = 200_001) -> float:
    """Best ratio over unit directions in the plane, by brute angle grid.

    Only for 2-dimensional single-filter instances with identity metric.
    """
    theta = np.linspace(0.0, np.pi, n_grid)
    d = np.stack([np.cos(theta), np.sin(theta)])      # (2, n_grid)
    num = np.einsum("ij,ik,kj->j", d, cov_v, d)
    den = np.einsum("ij,ik,kj->j", d, cov_y, d)
    return float(np.max(num / den))


# ---------------------------------------------------------------------------
# sample-domain engine and objectives


# ``dasf.network.prune_to_tree`` as first written, one dict flood per root;
# the library's flood over every root is held to it, seeded trees included
def frozen_prune_to_tree(graph: NetworkGraph, root: int, rng_seed=None) -> PrunedTree:
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


# ``dasf.network.make_erdos_renyi`` as first written, the upper triangle drawn
# through ``np.triu_indices``; the library's mask draw is held to it
def frozen_make_erdos_renyi(node_count: int, channels, edge_prob: float,
                            rng_seed=None) -> NetworkGraph:
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
        try:
            return NetworkGraph(adj, chans)
        except ValueError:      # a draw can only fail by being disconnected
            pass
    raise GraphConnectivityError(
        f"no connected draw in {ER_MAX_RETRIES} tries (K={node_count}, p={edge_prob})"
    )


# ``dasf.network.make_path`` as first written, through a dense K x K
# adjacency; the library's edge-list build is held to it
def frozen_make_path(node_count: int, channels) -> NetworkGraph:
    """Path graph 1 - 2 - ... - K."""
    adj = np.zeros((node_count, node_count), dtype=bool)
    idx = np.arange(node_count - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = True
    return NetworkGraph(adj, channels)


# ``dasf.network.make_random_tree`` as first written, through a dense K x K
# adjacency; the library's parent-per-child build is held to it
def frozen_make_random_tree(node_count: int, channels, rng_seed=None) -> NetworkGraph:
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


# ``ExperimentConfig.resolved_dict`` as first written; ``study.meta`` now
# dumps ``dataclasses.asdict`` of the config and must read back as this
def frozen_resolved_dict(config) -> dict:
    """Plain mapping echo of every resolved field, for study.meta."""
    out = dataclasses.asdict(config)
    out["filter_widths"] = list(config.filter_widths)
    out["channels"] = list(config.channels)
    out["applied_defaults"] = list(config.applied_defaults)
    if config.drift is not None:
        out["drift"] = {
            "delta_std": config.drift.delta_std,
            "schedule": [list(p) for p in config.drift.schedule],
        }
    return out


@dataclass(frozen=True)
class BranchSegment:
    """One branch of the pruned tree, as seen from the updating node.

    A compressed branch occupies n_filters local coordinates, fewer when an
    iteration drops directions of its filter rows; a raw branch (subtree
    channel count below the filter width) occupies one coordinate per
    channel, in preorder. rows lists the members' network rows in that
    order, read-only.
    """

    root: int
    members: tuple[int, ...]   # preorder, branch root first
    raw: bool
    width: int                 # columns this branch occupies in C, all kept
    offset: int                # first column of the branch segment, all kept
    rows: np.ndarray = field(repr=False, compare=False)

    @property
    def cols(self) -> slice:
        return slice(self.offset, self.offset + self.width)


def plan_tree_layout(tree, graph, n_filters: int):
    """The library's layout at the root of any pruned tree (a seeded one
    too): its planner (``dasf.engine._TreePlans``) run on that one tree."""
    depth = np.zeros((1, graph.node_count), dtype=int)
    parent = np.full((1, graph.node_count), -1)
    for k in tree.order[1:]:
        parent[0, k - 1] = tree.parent[k] - 1
        depth[0, k - 1] = depth[0, tree.parent[k] - 1] + 1
    return _TreePlans(graph, np.array([tree.root - 1]), depth, parent, n_filters).layout(0)


def layout_views(layout, graph) -> tuple[PrunedTree, tuple[BranchSegment, ...], frozenset[int]]:
    """(tree, branches, fallback) of a library layout, read back from its send
    schedules and the graph alone. The fusion sends run leaf-to-root in
    reverse breadth-first order, each a parent edge, and their raw senders
    are the fallback set; the mixing sends run root-to-leaf per branch in
    preorder, and a send from q opens a branch, raw when it ships a new
    block, whose later sends add its other members."""
    q = layout.node
    fallback = frozenset(s for s, _, kind, _ in layout.fusion_sends if kind == "raw")
    parent = np.full(graph.node_count, -1)
    order = [q - 1]
    for sender, receiver, _, _ in reversed(layout.fusion_sends):
        parent[sender - 1] = receiver - 1
        order.append(sender - 1)
    opened = []   # (root, members, raw, width) per branch
    for sender, receiver, kind, rows in layout.mix_sends:
        if sender == q:
            raw = kind == "new_block"
            opened.append((receiver, [receiver], raw, rows if raw else layout.n_filters))
        else:
            opened[-1][1].append(receiver)
    branches = []
    offset = layout.own_channels
    network_rows = np.arange(graph.total_channels)
    for root, members, raw, width in opened:
        rows = np.concatenate([network_rows[graph.block_slice(k)] for k in members])
        rows.setflags(write=False)
        branches.append(BranchSegment(root=root, members=tuple(members), raw=raw, width=width,
                                      offset=offset, rows=rows))
        offset += width
    return PrunedTree.from_arrays(np.array(order), parent), tuple(branches), fallback


def _branches_and_fallback(layout, graph):
    """A frozen layout's own branches and fallback set, or the views of a
    library layout."""
    if isinstance(layout, FrozenLayout):
        return layout.branches, layout.fallback
    return layout_views(layout, graph)[1:]


@dataclass(frozen=True)
class FrozenLayout:
    """``dasf.engine.LocalLayout`` as first written: every field built by
    ``frozen_plan_local_layout``, C's index arrays and template made on
    first read."""

    node: int
    n_filters: int
    own_channels: int
    own_rows: slice
    branches: tuple[BranchSegment, ...]
    local_dim: int
    fallback: frozenset[int]
    fusion_sends: tuple = field(repr=False)
    mix_sends: tuple = field(repr=False)
    fusion_rows: int
    mix_rows: int

    @cached_property
    def c_template(self) -> np.ndarray:
        own = self.own_channels
        c = np.zeros((own + sum(seg.rows.size for seg in self.branches), self.local_dim))
        c[self.own_rows, :own] = np.eye(own)
        for seg in self.branches:
            if seg.raw:
                c[seg.rows, seg.cols] = np.eye(seg.width)
        c.setflags(write=False)
        return c

    @cached_property
    def c_index(self):
        d, mixed = self.local_dim, [seg for seg in self.branches if not seg.raw]
        sizes = [seg.rows.size for seg in mixed]
        rows = np.concatenate([np.zeros(0, dtype=int)] + [seg.rows for seg in mixed])
        cols = np.repeat(np.array([seg.offset for seg in mixed], dtype=int), sizes)
        flat = (rows * d + cols)[:, None] + np.arange(self.n_filters)
        for a in (flat, rows):
            a.setflags(write=False)
        stops = np.cumsum(sizes, dtype=int).tolist()
        return flat, rows, tuple(zip([0] + stops[:-1], stops))


def frozen_plan_local_layout(tree, graph, n_filters: int) -> FrozenLayout:
    """The per-root layout planner as first written, with per-node loops over
    one pruned tree: a node compresses when its subtree carries at least
    n_filters channels and forwards raw rows otherwise; branches in ascending
    branch-root order, members in preorder; the sends leaf-to-root in reverse
    breadth-first order and root-to-leaf per branch in preorder."""
    q = tree.root
    if graph.total_channels < n_filters:
        raise ValueError("filter width exceeds the network's channel count")

    subtree: dict[int, int] = {}
    for k in reversed(tree.order):
        subtree[k] = graph.channel_count(k) + sum(subtree[c] for c in tree.children(k))
    fallback = frozenset(k for k in tree.order if k != q and subtree[k] < n_filters)

    own = graph.channel_count(q)
    offset = own
    branches: list[BranchSegment] = []
    for n in tree.branch_roots():
        raw = n in fallback
        width = subtree[n] if raw else n_filters
        members = tree.branch(n)
        rows = np.concatenate([np.arange(graph.block_slice(k).start, graph.block_slice(k).stop)
                               for k in members])
        rows.setflags(write=False)
        branches.append(BranchSegment(root=n, members=members, raw=raw, width=width,
                                      offset=offset, rows=rows))
        offset += width

    fusion_sends = tuple(
        (k, tree.parent[k], "raw", subtree[k]) if k in fallback
        else (k, tree.parent[k], "compressed", n_filters)
        for k in reversed(tree.order[1:]))
    mix_sends = tuple(
        (tree.parent[k], k, "new_block", subtree[k]) if seg.raw
        else (tree.parent[k], k, "mix_block", n_filters)
        for seg in branches for k in seg.members)

    return FrozenLayout(
        node=q,
        n_filters=n_filters,
        own_channels=own,
        own_rows=graph.block_slice(q),
        branches=tuple(branches),
        local_dim=offset,
        fallback=fallback,
        fusion_sends=fusion_sends,
        mix_sends=mix_sends,
        fusion_rows=sum(send[3] for send in fusion_sends),
        mix_rows=sum(send[3] for send in mix_sends),
    )


def compress(x_block: np.ndarray, y_block: np.ndarray) -> np.ndarray:
    """Filter a node's signal block through its compressor: X_k^T Y_k,
    n_filters rows regardless of the node's channel count."""
    return x_block.T @ y_block


def subtree_channels(graph, tree, node: int) -> int:
    """Channels carried by the subtree hanging from ``node``, itself included."""
    return sum(graph.channel_count(k) for k in tree.branch(node))


def fuse_and_forward(graph, tree, layout, x, data, stream, iteration=0, log=None):
    """Simulate the leaf-to-root flow of one signal stream, returning the
    local (local_dim, n_samples) batch the updating node assembles.

    Compressing nodes send their filtered block plus everything already
    fused below them; raw nodes send their channel rows unchanged, stacked
    with their children's in preorder. Raw rows are absorbed into the first
    compressing ancestor by filtering with the senders' current blocks,
    which equals summing the senders' own compressed contributions.
    """
    q = tree.root
    branches, fallback = _branches_and_fallback(layout, graph)
    messages: dict[int, np.ndarray] = {}
    for k in reversed(tree.order):
        if k == q:
            continue
        if k in fallback:
            stacks = [data[graph.block_slice(k)]]
            stacks += [messages[c] for c in tree.children(k)]
            payload = stacks[0] if len(stacks) == 1 else np.vstack(stacks)
            kind = "raw"
        else:
            payload = compress(x[graph.block_slice(k)], data[graph.block_slice(k)])
            for c in tree.children(k):
                if c in fallback:
                    # every node under a raw node is raw, in preorder
                    x_rows = np.vstack([x[graph.block_slice(j)] for j in tree.branch(c)])
                    payload = payload + compress(x_rows, messages[c])
                else:
                    payload = payload + messages[c]
            kind = "compressed"
        messages[k] = payload
        if log is not None:
            log.add(TransportRecord(iteration, k, tree.parent[k], stream, kind,
                                    payload.shape[0], payload.shape[1]))

    segments = [data[graph.block_slice(q)]]
    segments += [messages[seg.root] for seg in branches]
    return np.vstack(segments)


def objective_on_samples(problem, x, y, v=None, s=None) -> float:
    """A family's objective estimated on the filtered samples X^T y(t)."""
    z = x.T @ y
    if problem.kind == "mmse":
        d = np.atleast_2d(s) - z
        return float(np.sum(d * d)) / y.shape[1]
    if problem.kind == "tro":
        return -(mean_squared_norm(x.T @ v) / mean_squared_norm(z))
    a = problem.linear_term
    sign = -1.0 if problem.kind == "qcqp" else 1.0
    return 0.5 * mean_squared_norm(z) + sign * float(np.sum(x * a))


def whitening(x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, T^+) for a compressed branch with stacked filter rows X_b: from
    numpy's SVD X_b = U S V^T, T = V S^{-1} and T^+ = S V^T, over the
    directions with singular value above RANK_RTOL times the largest; X_b T
    is then U, orthonormal to rounding."""
    _, s, vt = np.linalg.svd(x_rows, full_matrices=False)
    keep = s > RANK_RTOL * s[0]
    s, vt = s[keep], vt[keep]
    return vt.T / s, s[:, None] * vt


def sample_domain_step(problem, graph, x, batch, iteration, log):
    """One iteration with the local problem built from fused samples.

    Every stream and term is fused up the pruned tree with
    ``fuse_and_forward`` (logging each send), q whitens each compressed
    branch's fused rows with ``whitening`` of the branch's filter rows, and
    the local statistics are estimated from the result; an mmse instance
    is loaded as the network-wide one would be (np.linalg.cond on the
    network covariance). The aligned solution is applied the way the nodes
    apply it: q and the raw branches take their rows, and every member of a
    compressed branch multiplies its block by the branch's mixing block
    T x'_b. The dissemination sends are logged here branch by branch, not
    read from the plan's schedule. Returns the next network filter.
    """
    q = select_updating_node(iteration, graph.node_count)
    tree = frozen_prune_to_tree(graph, q)
    layout = frozen_plan_local_layout(tree, graph, problem.n_filters)
    own = layout.own_channels
    maps = [(np.eye(seg.width), x[seg.rows]) if seg.raw else whitening(x[seg.rows])
            for seg in layout.branches]

    def fuse(data, stream):
        fused = fuse_and_forward(graph, tree, layout, x, data, stream, iteration, log)
        return np.vstack([fused[:own]] + [t.T @ fused[seg.cols]
                                          for seg, (t, _) in zip(layout.branches, maps)])

    y = fuse(batch.y, "y")
    v = fuse(batch.v, "v") if problem.uses_second_stream else None
    terms = {name: fuse(b, f"det:{name}") for name, b in problem.b_term_matrices().items()}
    load = 0.0
    if problem.uses_target:
        cov = estimate_covariance(batch.y)
        if np.linalg.cond(cov) > COND_LIMIT:
            load = DIAG_LOAD * np.trace(cov) / cov.shape[0]
    instance = CompressedInstance(
        problem=problem,
        cov_y=estimate_covariance(y),
        cov_v=None if v is None else estimate_covariance(v),
        cross=estimate_cross(y, batch.s) if problem.uses_target else None,
        target_power=mean_squared_norm(batch.s) if problem.uses_target else None,
        b_terms=terms,
        load=load,
        anchor=np.vstack([x[layout.own_rows]] + [a for _, a in maps]),
    )
    outcome = solve_instance(instance)
    x_local = align_to_anchor(outcome.x, instance.anchor, problem.symmetry)
    x_next = np.empty_like(x)
    x_next[layout.own_rows] = x_local[:own]
    offset = own
    # each member of a raw branch gets its subtree's new rows from its
    # parent; each member of a compressed branch gets the mixing block
    for seg, (t, _) in zip(layout.branches, maps):
        block = x_local[offset:offset + t.shape[1]]
        offset += t.shape[1]
        if seg.raw:
            x_next[seg.rows] = block
        for k in seg.members:
            if not seg.raw:
                x_next[graph.block_slice(k)] = x[graph.block_slice(k)] @ (t @ block)
            rows = subtree_channels(graph, tree, k) if seg.raw else problem.n_filters
            log.add(TransportRecord(iteration, tree.parent[k], k, "mix",
                                    "new_block" if seg.raw else "mix_block",
                                    rows, problem.n_filters))
    return x_next


def branch_maps(graph, layout, x, c):
    """(segment, local columns, T) per branch of a step's transition matrix
    c: T is the identity for a raw branch, and for a compressed branch the
    T with X_b T equal to c's block, by least squares, over as many columns
    as ``whitening`` keeps directions of the branch's filter rows."""
    out = []
    offset = layout.own_channels
    for seg in _branches_and_fallback(layout, graph)[0]:
        width = seg.width if seg.raw else whitening(x[seg.rows])[0].shape[1]
        cols = slice(offset, offset + width)
        t = (np.eye(width) if seg.raw
             else np.linalg.lstsq(x[seg.rows], c[seg.rows, cols], rcond=None)[0])
        out.append((seg, cols, t))
        offset += width
    return out


def window_lambda(schedule, t0: int, n: int) -> float | None:
    """lambda at t0 when lambda, read at each of the n samples t0 .. t0+n-1,
    equals it at every one of them (the window is constant), else None (the
    window is a ramp)."""
    lam = schedule(np.arange(t0, t0 + n))
    return float(lam[0]) if (lam == lam[0]).all() else None


def ramp_moments(schedule, t0: int, s: np.ndarray) -> tuple[float, float, float]:
    """||s||^2, mu and l11 of one ramp window of samples s from t0, from the
    README's statement of the per-piece moments. The knots cut the window's
    times at ceil(knot) into pieces on which lambda is linear. A nonempty
    piece of k times from lo has m = (lambda(lo) + lambda(lo + k - 1)) / 2,
    g = (lambda(lo + k - 1) - lambda(lo)) / max(k - 1, 1) and
    u = 0, ..., k - 1 less (k - 1) / 2, and the window's mean lambda is
    c = sum k m / N. In piece order, (q0, q1, q2) = s^2 @ [1, u, u^2] over
    the piece and d = m - c add q0 to P, d q0 + g q1 to S1 and
    d d q0 + 2 d g q1 + g g q2 to S2, from 0. Then mu = c + S1 / P and
    l11 = sqrt(max(S2 - S1 S1 / P, 0)); all three are 0 when P = 0."""
    n = len(s)
    bounds = [t0] + [min(max(math.ceil(t), t0), t0 + n) for t in schedule.times] + [t0 + n]
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        k = hi - lo
        if k:
            a, b = float(schedule(lo)), float(schedule(hi - 1))
            pieces.append((lo - t0, k, 0.5 * (a + b), (b - a) / max(k - 1, 1)))
    c = sum(k * m for _, k, m, _ in pieces) / n
    p = s1 = s2 = 0.0
    for lo, k, m, g in pieces:
        u = np.arange(k) - 0.5 * (k - 1)
        q0, q1, q2 = ((s * s)[lo:lo + k] @ np.column_stack([np.ones(k), u, u * u])).tolist()
        d = m - c
        p += q0
        s1 += d * q0 + g * q1
        s2 += d * d * q0 + 2 * d * g * q1 + g * g * q2
    if p == 0:
        return 0.0, 0.0, 0.0
    return p, c + s1 / p, math.sqrt(max(s2 - s1 * s1 / p, 0.0))


def ramp_moments_per_sample(schedule, t0: int, s: np.ndarray) -> tuple[float, float, float]:
    """||s||^2, mu and l11 of one ramp window as first computed, from lambda
    at every sample: mu the s^2-weighted mean of lambda and
    l11 = ||(lambda - mu) s||; all three are 0 when s = 0."""
    lam = schedule(np.arange(t0, t0 + len(s)))
    power = float((s * s).sum())
    if power == 0:
        return 0.0, 0.0, 0.0
    mu = float((lam * (s * s)).sum()) / power
    return power, mu, float(np.sqrt((((lam - mu) * s) ** 2).sum()))


def drift_statistics_draw(model, starts, n_samples: int, rng_seed=None,
                          moments=ramp_moments) -> list:
    """The drift statistics draw written window by window from the README's
    statement of its contract, for the windows of ``n_samples`` samples at
    ``starts`` (an int or a sequence): ``(cov_y, cross, target_power)`` per
    window. It takes, in this order, the N normals of s of each ramp window
    in one call; in one call, window by window and row by row, the row's r
    entries of G and then its entries below the diagonal of Bartlett's
    factor; in one call, a chi-square on N degrees of freedom per constant
    window, then each window's Bartlett diagonal, N - r - i degrees of
    freedom on row i. Then y y^T = B B^T with
    B = [P L + sqrt(noise_var) G, sqrt(noise_var) K], y s^T = l00 B e1 and
    s s^T = ||s||^2, from l00 = ||s||, l10 = mu l00 and l11, with ||s||^2,
    mu and l11 of a ramp window from ``moments``."""
    drift, m, n = model.drift, model.total_channels, n_samples
    rng = np.random.default_rng(rng_seed)
    starts = [int(t0) for t0 in np.atleast_1d(starts)]
    ramp = [window_lambda(drift.schedule, t0, n) is None for t0 in starts]
    rank = [2 if r else 1 for r in ramp]
    dof = [n - r for r in rank]
    s_rows = iter(np.sqrt(model.source_var) * rng.standard_normal((sum(ramp), n)))
    count = sum(m * r + sum(min(i, d) for i in range(m)) for r, d in zip(rank, dof))
    normals = iter(rng.standard_normal(count).tolist())
    g = [np.zeros((m, 2)) for _ in starts]
    k = [np.zeros((m, m)) for _ in starts]
    for w in range(len(starts)):
        for i in range(m):
            for c in range(rank[w]):
                g[w][i, c] = next(normals)
            for j in range(min(i, dof[w])):
                k[w][i, j] = next(normals)
    dfs = [float(n)] * (len(starts) - sum(ramp))
    dfs += [float(d - i) for d in dof for i in range(min(m, d))]
    chis = rng.chisquare(np.array(dfs)).tolist()
    source_chis, diag_chis = iter(chis[:len(starts) - sum(ramp)]), iter(chis[len(starts) - sum(ramp):])
    out = []
    sd = np.sqrt(model.noise_var)
    for w, t0 in enumerate(starts):
        for i in range(min(m, dof[w])):
            k[w][i, i] = np.sqrt(next(diag_chis))
        if ramp[w]:
            power, mu, l11 = moments(drift.schedule, t0, next(s_rows))
        else:
            power = model.source_var * next(source_chis)
            mu, l11 = float(drift.schedule(t0)), 0.0
        l00 = np.sqrt(power)
        pl = np.column_stack([l00 * drift.p0 + (mu * l00) * drift.delta, l11 * drift.delta])
        b = np.hstack([sd * g[w] + pl, sd * k[w]])
        out.append(((b @ b.T) / n, (l00 / n) * b[:, :1], power / n))
    return out


def cholesky_screen(r: np.ndarray) -> bool:
    """The conditioning screen as first written: cond(R) > COND_LIMIT, decided
    by np.linalg.cholesky of R - t I with t = ||R||_inf / COND_LIMIT, and by
    the eigenvalues when that fails."""
    if not np.isfinite(r).all():
        return False
    screen = np.abs(r).sum(axis=1).max() / COND_LIMIT
    try:
        np.linalg.cholesky(r - screen * np.eye(r.shape[0]))
        return False
    except np.linalg.LinAlgError:
        pass
    mag = np.abs(np.linalg.eigvalsh(r))
    return not mag.min() > 0.0 or mag.max() / mag.min() > COND_LIMIT


# ---------------------------------------------------------------------------
# the statistics-domain step loop as first planned


def frozen_transition_matrix(graph, layout, x):
    """C and the anchor C^T x as first built: a zero-filled C, the identity
    entries and the compressed rows scattered into it through flattened
    indices, each compressed branch's rows the U of one dgesvd of its filter
    rows, with the columns of singular values at most RANK_RTOL times the
    largest zeroed and then removed (see
    ``dasf.engine.build_transition_matrix`` for the map itself)."""
    d = layout.local_dim
    branches = _branches_and_fallback(layout, graph)[0]
    raw = [seg for seg in branches if seg.raw]
    mixed = [seg for seg in branches if not seg.raw]
    own = np.arange(layout.own_rows.start, layout.own_rows.stop)
    ident_rows = np.concatenate([own] + [seg.rows for seg in raw])
    ident_cols = np.concatenate([np.arange(layout.own_channels)]
                                + [np.arange(seg.offset, seg.offset + seg.width) for seg in raw])
    rows = np.concatenate([np.zeros(0, dtype=int)] + [seg.rows for seg in mixed])
    branch = np.repeat(np.arange(len(mixed)), [seg.rows.size for seg in mixed])
    cols = np.array([seg.offset for seg in mixed], dtype=int)[branch, None]
    mixed_flat = rows[:, None] * d + cols + np.arange(layout.n_filters)

    c = np.zeros((graph.total_channels, d))
    flat = c.reshape(-1)
    flat[ident_rows * d + ident_cols] = 1.0
    if mixed:
        blocks = np.empty((rows.size, layout.n_filters))
        dropped = False
        for b in range(len(mixed)):
            u, s, _, info = dgesvd(x[rows[branch == b]], full_matrices=0)
            if info:
                raise np.linalg.LinAlgError("SVD did not converge")
            drop = s <= RANK_RTOL * s[0]
            u[:, drop] = 0.0
            dropped |= drop.any()
            blocks[branch == b] = u
        flat[mixed_flat] = blocks
        if dropped:
            c = c[:, c.any(axis=0)]
    return c, c.T @ x


def _frozen_compressed(central, c, anchor):
    """``CompressedInstance.compressed`` as first written."""
    def congruence(r):
        t = c.T @ (r @ c)
        return 0.5 * (t + t.T)

    return CompressedInstance(
        problem=central.problem,
        cov_y=congruence(central.cov_y),
        cov_v=None if central.cov_v is None else congruence(central.cov_v),
        cross=None if central.cross is None else c.T @ central.cross,
        target_power=central.target_power,
        b_terms={name: c.T @ b for name, b in central.b_terms.items()},
        load=central.load,
        anchor=anchor,
    )


def _frozen_solve(instance):
    """The local solve as first written: for mmse every input check runs
    ahead of dgesv; the other families go to the library's solver."""
    if instance.problem.kind != "mmse":
        return solve_instance(instance)
    cov = instance.cov_y
    for name, a in (("covariance", cov), ("cross-correlation", instance.cross)):
        if not np.isfinite(a).all():
            raise SolverError(f"mmse: {name} has non-finite entries")
    if not cov.any():
        raise SolverError("mmse: covariance is all zero")
    if instance.load:
        cov = cov + instance.load * np.eye(cov.shape[0])
    _, _, x, info = dgesv(cov, instance.cross)
    if info:
        raise SolverError("mmse: covariance is singular")
    return SolveOutcome(x=x, residuals=instance.residuals(x), iterations=1)


def frozen_dasf_run(problem, graph, batch, n_iterations, mode="ti", x0=None,
                    rng_seed=None, reference=None, run_index=0):
    """``dasf.dasf_run`` as first planned: every iteration prunes and plans
    afresh with ``frozen_plan_local_layout``, builds the network-wide
    instance from its batch, assembles the compressed one with
    ``frozen_transition_matrix``, logs its sends and solves. The records
    are evaluated network-wide over the stacked trajectory after the loop,
    with a callable batch against the stacked statistics of its batches:
    the library does so for a fixed batch, and an adaptive run's local
    objectives are held to these values."""
    check_constraint_bound(problem, graph)
    rng = np.random.default_rng(rng_seed)
    if x0 is None:
        x0 = problem.random_feasible(graph.total_channels, rng)
    x = np.asarray(x0, dtype=float)
    log = TransportLog()
    traj = np.empty((n_iterations + 1,) + x.shape)
    traj[0] = x
    read = (("cov_y",) + (("cov_v",) if problem.uses_second_stream else ())
            + (("cross", "target_power") if problem.uses_target else ()))
    stats = None
    steps = []
    for i in range(n_iterations):
        batch_i = batch(i) if callable(batch) else batch
        q = select_updating_node(i, graph.node_count)
        if mode == "fc" and not graph.is_complete():
            raise ValueError("mode 'fc' requires a fully connected network")
        layout = frozen_plan_local_layout(frozen_prune_to_tree(graph, q), graph,
                                          problem.n_filters)
        c, anchor = frozen_transition_matrix(graph, layout, x)
        instance = _frozen_compressed(centralized_instance(problem, batch_i), c, anchor)
        tx = 0
        streams = ["y", "v"] if problem.uses_second_stream else ["y"]
        for stream in streams:
            tx += log.add_sends(i, stream, batch_i.n_samples,
                                layout.fusion_sends, layout.fusion_rows)
        for name, b in instance.b_terms.items():
            tx += log.add_sends(i, f"det:{name}", b.shape[1],
                                layout.fusion_sends, layout.fusion_rows)
        outcome = _frozen_solve(instance)
        x_local = align_to_anchor(outcome.x, instance.anchor, problem.symmetry)
        x = c @ x_local
        tx += log.add_sends(i, "mix", problem.n_filters, layout.mix_sends, layout.mix_rows)
        traj[i + 1] = x
        if callable(batch):
            if stats is None:
                stats = {name: np.empty((n_iterations,) + np.shape(getattr(batch_i, name)))
                         for name in read}
            for name, stack in stats.items():
                stack[i] = getattr(batch_i, name)
        steps.append((q, tx, outcome.iterations, instance.dim))

    path = traj[1:]
    source = batch if stats is None else SimpleNamespace(**stats)
    objective = evaluate_objective(problem, path, source) if n_iterations else np.zeros(0)
    max_residual = np.max(constraint_residuals(problem, path), axis=-1, initial=0.0)
    ref_fixed = None
    if reference is None:
        eps = np.full(n_iterations, np.nan)
    elif callable(reference):
        refs = np.array([reference(i) for i in range(n_iterations)]).reshape(path.shape)
        eps = normalized_error(path, refs)
    else:
        ref_fixed = align_to_anchor(np.asarray(reference, dtype=float), traj[-1],
                                    problem.symmetry)
        eps = normalized_error(path, ref_fixed)
    records = [
        ConvergenceRecord(run=run_index, iteration=i, node=node, objective=f, epsilon=e,
                          max_residual=r, tx_samples=tx, solver_iters=it, local_dim=dim)
        for i, ((node, tx, it, dim), f, e, r) in enumerate(
            zip(steps, objective.tolist(), eps.tolist(), max_residual.tolist()))
    ]
    return RunResult(records=records, x_history=tuple(traj), transport=log,
                     reference=ref_fixed)


def frozen_audit_transport(log: TransportLog, n_filters: int) -> TransportAudit:
    """Check that no node ever shipped more than the compression allows.

    Per iteration, per sender, per signal stream, the transmitted channel
    count must not exceed the filter width; raw (uncompressed) sends are
    only legal below it.
    """
    issues: list[str] = []
    per_sender: dict[tuple[int, int, str], int] = {}
    n_signal = n_raw = n_mix = n_det = 0
    for rec in log.records:
        if rec.stream in ("y", "v"):
            n_signal += 1
            key = (rec.iteration, rec.sender, rec.stream)
            per_sender[key] = per_sender.get(key, 0) + rec.rows
            if rec.kind == "raw":
                n_raw += 1
                if rec.rows >= n_filters:
                    issues.append(
                        f"iteration {rec.iteration}: node {rec.sender} sent "
                        f"{rec.rows} raw channels, expected fewer than {n_filters}"
                    )
        elif rec.stream.startswith("det:"):
            n_det += 1
        else:
            n_mix += 1
    for (iteration, sender, stream), rows in sorted(per_sender.items()):
        if rows > n_filters:
            issues.append(
                f"iteration {iteration}: node {sender} sent {rows} channels "
                f"of stream '{stream}', cap is {n_filters}"
            )
    return TransportAudit(
        ok=not issues,
        issues=tuple(issues),
        signal_records=n_signal,
        raw_records=n_raw,
        mix_records=n_mix,
        det_records=n_det,
    )
