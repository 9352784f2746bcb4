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
and derives its per-node
channel counts and raw stacks from the tree itself. The drift statistics
draw and the conditioning screen are kept in their first written form, so
that the library's faster forms are held to the same random stream and the
same decisions, and so are the Erdos-Renyi draw (``frozen_make_erdos_renyi``)
and the ``study.meta`` config echo (``frozen_resolved_dict``). The
statistics-domain step loop is kept the same way (``frozen_dasf_run``): the
transition matrix built by zero-fill and scatters, and one
``dasf_step``-shaped call per iteration with the mmse solve's checks ahead of
its LAPACK call, so that the engine's planned step kernel is held bitwise to
the same trajectory, records and log.
"""

from __future__ import annotations

import dataclasses
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
    TransportLog,
    TransportRecord,
    BranchSegment,
    ConvergenceRecord,
    normalized_error,
    select_updating_node,
)
from dasf.network import (
    ER_MAX_RETRIES,
    GraphConnectivityError,
    NetworkGraph,
    PrunedTree,
    _as_channels,
)
from dasf.sfo import (
    COND_LIMIT,
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
    DRIFT_RANK_RTOL,
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
    messages: dict[int, np.ndarray] = {}
    for k in reversed(tree.order):
        if k == q:
            continue
        if k in layout.fallback:
            stacks = [data[graph.block_slice(k)]]
            stacks += [messages[c] for c in tree.children(k)]
            payload = stacks[0] if len(stacks) == 1 else np.vstack(stacks)
            kind = "raw"
        else:
            payload = compress(x[graph.block_slice(k)], data[graph.block_slice(k)])
            for c in tree.children(k):
                if c in layout.fallback:
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
    segments += [messages[seg.root] for seg in layout.branches]
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


def branch_maps(layout, x, c):
    """(segment, local columns, T) per branch of a step's transition matrix
    c: T is the identity for a raw branch, and for a compressed branch the
    T with X_b T equal to c's block, by least squares, over as many columns
    as ``whitening`` keeps directions of the branch's filter rows."""
    out = []
    offset = layout.own_channels
    for seg in layout.branches:
        width = seg.width if seg.raw else whitening(x[seg.rows])[0].shape[1]
        cols = slice(offset, offset + width)
        t = (np.eye(width) if seg.raw
             else np.linalg.lstsq(x[seg.rows], c[seg.rows, cols], rcond=None)[0])
        out.append((seg, cols, t))
        offset += width
    return out


def drift_statistics_draw(model, t: int, n_samples: int, rng_seed=None) -> SampleBatch:
    """The drift statistics draw as first written, the reference for the
    library's random stream: ``np.linalg.eigh`` for A A^T, boolean masks for
    its kept directions, and ``np.tril`` for Bartlett's factor. Draw order is
    s, G, then the Wishart factor (M x M normals, then M chi-squares; or
    M x (N - r) normals when N - r < M)."""
    drift = model.drift
    rng = np.random.default_rng(rng_seed)
    m, n = model.total_channels, n_samples
    lam = drift.schedule(np.arange(t, t + n))
    s = np.sqrt(model.source_var) * rng.standard_normal((1, n))
    a = np.vstack([s, lam * s])
    aat = a @ a.T
    sig2, v = np.linalg.eigh(aat)
    keep = sig2 > DRIFT_RANK_RTOL * sig2[-1]
    g = rng.standard_normal((m, int(keep.sum())))
    h = (g * np.sqrt(sig2[keep])) @ v[:, keep].T
    n_rest = n - g.shape[1]
    if n_rest < m:
        bartlett = rng.standard_normal((m, n_rest))
    else:
        bartlett = np.tril(rng.standard_normal((m, m)), -1)
        np.fill_diagonal(bartlett, np.sqrt(rng.chisquare(n_rest - np.arange(m))))
    k = np.hstack([g, bartlett])
    p, sd = np.column_stack([drift.p0, drift.delta]), np.sqrt(model.noise_var)
    half = 0.5 * model.noise_var * (k @ k.T) + sd * (h @ p.T) + 0.5 * (p @ aat) @ p.T
    cov, cross = (half + half.T) / n, (sd * h[:, :1] + p @ aat[:, :1]) / n
    return SampleBatch.from_statistics(model.channels, s, cov, cross, t)


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
    raw = [seg for seg in layout.branches if seg.raw]
    mixed = [seg for seg in layout.branches if not seg.raw]
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
    ``frozen_transition_matrix``, logs its sends and solves; the records are evaluated over the stacked trajectory after the
    loop, as the library does."""
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
