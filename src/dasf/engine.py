"""Distributed iteration engine: fuse, solve locally, disseminate.

One iteration of the scheme, at updating node q:

1. prune the network to a spanning tree rooted at q (a fully connected
   network prunes to its star) and plan the local coordinates; both depend
   only on the graph, q and the filter width, so each is made once,
2. every other node compresses its signal block through its current filter
   block and forwards the sum along the tree toward q; nodes whose subtree
   carries fewer channels than the filter width forward raw rows instead,
3. q assembles a compressed instance of the same problem family and
   solves it; the simulator forms it from the batch's statistics through
   C (covariances C^T R C, terms C^T B), which equals the statistics of the
   fused streams, whitened per compressed branch so that C^T C = I,
4. the solution is split into q's new block plus one square mixing block per
   branch (or direct new blocks for raw branches) and sent back down, and
   every node updates its block by multiplying with its branch's mix; the
   simulator applies the update as C x_local, which equals those products.

The plan also fixes every send of an iteration (``LocalLayout.fusion_sends``
and ``mix_sends``, with their row totals). The transport log stores those
schedules as they are, one entry per stream, and expands them into
per-send records only when queried.

An iteration is plan-time work plus a step kernel. Plan-time work is done
once per (graph, q, filter width): the tree, the layout, C's index arrays
and a read-only template of C with its identity entries; and once per
batch: the network-wide instance (``centralized_instance``) the local ones
are compressed from, and the streams fused toward q. The kernel (``_step``)
then issues only the numeric calls: the template's copy, one thin SVD per
compressed branch (one dgesvd, whose U is the branch's block of C), the
congruence C^T R C and C^T B, the local solve and the lift C x_local, with
the plan's sends logged around the solve. ``dasf_run`` resolves each node's
plan the first time it visits the node and calls the kernel directly;
``dasf_step`` is validation, the same kernel and a StepInfo.

The local-to-network change of coordinates is a tall sparse matrix C with
one nonzero block per block row; its identities (local signals equal C^T
times the network signals, the network filter equals C times the local one)
are the backbone of the tests, which also hold the statistics path to a
sample-domain oracle that fuses the samples themselves up the tree.
"""

from __future__ import annotations

import csv
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dgesvd

from .network import NetworkGraph, PrunedTree, prune_to_tree
from .sfo import (
    CompressedInstance,
    SfoProblem,
    SolveOutcome,
    align_to_anchor,
    centralized_instance,
    check_constraint_bound,
    constraint_residuals,
    evaluate_objective,
    solve_instance,
)
from .signals import SampleBatch

__all__ = [
    "select_updating_node",
    "BranchSegment",
    "LocalLayout",
    "plan_local_layout",
    "build_transition_matrix",
    "dasf_step",
    "dasf_run",
    "StepInfo",
    "RunResult",
    "ConvergenceRecord",
    "CSV_HEADER",
    "write_records_csv",
    "TransportRecord",
    "TransportLog",
    "TransportAudit",
    "audit_transport",
    "normalized_error",
]

RANK_RTOL = 1e-12   # branch singular values this small against the largest are dropped


def select_updating_node(iteration: int, node_count: int) -> int:
    """Round-robin schedule over 1-based node ids: iteration i updates
    node (i mod K) + 1."""
    if node_count < 1:
        raise ValueError("node_count must be positive")
    return iteration % node_count + 1


# --------------------------------------------------------------------------
# transport accounting

# one planned transmission: (sender, receiver, kind, rows)
_Send = tuple[int, int, str, int]


@dataclass(frozen=True)
class TransportRecord:
    """One point-to-point transmission over a tree edge."""

    iteration: int
    sender: int
    receiver: int
    stream: str   # "y" or "v" for signal batches, "mix" for update dissemination
    kind: str     # "compressed", "raw", "mix_block", "new_block"
    rows: int
    cols: int

    @property
    def scalars(self) -> int:
        return self.rows * self.cols


class TransportLog:
    """Append-only record of every transmission, queryable by facet.

    The log keeps whole send schedules, one entry per (iteration, stream,
    cols, sends) with sends a plan's tuple of (sender, receiver, kind, rows),
    plus running totals of records and scalars. Queries expand the entries
    into TransportRecords, in the order they were logged.
    """

    def __init__(self):
        self._entries: list[tuple[int, str, int, tuple[_Send, ...]]] = []
        self._records = 0
        self._scalars = 0

    def add_sends(self, iteration: int, stream: str, cols: int,
                  sends: tuple[_Send, ...], rows: int) -> int:
        """Log one stream's sends; rows is the sum of their row counts.
        Returns the scalars they carry."""
        self._entries.append((iteration, stream, cols, sends))
        self._records += len(sends)
        self._scalars += rows * cols
        return rows * cols

    def add(self, record: TransportRecord) -> None:
        self.add_sends(record.iteration, record.stream, record.cols,
                       ((record.sender, record.receiver, record.kind, record.rows),),
                       record.rows)

    @property
    def records(self) -> list[TransportRecord]:
        return self.sent()

    def sent(self, iteration=None, sender=None, stream=None, kind=None) -> list[TransportRecord]:
        return [
            TransportRecord(it, snd, rcv, strm, knd, rows, cols)
            for it, strm, cols, sends in self._entries
            if (iteration is None or it == iteration) and (stream is None or strm == stream)
            for snd, rcv, knd, rows in sends
            if (sender is None or snd == sender) and (kind is None or knd == kind)
        ]

    def scalars(self) -> int:
        return self._scalars

    def __len__(self) -> int:
        return self._records


@dataclass(frozen=True)
class TransportAudit:
    """Outcome of checking a log against the compression contract."""

    ok: bool
    issues: tuple[str, ...]
    signal_records: int
    raw_records: int
    mix_records: int
    det_records: int = 0


def audit_transport(log: TransportLog, n_filters: int) -> TransportAudit:
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


# --------------------------------------------------------------------------
# local problem layout


@dataclass(frozen=True)
class BranchSegment:
    """One branch of the pruned tree, as seen from the updating node.

    A compressed branch occupies n_filters local coordinates, fewer when an
    iteration drops directions of its filter rows; a raw branch (subtree
    channel count below the filter width) occupies one coordinate per
    channel, in preorder. rows lists the members' network rows in that
    order; it is read-only because plans are shared across iterations.
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


@dataclass(frozen=True)
class LocalLayout:
    """Coordinate plan for the compressed problem at one updating node."""

    node: int                                 # updating node q
    n_filters: int
    own_channels: int                         # q's block, always columns [0, own)
    own_rows: slice                           # q's network rows
    branches: tuple[BranchSegment, ...]       # ascending branch-root order
    local_dim: int                            # every branch direction kept
    fallback: frozenset[int]                  # nodes forwarding raw rows
    # one iteration's sends as (sender, receiver, kind, rows): leaf-to-root
    # per fused stream (raw nodes ship their subtree's channels), then
    # root-to-leaf per branch and member in preorder (raw branches their
    # members' subtree rows, compressed branches the mixing block); each
    # schedule's row total is kept beside it
    fusion_sends: tuple[_Send, ...] = field(repr=False)
    mix_sends: tuple[_Send, ...] = field(repr=False)
    fusion_rows: int
    mix_rows: int

    @cached_property
    def c_template(self) -> np.ndarray:
        """C at full width with only its identity entries, at q's and each raw
        branch's rows; made once per plan, read-only, and copied by every
        step as the start of its C."""
        own = self.own_channels
        c = np.zeros((own + sum(seg.rows.size for seg in self.branches), self.local_dim))
        c[self.own_rows, :own] = np.eye(own)
        for seg in self.branches:
            if seg.raw:
                c[seg.rows, seg.cols] = np.eye(seg.width)
        c.setflags(write=False)
        return c

    @cached_property
    def c_index(self) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
        """C's compressed entries at full width, made once per plan: their
        flattened indices, their network rows, and each compressed branch's
        span of those rows, as Python ints."""
        d, mixed = self.local_dim, [seg for seg in self.branches if not seg.raw]
        sizes = [seg.rows.size for seg in mixed]
        rows = np.concatenate([np.zeros(0, dtype=int)] + [seg.rows for seg in mixed])
        cols = np.repeat(np.array([seg.offset for seg in mixed], dtype=int), sizes)
        flat = (rows * d + cols)[:, None] + np.arange(self.n_filters)
        for a in (flat, rows):
            a.setflags(write=False)
        stops = np.cumsum(sizes, dtype=int).tolist()
        return flat, rows, tuple(zip([0] + stops[:-1], stops))


def _arange(span: slice) -> np.ndarray:
    return np.arange(span.start, span.stop)


def plan_local_layout(tree: PrunedTree, graph: NetworkGraph, n_filters: int) -> LocalLayout:
    """Decide per-node compression and the local coordinate order.

    A node compresses when its subtree (itself included) carries at least
    n_filters channels; otherwise it forwards its raw rows, stacked with its
    children's raw rows in preorder. A compressed node therefore never has a
    compressed descendant below a raw one. The same decisions fix the sends
    of every iteration at q, so the plan lists them once.
    """
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
        rows = np.concatenate([_arange(graph.block_slice(k)) for k in members])
        rows.setflags(write=False)
        branches.append(BranchSegment(
            root=n,
            members=members,
            raw=raw,
            width=width,
            offset=offset,
            rows=rows,
        ))
        offset += width

    fusion_sends = tuple(
        (k, tree.parent[k], "raw", subtree[k]) if k in fallback
        else (k, tree.parent[k], "compressed", n_filters)
        for k in reversed(tree.order[1:]))
    mix_sends = tuple(
        (tree.parent[k], k, "new_block", subtree[k]) if seg.raw
        else (tree.parent[k], k, "mix_block", n_filters)
        for seg in branches for k in seg.members)

    return LocalLayout(
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


def build_transition_matrix(graph: NetworkGraph, layout: LocalLayout,
                            x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map C from local to network coordinates, and the anchor: the
    local point C^T x, which C maps back to the current network filter x.

    C has one nonzero block per block row: the identity at the updating
    node's rows and at each raw branch's rows, and U at the rows of each
    compressed branch b, for the thin SVD X_b = U S V^T of the branch's
    stacked filter rows (one LAPACK dgesvd call per branch); so C^T C = I to
    rounding at any conditioning, and the anchor holds q's and the raw
    branches' current blocks and S V^T per compressed branch. The protocol
    whitens from the Q x Q Gram X_b^T X_b each branch sums up the tree, by
    T_b = V S^{-1}. The simulator computes the same map from the SVD: X_b T_b
    is U in exact arithmetic, and U is orthonormal to rounding in floating
    point. The Grams are not logged as sends.

    Directions with s <= RANK_RTOL * s_max are dropped: their columns are
    zeroed and removed, which leaves that branch fewer than n_filters
    columns, and C @ anchor then misses x only by the dropped directions.
    """
    flat, rows, spans = layout.c_index
    c = layout.c_template.copy()
    if spans:
        xc = x.take(rows, axis=0)
        dropped = False
        for lo, hi in spans:
            u, s, _, info = dgesvd(xc[lo:hi], full_matrices=0)
            if info:
                raise np.linalg.LinAlgError("SVD did not converge")
            if s[-1] <= RANK_RTOL * s[0]:   # descending: the dropped are the last
                u[:, s <= RANK_RTOL * s[0]] = 0.0
                dropped = True
            xc[lo:hi] = u   # the branch's rows of C replace its filter rows
        c.reshape(-1)[flat] = xc
        if dropped:
            c = c[:, c.any(axis=0)]
    return c, c.T @ x


# --------------------------------------------------------------------------
# one iteration, full runs


@dataclass
class StepInfo:
    """Everything one iteration produced, for inspection and tests."""

    node: int
    tree: PrunedTree
    layout: LocalLayout
    transition: np.ndarray
    instance: CompressedInstance
    outcome: SolveOutcome
    x_local: np.ndarray
    tx_scalars: int       # scalars this step logged (0 without a log)


def dasf_step(problem: SfoProblem, graph: NetworkGraph, x: np.ndarray,
              batch: SampleBatch, iteration: int, mode: str = "ti",
              log: TransportLog | None = None) -> tuple[np.ndarray, StepInfo]:
    """Run one iteration at the scheduled updating node and return the next
    network-wide filter along with the step's internals.

    mode "ti" prunes the (arbitrary connected) topology to a tree rooted at
    the updating node; mode "fc" additionally requires a fully connected
    network, whose pruned tree is its star. Both modes then take the exact
    same code path: the step kernel ``dasf_run`` runs every iteration through.
    """
    q = select_updating_node(iteration, graph.node_count)
    _check_mode(graph, mode)
    tree, layout = _plan(graph, q, problem.n_filters)
    x_next, c, instance, outcome, x_local, tx = _step(
        graph, layout, *_batch_plan(problem, batch), x, iteration, log)
    info = StepInfo(
        node=q,
        tree=tree,
        layout=layout,
        transition=c,
        instance=instance,
        outcome=outcome,
        x_local=x_local,
        tx_scalars=tx,
    )
    return x_next, info


def _check_mode(graph: NetworkGraph, mode: str) -> None:
    if mode == "fc":
        if not graph.is_complete():
            raise ValueError("mode 'fc' requires a fully connected network")
    elif mode != "ti":
        raise ValueError(f"unknown mode '{mode}'")


def _batch_plan(problem: SfoProblem, batch: SampleBatch
                ) -> tuple[CompressedInstance, tuple[tuple[str, int], ...]]:
    """Per-batch work of the step: the network-wide instance every local one
    is compressed from, and the (stream, columns) of each stream fused toward
    q: the signal streams, then each term under stream "det:<name>" (exempt
    from the signal channel cap but counted)."""
    central = centralized_instance(problem, batch)
    streams = ("y", "v") if problem.uses_second_stream else ("y",)
    fused = tuple((stream, batch.n_samples) for stream in streams) + tuple(
        (f"det:{name}", b.shape[1]) for name, b in central.b_terms.items())
    return central, fused


def _step(graph: NetworkGraph, layout: LocalLayout, central: CompressedInstance,
          fused: tuple[tuple[str, int], ...], x: np.ndarray, iteration: int,
          log: TransportLog | None, out: np.ndarray | None = None):
    """The step kernel: C and the anchor, the compressed instance, the local
    solve and the lift C x_local (into ``out`` when given), with the plan's
    fusion sends logged before the solve and its mixing sends after. Returns
    the next filter, C, the instance, the solve outcome, x_local and the
    scalars logged."""
    c, anchor = build_transition_matrix(graph, layout, x)
    instance = central.compressed(c, anchor)
    tx = 0
    if log is not None:
        for stream, cols in fused:
            tx += log.add_sends(iteration, stream, cols, layout.fusion_sends, layout.fusion_rows)
    outcome = solve_instance(instance)
    x_local = align_to_anchor(outcome.x, anchor, central.problem.symmetry)
    if log is not None:
        tx += log.add_sends(iteration, "mix", layout.n_filters, layout.mix_sends, layout.mix_rows)
    return np.matmul(c, x_local, out=out), c, instance, outcome, x_local, tx


# graph -> {(root, n_filters): (tree, layout)}; weak keys drop a graph's
# plans with the graph, so a recycled object id never finds stale ones
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(graph: NetworkGraph, root: int, n_filters: int) -> tuple[PrunedTree, LocalLayout]:
    """The pruned tree and local layout at one updating node. Both depend
    only on the graph, the root and the filter width, so each is made once
    and kept for as long as the graph lives."""
    plans = _PLANS.setdefault(graph, {})
    key = (root, n_filters)
    if key not in plans:
        tree = prune_to_tree(graph, root)
        plans[key] = (tree, plan_local_layout(tree, graph, n_filters))
    return plans[key]


class ConvergenceRecord(NamedTuple):
    """One row of a run's convergence table: an immutable named tuple, which
    a run builds thousands of at a fraction of a frozen dataclass's cost."""

    run: int
    iteration: int
    node: int
    objective: float
    epsilon: float
    max_residual: float
    tx_samples: int
    solver_iters: int     # inner iterations of the local solve
    local_dim: int        # dimension of the local problem


CSV_HEADER = "run,iter,q,objective,epsilon,max_residual,tx_samples,solver_iters,local_dim"


def write_records_csv(records: Sequence[ConvergenceRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            writer.writerow([
                r.run, r.iteration, r.node,
                repr(r.objective), repr(r.epsilon), repr(r.max_residual),
                r.tx_samples, r.solver_iters, r.local_dim,
            ])


def normalized_error(x: np.ndarray, reference: np.ndarray):
    """Squared distance to the reference, relative to the reference's energy:
    a float for one point, one value per point for a (T, M, Q) stack of
    points, against one reference or a stack of them."""
    denom = np.sum(reference * reference, axis=(-2, -1))
    if not np.all(denom):
        raise ValueError("reference filter is zero")
    diff = x - reference
    err = np.einsum("...ij,...ij->...", diff, diff) / denom
    return float(err) if err.ndim == 0 else err


@dataclass
class RunResult:
    """A full run: per-iteration table, filter trajectory, transmissions."""

    records: list[ConvergenceRecord]
    x_history: tuple[np.ndarray, ...]   # length n_iterations + 1, initial first
    transport: TransportLog
    reference: np.ndarray | None

    @property
    def final_x(self) -> np.ndarray:
        return self.x_history[-1]

    def epsilon_trace(self) -> np.ndarray:
        return np.array([r.epsilon for r in self.records])

    def objective_trace(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def residual_trace(self) -> np.ndarray:
        return np.array([r.max_residual for r in self.records])

    def to_csv(self, path) -> None:
        write_records_csv(self.records, path)


def dasf_run(problem: SfoProblem, graph: NetworkGraph, batch, n_iterations: int,
             mode: str = "ti", x0: np.ndarray | None = None, rng_seed=None,
             reference=None, run_index: int = 0,
             warn_on_bound: bool = True) -> RunResult:
    """Run the scheme for a fixed number of iterations.

    batch is either one SampleBatch reused every iteration (deterministic
    batch mode) or a callable mapping the iteration index to a fresh batch
    (adaptive mode). reference is an optional network-wide solution to
    measure against: a fixed array is symmetry-aligned once to the final
    iterate, a callable is evaluated per iteration and used as-is. x0
    defaults to a random point satisfying the network-wide constraints.

    Only the steps run in the loop. The records' objectives, residuals and
    errors are evaluated once, over the stacked trajectory, after it.
    """
    if warn_on_bound:
        check_constraint_bound(problem, graph)
    rng = np.random.default_rng(rng_seed)
    if x0 is None:
        x0 = problem.random_feasible(graph.total_channels, rng)
    x = np.asarray(x0, dtype=float)
    if x.shape != (graph.total_channels, problem.n_filters):
        raise ValueError("x0 shape must be (total_channels, n_filters)")

    _check_mode(graph, mode)

    log = TransportLog()
    # the trajectory, filled in place; x_history views it
    traj = np.empty((n_iterations + 1,) + x.shape)
    traj[0] = x
    adaptive = callable(batch)
    # plans resolve once per node the run visits, and a fixed batch's
    # network-wide instance once per run
    layouts: dict[int, LocalLayout] = {}
    # an adaptive run keeps each batch's statistics the objective reads, not
    # the batch, so its samples go when the next batch is drawn
    stats = None
    steps: list[tuple[int, int, int, int]] = []
    for i in range(n_iterations):
        q = select_updating_node(i, graph.node_count)
        batch_i = batch(i) if adaptive else batch
        layout = layouts.get(q)
        if layout is None:
            layout = layouts[q] = _plan(graph, q, problem.n_filters)[1]
        if adaptive or not i:
            planned = _batch_plan(problem, batch_i)
        x, _, instance, outcome, _, tx = _step(graph, layout, *planned, x, i, log, traj[i + 1])
        if adaptive:
            if stats is None:
                stats = {name: np.empty((n_iterations,) + np.shape(getattr(batch_i, name)))
                         for name in _objective_statistics(problem)}
            for name, stack in stats.items():
                stack[i] = getattr(batch_i, name)
        steps.append((q, tx, outcome.iterations, instance.dim))

    # every record's figures in one evaluation over the stacked trajectory
    path = traj[1:]
    source = batch if stats is None else SimpleNamespace(**stats)
    objective = evaluate_objective(problem, path, source) if n_iterations else np.zeros(0)
    max_residual = np.max(constraint_residuals(problem, path), axis=-1, initial=0.0)

    # a fixed reference is mapped through the solution symmetry to the
    # representative closest to the final iterate, so distances to it are
    # meaningful along the whole trajectory
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

    # Python floats, so the CSV's repr columns read as plain numbers
    records = [
        ConvergenceRecord(
            run=run_index, iteration=i, node=node, objective=f, epsilon=e,
            max_residual=r, tx_samples=tx, solver_iters=solver_iters, local_dim=local_dim,
        )
        for i, ((node, tx, solver_iters, local_dim), f, e, r) in enumerate(
            zip(steps, objective.tolist(), eps.tolist(), max_residual.tolist()))
    ]
    return RunResult(
        records=records,
        x_history=tuple(traj),
        transport=log,
        reference=ref_fixed,
    )


def _objective_statistics(problem: SfoProblem) -> tuple[str, ...]:
    """The batch statistics a family's objective reads."""
    return (("cov_y",) + (("cov_v",) if problem.uses_second_stream else ())
            + (("cross", "target_power") if problem.uses_target else ()))
