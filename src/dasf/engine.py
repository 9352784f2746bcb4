"""Distributed iteration engine: fuse, solve locally, disseminate.

One iteration of the scheme, at updating node q:

1. prune the network to a spanning tree rooted at q (a fully connected
   network prunes to its star) and plan the local coordinates; both depend
   only on the graph, q and the filter width, so they are made once, for
   every q of the graph together,
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
per-send records only when queried; the audit reads each distinct schedule
once, without expanding it.

An iteration is plan-time work plus a step kernel. Plan-time work is done
once per (graph, filter width), for every q of a block of roots in one pass
at the block's first plan request (``_plan_roots``; a graph of up to a few
hundred channels is one block): one breadth-first flood grows the trees of
all its roots (``network.breadth_first_forest``), then subtree channel
counts, preorder and row offsets are found as arrays for all of them
(``_TreePlans``); the plans keep only the arrays a layout is cut from.
Each request cuts a fresh layout of q, a plain record of the kernel's
inputs: its send schedules, their row totals and C's index arrays; a run
cuts one layout for each node it visits. Once per batch comes the network-wide
instance (``centralized_instance``) the local ones are compressed from; it
is the one statement of the statistics a family reads, and so of the
streams fused toward q. The kernel (``_step``) then issues only the
numeric calls each family needs: C from zeros with its identity entries
set, one thin SVD per compressed branch (one dgesvd, whose U is the
branch's block of C), the anchor C^T x only for a family whose solve reads
it (``uses_anchor``: all but MMSE, whose closed form is unique), the
congruence C^T R C and C^T B, the local solve (MMSE: one dgesv behind one
finiteness screen) and the lift C x_local, with the plan's sends logged
around the solve. ``dasf_run`` cuts each node's layout the first time it
visits the node and calls the kernel directly; ``dasf_step`` is
validation, the same kernel and a StepInfo.

The local-to-network change of coordinates is a tall sparse matrix C with
one nonzero block per block row; its identities (local signals equal C^T
times the network signals, the network filter equals C times the local one)
are the backbone of the tests, which also hold the statistics path to a
sample-domain oracle that fuses the samples themselves up the tree.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ._lapack import dgesvd
from .network import NetworkGraph, PrunedTree, breadth_first_forest
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
    "LocalLayout",
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
    plus running totals of records and scalars. Queries (``records``,
    ``sent``) expand the entries into TransportRecords, in the order they
    were logged; ``audit_transport`` reads the entries as they are.
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


class _ScheduleSummary(NamedTuple):
    """What the audit reads of one signal schedule, at one cap."""

    rows: dict[int, int]                 # rows sent per sender
    over: list[tuple[int, int]]          # (sender, rows) for the senders over the cap
    raw_over: list[tuple[int, int]]      # (sender, rows) per raw send at or over it, in order
    raw: int                             # raw sends


def _summarise(sends: tuple[_Send, ...], cap: int) -> _ScheduleSummary:
    rows: dict[int, int] = {}
    raw_over = []
    raw = 0
    for sender, _, kind, n in sends:
        rows[sender] = rows.get(sender, 0) + n
        if kind == "raw":
            raw += 1
            if n >= cap:
                raw_over.append((sender, n))
    return _ScheduleSummary(rows, [(s, n) for s, n in rows.items() if n > cap], raw_over, raw)


def audit_transport(log: TransportLog, n_filters: int) -> TransportAudit:
    """Check that no node ever shipped more than the compression allows.

    Per iteration, per sender, per signal stream, the transmitted channel
    count must not exceed the filter width; raw (uncompressed) sends are
    only legal below it. The issues list the illegal raw sends in log
    order, then the senders over the cap by (iteration, sender, stream).

    The log's entries are read without expanding them into records: each
    distinct signal schedule (a plan's shared send tuple, or the one-send
    tuple of ``TransportLog.add``) is summarised once, and each (iteration,
    stream) is checked from its entries' summaries, merged only when it
    holds several.
    """
    issues: list[str] = []
    summaries: dict[int, _ScheduleSummary] = {}   # by id of the logged tuple
    groups: dict[tuple[int, str], list[_ScheduleSummary]] = {}
    n_signal = n_raw = n_mix = n_det = 0
    for iteration, stream, _, sends in log._entries:
        if stream in ("y", "v"):
            summary = summaries.get(id(sends))
            if summary is None:
                summary = summaries[id(sends)] = _summarise(sends, n_filters)
            n_signal += len(sends)
            n_raw += summary.raw
            issues += [f"iteration {iteration}: node {sender} sent {rows} raw channels, "
                       f"expected fewer than {n_filters}" for sender, rows in summary.raw_over]
            groups.setdefault((iteration, stream), []).append(summary)
        elif stream.startswith("det:"):
            n_det += len(sends)
        else:
            n_mix += len(sends)
    capped = []
    for (iteration, stream), held in groups.items():
        if len(held) == 1:
            over = held[0].over
        else:
            rows_of = Counter()
            for summary in held:
                rows_of.update(summary.rows)
            over = [(sender, rows) for sender, rows in rows_of.items() if rows > n_filters]
        capped += [(iteration, sender, stream, rows) for sender, rows in over]
    issues += [f"iteration {iteration}: node {sender} sent {rows} channels "
               f"of stream '{stream}', cap is {n_filters}"
               for iteration, sender, stream, rows in sorted(capped)]
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
@dataclass(frozen=True, eq=False)
class LocalLayout:
    """Coordinate plan for the compressed problem at one updating node.

    A layout is a plain record of the step kernel's inputs, cut from the
    arrays of a ``_TreePlans``. It holds no reference to the plans, and the
    plans keep no layouts, so a layout lives as long as its holder: a run
    cuts one for each node it visits and shares it across that node's
    iterations.
    """

    node: int                                 # updating node q
    n_filters: int
    own_channels: int                         # q's block, always columns [0, own)
    own_rows: slice                           # q's network rows
    local_dim: int                            # every branch direction kept
    # one iteration's sends as (sender, receiver, kind, rows): leaf-to-root
    # per fused stream (raw nodes ship their subtree's channels), then
    # root-to-leaf per branch and member in preorder (raw branches their
    # members' subtree rows, compressed branches the mixing block); each
    # schedule's row total is kept beside it
    fusion_sends: tuple[_Send, ...] = field(repr=False)
    mix_sends: tuple[_Send, ...] = field(repr=False)
    fusion_rows: int
    mix_rows: int
    # C's entries at full width: the compressed ones' flattened indices,
    # their network rows and each compressed branch's span of those rows (as
    # Python ints), then the flattened indices of the identity entries, at
    # q's and each raw branch's rows; read-only
    c_index: tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...], np.ndarray] = field(
        repr=False)


# send kinds, indexed by whether the sender's subtree (fusion) or branch
# (mixing) is raw
_UP_KINDS = ("compressed", "raw")
_DOWN_KINDS = ("mix_block", "new_block")


def _sends(schedule: np.ndarray, kinds: tuple[str, str]) -> tuple[_Send, ...]:
    """One tree's sends, from its (4, sends) array of senders, receivers,
    rawness and row counts."""
    sender, receiver, raw, rows = schedule.tolist()
    return tuple(zip(sender, receiver, map(kinds.__getitem__, raw), rows))


class _TreePlans:
    """The layouts at one filter width of a set of trees spanning one graph.

    Every layout rule is applied here, once, to all trees together, on
    arrays indexed [tree, node] (nodes 0-based) or [tree, position], where a
    tree's positions are the network's rows in preorder: the root's block,
    then each branch's members' blocks, children in ascending order.

    A node compresses when its subtree (itself included) carries at least
    n_filters channels; otherwise it forwards its raw rows, stacked with its
    children's raw rows in preorder. A compressed node therefore never has a
    compressed descendant below a raw one. The root's block takes the first
    local columns, then each branch in ascending branch-root order takes
    n_filters columns if it compresses and one per channel if it is raw.
    The same decisions fix every send of an iteration at the root.

    The plans keep as attributes only the arrays ``layout(i)`` cuts a fresh
    layout of tree i from, by slicing, its send tuples included; the trees,
    subtree counts, preorder and offsets they are found from are dropped
    once they are read. The plans keep no reference to a layout they cut,
    nor to the graph, so plans cached per graph let the graph go.
    """

    def __init__(self, graph: NetworkGraph, roots: np.ndarray, depth: np.ndarray,
                 parent: np.ndarray, n_filters: int):
        if graph.total_channels < n_filters:
            raise ValueError("filter width exceeds the network's channel count")
        n_trees, k = depth.shape
        m = graph.total_channels
        ch = np.array(graph.channels)
        first_row = ch.cumsum() - ch
        # nodes and positions are indexed flat, tree after tree: node j of
        # tree t at t * k + j, position x of tree t at t * m + x
        tree_node = np.arange(0, n_trees * k, k)[:, None]
        up = (parent + tree_node).ravel()           # each non-root's parent
        node = np.arange(n_trees * k) % k
        own_ch = ch[node]
        by_depth = depth.argsort(axis=None, kind="stable")
        ends = np.bincount(depth.ravel()).cumsum().tolist()
        layers = [by_depth[lo:hi] for lo, hi in zip([0] + ends, ends)]

        # subtree channel counts, leaves first
        sub = own_ch.copy()
        for layer in layers[:0:-1]:
            np.add.at(sub, up[layer], sub[layer])
        # a non-root's first position past its parent's: the parent's own
        # block, then its elder siblings' subtrees (children ascend)
        kids = by_depth[ends[0]:]
        kids = kids[up[kids].argsort(kind="stable")]
        kid_up, kid_sub = up[kids], sub[kids]
        before = kid_sub.cumsum() - kid_sub
        head = np.ones(kids.size, dtype=bool)
        head[1:] = kid_up[1:] != kid_up[:-1]
        lead = np.zeros_like(sub)
        lead[kids] = before - np.maximum.accumulate(np.where(head, before, 0)) + own_ch[kid_up]
        # root first: each node's first position, and its branch (the root's
        # child it hangs from; the root is its own)
        start = np.zeros_like(sub)
        branch = np.arange(n_trees * k)
        for d, layer in enumerate(layers[1:], 1):
            p = up[layer]
            start[layer] = start[p] + lead[layer]
            if d > 1:
                branch[layer] = branch[p]

        # each tree's network rows in preorder, and each position's branch
        node_of_row = np.repeat(np.arange(k), ch)
        row_node = tree_node + node_of_row
        pos = np.arange(m)
        at = start[row_node] + (pos - first_row[node_of_row]) + np.arange(0, n_trees * m, m)[:, None]
        rows = np.empty((n_trees, m), dtype=np.intp)
        rows.reshape(-1)[at] = pos
        br = np.empty((n_trees, m), dtype=np.intp)
        br.reshape(-1)[at] = branch[row_node]

        raw = sub < n_filters            # never a root: its subtree is the network
        top = (depth == 1).ravel()       # the branch roots
        width = np.where(top, np.where(raw, sub, n_filters), 0).reshape(n_trees, k)
        own = ch[roots]
        root_node = tree_node[:, 0] + roots
        offset = (width.cumsum(axis=1) - width + own[:, None]).ravel()
        offset[root_node] = 0
        dim = width.sum(axis=1) + own
        mixed = ~raw[br] & (br != root_node[:, None])
        flat = rows * dim[:, None] + offset[br] + np.where(mixed, 0, pos - start[br])

        self.n_filters = n_filters
        self.c_flat = flat[mixed][:, None] + np.arange(n_filters)
        self.c_rows = rows[mixed]
        self.ident = flat[~mixed]
        for a in (self.c_flat, self.c_rows, self.ident):
            a.setflags(write=False)
        n_mixed = mixed.sum(axis=1)
        self.c_at = [0] + n_mixed.cumsum().tolist()
        self.ident_at = [0] + (m - n_mixed).cumsum().tolist()
        mixed_top = (top & ~raw).reshape(n_trees, k)
        span_rows = np.where(mixed_top, sub.reshape(n_trees, k), 0)
        stops = span_rows.cumsum(axis=1)
        self.spans = tuple(zip((stops - span_rows)[mixed_top].tolist(), stops[mixed_top].tolist()))
        self.span_at = [0] + mixed_top.sum(axis=1).cumsum().tolist()
        self.own, self.first_row = own.tolist(), first_row[roots].tolist()
        self.nodes = (roots + 1).tolist()
        self.dim = dim.tolist()

        # every tree's sends as (sender, receiver, raw, rows) arrays indexed
        # [tree, field, send], k - 1 per schedule: leaf-to-root in reverse
        # breadth-first order, root-to-leaf in preorder; a tree's tuples are
        # made when its layout is cut
        up_nodes = depth.argsort(axis=1, kind="stable")[:, :0:-1] + tree_node
        down_nodes = start.reshape(n_trees, k).argsort(axis=1)[:, 1:] + tree_node
        up_raw, down_raw = raw[up_nodes], raw[branch[down_nodes]]
        up_rows = np.where(up_raw, sub[up_nodes], n_filters)
        down_rows = np.where(down_raw, sub[down_nodes], n_filters)
        node1, parent1 = node + 1, parent.ravel() + 1
        self.fusion = np.stack([node1[up_nodes], parent1[up_nodes], up_raw, up_rows], axis=1)
        self.mix = np.stack([parent1[down_nodes], node1[down_nodes], down_raw, down_rows], axis=1)
        self.fusion_rows = up_rows.sum(axis=1).tolist()
        self.mix_rows = down_rows.sum(axis=1).tolist()

    def layout(self, i: int) -> LocalLayout:
        """Tree i's layout, cut afresh."""
        lo, hi = self.c_at[i], self.c_at[i + 1]
        own, first = self.own[i], self.first_row[i]
        return LocalLayout(
            node=self.nodes[i],
            n_filters=self.n_filters,
            own_channels=own,
            own_rows=slice(first, first + own),
            local_dim=self.dim[i],
            fusion_sends=_sends(self.fusion[i], _UP_KINDS),
            mix_sends=_sends(self.mix[i], _DOWN_KINDS),
            fusion_rows=self.fusion_rows[i],
            mix_rows=self.mix_rows[i],
            c_index=(self.c_flat[lo:hi], self.c_rows[lo:hi],
                     self.spans[self.span_at[i]:self.span_at[i + 1]],
                     self.ident[self.ident_at[i]:self.ident_at[i + 1]]),
        )


def build_transition_matrix(graph: NetworkGraph, layout: LocalLayout,
                            x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map C from local to network coordinates (``_transition_matrix``),
    and the anchor: the local point C^T x, which C maps back to the current
    network filter x. The anchor holds q's and the raw branches' current
    blocks and S V^T per compressed branch; where directions were dropped,
    C @ anchor misses x only by them."""
    c = _transition_matrix(graph, layout, x)
    return c, c.T @ x


def _transition_matrix(graph: NetworkGraph, layout: LocalLayout, x: np.ndarray) -> np.ndarray:
    """C, with one nonzero block per block row: the identity at the updating
    node's rows and at each raw branch's rows, and U at the rows of each
    compressed branch b, for the thin SVD X_b = U S V^T of the branch's
    stacked filter rows (one LAPACK dgesvd call per branch); so C^T C = I to
    rounding at any conditioning. The protocol whitens from the Q x Q Gram
    X_b^T X_b each branch sums up the tree, by T_b = V S^{-1}. The simulator
    computes the same map from the SVD: X_b T_b is U in exact arithmetic,
    and U is orthonormal to rounding in floating point. The Grams are not
    logged as sends.

    Directions with s <= RANK_RTOL * s_max are dropped: their columns are
    zeroed and removed, which leaves that branch fewer than n_filters
    columns.
    """
    flat, rows, spans, ident = layout.c_index
    c = np.zeros((graph.total_channels, layout.local_dim))
    c.reshape(-1)[ident] = 1.0
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
    return c


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
    layout = _plan(graph, q, problem.n_filters)
    x_next, c, instance, outcome, x_local, tx = _step(
        graph, layout, *_batch_plan(problem, batch), x, iteration, log)
    info = StepInfo(
        node=q,
        tree=_fusion_tree(graph, layout),
        layout=layout,
        transition=c,
        instance=instance,
        outcome=outcome,
        x_local=x_local,
        tx_scalars=tx,
    )
    return x_next, info


def _fusion_tree(graph: NetworkGraph, layout: LocalLayout) -> PrunedTree:
    """The pruned tree a layout's fusion sends walk: read in reverse, their
    senders come in breadth-first order, each below its receiver."""
    order = [layout.node - 1]
    parent = np.full(graph.node_count, -1)
    for sender, receiver, _, _ in reversed(layout.fusion_sends):
        order.append(sender - 1)
        parent[sender - 1] = receiver - 1
    return PrunedTree.from_arrays(np.array(order), parent)


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
    streams = ("y", "v") if central.cov_v is not None else ("y",)
    fused = tuple((stream, batch.n_samples) for stream in streams) + tuple(
        (f"det:{name}", b.shape[1]) for name, b in central.b_terms.items())
    return central, fused


def _step(graph: NetworkGraph, layout: LocalLayout, central: CompressedInstance,
          fused: tuple[tuple[str, int], ...], x: np.ndarray, iteration: int,
          log: TransportLog | None, out: np.ndarray | None = None):
    """The step kernel: C, the anchor C^T x when the family's solve reads it
    (``uses_anchor``; None otherwise), the compressed instance, the local
    solve and the lift C x_local (into ``out`` when given), with the plan's
    fusion sends logged before the solve and its mixing sends after. Returns
    the next filter, C, the instance, the solve outcome, x_local and the
    scalars logged."""
    c = _transition_matrix(graph, layout, x)
    problem = central.problem
    anchor = c.T @ x if problem.uses_anchor else None
    instance = central.compressed(c, anchor)
    tx = 0
    if log is not None:
        for stream, cols in fused:
            tx += log.add_sends(iteration, stream, cols, layout.fusion_sends, layout.fusion_rows)
    outcome = solve_instance(instance)
    x_local = align_to_anchor(outcome.x, anchor, problem.symmetry)
    if log is not None:
        tx += log.add_sends(iteration, "mix", layout.n_filters, layout.mix_sends, layout.mix_rows)
    return np.matmul(c, x_local, out=out), c, instance, outcome, x_local, tx


# graph -> {(n_filters, block): _TreePlans}; weak keys drop a graph's plans
# with the graph, so a recycled object id never finds stale ones
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# roots are planned in blocks of consecutive ids whose (roots x channels)
# arrays hold at most this many entries: one block for every graph up to a
# few hundred channels, a few roots at a time on the largest graphs
BLOCK_ENTRIES = 2**17


def _plan_roots(graph: NetworkGraph, roots: np.ndarray, n_filters: int) -> _TreePlans:
    """One pass for a block of roots: their breadth-first trees, then every
    layout rule applied to all of them at once."""
    depth, parent = breadth_first_forest(graph, roots)
    return _TreePlans(graph, roots, depth, parent, n_filters)


def _plan(graph: NetworkGraph, root: int, n_filters: int) -> LocalLayout:
    """The local layout at one updating node, cut afresh. Plans depend only
    on the graph and the filter width, so the first request plans the root's
    whole block in one pass, and the block is kept for as long as the graph
    lives."""
    per_graph = _PLANS.setdefault(graph, {})
    size = max(1, BLOCK_ENTRIES // graph.total_channels)
    block, at = divmod(root - 1, size)
    plans = per_graph.get((n_filters, block))
    if plans is None:
        roots = np.arange(block * size, min((block + 1) * size, graph.node_count))
        plans = per_graph[n_filters, block] = _plan_roots(graph, roots, n_filters)
    return plans.layout(at)


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
    """The records as CSV in one join, as the csv module writes them: the
    floats as repr, the other fields as str, every line ended by CRLF."""
    lines = [CSV_HEADER] + ["%s,%s,%s,%r,%r,%r,%s,%s,%s" % r for r in records]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


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

    Only the steps run in the loop. The records' residuals and errors, and
    with a fixed batch their network-wide objectives, are evaluated once,
    over the stacked trajectory, after it. An adaptive run keeps no batch
    statistics: each step records the objective of the local instance it
    solved at x_local, which equals the network objective at C x_local up
    to the rounding of its terms.
    """
    if n_iterations < 0:
        raise ValueError(f"n_iterations must be non-negative, got {n_iterations}")
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
    # one layout is cut per node the run visits, and a fixed batch's
    # network-wide instance is made once per run
    layouts: dict[int, LocalLayout] = {}
    steps: list[tuple[int, int, int, int]] = []
    objectives: list[float] = []   # an adaptive run's, from each local instance
    n_nodes = graph.node_count
    for i in range(n_iterations):
        q = i % n_nodes + 1   # select_updating_node's round robin
        batch_i = batch(i) if adaptive else batch
        layout = layouts.get(q)
        if layout is None:
            layout = layouts[q] = _plan(graph, q, problem.n_filters)
        if adaptive or not i:
            planned = _batch_plan(problem, batch_i)
        x, _, instance, outcome, x_local, tx = _step(graph, layout, *planned, x, i, log,
                                                     traj[i + 1])
        if adaptive:
            objectives.append(instance.objective(x_local))
        steps.append((q, tx, outcome.iterations, instance.dim))

    # the records' other figures, and a fixed batch's objectives, in one
    # evaluation over the stacked trajectory
    path = traj[1:]
    objective = objectives if adaptive else evaluate_objective(problem, path, batch).tolist()
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
        ConvergenceRecord(run_index, i, node, f, e, r, tx, solver_iters, local_dim)
        for i, ((node, tx, solver_iters, local_dim), f, e, r) in enumerate(
            zip(steps, objective, eps.tolist(), max_residual.tolist()))
    ]
    return RunResult(
        records=records,
        x_history=tuple(traj),
        transport=log,
        reference=ref_fixed,
    )
