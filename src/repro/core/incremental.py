"""Incremental preparation: evolve a ``G2⁺`` index under data-graph deltas.

Every layer of the serving stack — the LRU, the disk store, the shard
plans — keys on the data graph's content fingerprint, so a *single edge
insert* used to flip every key and send the whole stack cold: the next
request paid a full re-prepare (two condensations plus two transitive
closures).  This module closes the ROADMAP's "incremental preparation"
item: a :class:`DeltaLog` records what actually changed, and
:func:`evolve_prepared` (surfaced as
:meth:`~repro.core.prepared.PreparedDataGraph.apply_delta`) recomputes
only the closure rows the delta can have touched, splicing them into the
untouched rows.

Which rows can a delta touch?
-----------------------------
Let ``T`` be the delta's *touched* nodes — the endpoints of every added
or removed edge plus every added or removed node.  Every edge in
``E_new ∖ E_old`` and ``E_old ∖ E_new`` has both endpoints in ``T``.
Claim: if node ``u ∉ T`` cannot reach any ``t ∈ T`` in the **old**
graph, its forward reachability row is unchanged.  Proof sketch: take
any new-graph path from ``u`` and its *first* edge not in the old graph;
the prefix before it is an old-graph path to that edge's tail — a member
of ``T`` — contradiction, so every new-graph path from ``u`` is an old
path; and no old path from ``u`` uses a removed edge (its tail is in
``T`` too), so they all survive.  Hence the dirty forward rows are
exactly ``⋃_{t∈T} to_mask(t) ∪ T`` *read off the old index*, and the
dirty backward rows are the mirror image.  Everything outside those sets
is spliced through untouched (shared by reference when no node was
removed — big ints are immutable).

Four evolution strategies, picked per delta:

``payload-only``
    no structural event at all (labels / weights / attrs): every mask is
    byte-identical, only the fingerprint moves.  Backend row caches are
    carried over as-is.

``additive``
    a short burst of pure insertions.  Classic incremental transitive
    closure (Italiano): inserting ``(a, b)`` ORs ``reach(b) ∪ {b}`` into
    the row of every old node reaching ``a`` — one big-int OR per dirty
    row, no condensation at all.  Cycle bits only need refreshing when
    ``b`` already reached ``a`` (the insert closes a cycle).

``decremental``
    a pure edge-removal burst with no node churn.  Removals only shrink
    reachability, so the rows that can change are exactly the old
    ancestors of the removed tails (forward) and old descendants of the
    removed heads (backward) — and most of those rows had *alternative
    support* for every bit they held.  One Tarjan pass over just the
    dirty-induced subgraph (:func:`~repro.graph.closure.decremental_reach_rows`)
    recomputes an SCC's row only when it lost an edge itself or a
    successor's row actually changed; a row that comes back identical
    stops the wave, so a single-edge removal on a well-connected graph
    typically recomputes one row instead of running a full-graph
    condensation.

``scc-delta``
    the general case (removals, SCC splits and merges, long event
    runs).  One Tarjan pass over the *new* graph, then reach rows are
    recomputed bottom-up over the condensation DAG **only for SCCs
    containing a dirty node** — clean components contribute their old
    rows (remapped when node removals shifted bit positions).  The
    backward rows reuse the same condensation via
    :meth:`~repro.graph.scc.Condensation.dag_predecessors`, so the whole
    evolve runs a single SCC computation where a cold prepare runs two.

When the dirty frontier exceeds ``cutoff`` (a fraction of all rows), or
the delta is unusable (overflowed event log plus reordered survivors,
inconsistent endpoints), evolution degrades to an honest full re-prepare
— never a wrong answer.  Whatever the path, the result is **bit-identical**
to ``PreparedDataGraph(graph)`` built cold: the fuzz suite
(``tests/test_incremental.py``) drives hundreds of random mutation steps
asserting exactly that, under both solver backends and through the store
round-trip.
"""

from __future__ import annotations

import weakref
from typing import Any, Hashable, NamedTuple

from repro.core.backends.bitops import iter_set_bits
from repro.graph.closure import component_member_masks, decremental_reach_rows
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation
from repro.utils.errors import InputError
from repro.utils.timing import Stopwatch

__all__ = [
    "DeltaEvent",
    "DeltaLog",
    "STRUCTURAL_OPS",
    "ADDITIVE_MAX_EVENTS",
    "DEFAULT_CUTOFF",
    "evolve_prepared",
]

Node = Hashable

#: Mutation kinds that change the graph's structure (and so its closure).
STRUCTURAL_OPS = frozenset({"add_node", "remove_node", "add_edge", "remove_edge"})

#: Mutation kinds a :class:`DeltaLog` understands.
KNOWN_OPS = STRUCTURAL_OPS | frozenset({"set_label", "set_weight", "set_attrs"})

#: Longest pure-insertion burst replayed by the additive fast path; longer
#: additive deltas go through the scc-delta path, whose cost is bounded by
#: the dirty frontier instead of the event count.
ADDITIVE_MAX_EVENTS = 32

#: Default dirty-row fraction beyond which evolution falls back to a full
#: re-prepare.  The scc-delta path recomputes dirty rows at the same
#: per-row cost as a cold build but runs one condensation instead of two
#: and skips every clean row, so it stays profitable until almost all of
#: the ``2·|V|`` rows are dirty; 0.8 leaves margin for its bookkeeping
#: (remapping, dirty-set construction).
DEFAULT_CUTOFF = 0.8

#: Event-list bound: beyond this a log keeps only its cumulative touched /
#: removed sets (enough for the scc-delta path) and drops per-event replay.
MAX_EVENTS = 10_000


class DeltaEvent(NamedTuple):
    """One recorded mutation: ``op`` plus its operands.

    ``b`` is the edge head for edge events, the frozen neighbor snapshot
    for ``remove_node`` (taken *before* the incident edges vanish), and
    ``None`` otherwise.
    """

    op: str
    a: Node
    b: Any = None


class DeltaLog:
    """An ordered record of mutations applied to one :class:`DiGraph`.

    Attach a log and every mutator appends to it (``DiGraph._notify``);
    the serving layer then hands the log to
    :meth:`~repro.core.prepared.PreparedDataGraph.apply_delta` to evolve
    a prepared index instead of rebuilding it.  Besides the event list
    the log maintains cumulative summaries that survive event-list
    overflow:

    ``touched``
        structural endpoints — added/removed nodes, edge endpoints, and
        the neighbors of removed nodes (whose incident edges vanished).
    ``removed_nodes``
        every node a ``remove_node`` event ever hit (a later re-add
        moves the node to the end of the enumeration order, so bit
        remapping must treat it as removed *and* appended).
    ``relabeled``
        nodes whose label or weight changed — irrelevant to closure
        rows, but it moves content fingerprints, which is what shard
        re-planning keys stability on.

    ``base_fingerprint`` names the graph content the log's events extend
    (the fingerprint of the prepared index they evolve); ``owner`` tags
    which cache attached the log, so several services can track one
    graph without stealing each other's history.

    A log built without a ``graph`` observes nothing: it is data a
    caller hands to a cache's ``prepared_for(..., delta=)`` — a shard
    plan's per-shard delta (router events replayed, or
    :meth:`from_diff`) — and the cache reads it without modifying it.

    The observed graph is held weakly (:attr:`graph` reads a weakref).
    The graph holds its logs strongly in ``_delta_logs``, so a strong
    back reference would make every observed graph part of a reference
    cycle: a replaced shard view, with its adjacency sets, would then
    wait for a full garbage collection instead of being freed when its
    last user drops it.
    """

    def __init__(
        self,
        graph: DiGraph | None = None,
        base_fingerprint: str | None = None,
        owner: object = None,
        max_events: int = MAX_EVENTS,
    ) -> None:
        if max_events < 1:
            raise InputError(f"a delta log needs room for events, got {max_events!r}")
        self._graph_ref = None if graph is None else weakref.ref(graph)
        self.base_fingerprint = base_fingerprint
        # The owner is held weakly: a cache that attached logs to
        # long-lived graphs must not be pinned (with every prepared
        # index it holds) once the service around it is dropped — dead
        # owners' logs are pruned on the next :meth:`find`/:meth:`track`.
        if owner is None:
            self._owner_ref = None
        else:
            try:
                self._owner_ref = weakref.ref(owner)
            except TypeError:  # not weak-referenceable: hold it strongly
                self._owner_ref = lambda strong=owner: strong
        self.max_events = max_events
        self.events: list[DeltaEvent] = []
        self.touched: set[Node] = set()
        self.removed_nodes: set[Node] = set()
        self.relabeled: set[Node] = set()
        self.structural_events = 0
        self.overflowed = False
        if graph is not None:
            graph._delta_logs.append(self)

    # ------------------------------------------------------------------
    # Recording (called by DiGraph mutators)
    # ------------------------------------------------------------------
    def record(self, op: str, a: Node, b: Any = None) -> None:
        """Append one mutation (the :meth:`DiGraph._notify` callback)."""
        if op not in KNOWN_OPS:
            raise InputError(f"unknown delta op {op!r}")
        if op in STRUCTURAL_OPS:
            self.structural_events += 1
            self.touched.add(a)
            if op == "remove_node":
                self.removed_nodes.add(a)
                if b:
                    self.touched.update(b)
            elif b is not None:
                self.touched.add(b)
        elif op in ("set_label", "set_weight"):
            self.relabeled.add(a)
        if self.overflowed:
            return
        if len(self.events) >= self.max_events:
            # Keep the cumulative sets (the scc-delta path runs on those
            # alone); drop per-event replay, which only the additive
            # fast path wants — and a burst this long left it behind.
            self.events.clear()
            self.overflowed = True
            return
        self.events.append(DeltaEvent(op, a, b))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def rebase(self, fingerprint: str | None) -> None:
        """Restart history from ``fingerprint`` (events so far are spent)."""
        self.base_fingerprint = fingerprint
        self.events.clear()
        self.touched.clear()
        self.removed_nodes.clear()
        self.relabeled.clear()
        self.structural_events = 0
        self.overflowed = False

    @property
    def graph(self) -> DiGraph | None:
        """The observed graph (``None`` once detached or freed)."""
        return None if self._graph_ref is None else self._graph_ref()

    def detach(self) -> None:
        """Stop observing the graph (idempotent)."""
        graph = self.graph
        if graph is not None:
            try:
                graph._delta_logs.remove(self)
            except ValueError:
                pass
        self._graph_ref = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    @property
    def has_structural(self) -> bool:
        """True when any event changed the graph's structure."""
        return self.structural_events > 0

    @property
    def is_additive(self) -> bool:
        """True when every structural event was an insertion (replayable
        by the Italiano fast path)."""
        return not self.overflowed and not any(
            event.op in ("remove_node", "remove_edge") for event in self.events
        )

    @property
    def owner(self) -> object:
        """The cache that attached this log (``None`` once it died)."""
        return None if self._owner_ref is None else self._owner_ref()

    @property
    def orphaned(self) -> bool:
        """True when the owning cache was garbage-collected."""
        return self._owner_ref is not None and self._owner_ref() is None

    @staticmethod
    def find(graph: DiGraph, owner: object) -> "DeltaLog | None":
        """The log ``owner`` attached to ``graph``, if any.

        Also prunes logs whose owner died — a long-lived graph served by
        many short-lived services must not accumulate dead observers
        (each would tax every mutator and pin nothing useful).
        """
        logs = getattr(graph, "_delta_logs", None)
        if not logs:
            return None
        found = None
        dead = []
        for log in logs:
            if not isinstance(log, DeltaLog):
                continue
            if log.orphaned:
                dead.append(log)
            elif log.owner is owner:
                found = log
        for log in dead:
            log.detach()
        return found

    @classmethod
    def track(cls, graph: DiGraph, owner: object, fingerprint: str) -> "DeltaLog":
        """Attach ``owner``'s log to ``graph`` based at ``fingerprint``,
        rebasing the existing one if a previous prepare already attached
        it — the shared idiom of every delta-aware cache."""
        log = cls.find(graph, owner)
        if log is None:
            log = cls(graph, base_fingerprint=fingerprint, owner=owner)
        else:
            log.rebase(fingerprint)
        return log

    # ------------------------------------------------------------------
    # Synthesis (offline evolution: the CLI's ``index evolve``)
    # ------------------------------------------------------------------
    @classmethod
    def from_diff(
        cls,
        old_graph: DiGraph,
        new_graph: DiGraph,
        base_fingerprint: str | None = None,
    ) -> "DeltaLog":
        """An unattached log describing ``old_graph -> new_graph`` by
        structural diff.

        Where no mutation history exists the delta is synthesized:
        removed edges between survivors, removed nodes (with their old
        neighborhoods), added nodes, added edges, and label/weight
        updates, in an order a sequential replay accepts.  The CLI's
        offline evolution diffs two JSON snapshots this way, and a shard
        plan diffs a shard's base view against its current view when it
        kept no router events for the shard
        (:meth:`~repro.core.sharding.ShardPlan.shard_delta`);
        ``base_fingerprint`` names the index the log evolves.
        """
        log = cls(base_fingerprint=base_fingerprint, max_events=max(
            MAX_EVENTS,
            2 * (old_graph.num_edges() + new_graph.num_edges())
            + 2 * (old_graph.num_nodes() + new_graph.num_nodes())
            + 1,
        ))
        for tail, head in old_graph.edges():
            if head in new_graph and tail in new_graph and not new_graph.has_edge(tail, head):
                log.record("remove_edge", tail, head)
        for node in old_graph.nodes():
            if node not in new_graph:
                log.record(
                    "remove_node",
                    node,
                    frozenset(old_graph.successors(node))
                    | frozenset(old_graph.predecessors(node)),
                )
        for node in new_graph.nodes():
            if node not in old_graph:
                log.record("add_node", node)
            else:
                if new_graph.label(node) != old_graph.label(node):
                    log.record("set_label", node)
                if new_graph.weight(node) != old_graph.weight(node):
                    log.record("set_weight", node)
        for tail, head in new_graph.edges():
            if tail not in old_graph or head not in old_graph or not old_graph.has_edge(tail, head):
                log.record("add_edge", tail, head)
        return log

    def __repr__(self) -> str:
        tag = " overflowed" if self.overflowed else ""
        return (
            f"<DeltaLog events={len(self.events)} structural={self.structural_events}"
            f" touched={len(self.touched)}{tag}>"
        )


# ----------------------------------------------------------------------
# Bit helpers
# ----------------------------------------------------------------------
def _delete_bits(mask: int, positions: list[int]) -> int:
    """``mask`` with the given bit positions (sorted ascending) deleted —
    higher bits shift down to fill the holes (node-removal remapping)."""
    for shift, position in enumerate(positions):
        position -= shift
        low = mask & ((1 << position) - 1)
        mask = (mask >> (position + 1) << position) | low
    return mask


# ----------------------------------------------------------------------
# Evolution
# ----------------------------------------------------------------------
def evolve_prepared(
    prepared,
    delta: DeltaLog,
    graph2: DiGraph | None = None,
    cutoff: float = DEFAULT_CUTOFF,
    fingerprint: str | None = None,
):
    """Evolve ``prepared`` to describe ``graph2``'s current content.

    The engine behind
    :meth:`~repro.core.prepared.PreparedDataGraph.apply_delta` — see the
    module docstring for the strategy selection.  ``graph2`` defaults to
    ``prepared.graph`` (the in-place-mutation shape); offline callers
    (store evolution from snapshots) pass the new graph explicitly.
    Returns a *new* :class:`~repro.core.prepared.PreparedDataGraph` whose
    ``delta_stats`` records what the evolution did; ``prepared`` itself
    is never modified (its rows may be shared by live workspaces).
    """
    from repro.core.prepared import PreparedDataGraph

    if not 0.0 <= cutoff <= 1.0:
        raise InputError(f"cutoff must lie in [0, 1], got {cutoff!r}")
    if graph2 is None:
        graph2 = prepared.graph
    if (
        delta.base_fingerprint is not None
        and prepared._fingerprint is not None
        and delta.base_fingerprint != prepared._fingerprint
    ):
        raise InputError(
            "delta log does not extend this prepared index "
            f"(log base {delta.base_fingerprint[:12]}…, "
            f"index {prepared._fingerprint[:12]}…)"
        )

    with Stopwatch() as watch:
        evolved = _evolve(PreparedDataGraph, prepared, delta, graph2, cutoff, fingerprint)
    if evolved is None:  # any fallback reason: honest cold rebuild
        rebuilt = PreparedDataGraph(graph2, fingerprint=fingerprint)
        rebuilt.delta_stats = {
            "full_rebuild": True,
            "recomputed_nodes": rebuilt.num_nodes(),
            "strategy": "rebuild",
            "events": len(delta.events),
        }
        return rebuilt
    evolved.prepare_seconds = watch.elapsed
    return evolved


def _new_instance(cls, graph2, nodes2, fingerprint):
    """A bare PreparedDataGraph shell; callers fill the mask fields."""
    self = cls.__new__(cls)
    self.graph = graph2
    self.nodes2 = nodes2
    self.index2 = {node: i for i, node in enumerate(nodes2)}
    self._num_edges = graph2.num_edges()
    self._fingerprint = fingerprint
    self._backend_rows = {}
    self.prepare_seconds = 0.0
    self.delta_stats = None
    return self


def _evolve(cls, prepared, delta, graph2, cutoff, fingerprint):
    """Strategy dispatch; ``None`` means "fall back to a full rebuild"."""
    if not delta.has_structural:
        # Payload-only delta: labels/weights/attrs moved the fingerprint
        # but no closure row — share every row (big ints are immutable)
        # and carry the backend-native row caches over untouched.
        evolved = _new_instance(cls, graph2, prepared.nodes2, fingerprint)
        evolved.from_mask = prepared.from_mask
        evolved.to_mask = prepared.to_mask
        evolved.cycle_mask = prepared.cycle_mask
        evolved._backend_rows = dict(prepared._backend_rows)
        evolved.delta_stats = {
            "full_rebuild": False,
            "recomputed_nodes": 0,
            "strategy": "payload",
            "events": len(delta.events),
        }
        return evolved
    if (
        delta.is_additive
        and delta.structural_events <= ADDITIVE_MAX_EVENTS
        and not delta.removed_nodes
    ):
        evolved = _evolve_additive(cls, prepared, delta, graph2, fingerprint)
        if evolved is not None:
            return evolved
    if (
        not delta.overflowed
        and not delta.removed_nodes
        and all(
            event.op == "remove_edge"
            for event in delta.events
            if event.op in STRUCTURAL_OPS
        )
    ):
        evolved = _evolve_decremental(cls, prepared, delta, graph2, cutoff, fingerprint)
        if evolved is not None:
            return evolved
    return _evolve_scc_delta(cls, prepared, delta, graph2, cutoff, fingerprint)


def _evolve_decremental(cls, prepared, delta, graph2, cutoff, fingerprint):
    """Pure edge-removal replay: recompute only rows whose support drained."""
    old_nodes = prepared.nodes2
    n = len(old_nodes)
    if list(graph2.nodes()) != old_nodes:
        return None  # enumeration drifted: the delta missed something
    index2 = prepared.index2
    tails: set[int] = set()
    heads: set[int] = set()
    for event in delta.events:
        if event.op != "remove_edge":
            continue
        ia = index2.get(event.a)
        ib = index2.get(event.b)
        if ia is None or ib is None:
            return None  # endpoint unknown: the delta is inconsistent
        tails.add(ia)
        heads.add(ib)
    if not tails:
        return None
    # Dirty rows, read off the *old* index: a forward row can only have
    # changed if it reached a removed edge's tail, a backward row only
    # if a removed edge's head reached it (see the module docstring).
    dirty_forward_bits = dirty_backward_bits = 0
    for t in tails:
        dirty_forward_bits |= prepared.to_mask[t] | (1 << t)
    for h in heads:
        dirty_backward_bits |= prepared.from_mask[h] | (1 << h)
    dirty_rows = dirty_forward_bits.bit_count() + dirty_backward_bits.bit_count()
    if dirty_rows > cutoff * 2 * n:
        return None  # frontier too wide: let scc-delta / rebuild decide

    def forward_adj(p):
        return [index2[s] for s in graph2.successors(old_nodes[p])]

    def backward_adj(p):
        return [index2[s] for s in graph2.predecessors(old_nodes[p])]

    # No dirty position on an old cycle means the dirty-induced subgraph
    # is a DAG (removals never create cycles): the worklist mode applies.
    changed_f, recomputed_f = decremental_reach_rows(
        forward_adj,
        backward_adj,
        prepared.from_mask,
        set(iter_set_bits(dirty_forward_bits)),
        tails,
        acyclic=not dirty_forward_bits & prepared.cycle_mask,
    )
    changed_b, recomputed_b = decremental_reach_rows(
        backward_adj,
        forward_adj,
        prepared.to_mask,
        set(iter_set_bits(dirty_backward_bits)),
        heads,
        acyclic=not dirty_backward_bits & prepared.cycle_mask,
    )

    # Splice: unchanged rows pass through by reference (big ints are immutable).
    from_mask = list(prepared.from_mask)
    for p, mask in changed_f.items():
        from_mask[p] = mask
    to_mask = list(prepared.to_mask)
    for p, mask in changed_b.items():
        to_mask[p] = mask
    cycle_mask = prepared.cycle_mask
    for p, mask in changed_f.items():
        if mask >> p & 1:
            cycle_mask |= 1 << p
        else:
            cycle_mask &= ~(1 << p)

    evolved = _new_instance(cls, graph2, old_nodes, fingerprint)
    evolved.from_mask = from_mask
    evolved.to_mask = to_mask
    evolved.cycle_mask = cycle_mask
    evolved.delta_stats = {
        "full_rebuild": False,
        "recomputed_nodes": recomputed_f + recomputed_b,
        "strategy": "decremental",
        "events": len(delta.events),
    }
    dirty_bits = 0
    for p in changed_f:
        dirty_bits |= 1 << p
    for p in changed_b:
        dirty_bits |= 1 << p
    _carry_backend_rows(prepared, evolved, n, n, dirty_bits)
    return evolved


def _evolve_additive(cls, prepared, delta, graph2, fingerprint):
    """Pure-insertion replay: one OR per dirty row per inserted edge."""
    old_nodes = prepared.nodes2
    old_n = len(old_nodes)
    new_nodes = list(graph2.nodes())
    if new_nodes[:old_n] != old_nodes:
        return None  # enumeration drifted: the delta missed something
    n = len(new_nodes)
    evolved = _new_instance(cls, graph2, new_nodes, fingerprint)
    index2 = evolved.index2
    from_mask = list(prepared.from_mask) + [0] * (n - old_n)
    to_mask = list(prepared.to_mask) + [0] * (n - old_n)
    cycle_mask = prepared.cycle_mask
    dirty_forward = dirty_backward = 0
    for event in delta.events:
        if event.op != "add_edge":
            continue
        ia = index2.get(event.a)
        ib = index2.get(event.b)
        if ia is None or ib is None:
            return None  # endpoint unknown: the delta is inconsistent
        # Insert (a, b): every node reaching a gains b's descendants
        # (and b); every node b reaches gains a's ancestors (and a).
        descendants = from_mask[ib] | (1 << ib)
        ancestors = to_mask[ia] | (1 << ia)
        for u in iter_set_bits(ancestors):
            from_mask[u] |= descendants
        for w in iter_set_bits(descendants):
            to_mask[w] |= ancestors
        if descendants >> ia & 1:
            # b already reached a: the insert closes a cycle, so the
            # diagonal bit of every updated forward row may flip on.
            for u in iter_set_bits(ancestors):
                if from_mask[u] >> u & 1:
                    cycle_mask |= 1 << u
        dirty_forward |= ancestors
        dirty_backward |= descendants
    appended = ((1 << n) - 1) ^ ((1 << old_n) - 1)
    evolved.from_mask = from_mask
    evolved.to_mask = to_mask
    evolved.cycle_mask = cycle_mask
    evolved.delta_stats = {
        "full_rebuild": False,
        "recomputed_nodes": (dirty_forward | dirty_backward | appended).bit_count(),
        "strategy": "additive",
        "events": len(delta.events),
    }
    _carry_backend_rows(
        prepared, evolved, old_n, n, dirty_forward | dirty_backward
    )
    return evolved


def _evolve_scc_delta(cls, prepared, delta, graph2, cutoff, fingerprint):
    """General evolution: one Tarjan pass, dirty-SCC row recomputation."""
    old_nodes = prepared.nodes2
    old_index = prepared.index2
    new_nodes = list(graph2.nodes())
    new_index = {node: i for i, node in enumerate(new_nodes)}
    n = len(new_nodes)
    if n == 0:
        evolved = _new_instance(cls, graph2, new_nodes, fingerprint)
        evolved.from_mask = []
        evolved.to_mask = []
        evolved.cycle_mask = 0
        evolved.delta_stats = {
            "full_rebuild": False,
            "recomputed_nodes": 0,
            "strategy": "scc-delta",
            "events": len(delta.events),
        }
        return evolved

    # Bit remapping: a removed node (or one removed and re-added, which
    # moved to the end of the enumeration) vacates its old position.
    removed_ever = delta.removed_nodes
    deleted_positions = [
        i
        for i, node in enumerate(old_nodes)
        if node not in new_index or node in removed_ever
    ]
    deleted_set = set(deleted_positions)
    kept = [node for i, node in enumerate(old_nodes) if i not in deleted_set]
    if new_nodes[: len(kept)] != kept:
        return None  # survivor order drifted: delta cannot be trusted

    # Dirty rows, read off the *old* index (see the module docstring).
    dirty_forward_old = dirty_backward_old = 0
    for t in delta.touched:
        i = old_index.get(t)
        if i is None:
            continue  # endpoint only ever existed inside the delta
        dirty_forward_old |= prepared.to_mask[i] | (1 << i)
        dirty_backward_old |= prepared.from_mask[i] | (1 << i)
    appended_count = n - len(kept)
    dirty_rows = (
        dirty_forward_old.bit_count()
        + dirty_backward_old.bit_count()
        + 2 * appended_count
    )
    if dirty_rows > cutoff * 2 * n:
        return None  # frontier too wide: a cold build is the cheaper path

    new_position = [
        None if i in deleted_set else new_index[node]
        for i, node in enumerate(old_nodes)
    ]
    dirty_forward = {
        new_position[i] for i in iter_set_bits(dirty_forward_old)
        if new_position[i] is not None
    }
    dirty_backward = {
        new_position[i] for i in iter_set_bits(dirty_backward_old)
        if new_position[i] is not None
    }
    appended_positions = range(len(kept), n)
    dirty_forward.update(appended_positions)
    dirty_backward.update(appended_positions)

    # Splice: clean rows pass through (shared by reference when no bit
    # position moved); dirty rows are recomputed below.
    if deleted_positions:
        def remap(mask: int) -> int:
            return _delete_bits(mask, deleted_positions)
    else:
        def remap(mask: int) -> int:
            return mask
    from_mask: list = [0] * n
    to_mask: list = [0] * n
    for i, node in enumerate(old_nodes):
        p = new_position[i]
        if p is None:
            continue
        if p not in dirty_forward:
            from_mask[p] = remap(prepared.from_mask[i])
        if p not in dirty_backward:
            to_mask[p] = remap(prepared.to_mask[i])

    # One condensation of the new graph serves both directions.
    cond = Condensation(graph2)
    member_positions = [
        [new_index[member] for member in members] for members in cond.components
    ]
    members_mask = component_member_masks(cond, new_index)

    # Forward rows, reverse topological order: successors first, so a
    # dirty component reads final rows — recomputed for dirty successors,
    # spliced old rows for clean ones (any member's row is the SCC's).
    for cid in cond.reverse_topological_ids():
        positions = member_positions[cid]
        if not any(p in dirty_forward for p in positions):
            continue
        mask = 0
        for succ_cid in cond.successors(cid):
            mask |= members_mask[succ_cid] | from_mask[member_positions[succ_cid][0]]
        if cond.has_internal_cycle(cid):
            mask |= members_mask[cid]
        for p in positions:
            from_mask[p] = mask

    # Backward rows, topological order, pulling from DAG predecessors.
    dag_predecessors = cond.dag_predecessors()
    for cid in reversed(cond.reverse_topological_ids()):
        positions = member_positions[cid]
        if not any(p in dirty_backward for p in positions):
            continue
        mask = 0
        for pred_cid in dag_predecessors[cid]:
            mask |= members_mask[pred_cid] | to_mask[member_positions[pred_cid][0]]
        if cond.has_internal_cycle(cid):
            mask |= members_mask[cid]
        for p in positions:
            to_mask[p] = mask

    cycle_mask = remap(prepared.cycle_mask)
    for p in dirty_forward:
        bit = 1 << p
        if from_mask[p] >> p & 1:
            cycle_mask |= bit
        else:
            cycle_mask &= ~bit

    evolved = _new_instance(cls, graph2, new_nodes, fingerprint)
    evolved.from_mask = from_mask
    evolved.to_mask = to_mask
    evolved.cycle_mask = cycle_mask
    evolved.delta_stats = {
        "full_rebuild": False,
        "recomputed_nodes": len(dirty_forward | dirty_backward),
        "strategy": "scc-delta",
        "events": len(delta.events),
    }
    if not deleted_positions and appended_count == 0:
        dirty_bits = 0
        for p in dirty_forward | dirty_backward:
            dirty_bits |= 1 << p
        _carry_backend_rows(prepared, evolved, len(old_nodes), n, dirty_bits)
    return evolved


def _carry_backend_rows(prepared, evolved, old_n, n, dirty_bits) -> None:
    """Selectively refresh backend-native row caches on ``evolved``.

    Only applicable when no bit position moved (``old_n == n``): each
    backend that already materialized rows for the base index is offered
    the dirty positions via
    :meth:`~repro.core.backends.base.SolverBackend.evolve_rows`; a
    backend that opts out simply rebuilds lazily on next use.
    """
    if old_n != n or not prepared._backend_rows:
        return
    from repro.core.backends import get_backend

    dirty = list(iter_set_bits(dirty_bits))
    for name, rows in prepared._backend_rows.items():
        refreshed = get_backend(name).evolve_rows(
            rows, evolved.from_mask, evolved.to_mask, n, dirty
        )
        if refreshed is not None:
            evolved._backend_rows[name] = refreshed
