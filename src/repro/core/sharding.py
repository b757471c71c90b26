"""Sharded matching cluster: a router in front of shard-worker services.

The paper's Appendix-B partitioning optimization (Proposition 1) says the
weakly connected components of the candidate-bearing pattern solve
independently.  :func:`~repro.core.optimize.comp_max_card_partitioned`
exploits that inside one process; this module turns the same proposition
into a *cluster shape*: a :class:`ShardedMatchingService` router owns N
worker :class:`~repro.core.service.MatchingService`\\ s and

* **hash-routes whole-graph requests** — a corpus of data graphs is
  spread over the workers by content fingerprint
  (:meth:`ShardPlan.for_corpus`), so each worker's LRU and disk tier only
  ever hold its slice of the corpus; and
* **fans pattern components out across graph shards** — one huge data
  graph is partitioned by :meth:`ShardPlan.for_data_graph`, every
  pattern component is solved against the single shard holding its
  candidates, and the per-component results are merged exactly like the
  single-process partitioned loop (injective mode solves components
  sequentially with used-node exclusion).

Why the sharded solve is *bit-identical* to the unsharded one
-------------------------------------------------------------
A data-graph shard is a union of whole weakly connected components of
``G2`` (hence of whole SCCs — the plan respects the SCC condensation by
construction).  Paths never leave a weakly connected component, so a
shard is **closure-closed**: for nodes ``w, u`` inside a shard,
``w ⇝ u`` holds in the shard subgraph iff it holds in ``G2``.  Shard
subgraphs also preserve ``G2``'s node enumeration order, so a shard's
reachability rows, cycle mask and similarity-preference order are exact
restrictions of the full graph's.  When every candidate of a pattern
component lies in one shard, the greedy engine therefore takes the same
picks, trims and rounds there as it would on the full graph — the same
σ, node for node.  Components whose candidates span several shards are
solved by a **spill** worker against the union of the touched shards
(again closure-closed and order-preserving), so the identity holds for
*every* request: ``shards=N`` ≡ ``shards=1`` ≡
``comp_max_card_partitioned``, both pick rules, both metrics of quality,
injective included.  The equivalence suite (``tests/test_sharding.py``)
and ``benchmarks/bench_sharded.py`` assert this bit-for-bit.

What sharding buys: mask width.  The big-int (and numpy-block) engines
pay per |V2|-bit row op; a shard's rows are only as wide as the shard.
Preparing four 500-node shards costs roughly a quarter of preparing one
2000-node graph, and every solve then runs on four-times-narrower masks
— measured ≥1.5× end-to-end in ``bench_sharded.py`` *without threads*.

All workers (and the spill) may point at one shared
:class:`~repro.core.store.PreparedIndexStore` directory: store writes
are atomic and content-addressed, so concurrent shard writers are safe,
and ``index warm --shards`` pre-warms the per-shard indexes a fleet
loads on boot.  Per-shard ``backends=`` lets operators A/B engines in
production (big-int for tiny shards, numpy for hot wide ones), audited
through each worker's ``ServiceStats.solved_by``.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import Counter, OrderedDict
from time import perf_counter
from typing import Callable, Hashable, Sequence

from repro.core.api import (
    DEFAULT_MATCH_THRESHOLD,
    MatchReport,
    _label_gate,
    closure_pattern,
    validate_match_options,
)
from repro.core.backends import SolverBackend, get_backend
from repro.core.backends.bitops import has_bit, set_bit
from repro.core.incremental import DeltaLog
from repro.core.optimize import plan_components, solve_component
from repro.core.phom import PHomResult
from repro.core.prefilter import label_bit, label_signature
from repro.core.service import (
    _COUNTERS,
    MatchingService,
    SimilaritySource,
    _fan_out,
    _observe,
    resolve_similarity,
)
from repro.core.store import PreparedIndexStore
from repro.core.workspace import MatchingWorkspace
from repro.graph.components import weakly_connected_components
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.scc import Condensation
from repro.similarity.matrix import SimilarityMatrix
from repro.utils.errors import InputError
from repro.utils.timing import Stopwatch

__all__ = [
    "ShardPlan",
    "ShardedMatchingService",
    "default_sharded_service",
    "reset_default_sharded_services",
]

Node = Hashable


class ShardPlan:
    """A deterministic assignment of data to shards.

    Two kinds:

    ``graph``
        one data graph partitioned into at most ``shards`` subgraphs.
        The unit of placement is the weakly connected component — the
        finest closure-closed piece of the graph, and automatically a
        union of whole SCCs — so per-shard solves agree bit-for-bit
        with full-graph solves (see the module docstring).  Components
        are balanced onto shards largest-first (ties broken by first
        enumeration position, then lowest shard id), which makes the
        plan a pure function of the graph content.

    ``corpus``
        a stateless hash law assigning whole data graphs to shards by
        content fingerprint — the router's placement rule for
        multi-graph serving.

    Build via :meth:`for_data_graph` / :meth:`for_corpus`.
    """

    def __init__(self, kind: str, shards: int) -> None:
        if kind not in ("graph", "corpus"):
            raise InputError(f"unknown shard-plan kind {kind!r}")
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise InputError(f"a shard plan needs at least one shard, got {shards!r}")
        self.kind = kind
        self.shards = shards
        # Graph-kind state (populated by for_data_graph).
        self.graph: DiGraph | None = None
        self.fingerprint: str | None = None
        self.shard_nodes: list[list[Node]] = []
        self.shard_of: dict[Node, int] = {}
        self.cycle_nodes: frozenset[Node] = frozenset()
        self.weak_components: int = 0
        #: The weak components keyed by their first member, and each
        #: node's component key — kept so :meth:`evolve` re-explores only
        #: the components an update hit.  An evolved plan copies both
        #: maps and shares the member lists read-only.
        self._components: dict[Node, list[Node]] = {}
        self._component_of: dict[Node, Node] = {}
        self._position: dict[Node, int] = {}
        self._graphs: dict[object, DiGraph] = {}
        self._fingerprints: dict[object, str] = {}
        #: Per-shard label-set signatures (prefilter shard consultation)
        #: and label → members indexes, each built lazily per shard — a
        #: shard the signature test never consults never builds an index.
        self._label_sigs: dict[int, int] = {}
        self._label_members: dict[int, dict] = {}
        #: Filled by :meth:`evolve`: what the re-plan kept and moved.
        self.evolve_stats: dict | None = None
        #: Filled by :meth:`evolve`, fixed once it returns: shard id →
        #: (base view, base fingerprint, edge events or ``None``) for
        #: shards whose worker has not yet seen this plan's content — the
        #: base is the last view a plan built for the shard, so its
        #: worker holds that index.  :meth:`shard_delta` turns a base
        #: into the delta the worker evolves through.  The events are the
        #: router log's slices since the base, while the shard's node
        #: list did not move; ``None`` asks for a diff.
        self._evolve_bases: dict[int, tuple[DiGraph, str, list | None]] = {}
        #: Per-shard deltas built lazily from ``_evolve_bases``.
        self._deltas: dict[int, DeltaLog] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_corpus(cls, shards: int) -> "ShardPlan":
        """The fingerprint-hash law spreading a corpus over ``shards``."""
        return cls("corpus", shards)

    @classmethod
    def for_data_graph(cls, graph2: DiGraph, shards: int) -> "ShardPlan":
        """Partition ``graph2`` into closure-closed, balanced shards.

        Every weakly connected component lands on exactly one shard
        (largest components placed first onto the currently lightest
        shard), so shards respect the SCC condensation and reachability
        never crosses a shard boundary.  A graph that is one big weak
        component yields a single nonempty shard — the plan never
        splits what Proposition 1 cannot split soundly.
        """
        plan = cls("graph", shards)
        plan.graph = graph2
        plan.fingerprint = graph_fingerprint(graph2)
        plan._position = {node: i for i, node in enumerate(graph2.nodes())}

        weak = weakly_connected_components(graph2)
        plan.weak_components = len(weak)
        for members in weak:
            plan._components[members[0]] = members
            plan._component_of.update(dict.fromkeys(members, members[0]))
        assignment: list[list[Node]] = [[] for _ in range(shards)]
        plan._balance_components(weak, assignment, [0] * shards)
        plan._adopt_assignment(assignment)
        plan.cycle_nodes = plan._derive_cycle_nodes(graph2)
        return plan

    def _balance_components(
        self,
        components: list[list[Node]],
        assignment: list[list[Node]],
        loads: list[int],
    ) -> list[int]:
        """Place components largest-first onto the lightest shard.

        Ties break toward the earliest enumeration position, then the
        lowest shard id — the one placement rule both a fresh plan and
        an evolved re-plan must share (divergence would silently change
        which shard a moved component lands on).  ``loads`` may count
        pre-pinned components (the evolve path); returns each
        component's shard id, aligned with ``components``.
        """
        order = sorted(
            range(len(components)),
            key=lambda c: (
                -len(components[c]),
                min(self._position[n] for n in components[c]),
            ),
        )
        targets = [0] * len(components)
        for c in order:
            target = min(range(self.shards), key=lambda s: (loads[s], s))
            assignment[target].extend(components[c])
            loads[target] += len(components[c])
            targets[c] = target
        return targets

    def _adopt_assignment(self, assignment: list[list[Node]]) -> None:
        """Freeze an assignment into enumeration-ordered shard views."""
        self.shard_nodes = [
            sorted(nodes, key=self._position.__getitem__) for nodes in assignment
        ]
        self.shard_of = {
            node: sid for sid, nodes in enumerate(self.shard_nodes) for node in nodes
        }

    @staticmethod
    def _derive_cycle_nodes(graph2: DiGraph) -> frozenset:
        """Nodes on a nonempty cycle: exactly the members of SCCs with an
        internal cycle.  This is the full graph's cycle information —
        identical to every shard's, since cycles live inside SCCs."""
        cond = Condensation(graph2)
        return frozenset(
            node
            for cid, members in enumerate(cond.components)
            if cond.has_internal_cycle(cid)
            for node in members
        )

    def evolve(self, graph2: DiGraph, delta) -> "ShardPlan":
        """Re-plan after a mutation, in proportion to what the delta hit.

        ``delta`` is the :class:`~repro.core.incremental.DeltaLog`
        recorded since this plan was built.  Every added or removed edge
        joins two ``touched`` nodes, and a removed node's neighbours are
        touched too, so a weak component holding no touched node kept
        its members and every incident edge: it is carried over with
        its cycle members.  Only the components the delta hit are walked
        again, from their surviving members and the new nodes — a walk
        that cannot leave them — and only those are condensed.

        A carried component none of whose nodes was relabeled (a label
        or weight change moves its shard fingerprint) stays pinned to
        its current shard, so that shard's node list, cached subgraph
        and cached fingerprint — and therefore every worker's prepared
        index and disk file for it — survive the mutation.  Walked and
        relabeled components are re-balanced (largest-first onto the
        lightest shard, like a fresh plan).  ``_position`` carries over
        when no node was added or removed; a shard whose node list is
        unchanged keeps its list, and its label signature and label
        index unless a member was relabeled.

        The result is a valid closure-closed plan for the new content —
        sharded solves stay bit-identical to the flat partitioned solve —
        but its *placement* may differ from ``for_data_graph`` of the
        same graph: stability is the point (moving a component cold-
        starts its worker), so evolved placement is history-dependent.
        ``evolve_stats`` records what moved.

        A changed shard gets an evolution base (:meth:`shard_delta`):
        this plan's view of it when this plan built one — a request
        reached the shard, so its worker holds that index — else this
        plan's own base, carried forward, so two writes before any match
        still evolve the index the worker holds.  A base keeps the log's
        edge events inside the shard (concatenated across carried
        steps) while its node list does not move; otherwise the delta is
        a diff from the base view.  An unchanged shard keeps a base this
        plan carried but never built a view for.
        """
        self._require_graph()
        if (
            delta.base_fingerprint is not None
            and self.fingerprint is not None
            and delta.base_fingerprint != self.fingerprint
        ):
            raise InputError("delta log does not extend this shard plan")
        plan = ShardPlan("graph", self.shards)
        plan.graph = graph2
        plan.fingerprint = graph_fingerprint(graph2)
        # Enumeration order moves only when a node is added or removed: a
        # removal is always logged, and without one an unchanged node
        # count rules out an addition.
        same_nodes = (
            not delta.removed_nodes and graph2.num_nodes() == len(self._position)
        )
        plan._position = (
            self._position
            if same_nodes
            else {node: i for i, node in enumerate(graph2.nodes())}
        )

        components = self._components
        component_of = self._component_of
        hit_nodes: list[Node] = []
        walked: list[list[Node]] = []
        vacated: set[int] = set()  # shards a re-pooled component left
        if delta.touched:
            components = dict(components)
            component_of = dict(component_of)
            for key in {component_of[n] for n in delta.touched if n in component_of}:
                hit_nodes.extend(components.pop(key))
                vacated.add(self.shard_of[key])
            for node in hit_nodes:
                del component_of[node]
            roots = [
                node for node in itertools.chain(hit_nodes, delta.touched)
                if node in graph2
            ]
            walked = weakly_connected_components(graph2, roots)
            for members in walked:
                components[members[0]] = members
                component_of.update(dict.fromkeys(members, members[0]))
        if len(component_of) != graph2.num_nodes():
            raise InputError("delta log does not account for every node")
        plan._components = components
        plan._component_of = component_of
        plan.weak_components = len(components)

        walked_keys = {members[0] for members in walked}
        relabeled_keys = {component_of[n] for n in delta.relabeled if n in component_of}
        stable_parts: list[list[list[Node]]] = [[] for _ in range(self.shards)]
        loads = [0] * self.shards
        repooled: list[list[Node]] = []
        for key, members in components.items():
            if key in walked_keys:
                repooled.append(members)
            elif key in relabeled_keys:
                repooled.append(members)
                vacated.add(self.shard_of[key])
            else:
                home = self.shard_of[key]
                stable_parts[home].append(members)
                loads[home] += len(members)
        placed: list[list[Node]] = [[] for _ in range(self.shards)]
        targets = plan._balance_components(repooled, placed, loads)
        received = set(targets)

        # A shard neither left nor joined holds exactly its old
        # components: its node list carries over unsorted.
        for sid, old_nodes in enumerate(self.shard_nodes):
            if sid not in vacated and sid not in received:
                plan.shard_nodes.append(old_nodes)
                continue
            nodes = [node for members in stable_parts[sid] for node in members]
            nodes += placed[sid]
            nodes.sort(key=plan._position.__getitem__)
            plan.shard_nodes.append(old_nodes if nodes == old_nodes else nodes)
        shard_of = dict(self.shard_of)
        for node in delta.removed_nodes:
            if node not in graph2:
                shard_of.pop(node, None)
        for members, target in zip(repooled, targets):
            shard_of.update(dict.fromkeys(members, target))
        plan.shard_of = shard_of

        cycle_nodes = self.cycle_nodes.difference(hit_nodes)
        if walked:
            walked_nodes = [node for members in walked for node in members]
            cycle_nodes |= plan._derive_cycle_nodes(graph2.subgraph(walked_nodes))
        plan.cycle_nodes = cycle_nodes

        unmoved = [
            sid for sid in range(self.shards)
            if plan.shard_nodes[sid] is self.shard_nodes[sid]
        ]
        # Carry warm views over: a shard holding exactly its old, fully
        # untouched components has a byte-identical subgraph, so its
        # cached graph and fingerprint (the keys every worker's memory
        # and disk tier serve by) pass straight through.
        reused = [sid for sid in unmoved if sid not in received]
        reused_set = set(reused)
        # A relabeled member, or a removed one that came back (possibly
        # under another label), makes a shard's label views stale.
        stale_labels = {
            shard_of[node]
            for node in itertools.chain(delta.relabeled, delta.removed_nodes)
            if node in shard_of
        }
        # A changed shard whose node list did not move gets its slice of
        # the log: the edge events with both endpoints inside it replay
        # the shard's own change.  Node churn, relabels or an overflowed
        # log leave a diff to shard_delta.
        slices: dict[int, list] | None = None
        if same_nodes and not delta.relabeled and not delta.overflowed:
            slices = {}
            for event in delta.events:
                if event.op in ("add_edge", "remove_edge"):
                    sid = shard_of.get(event.a)
                    if sid is not None and shard_of.get(event.b) == sid:
                        slices.setdefault(sid, []).append(event)
        with self._lock:
            for key, cached in self._graphs.items():
                if (key in reused_set) if isinstance(key, int) else key <= reused_set:
                    plan._graphs[key] = cached
            for key, cached in self._fingerprints.items():
                if (key in reused_set) if isinstance(key, int) else key <= reused_set:
                    plan._fingerprints[key] = cached
            for sid in unmoved:
                if sid in stale_labels:
                    continue
                if sid in self._label_sigs:
                    plan._label_sigs[sid] = self._label_sigs[sid]
                if sid in self._label_members:
                    plan._label_members[sid] = self._label_members[sid]
            # Evolution bases: a built view is one a request reached, so
            # its worker holds that index; otherwise this plan's base,
            # which no request used, still names the index it holds.
            for sid in range(self.shards):
                if not plan.shard_nodes[sid]:
                    continue
                old_graph = self._graphs.get(sid)
                old_fingerprint = self._fingerprints.get(sid)
                built = old_graph is not None and old_fingerprint is not None
                pending = None if built else self._evolve_bases.get(sid)
                if sid in reused_set:
                    if pending is not None:
                        plan._evolve_bases[sid] = pending
                    continue
                events = (
                    slices.get(sid, [])
                    if slices is not None and sid in unmoved
                    else None
                )
                if built:
                    plan._evolve_bases[sid] = (old_graph, old_fingerprint, events)
                elif pending is not None:
                    base_graph, base_fingerprint, base_events = pending
                    if base_events is None or events is None:
                        events = None
                    else:
                        events = base_events + events
                    plan._evolve_bases[sid] = (base_graph, base_fingerprint, events)
        plan.evolve_stats = {
            "stable_components": len(components) - len(repooled),
            "replanned_components": len(repooled),
            "reused_shards": reused,
        }
        return plan

    # ------------------------------------------------------------------
    # Corpus routing
    # ------------------------------------------------------------------
    def shard_of_fingerprint(self, fingerprint: str) -> int:
        """The shard a content fingerprint routes to (stable across runs).

        Rendezvous (highest-random-weight) hashing: every (fingerprint,
        shard) pair gets an independent pseudo-random weight and the
        fingerprint lands on the heaviest shard.  Unlike the bare-modulo
        law this one degrades gracefully under fleet resizing — removing
        a shard remaps *only* the graphs that lived on it (each to its
        runner-up shard), and growing N→N+1 moves ~1/(N+1) of the
        corpus, instead of reshuffling nearly everything.  Ties (a
        64-bit digest collision) break toward the lowest shard id.
        """
        best = 0
        best_weight = -1
        for sid in range(self.shards):
            digest = hashlib.blake2b(
                f"{fingerprint}:{sid}".encode("ascii"), digest_size=8
            ).digest()
            weight = int.from_bytes(digest, "big")
            if weight > best_weight:
                best = sid
                best_weight = weight
        return best

    def shard_of_graph(self, graph2: DiGraph) -> int:
        """The shard a whole data graph is assigned to."""
        return self.shard_of_fingerprint(graph_fingerprint(graph2))

    # ------------------------------------------------------------------
    # Graph-kind views
    # ------------------------------------------------------------------
    def _require_graph(self) -> DiGraph:
        if self.kind != "graph" or self.graph is None:
            raise InputError("this operation needs a graph-kind shard plan")
        return self.graph

    def nonempty_shards(self) -> list[int]:
        """Ids of shards that received at least one node."""
        self._require_graph()
        return [sid for sid, nodes in enumerate(self.shard_nodes) if nodes]

    def shard_graph(self, shard_id: int) -> DiGraph:
        """The induced subgraph of shard ``shard_id`` (cached).

        Node enumeration order follows the full graph's — the property
        the bit-identity argument rests on.
        """
        graph = self._require_graph()
        if not 0 <= shard_id < self.shards:
            raise InputError(f"shard id {shard_id!r} out of range for {self.shards} shards")
        with self._lock:
            cached = self._graphs.get(shard_id)
        if cached is None:
            # Built off-lock: an induced-subgraph build is O(|shard|),
            # and holding the plan lock across it would stall every
            # concurrent router scan.  Racing builders produce equal
            # graphs (plans are immutable), so first-in wins.
            built = graph.subgraph(
                self.shard_nodes[shard_id],
                name=f"{graph.name or 'G2'}/shard{shard_id}",
            )
            with self._lock:
                cached = self._graphs.setdefault(shard_id, built)
        return cached

    def shard_delta(self, shard_id: int) -> DeltaLog | None:
        """The delta from shard ``shard_id``'s evolution base to its view.

        ``None`` unless :meth:`evolve` gave the shard a base.  The log
        replays the base's router events when it kept them and diffs the
        base view against this plan's view otherwise; it is unattached,
        its ``base_fingerprint`` names the index the shard's worker
        holds, and it is built at most once per plan and shard — off the
        plan lock, like the views.  The router hands it to the worker's
        :meth:`~repro.core.service.PreparedGraphCache.prepared_for`,
        which evolves that index through it instead of cold-preparing.
        """
        base = self._evolve_bases.get(shard_id)
        if base is None:
            return None
        with self._lock:
            cached = self._deltas.get(shard_id)
        if cached is None:
            base_graph, base_fingerprint, events = base
            if events is None:
                built = DeltaLog.from_diff(
                    base_graph, self.shard_graph(shard_id),
                    base_fingerprint=base_fingerprint,
                )
            else:
                built = DeltaLog(base_fingerprint=base_fingerprint)
                for event in events:
                    built.record(*event)
            with self._lock:
                cached = self._deltas.setdefault(shard_id, built)
        return cached

    def shard_label_signature(self, shard_id: int) -> int:
        """Shard ``shard_id``'s hashed label-set signature, built lazily.

        Bit :func:`~repro.core.prefilter.label_bit`\\ (L) is set iff
        some node of the shard carries label ``L``.  The router's gated
        fast path consults a shard only when a pattern label's bit is
        present — a clear bit *proves* the shard has no label-equal
        candidate (hash collisions only ever add false presences, never
        false absences, so skipping stays sound).  Per shard, so an
        evolved plan recomputes only the shards whose labels changed.
        """
        graph = self._require_graph()
        if not 0 <= shard_id < self.shards:
            raise InputError(
                f"shard id {shard_id!r} out of range for {self.shards} shards"
            )
        with self._lock:
            cached = self._label_sigs.get(shard_id)
        if cached is None:
            # Off-lock like the subgraph builds: one pass over the
            # shard; racing builders produce equal values, first-in wins.
            built = label_signature(
                graph.label(node) for node in self.shard_nodes[shard_id]
            )
            with self._lock:
                cached = self._label_sigs.setdefault(shard_id, built)
        return cached

    def shard_label_members(self, shard_id: int) -> dict:
        """Label → shard nodes carrying it (enumeration order), lazy.

        Built per shard on first consultation; shards the signature test
        excludes never pay for one — that deferred work is what the
        router's ``shards_skipped`` counter measures.
        """
        graph = self._require_graph()
        if not 0 <= shard_id < self.shards:
            raise InputError(
                f"shard id {shard_id!r} out of range for {self.shards} shards"
            )
        with self._lock:
            cached = self._label_members.get(shard_id)
        if cached is None:
            built: dict = {}
            for node in self.shard_nodes[shard_id]:
                built.setdefault(graph.label(node), []).append(node)
            with self._lock:
                cached = self._label_members.setdefault(shard_id, built)
        return cached

    def fingerprint_for(self, key: "int | frozenset[int]") -> str:
        """The content fingerprint of a shard (or union) graph, cached.

        The router hands this to ``prepared_for`` so a hot serving loop
        never re-hashes a shard graph per request — plans are immutable,
        so the digest is computed at most once per view.
        """
        with self._lock:
            cached = self._fingerprints.get(key)
        if cached is None:
            graph = (
                self.shard_graph(key)
                if isinstance(key, int)
                else self.union_graph(key)
            )
            cached = graph_fingerprint(graph)
            with self._lock:
                self._fingerprints[key] = cached
        return cached

    def union_graph(self, shard_ids: frozenset[int]) -> DiGraph:
        """The induced subgraph over a union of shards (the spill view).

        Used for pattern components whose candidates span several shards;
        a union of closure-closed shards is closure-closed again, and
        merging the shard node lists by enumeration position preserves
        the full graph's order.
        """
        graph = self._require_graph()
        key = frozenset(shard_ids)
        if not key:
            raise InputError("a spill union needs at least one shard")
        with self._lock:
            cached = self._graphs.get(key)
        if cached is None:
            # Off-lock for the same reason as shard_graph: the union
            # build is linear in the spilled shards' total size.
            nodes = sorted(
                (node for sid in key for node in self.shard_nodes[sid]),
                key=self._position.__getitem__,
            )
            tag = "+".join(str(sid) for sid in sorted(key))
            built = graph.subgraph(
                nodes, name=f"{graph.name or 'G2'}/shards{tag}"
            )
            with self._lock:
                cached = self._graphs.setdefault(key, built)
        return cached

    def describe(self) -> dict:
        """A JSON-friendly summary (CLI summaries, stats snapshots)."""
        payload: dict = {"kind": self.kind, "shards": self.shards}
        if self.kind == "graph":
            payload["weak_components"] = self.weak_components
            payload["shard_sizes"] = [len(nodes) for nodes in self.shard_nodes]
            payload["nonempty_shards"] = len(self.nonempty_shards())
        return payload

    def __repr__(self) -> str:
        if self.kind == "corpus":
            return f"<ShardPlan corpus shards={self.shards}>"
        sizes = "/".join(str(len(nodes)) for nodes in self.shard_nodes)
        return f"<ShardPlan graph shards={self.shards} sizes={sizes}>"


class ShardedMatchingService:
    """A router in front of ``shards`` worker services plus a spill worker.

    ``store_dir`` (or an existing ``store``) is shared by every worker —
    the PR-2 store's writes are atomic and content-addressed, so N shard
    writers warming one directory never corrupt each other.  ``backend``
    sets every worker's engine; ``backends`` (a list of ``shards`` names
    or instances) pins one per shard for production A/B runs.  The spill
    worker — which solves pattern components whose candidates span
    several shards against the union of the touched shards — runs the
    router-level default backend.  ``chain=True`` makes every worker
    persist delta-evolved shard indexes as compact store delta records
    (``chain_writes`` / ``chain_bytes_saved`` in the aggregate snapshot)
    instead of full payload rewrites — the streaming-graph write path.

    The shared store pays off twice: each worker's disk tier is a
    zero-copy mapped open, and the store interns mappings process-wide
    by file identity, so every worker (and the spill worker) serving one
    fingerprint shares a single mapping — one OS page cache per prepared
    graph, no matter how many shards solve over it (``disk_hits`` /
    ``mapped_bytes`` aggregate across workers in :meth:`stats_snapshot`).

    Request surface:

    * :meth:`match` / :meth:`match_many` — whole-graph requests,
      hash-routed to the worker owning ``graph2``'s fingerprint;
    * :meth:`match_sharded` / :meth:`match_many_sharded` — one data
      graph partitioned by :meth:`plan_for`, pattern components fanned
      out across shard workers and merged under Proposition 1 semantics
      (bit-identical to the single-process partitioned solve — module
      docstring has the argument).
    """

    def __init__(
        self,
        shards: int,
        max_prepared: int = 8,
        store: PreparedIndexStore | None = None,
        store_dir: str | None = None,
        backend: "str | SolverBackend | None" = None,
        backends: "Sequence[str | SolverBackend] | None" = None,
        max_plans: int = 8,
        chain: bool = False,
        latency_hook: "Callable[[str, float], None] | None" = None,
    ) -> None:
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise InputError(f"a sharded service needs at least one shard, got {shards!r}")
        if store is not None and store_dir is not None:
            raise InputError("pass either store= or store_dir=, not both")
        if store_dir is not None:
            store = PreparedIndexStore(store_dir)
        if max_plans < 1:
            raise InputError(f"the plan cache needs at least one slot, got {max_plans!r}")
        self.shards = shards
        #: Router-level default backend (spill solves, per-call fallback).
        self.backend: SolverBackend = get_backend(backend)
        if backends is None:
            worker_backends: list[SolverBackend] = [self.backend] * shards
        else:
            if len(backends) != shards:
                raise InputError(
                    f"backends= needs one entry per shard ({shards}), got {len(backends)}"
                )
            worker_backends = [get_backend(b) for b in backends]
        #: One worker service per shard; all share the (optional) store.
        self.workers: list[MatchingService] = [
            MatchingService(max_prepared, store=store, backend=wb, chain=chain)
            for wb in worker_backends
        ]
        #: The spill worker for components whose candidates span shards.
        self.spill = MatchingService(
            max_prepared, store=store, backend=self.backend, chain=chain
        )
        self._corpus_plan = ShardPlan.for_corpus(shards)
        self.max_plans = max_plans
        self._plans: OrderedDict[str, ShardPlan] = OrderedDict()
        self._lock = threading.Lock()
        #: Request-level latency hook, fed by the *router* (workers keep
        #: no hook: one observation per request, not per component) —
        #: semantics as in :class:`MatchingService`: each observation
        #: times the whole call from entry, routing and planning included.
        self.latency_hook = latency_hook
        self._counters = {
            "routed_calls": 0,
            "sharded_solves": 0,
            "fanout_components": 0,
            "spill_components": 0,
            "plans_built": 0,
            "plans_evolved": 0,
            "shards_replanned": 0,
            "batch_seconds": 0.0,
            "batches": 0,
            "pairs_pruned": 0,
            "shards_skipped": 0,
            "filter_bypasses": 0,
            "filter_seconds": 0.0,
            "hook_calls": 0,
            "hook_seconds": 0.0,
        }

    def _charge_hook(self, seconds: float) -> None:
        """Account one latency-hook call's own overhead."""
        with self._lock:
            self._counters["hook_calls"] += 1
            self._counters["hook_seconds"] += seconds

    @property
    def store(self) -> PreparedIndexStore | None:
        """The shared disk tier, if one is attached."""
        return self.workers[0].store

    # ------------------------------------------------------------------
    # Corpus routing: whole-graph requests
    # ------------------------------------------------------------------
    def worker_for(self, graph2: DiGraph) -> MatchingService:
        """The worker owning ``graph2`` under the corpus hash law."""
        return self.workers[self._corpus_plan.shard_of_graph(graph2)]

    def match(
        self,
        graph1: DiGraph,
        graph2: DiGraph,
        mat: SimilaritySource,
        xi: float,
        **options,
    ) -> MatchReport:
        """One whole-graph request, hash-routed to ``graph2``'s worker.

        Exactly :meth:`MatchingService.match` on the owning shard —
        routing changes which worker's cache warms, never the result.
        """
        started = perf_counter()
        worker = self.worker_for(graph2)
        with self._lock:
            self._counters["routed_calls"] += 1
        report = worker.match(graph1, graph2, mat, xi, **options)
        _observe(self.latency_hook, "match", perf_counter() - started, self._charge_hook)
        return report

    def match_many(
        self,
        patterns: Sequence[DiGraph],
        graph2: DiGraph,
        mat: SimilaritySource,
        xi: float,
        **options,
    ) -> list[MatchReport]:
        """A batch against one data graph, hash-routed to its worker."""
        started = perf_counter()
        patterns = list(patterns)
        worker = self.worker_for(graph2)
        with self._lock:
            self._counters["routed_calls"] += len(patterns)
        reports = worker.match_many(patterns, graph2, mat, xi, **options)
        _observe(self.latency_hook, "batch", perf_counter() - started, self._charge_hook)
        return reports

    # ------------------------------------------------------------------
    # Graph sharding: component fan-out
    # ------------------------------------------------------------------
    def plan_for(self, graph2: DiGraph) -> ShardPlan:
        """The (cached) graph-kind shard plan of ``graph2``.

        Plans are keyed by content fingerprint in a small LRU, mirroring
        the prepared-graph cache.  The router also attaches a
        :class:`~repro.core.incremental.DeltaLog` to every graph it
        plans: when the same graph object mutates in place, the next
        request **evolves** the old plan (:meth:`ShardPlan.evolve`) —
        components the delta never touched keep their shard, cached
        subgraph and fingerprint, so only the changed shards' workers
        need new indexes, evolved from each shard's
        :meth:`ShardPlan.shard_delta` where they can be (counted in
        ``plans_evolved`` / ``shards_replanned``).
        """
        key = graph_fingerprint(graph2)
        log = DeltaLog.find(graph2, self)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
            old_plan = (
                self._plans.get(log.base_fingerprint)
                if log is not None
                and log.base_fingerprint is not None
                and log.base_fingerprint != key
                else None
            )
        evolved = 0
        built = None
        if old_plan is not None:
            try:
                built = old_plan.evolve(graph2, log)  # off-lock
                evolved = 1
            except InputError:
                built = None
        if built is None:
            built = ShardPlan.for_data_graph(graph2, self.shards)  # off-lock
        self._track(graph2, key)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                return plan  # another thread planned it meanwhile
            self._plans[key] = built
            self._counters["plans_built"] += 1 - evolved
            self._counters["plans_evolved"] += evolved
            if evolved:
                reused = len((built.evolve_stats or {}).get("reused_shards", ()))
                self._counters["shards_replanned"] += self.shards - reused
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
        return built

    def _track(self, graph2: DiGraph, key: str) -> None:
        """Attach (or rebase) the router's delta log on ``graph2``."""
        DeltaLog.track(graph2, self, key)

    def update_graph(self, graph2: DiGraph) -> ShardPlan:
        """Re-plan a mutated data graph eagerly (off the serving path).

        Returns the (evolved, when possible) shard plan for the graph's
        new content; untouched components keep their shards, so the
        workers serving them stay warm.  Per-shard prepared indexes for
        *changed* shards evolve (or rebuild) lazily on the next request
        that routes to them.
        """
        with Stopwatch() as watch:
            plan = self.plan_for(graph2)
        _observe(self.latency_hook, "update", watch.elapsed, self._charge_hook)
        return plan

    def match_sharded(
        self,
        graph1: DiGraph,
        graph2: DiGraph,
        mat: SimilaritySource,
        xi: float,
        metric: str = "cardinality",
        injective: bool = False,
        threshold: float = DEFAULT_MATCH_THRESHOLD,
        symmetric: bool = False,
        pick: str = "similarity",
        backend: "str | SolverBackend | None" = None,
        plan: ShardPlan | None = None,
        max_workers: int | None = None,
        prefilter: str = "auto",
    ) -> MatchReport:
        """One pattern against one *sharded* data graph.

        Semantically the Appendix-B partitioned solve — each weakly
        connected component of the candidate-bearing pattern is solved
        independently — executed across the shard workers: a component
        runs on the one shard holding all its candidates, or on the
        spill worker over the union of the shards it touches.  Injective
        mode solves components sequentially, excluding data nodes used
        by earlier components, exactly like the single-process loop;
        non-injective components may fan out over ``max_workers``
        threads (the merge order stays the plan order either way).

        ``backend`` overrides every touched worker's engine for this
        call; ``plan`` skips the plan-cache lookup (batch callers pass
        the plan they already fetched).  ``prefilter`` engages the
        candidate-pruning pipeline (:mod:`repro.core.prefilter`):
        ``auto`` routes each shard workspace only its own components'
        candidate rows (``pairs_pruned``) and, for a label-gated
        similarity source, builds rows from shard label indexes without
        evaluating a matrix, consulting only shards whose label
        signature can host a pattern label (``shards_skipped``) —
        everything bit-identical to ``off``; ``strict`` adds sketch pair
        pruning (the approximate tier).
        """
        started = perf_counter()
        if metric != "cardinality":
            raise InputError("sharded matching is implemented for the cardinality metric")
        solver = None if backend is None else get_backend(backend)
        validate_match_options(
            metric, threshold, xi, partitioned=True, pick=pick,
            backend=self.backend if solver is None else solver,
            prefilter=prefilter,
        )  # pre-flight: a typo'd option must not cost a shard prepare
        if plan is None:
            plan = self.plan_for(graph2)
        elif plan.kind != "graph" or (
            # Same object (every batch/hot-loop shape) verifies for free;
            # only a *different* graph object pays a digest comparison.
            plan.graph is not graph2
            and plan.fingerprint != graph_fingerprint(graph2)
        ):
            raise InputError("shard plan does not describe this data graph")
        gate = _label_gate(mat, prefilter, metric, partitioned=True)
        if gate is None:
            resolved = resolve_similarity(mat, graph1, graph2)
        else:
            # Gated fast path: candidate rows come from shard label
            # indexes inside _solve_components; no matrix is evaluated.
            resolved = mat
        pattern = closure_pattern(graph1) if symmetric else graph1
        with Stopwatch() as watch:
            result, fanout, spills, filtered = self._solve_components(
                pattern, resolved, xi, injective, pick, solver, plan, max_workers,
                prefilter=prefilter, gate=gate,
            )
        result.stats["elapsed_seconds"] = watch.elapsed
        with self._lock:
            self._counters["sharded_solves"] += 1
            self._counters["fanout_components"] += fanout
            self._counters["spill_components"] += spills
            if prefilter != "off":
                if gate is None:
                    self._counters["filter_bypasses"] += 1
                self._counters["pairs_pruned"] += filtered["pairs_pruned"]
                self._counters["shards_skipped"] += filtered["shards_skipped"]
                self._counters["filter_seconds"] += filtered["filter_seconds"]
        _observe(
            self.latency_hook, "match_sharded", perf_counter() - started,
            self._charge_hook,
        )
        quality = result.qual_card
        return MatchReport(
            matched=quality >= threshold,
            quality=quality,
            threshold=threshold,
            metric=metric,
            result=result,
        )

    def match_many_sharded(
        self,
        patterns: Sequence[DiGraph],
        graph2: DiGraph,
        mat: SimilaritySource,
        xi: float,
        metric: str = "cardinality",
        injective: bool = False,
        threshold: float = DEFAULT_MATCH_THRESHOLD,
        symmetric: bool = False,
        pick: str = "similarity",
        backend: "str | SolverBackend | None" = None,
        max_workers: int | None = None,
        prefilter: str = "auto",
    ) -> list[MatchReport]:
        """Every pattern against one sharded data graph, planned once.

        Reports come back in pattern order.  ``max_workers > 1`` fans
        whole-pattern solves out over a thread pool (each pattern's
        component merge stays sequential, so injective mode is safe to
        parallelise *across* patterns); results are identical to the
        sequential path.
        """
        started = perf_counter()
        patterns = list(patterns)
        plan = self.plan_for(graph2)

        def solve(graph1: DiGraph) -> MatchReport:
            return self.match_sharded(
                graph1, graph2, mat, xi,
                metric=metric, injective=injective, threshold=threshold,
                symmetric=symmetric, pick=pick, backend=backend, plan=plan,
                prefilter=prefilter,
            )

        with Stopwatch() as watch:
            reports = _fan_out(solve, patterns, max_workers)
        with self._lock:
            # Per-batch sum, normalized by "batches" — the same contract
            # as ServiceStats.batch_seconds under concurrent callers.
            self._counters["batch_seconds"] += watch.elapsed
            self._counters["batches"] += 1
        _observe(self.latency_hook, "batch", perf_counter() - started, self._charge_hook)
        return reports

    # ------------------------------------------------------------------
    def _solve_components(
        self,
        pattern: DiGraph,
        mat: SimilarityMatrix,
        xi: float,
        injective: bool,
        pick: str,
        solver: SolverBackend | None,
        plan: ShardPlan,
        max_workers: int | None,
        prefilter: str = "off",
        gate=None,
    ) -> tuple[PHomResult, int, int, dict]:
        """Plan, route, solve and merge one pattern's components.

        Mirrors ``comp_max_card_partitioned`` exactly (same planner,
        same per-component solver, same merge order and float
        accumulation order) with the data-graph side swapped for shard
        subgraphs.  Returns ``(result, single_shard_components,
        spill_components, filter_stats)``.

        ``gate`` (a label-equality source, or ``None``) switches the
        candidate scan to the prefilter fast path: rows come straight
        from shard label indexes — consulting only shards whose label
        signature can host a pattern label — so no similarity matrix is
        ever evaluated.  Row *content* is identical to the ``mat.row``
        scan (constant gate score, ξ ∈ (0, 1] so the threshold always
        passes, same cycle filter); only dict insertion order differs,
        which nothing downstream observes (candidate masks OR entries,
        preference lists sort, routes are frozensets, quality looks
        pairs up individually).
        """
        nodes1: list[Node] = list(pattern.nodes())
        n1 = len(nodes1)
        index1 = {node: i for i, node in enumerate(nodes1)}
        prev = [[index1[p] for p in pattern.predecessors(v)] for v in nodes1]
        post = [[index1[s] for s in pattern.successors(v)] for v in nodes1]

        filtered = {"pairs_pruned": 0, "shards_skipped": 0, "filter_seconds": 0.0}
        # Candidate sets, computed the way a workspace would: membership
        # in G2, mat ≥ ξ, self-loop nodes restricted to cycle members.
        cand: list[dict[Node, float]] = []
        if gate is not None:
            with Stopwatch() as filter_watch:
                nonempty = plan.nonempty_shards()
                bits = {label_bit(pattern.label(node)) for node in nodes1}
                consulted = []
                for sid in nonempty:
                    sig = plan.shard_label_signature(sid)
                    if any(has_bit(sig, bit) for bit in bits):
                        consulted.append(sid)
                filtered["shards_skipped"] = len(nonempty) - len(consulted)
                score = gate.score  # constant; ξ ≤ 1.0 ≤ score by contract
                for node in nodes1:
                    label = pattern.label(node)
                    row: dict[Node, float] = {}
                    for sid in consulted:
                        for u in plan.shard_label_members(sid).get(label, ()):
                            row[u] = score
                    if pattern.has_self_loop(node):
                        row = {u: s for u, s in row.items() if u in plan.cycle_nodes}
                    cand.append(row)
            filtered["filter_seconds"] = filter_watch.elapsed
        else:
            for node in nodes1:
                row = {
                    u: score
                    for u, score in mat.row(node).items()
                    if u in plan.shard_of and score >= xi
                }
                if pattern.has_self_loop(node):
                    row = {u: s for u, s in row.items() if u in plan.cycle_nodes}
                cand.append(row)

        components, removed = plan_components(
            n1, prev, post, [bool(row) for row in cand]
        )
        routes: list[frozenset[int]] = [
            frozenset(plan.shard_of[u] for v in component for u in cand[v])
            for component in components
        ]
        # Which route key each pattern node's component landed on —
        # candidate-free nodes have no route (their rows are empty, so
        # scoping them to nothing changes nothing).
        member_route: dict[int, frozenset[int]] = {}
        for component, route in zip(components, routes):
            for v in component:
                member_route[v] = route

        # One workspace per touched shard (or shard union), built once
        # per request — the prepared index underneath is the cached,
        # possibly store-loaded one, so repeat requests pay pattern-side
        # work only.
        workspaces: dict[frozenset[int], tuple[MatchingWorkspace, MatchingService]] = {}

        def workspace_for(key: frozenset[int]) -> tuple[MatchingWorkspace, MatchingService]:
            entry = workspaces.get(key)
            if entry is None:
                if len(key) == 1:
                    (shard_id,) = key
                    service = self.workers[shard_id]
                    shard_graph = plan.shard_graph(shard_id)
                    shard_fingerprint = plan.fingerprint_for(shard_id)
                    delta = plan.shard_delta(shard_id)
                else:
                    service = self.spill
                    shard_graph = plan.union_graph(key)
                    shard_fingerprint = plan.fingerprint_for(key)
                    delta = None
                prepared = service.cache.prepared_for(
                    shard_graph, fingerprint=shard_fingerprint, delta=delta
                )
                if prefilter != "off":
                    # Route-scoped rows: a workspace only ever solves
                    # the components routed to its key, and the engine
                    # reads exactly the rows of a component's members —
                    # so rows for pattern nodes routed elsewhere are
                    # dropped before construction instead of being
                    # re-scanned per shard.  Result-preserving by the
                    # route-width argument; the drops are what
                    # ``pairs_pruned`` counts.
                    rows = [
                        cand[v] if member_route.get(v) == key else {}
                        for v in range(n1)
                    ]
                    filtered["pairs_pruned"] += sum(
                        len(cand[v]) for v in range(n1)
                        if member_route.get(v) != key
                    )
                else:
                    rows = cand
                entry = (
                    MatchingWorkspace(
                        pattern, prepared.graph, mat, xi, prepared=prepared,
                        backend=service.backend if solver is None else solver,
                        # The routing scan above already produced the ξ- and
                        # cycle-filtered rows; hand them down so the shard
                        # workspace does not re-scan the similarity matrix.
                        candidate_rows=rows,
                        # Rows legitimately name nodes outside this
                        # shard view; the workspace drops them.
                        partial_rows=True,
                        prefilter="strict" if prefilter == "strict" else None,
                    ),
                    service,
                )
                workspaces[key] = entry
            return entry

        used_nodes: set[Node] = set()

        def solve_one(idx: int) -> tuple[list[tuple[int, Node]], int]:
            workspace, service = workspace_for(routes[idx])
            used_mask = 0
            if injective and used_nodes:
                index2 = workspace.index2
                for node in used_nodes:
                    u = index2.get(node)
                    if u is not None:
                        used_mask = set_bit(used_mask, u)
            with Stopwatch() as solve_watch:
                pairs, rounds = solve_component(
                    workspace, components[idx], used_mask, injective, pick
                )
            # Worker stats count *component* solves — the unit of work a
            # shard actually performs; the router's sharded_solves
            # counter tracks pattern-level requests.
            with service.stats.lock:
                service.stats.calls += 1
                service.stats.solve_seconds += solve_watch.elapsed
                service.stats.record_backend(workspace.backend.name)
            mapped = [(v, workspace.nodes2[u]) for v, u in pairs]
            if injective:
                used_nodes.update(u for _, u in mapped)
            return mapped, rounds

        # Workspaces are built serially (their dict is unguarded and the
        # prepare underneath is the expensive part anyway), then the
        # component solves run: fanned out, unless injective mode makes
        # each solve depend on the nodes the earlier ones used.  Results
        # keep plan order, so the merge below is the sequential merge.
        for key in routes:
            workspace_for(key)
        solved = _fan_out(
            solve_one, range(len(components)), None if injective else max_workers
        )
        all_pairs = [pair for pairs, _ in solved for pair in pairs]
        rounds = sum(component_rounds for _, component_rounds in solved)

        # Quality, with the exact accumulation order of the
        # single-process path (floats must match bit-for-bit).
        weights = [pattern.weight(node) for node in nodes1]
        total_weight = sum(weights)
        qual_card = 1.0 if n1 == 0 else len(all_pairs) / n1
        if total_weight == 0.0:
            qual_sim = 1.0
        else:
            captured = sum(weights[v] * cand[v][u] for v, u in all_pairs)
            qual_sim = captured / total_weight

        fanout = sum(1 for key in routes if len(key) == 1)
        spills = len(routes) - fanout
        result = PHomResult(
            mapping={nodes1[v]: u for v, u in all_pairs},
            qual_card=qual_card,
            qual_sim=qual_sim,
            injective=injective,
            stats={
                "components": len(components),
                "candidate_free": len(removed),
                "rounds": rounds,
                "elapsed_seconds": 0.0,  # stamped by match_sharded
                "shards": plan.shards,
                "fanout_components": fanout,
                "spill_components": spills,
            },
        )
        if prefilter == "strict":
            # Strict sketch pruning happens inside each workspace; fold
            # the per-workspace counts into this request's filter stats.
            filtered["pairs_pruned"] += sum(
                workspace.pairs_pruned for workspace, _ in workspaces.values()
            )
        return result, fanout, spills, filtered

    # ------------------------------------------------------------------
    # Fleet statistics
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Aggregated service statistics with a per-shard breakdown.

        Each worker snapshot is internally consistent (taken under that
        worker's stats lock); the aggregate sums every ``ServiceStats``
        counter — ``solved_by`` per backend name — and reports the
        router's own backend.  Worker ``calls`` count the *component*
        solves a shard performed — the router's ``sharded_solves`` is
        the pattern-level request count, and ``routed_calls`` counts
        hash-routed whole-graph requests.
        """
        per_shard = [worker.stats.snapshot() for worker in self.workers]
        spill = self.spill.stats.snapshot()
        aggregate: dict = {}
        for name in _COUNTERS:
            values = [snap[name] for snap in per_shard + [spill]]
            if isinstance(values[0], dict):
                merged: Counter = Counter()
                for value in values:
                    merged.update(value)
                aggregate[name] = dict(merged)
            else:
                aggregate[name] = sum(values)
        aggregate["backend"] = self.backend.name
        with self._lock:
            counters = dict(self._counters)
        return {
            "shards": self.shards,
            **counters,
            "aggregate": aggregate,
            "per_shard": per_shard,
            "spill": spill,
        }

    def __repr__(self) -> str:
        return f"<ShardedMatchingService shards={self.shards} backend={self.backend.name!r}>"


_default_sharded: dict[int, ShardedMatchingService] = {}
_default_sharded_lock = threading.Lock()


def default_sharded_service(shards: int) -> ShardedMatchingService:
    """The process-wide sharded router for ``shards`` shards.

    ``repro.core.api.match(shards=N)`` routes through this, so repeated
    sharded calls against the same data graph reuse its shard plan and
    every worker's prepared indexes.  One router is kept per shard
    count.
    """
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise InputError(f"shards must be a positive integer, got {shards!r}")
    with _default_sharded_lock:
        service = _default_sharded.get(shards)
        if service is None:
            service = ShardedMatchingService(shards)
            _default_sharded[shards] = service
        return service


def reset_default_sharded_services() -> None:
    """Drop every process-wide sharded router (releases cached indexes)."""
    with _default_sharded_lock:
        _default_sharded.clear()
