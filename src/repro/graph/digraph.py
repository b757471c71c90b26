"""Node-labeled directed graphs.

This is the graph model of the paper (Section 3.1): ``G = (V, E, L)`` where
``V`` is a set of nodes, ``E ⊆ V × V`` a set of directed edges and ``L(v)``
a label per node.  We additionally store an optional positive *weight* per
node, used by the maximum-overall-similarity metric ``qualSim`` (Section
3.3), and an optional free-form attribute dict for dataset metadata (page
contents, timestamps).

Nodes are arbitrary hashable identifiers.  The label defaults to the node
identifier itself, matching the convention ``L(v) = v`` used throughout the
paper's reductions.

The class is a plain adjacency-set structure tuned for the access patterns
of the matching algorithms: O(1) edge queries, O(deg) neighbor iteration,
and cheap induced subgraphs.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.utils.errors import GraphError, InputError

__all__ = ["DiGraph"]

Node = Hashable


class DiGraph:
    """A directed graph with node labels and node weights.

    >>> g = DiGraph()
    >>> g.add_edge("books", "textbooks")
    >>> g.add_node("albums", label="albums", weight=2.0)
    >>> sorted(g.nodes())
    ['albums', 'books', 'textbooks']
    >>> g.has_edge("books", "textbooks")
    True
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._labels: dict[Node, Any] = {}
        self._weights: dict[Node, float] = {}
        self._attrs: dict[Node, dict[str, Any]] = {}
        self._succ: dict[Node, set[Node]] = {}
        self._pred: dict[Node, set[Node]] = {}
        self._edge_count = 0
        #: Memoized content digest, dropped by every mutator — lets
        #: :func:`repro.graph.fingerprint.graph_fingerprint` cost O(1)
        #: on the hot serving paths (cache lookups, shard routing) that
        #: hash the same unchanged graph over and over.
        self._fingerprint_cache: str | None = None
        #: Attached mutation observers (duck-typed: anything with a
        #: ``record(op, a, b)`` method — in practice
        #: :class:`repro.core.incremental.DeltaLog`).  Every mutator
        #: notifies them of the change it made, which is what lets the
        #: serving layer *evolve* a prepared ``G2⁺`` index instead of
        #: rebuilding it when a data graph mutates.  Empty-list checks
        #: keep the untracked common case at one attribute read.
        self._delta_logs: list = []

    def _notify(self, op: str, a: Node, b: Any = None) -> None:
        """Report one applied mutation to every attached delta log."""
        for log in self._delta_logs:
            log.record(op, a, b)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Node, Node]],
        nodes: Iterable[Node] = (),
        labels: Mapping[Node, Any] | None = None,
        name: str = "",
    ) -> "DiGraph":
        """Build a graph from an edge list (plus optional isolated nodes).

        ``labels`` assigns labels to any subset of nodes; unlisted nodes keep
        the default label (their own identifier).
        """
        graph = cls(name=name)
        for node in nodes:
            graph.add_node(node)
        for tail, head in edges:
            graph.add_edge(tail, head)
        if labels:
            for node, label in labels.items():
                graph.set_label(node, label)
        return graph

    def add_node(
        self,
        node: Node,
        label: Any = None,
        weight: float = 1.0,
        **attrs: Any,
    ) -> None:
        """Add ``node``; updating label/weight/attrs if it already exists.

        The label defaults to the node identifier (the paper's ``L(v) = v``
        convention); the weight defaults to 1.0 (the paper's uniform-weight
        setting for ``qualSim``).
        """
        if weight <= 0:
            raise InputError(f"node weight must be positive, got {weight!r}")
        self._fingerprint_cache = None
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()
            self._labels[node] = node if label is None else label
            self._weights[node] = float(weight)
            self._attrs[node] = dict(attrs)
            if self._delta_logs:
                self._notify("add_node", node)
            return
        if label is not None:
            self._labels[node] = label
        self._weights[node] = float(weight)
        if attrs:
            self._attrs[node].update(attrs)
        if self._delta_logs:
            # Re-adding an existing node only updates its payload: the
            # structure (and so every closure row) is untouched.
            if label is not None:
                self._notify("set_label", node)
            self._notify("set_weight", node)
            if attrs:
                self._notify("set_attrs", node)

    def add_edge(self, tail: Node, head: Node) -> None:
        """Add the directed edge ``tail -> head``, creating missing endpoints."""
        if tail not in self._succ:
            self.add_node(tail)
        if head not in self._succ:
            self.add_node(head)
        if head not in self._succ[tail]:
            self._fingerprint_cache = None
            self._succ[tail].add(head)
            self._pred[head].add(tail)
            self._edge_count += 1
            if self._delta_logs:
                self._notify("add_edge", tail, head)

    def add_edges(self, edges: Iterable[tuple[Node, Node]]) -> None:
        """Add every edge of ``edges``."""
        for tail, head in edges:
            self.add_edge(tail, head)

    def remove_edge(self, tail: Node, head: Node) -> None:
        """Remove the edge ``tail -> head``; raise GraphError if absent."""
        if tail not in self._succ or head not in self._succ[tail]:
            raise GraphError(f"edge ({tail!r}, {head!r}) not in graph")
        self._fingerprint_cache = None
        self._succ[tail].discard(head)
        self._pred[head].discard(tail)
        self._edge_count -= 1
        if self._delta_logs:
            self._notify("remove_edge", tail, head)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges; raise GraphError if absent."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} not in graph")
        self._fingerprint_cache = None
        if self._delta_logs:
            # The neighbor snapshot rides along: removing a node severs
            # its incident edges, so observers re-planning connectivity
            # (shard plans) must treat the neighbors as touched too —
            # after the removal the graph no longer knows them.
            self._notify(
                "remove_node", node, frozenset(self._succ[node]) | frozenset(self._pred[node])
            )
        for head in self._succ[node]:
            self._pred[head].discard(node)
        for tail in self._pred[node]:
            self._succ[tail].discard(node)
        self._edge_count -= len(self._succ[node])
        self._edge_count -= sum(1 for tail in self._pred[node] if tail != node)
        del self._succ[node]
        del self._pred[node]
        del self._labels[node]
        del self._weights[node]
        del self._attrs[node]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def num_nodes(self) -> int:
        """Number of nodes, |V|."""
        return len(self._succ)

    def num_edges(self) -> int:
        """Number of directed edges, |E|."""
        return self._edge_count

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes (insertion order)."""
        return iter(self._succ)

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Iterate over directed edges as (tail, head) pairs."""
        for tail, heads in self._succ.items():
            for head in heads:
                yield (tail, head)

    def has_edge(self, tail: Node, head: Node) -> bool:
        """Return True when the edge ``tail -> head`` exists."""
        heads = self._succ.get(tail)
        return heads is not None and head in heads

    def has_self_loop(self, node: Node) -> bool:
        """Return True when ``node`` carries the edge (node, node)."""
        return self.has_edge(node, node)

    def successors(self, node: Node) -> set[Node]:
        """The set of heads of edges leaving ``node`` ("children")."""
        try:
            return self._succ[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def predecessors(self, node: Node) -> set[Node]:
        """The set of tails of edges entering ``node`` ("parents")."""
        try:
            return self._pred[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def out_degree(self, node: Node) -> int:
        """Number of edges leaving ``node``."""
        return len(self.successors(node))

    def in_degree(self, node: Node) -> int:
        """Number of edges entering ``node``."""
        return len(self.predecessors(node))

    def degree(self, node: Node) -> int:
        """Total degree (in + out); a self-loop counts twice."""
        return self.in_degree(node) + self.out_degree(node)

    def label(self, node: Node) -> Any:
        """The label ``L(node)``."""
        try:
            return self._labels[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def set_label(self, node: Node, label: Any) -> None:
        """Replace the label of an existing node."""
        if node not in self._labels:
            raise GraphError(f"node {node!r} not in graph")
        self._fingerprint_cache = None
        self._labels[node] = label
        if self._delta_logs:
            self._notify("set_label", node)

    def weight(self, node: Node) -> float:
        """The node weight ``w(node)`` used by ``qualSim``."""
        try:
            return self._weights[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def set_weight(self, node: Node, weight: float) -> None:
        """Replace the weight of an existing node (must stay positive)."""
        if node not in self._weights:
            raise GraphError(f"node {node!r} not in graph")
        if weight <= 0:
            raise InputError(f"node weight must be positive, got {weight!r}")
        self._fingerprint_cache = None
        self._weights[node] = float(weight)
        if self._delta_logs:
            self._notify("set_weight", node)

    def total_weight(self) -> float:
        """Sum of all node weights (the denominator of ``qualSim``)."""
        return sum(self._weights.values())

    def attrs(self, node: Node) -> dict[str, Any]:
        """Free-form attribute dict of ``node`` (mutable view)."""
        try:
            return self._attrs[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "DiGraph":
        """Deep-enough copy: structure, labels, weights and attr dicts."""
        clone = DiGraph(name=self.name if name is None else name)
        for node in self._succ:
            clone.add_node(
                node,
                label=self._labels[node],
                weight=self._weights[node],
                **self._attrs[node],
            )
        for tail, head in self.edges():
            clone.add_edge(tail, head)
        return clone

    def subgraph(self, nodes: Iterable[Node], name: str = "") -> "DiGraph":
        """The subgraph induced by ``nodes`` (a copy, not a view).

        Nodes absent from the graph raise :class:`GraphError` — an induced
        subgraph of unknown nodes is almost always a caller bug.

        Built in bulk: every table is filled by one comprehension in this
        graph's insertion order (so node enumeration order is preserved),
        and each adjacency set is an intersection with the kept nodes.
        Nodes, order, labels, weights, copied attr dicts and edges are
        those a node-by-node build would produce; only the iteration
        order *inside* an adjacency set may differ, and nothing reads it
        (the engine tie-breaks by node index, fingerprints sort heads).
        """
        keep = set(nodes)
        missing = keep.difference(self._succ)
        if missing:
            raise GraphError(f"node {next(iter(missing))!r} not in graph")
        sub = DiGraph(name=name or f"{self.name}[{len(keep)}]")
        order = [node for node in self._succ if node in keep]
        sub._labels = {node: self._labels[node] for node in order}
        sub._weights = {node: self._weights[node] for node in order}
        sub._attrs = {node: dict(self._attrs[node]) for node in order}
        sub._succ = {node: self._succ[node] & keep for node in order}
        sub._pred = {node: self._pred[node] & keep for node in order}
        sub._edge_count = sum(map(len, sub._succ.values()))
        return sub

    def reversed(self) -> "DiGraph":
        """The graph with every edge direction flipped."""
        rev = DiGraph(name=f"{self.name}^R" if self.name else "")
        for node in self._succ:
            rev.add_node(
                node,
                label=self._labels[node],
                weight=self._weights[node],
                **self._attrs[node],
            )
        for tail, head in self.edges():
            rev.add_edge(head, tail)
        return rev

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def average_degree(self) -> float:
        """avgDeg(G): mean total degree, 2|E| / |V| (0.0 for the empty graph)."""
        if not self._succ:
            return 0.0
        return 2.0 * self._edge_count / len(self._succ)

    def max_degree(self) -> int:
        """maxDeg(G): maximum total degree (0 for the empty graph)."""
        if not self._succ:
            return 0
        return max(self.degree(node) for node in self._succ)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<DiGraph{tag} |V|={self.num_nodes()} |E|={self.num_edges()}>"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same nodes, labels, weights and edges."""
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._labels == other._labels
            and self._weights == other._weights
            and self._succ == other._succ
        )

    __hash__ = None  # mutable container
