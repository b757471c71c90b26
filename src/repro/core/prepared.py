"""Per-data-graph preparation, amortised across matching calls.

``compMaxCard`` (paper Fig. 3) pays its setup cost on lines 5–7:
materialising ``H2``, the adjacency matrix of the transitive closure
``G2⁺``.  Everything on those lines depends on the *data graph alone* —
not on the pattern, the similarity matrix, or ξ — yet the original
facade rebuilt it on every call.  The web-mirror workload of Section 6
(and any serving deployment) matches hundreds of patterns against one
data graph, so this module splits the preparation out:

:class:`PreparedDataGraph`
    owns the artifacts derivable from ``G2``: the node indexing, the
    forward/backward :class:`~repro.graph.closure.ReachabilityIndex`
    bitmask rows (``H2`` and its transpose), and the cycle mask used to
    restrict self-loop pattern nodes.  Build once, reuse for every
    pattern; :class:`~repro.core.workspace.MatchingWorkspace` becomes a
    thin pattern-side view over these shared rows.

The session/service layers on top live in :mod:`repro.core.service`:
a ``MatchSession`` binds a prepared graph to a similarity source and ξ,
and a ``MatchingService`` keeps an LRU cache of prepared graphs keyed by
:func:`~repro.graph.fingerprint.graph_fingerprint`.
"""

from __future__ import annotations

import json
from typing import Hashable

from repro.graph.closure import ReachabilityIndex
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.utils.timing import Stopwatch

__all__ = ["PreparedDataGraph", "prepare_data_graph", "PAYLOAD_LAYOUT"]

Node = Hashable

#: Payload layout written — and the only one read — by
#: :meth:`PreparedDataGraph.to_payload` / :func:`_parse_payload`.  The
#: header line is zero-padded to an 8-byte boundary and the row width
#: rounded up to whole little-endian uint64 words, so a store file whose
#: payload starts 8-byte aligned (the store envelope guarantees this) can
#: serve the mask section in place — lazy big-int rows for every backend
#: (:func:`~repro.core.store.map_payload`), ``(2n+1, words)`` uint64
#: matrices for the numpy one.
PAYLOAD_LAYOUT = 2


def _aligned_row_bytes(num_nodes: int) -> int:
    """Row width: whole uint64 words (≥ 1, so the cycle row of an empty
    graph still occupies a well-formed row)."""
    return 8 * max(1, (num_nodes + 63) // 64)


def _payload_head(prepared: "PreparedDataGraph") -> bytes:
    """The header line :meth:`PreparedDataGraph.to_payload` writes, padded
    with zeros to the 8-byte boundary the mask section starts on."""
    n = len(prepared.nodes2)
    header = {
        "fingerprint": prepared.fingerprint,
        "num_nodes": n,
        "num_edges": prepared.num_edges(),
        "layout": PAYLOAD_LAYOUT,
        "row_bytes": _aligned_row_bytes(n),
        "node_reprs": [repr(node) for node in prepared.nodes2],
        "prepare_seconds": prepared.prepare_seconds,
    }
    head = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    return head + b"\x00" * (-len(head) % 8)


def _split_payload(buffer, start: int = 0, end: int | None = None):
    """``(header, body)`` of the payload at ``buffer[start:end]``.

    ``header`` is the decoded JSON header line; ``body`` a memoryview of
    everything after the header's 8-byte alignment padding.  ``buffer``
    may be payload bytes or a mapped store file: only the header line is
    copied.  Raises :class:`ValueError` on a missing or non-object header.
    """
    end = len(buffer) if end is None else end
    newline = buffer.find(b"\n", start, end)
    if newline < 0:
        raise ValueError("payload has no header line")
    header = json.loads(bytes(buffer[start:newline]))
    if not isinstance(header, dict):
        raise ValueError("payload header is not a JSON object")
    head = newline + 1 - start
    return header, memoryview(buffer)[start + head + (-head % 8) : end]


def _parse_payload(buffer, start: int = 0, end: int | None = None):
    """The :meth:`PreparedDataGraph.to_payload` layout, checked and split.

    ``(header, n, width, masks)``: ``masks`` views the ``2n+1`` rows of
    ``width`` bytes (``from_mask``, ``to_mask``, cycle row) — a
    memoryview over ``buffer`` (see :func:`_split_payload`), so a mapped
    payload is never copied.  The body must be exactly those rows; any
    geometry defect raises :class:`ValueError`.
    """
    header, body = _split_payload(buffer, start, end)
    n, width = PreparedDataGraph.header_geometry(header)
    if len(body) != (2 * n + 1) * width:
        raise ValueError("payload mask section is truncated or oversized")
    return header, n, width, body


def _int_rows(view, width: int) -> list[int]:
    """The little-endian ``width``-byte rows of ``view`` as ints."""
    from_bytes = int.from_bytes
    return [
        from_bytes(view[i : i + width], "little") for i in range(0, len(view), width)
    ]


class PreparedDataGraph:
    """Everything the matching algorithms derive from ``G2`` alone.

    Attributes are plain lists/ints shared *by reference* with every
    workspace built on top, so they must be treated as immutable.  The
    underlying graph must not be mutated while a prepared index is in
    use; the service layer enforces this contract by keying its cache on
    the graph's content fingerprint (a mutation simply produces a cache
    miss and a fresh preparation).
    """

    #: The mapped-payload object when this instance was hydrated from the
    #: store by :meth:`from_mapped` (``None`` on every other path).
    #: Holding it here keeps the underlying file mapping alive for as
    #: long as the index serves from it.
    mapped = None

    #: Per-node closure sketches (:class:`~repro.core.prefilter.ClosureSketches`),
    #: built by :attr:`sketches` on first use and never stored.  A
    #: class-level default keeps every construction path (including
    #: ``__new__``-based evolution) covered without touching each one.
    _sketches = None

    #: Lazy label → data-node list index (:attr:`label_index`).
    _label_index = None

    def __init__(self, graph2: DiGraph, fingerprint: str | None = None) -> None:
        with Stopwatch() as watch:
            self.graph = graph2
            self.nodes2: list[Node] = list(graph2.nodes())
            self.index2: dict[Node, int] = {
                node: i for i, node in enumerate(self.nodes2)
            }
            self._num_edges: int = graph2.num_edges()

            # Reachability over G2 (H2 of the paper), forward and backward.
            # Only the bitmask rows are kept; the index objects' node
            # bookkeeping duplicates nodes2/index2 and would otherwise be
            # pinned for as long as a service caches this instance.
            forward = ReachabilityIndex(graph2)
            backward = ReachabilityIndex(graph2.reversed())
            # Both indexes enumerate graph2's nodes in insertion order, so
            # their bit positions agree; the assertion guards that invariant.
            assert forward.position_of == backward.position_of
            self.from_mask: list[int] = [forward.row(u) for u in self.nodes2]
            self.to_mask: list[int] = [backward.row(u) for u in self.nodes2]
            self.cycle_mask: int = 0
            for i in range(len(self.nodes2)):
                if self.from_mask[i] >> i & 1:
                    self.cycle_mask |= 1 << i
        #: Wall-clock seconds the index construction took (the "prepare"
        #: half of a cold call; the service aggregates these).
        self.prepare_seconds: float = watch.elapsed
        self._fingerprint = fingerprint
        #: Backend-native row materializations, keyed by backend name —
        #: see :meth:`backend_rows`.
        self._backend_rows: dict[str, object] = {}
        #: How this index came to be: ``None`` for a cold build, the
        #: :meth:`apply_delta` strategy record for an evolved one.
        self.delta_stats: dict | None = None

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the data graph at preparation time.

        Computed lazily: the hot path (a workspace built without a
        service) never needs it, and the service layer passes the digest
        it already computed for the cache lookup.
        """
        if self._fingerprint is None:
            self._fingerprint = graph_fingerprint(self.graph)
        return self._fingerprint

    @property
    def sketches(self):
        """Per-node closure sketches for the prefilter pipeline, lazy.

        Built from the closure rows and node labels the first time a
        ``strict`` workspace reads them (see
        :func:`repro.core.prefilter.build_sketches`) — on a cold,
        hydrated or evolved index alike, since they depend on nothing
        else.
        """
        if self._sketches is None:
            from repro.core.prefilter import build_sketches

            labels = [self.graph.label(u) for u in self.nodes2]
            self._sketches = build_sketches(self.from_mask, self.to_mask, labels)
        return self._sketches

    @property
    def label_index(self) -> "dict[object, list[Node]]":
        """Label → data nodes carrying it, in node enumeration order, lazy.

        The gated candidate-row fast path reads this instead of
        evaluating a similarity matrix; enumeration order keeps the rows
        it yields bit-identical to a matrix scan.
        """
        if self._label_index is None:
            index: dict[object, list[Node]] = {}
            for u in self.nodes2:
                index.setdefault(self.graph.label(u), []).append(u)
            self._label_index = index
        return self._label_index

    # ------------------------------------------------------------------
    # Serialization (the payload of repro.core.store's index files)
    # ------------------------------------------------------------------
    def to_payload(self) -> bytes:
        """Encode the index as bytes: a JSON header line + raw mask rows.

        The header records the fingerprint, node/edge counts, the node
        enumeration order (as ``repr`` strings — the order is part of the
        index semantics: bit *i* of every mask refers to ``nodes2[i]``),
        and the original build time.  It is padded to the next 8-byte
        boundary, and mask rows follow as whole-word little-endian
        integers: ``from_mask`` rows, ``to_mask`` rows, then the cycle
        mask — mappable in place (see :data:`PAYLOAD_LAYOUT`).  File
        framing (magic, version, checksum) is :mod:`repro.core.store`'s
        concern; :func:`_parse_payload` reads the layout back.
        """
        width = _aligned_row_bytes(len(self.nodes2))
        parts = [_payload_head(self)]
        parts.extend(mask.to_bytes(width, "little") for mask in self.from_mask)
        parts.extend(mask.to_bytes(width, "little") for mask in self.to_mask)
        parts.append(self.cycle_mask.to_bytes(width, "little"))
        return b"".join(parts)

    @staticmethod
    def payload_header(payload: bytes) -> dict:
        """The decoded JSON header of a payload (no mask validation)."""
        return _split_payload(payload)[0]

    @staticmethod
    def header_geometry(header: dict) -> tuple[int, int]:
        """``(num_nodes, row_bytes)`` of a payload header, checked.

        Raises :class:`ValueError` on a layout other than
        :data:`PAYLOAD_LAYOUT` or a row width inconsistent with the node
        count — the one header defect that would silently misalign every
        mask row after it.
        """
        layout = header.get("layout")
        if layout != PAYLOAD_LAYOUT:
            raise ValueError(f"unknown payload layout {layout!r}")
        n = header["num_nodes"]
        width = header["row_bytes"]
        if not (isinstance(n, int) and n >= 0 and width == _aligned_row_bytes(n)):
            raise ValueError("inconsistent payload header geometry")
        return n, width

    @classmethod
    def from_rows(
        cls,
        graph2: DiGraph,
        from_mask: list[int],
        to_mask: list[int],
        cycle_mask: int,
        fingerprint: str | None = None,
        num_edges: int | None = None,
        prepare_seconds: float = 0.0,
    ) -> "PreparedDataGraph":
        """An index shell around already-computed closure rows.

        Every store hydration ends here (through :meth:`from_mapped`): a
        mapped payload holds exactly the rows a cold build would produce
        and needs an index around them without re-deriving anything.
        The row sequences are adopted by reference
        and must already follow ``graph2``'s node enumeration order;
        counts are checked (:class:`ValueError` on mismatch), content is
        the caller's contract.
        """
        nodes2 = list(graph2.nodes())
        if len(from_mask) != len(nodes2) or len(to_mask) != len(nodes2):
            raise ValueError("row count differs from the graph's node count")
        self = cls.__new__(cls)
        self.graph = graph2
        self.nodes2 = nodes2
        self.index2 = {node: i for i, node in enumerate(nodes2)}
        self._num_edges = graph2.num_edges() if num_edges is None else int(num_edges)
        self.from_mask = from_mask
        self.to_mask = to_mask
        self.cycle_mask = cycle_mask
        self.prepare_seconds = float(prepare_seconds)
        self._fingerprint = fingerprint
        self._backend_rows = {}
        self.delta_stats = None
        return self

    @classmethod
    def from_mapped(cls, graph2: DiGraph, payload, fingerprint: str | None = None):
        """Hydrate from a *mapped* store payload — zero copy.

        ``payload`` is what a backend's ``open_payload`` returned (see
        :class:`~repro.core.store.MappedPayload`): the store file's mask
        section viewed in place as lazy big-int rows, plus the opening
        backend's native rows when it adds any.  Nothing is deserialised
        here — ``from_mask`` / ``to_mask`` decode individual rows on
        demand, and native rows alias the file pages directly.

        Node ``repr`` strings are **not** compared here: callers key
        mapped opens by content fingerprint (the store path *is* the
        fingerprint, and the graph's digest covers node enumeration
        order), so a matching ``fingerprint`` already implies matching
        node order; :meth:`~repro.core.store.PreparedIndexStore.load`
        compares them as well.  Count mismatches — the cheap honest
        check — still raise :class:`ValueError`, as does a fingerprint
        mismatch; the service treats both as a miss.
        """
        header = payload.header
        if graph2.num_edges() != header["num_edges"]:
            raise ValueError("mapped payload does not describe this graph (counts differ)")
        if fingerprint is not None and header["fingerprint"] != fingerprint:
            raise ValueError("mapped payload answers a different fingerprint")
        self = cls.from_rows(
            graph2,
            payload.from_ints,
            payload.to_ints,
            payload.cycle_mask,
            fingerprint=header["fingerprint"],
            num_edges=header["num_edges"],
            prepare_seconds=header["prepare_seconds"],
        )
        if payload.rows is not None:
            # Pre-seed the opening backend's native rows: they already
            # exist (views over the mapping), so build_rows must not run.
            self._backend_rows = {payload.backend_name: payload.rows}
        self.mapped = payload
        return self

    # ------------------------------------------------------------------
    # Incremental evolution (mutable data graphs)
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        delta,
        graph2: DiGraph | None = None,
        cutoff: float | None = None,
        fingerprint: str | None = None,
    ) -> "PreparedDataGraph":
        """A new index describing the graph *after* ``delta``'s mutations.

        ``delta`` is a :class:`~repro.core.incremental.DeltaLog` whose
        events extend this index's content (mismatched base fingerprints
        raise).  Only the closure rows the delta can have touched are
        recomputed — the rest are spliced through, shared by reference
        when no node removal shifted bit positions — and backend-native
        row caches are selectively refreshed.  When the dirty frontier
        exceeds ``cutoff`` (fraction of all rows, default
        :data:`~repro.core.incremental.DEFAULT_CUTOFF`) the call degrades
        to a full re-prepare.  Either way the result is **bit-identical**
        to a cold ``PreparedDataGraph`` of the mutated graph, and
        ``delta_stats`` records the strategy taken.  ``graph2`` defaults
        to ``self.graph`` (in-place mutation); offline callers pass the
        new snapshot explicitly.  ``self`` is never modified.
        """
        from repro.core.incremental import DEFAULT_CUTOFF, evolve_prepared

        return evolve_prepared(
            self,
            delta,
            graph2=graph2,
            cutoff=DEFAULT_CUTOFF if cutoff is None else cutoff,
            fingerprint=fingerprint,
        )

    # ------------------------------------------------------------------
    def backend_rows(self, backend) -> object:
        """This index's closure rows in ``backend``-native layout, cached.

        The canonical representation stays the big-int ``from_mask`` /
        ``to_mask`` lists (what :meth:`to_payload` serialises — the store
        format is backend-neutral, so one disk file hydrates into every
        backend); a :class:`~repro.core.backends.base.SolverBackend` that
        wants a different in-memory layout converts here, once per data
        graph instead of once per pattern.  Thread-safety note: a race
        costs at most a duplicate conversion (last write wins), never a
        wrong answer — the rows are pure functions of the masks.  A
        mapped index (:meth:`from_mapped`) starts with its opening
        backend's native rows cached when that backend made any: the
        matrix views over the file.
        """
        rows = self._backend_rows.get(backend.name)
        if rows is None:
            rows = backend.build_rows(self.from_mask, self.to_mask, len(self.nodes2))
            self._backend_rows[backend.name] = rows
        return rows

    def num_nodes(self) -> int:
        """|V2|: number of data-graph nodes covered by the index."""
        return len(self.nodes2)

    def num_edges(self) -> int:
        """|E2|: number of data-graph edges at preparation time."""
        return self._num_edges

    def closure_size(self) -> int:
        """|E2⁺|: number of (source, target) pairs with a nonempty path."""
        return sum(row.bit_count() for row in self.from_mask)

    def __repr__(self) -> str:
        tag = f" {self.graph.name!r}" if self.graph.name else ""
        return (
            f"<PreparedDataGraph{tag} |V|={self.num_nodes()} "
            f"|E+|={self.closure_size()}>"
        )


def prepare_data_graph(graph2: DiGraph) -> PreparedDataGraph:
    """Build the reusable matching index of ``graph2`` (``H2`` et al.)."""
    return PreparedDataGraph(graph2)
