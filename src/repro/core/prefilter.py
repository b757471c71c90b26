"""Candidate-mask prefilter pipeline: prune pairs and shards before engines.

The engine enumerates from the candidate rows a workspace materialises;
every infeasible ``(v, u)`` pair that survives into ``initial_good()``
costs backend frames before ``trimMatching`` kills it, and in the
sharded router a component fans out to every candidate shard before a
single engine runs.  This module is the filter ladder in front of all
of that, in three rungs:

1. **Data-side closure sketches** (:func:`build_sketches`) — per-node
   summaries derived from the closure masks a
   :class:`~repro.core.prepared.PreparedDataGraph` already holds:

   * ``out_card[u]`` / ``in_card[u]`` — popcounts of ``from_mask[u]`` /
     ``to_mask[u]`` (descendant / ancestor closure cardinalities);
   * ``out_sig[u]`` / ``in_sig[u]`` — :data:`SIG_BITS`-bit hashed
     signatures of the *label set* of ``u``'s descendant / ancestor
     closure (a tiny Bloom filter: a set bit means "some closure node's
     label hashes here", a clear bit proves the label set excludes
     every label hashing there).

   Sketches are derived, never stored: a prepared index builds them
   from its closure rows and labels the first time a ``strict``
   workspace reads them, whether the index was built cold, hydrated
   from the store or evolved by ``apply_delta``.

2. **Transparent similarity gating** (:class:`LabelEqualitySimilarity`,
   :func:`label_gate_of`, :func:`gated_candidate_rows`) — a similarity
   *source* that declares its semantics (label equality, constant
   score) lets the service build candidate rows straight from a label
   index without ever materialising a similarity matrix, and lets the
   router consult only shards whose label signature can host a pattern
   label.  Sources that stay opaque callables get a conservative
   bypass (counted, never guessed at) so results are bit-identical in
   every mode.

3. **Strict pair pruning** (:func:`pattern_sketches`,
   :func:`strict_filter_rows`) — the documented *approximate* tier:
   drop ``(v, u)`` when ``u``'s closure sketch provably cannot cover
   the labels (or distinct-label count) of ``v``'s pattern closure.
   Any mapping the engine then returns is still a valid p-hom mapping
   (removing candidates never invalidates one), and under a label-gated
   source a *total* mapping through ``v`` would need exactly that
   coverage — but maximum-cardinality *partial* mappings may shrink, so
   ``strict`` is opt-in and never the default.

Soundness of the bit-identical (``auto``) rungs:

* :func:`gated_candidate_rows` reproduces the workspace's ξ/cycle
  filtered rows exactly because a gated source scores label-equal pairs
  at a constant ``1.0 ≥ ξ`` (``validate_threshold`` pins ξ to (0, 1])
  and everything else at 0.
* Shard-signature consultation only skips shards with *no* label-equal
  member for any pattern node — shards that could never contribute a
  candidate row entry.

Everything here manipulates closure masks through
:mod:`repro.core.backends.bitops` — this module is inside repro-lint
RL004's confinement scope.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.core.backends.bitops import (
    exclude,
    has_bit,
    intersects,
    iter_set_bits,
    popcount,
    set_bit,
)
from repro.graph.digraph import DiGraph
from repro.similarity.labels import label_equality_matrix
from repro.similarity.matrix import SimilarityMatrix
from repro.utils.errors import InputError

__all__ = [
    "PREFILTER_MODES",
    "SIG_BITS",
    "ClosureSketches",
    "LabelEqualitySimilarity",
    "PatternSketches",
    "build_sketches",
    "gated_candidate_rows",
    "label_bit",
    "label_gate_of",
    "label_planes",
    "label_signature",
    "node_sketch",
    "pattern_sketches",
    "strict_filter_rows",
    "validate_prefilter",
]

Node = Hashable

#: Recognised prefilter modes.  ``off`` is the seed behaviour (no
#: filtering, counters stay zero); ``auto`` applies every *bit-identical*
#: rung (route-scoped rows, gated row construction, shard-signature
#: consultation) and conservatively bypasses opaque sources; ``strict``
#: adds sketch-based pair pruning — valid mappings always, full quality
#: not guaranteed (the approximate tier).
PREFILTER_MODES = ("auto", "off", "strict")

#: Width of the hashed label-set signatures.  64 keeps a signature a
#: single machine word.
SIG_BITS = 64


def validate_prefilter(mode: str) -> None:
    """Reject unknown prefilter modes with a clear error."""
    if mode not in PREFILTER_MODES:
        raise InputError(
            f"prefilter must be one of {PREFILTER_MODES}, got {mode!r}"
        )


def label_bit(label: object) -> int:
    """The signature bit of ``label`` — a stable hash into [0, SIG_BITS).

    Keyed on ``repr(label)`` via blake2b rather than ``hash()``: builtin
    string hashing is randomised per process, and these bits persist in
    store payloads that must mean the same thing in every process that
    maps them.
    """
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little") % SIG_BITS


def label_signature(labels: Iterable[object]) -> int:
    """The :data:`SIG_BITS`-bit signature of a label set."""
    sig = 0
    for label in labels:
        sig = set_bit(sig, label_bit(label))
    return sig


def label_planes(labels: Sequence[object]) -> list[int]:
    """Per-signature-bit node bitmasks: ``planes[b]`` has bit ``i`` set
    iff ``labels[i]`` hashes to signature bit ``b``.

    One pass over the nodes turns every subsequent closure-signature
    computation into :data:`SIG_BITS` mask intersection tests instead of
    a walk over the closure's members.
    """
    planes = [0] * SIG_BITS
    for i, label in enumerate(labels):
        bit = label_bit(label)
        planes[bit] = set_bit(planes[bit], i)
    return planes


def node_sketch(
    from_row: int, to_row: int, planes: Sequence[int]
) -> tuple[int, int, int, int]:
    """``(out_card, in_card, out_sig, in_sig)`` of one node's closure rows."""
    out_sig = 0
    in_sig = 0
    for bit, plane in enumerate(planes):
        if plane:
            if intersects(from_row, plane):
                out_sig = set_bit(out_sig, bit)
            if intersects(to_row, plane):
                in_sig = set_bit(in_sig, bit)
    return popcount(from_row), popcount(to_row), out_sig, in_sig


@dataclass(frozen=True)
class ClosureSketches:
    """Per-node closure sketches of a prepared data graph.

    Each field is a length-``n`` list of ints aligned with the prepared
    index's node enumeration, built by :func:`build_sketches`.
    """

    out_card: list[int]
    in_card: list[int]
    out_sig: list[int]
    in_sig: list[int]

    def __len__(self) -> int:
        return len(self.out_card)


def build_sketches(
    from_mask: Sequence[int],
    to_mask: Sequence[int],
    labels: Sequence[object],
) -> ClosureSketches:
    """Compute :class:`ClosureSketches` from closure rows and node labels."""
    planes = label_planes(labels)
    out_card: list[int] = []
    in_card: list[int] = []
    out_sig: list[int] = []
    in_sig: list[int] = []
    for i in range(len(labels)):
        oc, ic, osig, isig = node_sketch(from_mask[i], to_mask[i], planes)
        out_card.append(oc)
        in_card.append(ic)
        out_sig.append(osig)
        in_sig.append(isig)
    return ClosureSketches(out_card, in_card, out_sig, in_sig)


# ----------------------------------------------------------------------
# Transparent similarity gating (the bit-identical fast path)
# ----------------------------------------------------------------------
class LabelEqualitySimilarity:
    """Label-equality similarity as a *transparent* callable source.

    Calling it is exactly
    :func:`repro.similarity.labels.label_equality_matrix` — same pairs,
    same scores, same row order — so any code path that materialises the
    matrix is unchanged.  What the class adds is *declared semantics*:
    the prefilter pipeline (:func:`label_gate_of`) recognises it and can
    build candidate rows from a label index, or consult shard label
    signatures, without evaluating the matrix at all, knowing the result
    is bit-identical.
    """

    #: Constant score of every label-equal pair.  ``validate_threshold``
    #: pins ξ ≤ 1.0, so gated rows never need a ξ comparison.
    score = 1.0

    def __call__(self, graph1: DiGraph, graph2: DiGraph) -> SimilarityMatrix:
        return label_equality_matrix(graph1, graph2)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LabelEqualitySimilarity()"


def label_gate_of(source: object) -> "LabelEqualitySimilarity | None":
    """The label gate of a similarity source, or ``None`` if opaque.

    Only sources that *declare* label-equality semantics are gated;
    arbitrary callables and pre-built matrices stay opaque and take the
    conservative bypass (``filter_bypasses`` counts them).  Notably
    ``LabelGroupSimilarity`` is **not** gated: its scores come from a
    memoised RNG whose draw order is part of the observable result.
    """
    return source if isinstance(source, LabelEqualitySimilarity) else None


def gated_candidate_rows(
    gate: LabelEqualitySimilarity,
    graph1: DiGraph,
    prepared,
) -> "list[dict[Node, float]]":
    """Candidate rows for a gated source, straight from the label index.

    Bit-identical to what :class:`~repro.core.workspace.MatchingWorkspace`
    would materialise from the evaluated matrix: one row per pattern
    node in pattern order, keyed by data node in data-graph enumeration
    order, ξ-filtering vacuous (constant score 1.0), self-loop pattern
    nodes restricted to the cycle mask.
    """
    label_index = prepared.label_index
    index2 = prepared.index2
    cycle_mask = prepared.cycle_mask
    score = gate.score
    rows: list[dict[Node, float]] = []
    for v in graph1.nodes():
        members = label_index.get(graph1.label(v), ())
        if graph1.has_self_loop(v):
            row = {u: score for u in members if has_bit(cycle_mask, index2[u])}
        else:
            row = {u: score for u in members}
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Strict pair pruning (the approximate tier)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PatternSketches:
    """Pattern-side closure requirements, aligned with pattern node order.

    ``out_need[v]`` / ``in_need[v]`` count the *distinct labels* in
    ``v``'s descendant / ancestor closure (each distinct label needs at
    least one distinct data node to host it); ``out_sig`` / ``in_sig``
    are the hashed signatures of those label sets.
    """

    out_need: Sequence[int]
    in_need: Sequence[int]
    out_sig: Sequence[int]
    in_sig: Sequence[int]


def pattern_sketches(graph1: DiGraph) -> PatternSketches:
    """Compute :class:`PatternSketches` of a pattern graph."""
    # Local import: prepared.py lazily imports this module for its
    # data-side sketches property.
    from repro.core.prepared import PreparedDataGraph

    closure = PreparedDataGraph(graph1)
    labels = [graph1.label(v) for v in closure.nodes2]
    out_need: list[int] = []
    in_need: list[int] = []
    out_sig: list[int] = []
    in_sig: list[int] = []
    for i in range(len(labels)):
        down = {labels[j] for j in iter_set_bits(closure.from_mask[i])}
        up = {labels[j] for j in iter_set_bits(closure.to_mask[i])}
        out_need.append(len(down))
        in_need.append(len(up))
        out_sig.append(label_signature(down))
        in_sig.append(label_signature(up))
    return PatternSketches(out_need, in_need, out_sig, in_sig)


def strict_filter_rows(
    rows: "list[dict[int, float]]",
    pattern: PatternSketches,
    sketches: ClosureSketches,
) -> "tuple[list[dict[int, float]], int]":
    """Prune index-keyed candidate rows against the data sketches.

    ``rows[v]`` maps *data node indexes* to scores (the workspace's
    internal representation).  A pair ``(v, u)`` survives iff ``u``'s
    closure could host every distinct label of ``v``'s pattern closure:
    cardinalities large enough, signature bits a superset (``exclude``
    of the requirement by the capability leaves nothing).  Returns the
    filtered rows and the number of pairs dropped.
    """
    out_card = sketches.out_card
    in_card = sketches.in_card
    out_sig = sketches.out_sig
    in_sig = sketches.in_sig
    pruned = 0
    filtered: list[dict[int, float]] = []
    for v_idx, row in enumerate(rows):
        need_out = pattern.out_need[v_idx]
        need_in = pattern.in_need[v_idx]
        sig_out = pattern.out_sig[v_idx]
        sig_in = pattern.in_sig[v_idx]
        if not need_out and not need_in:
            filtered.append(row)
            continue
        kept = {
            u_idx: score
            for u_idx, score in row.items()
            if need_out <= out_card[u_idx]
            and need_in <= in_card[u_idx]
            and exclude(sig_out, out_sig[u_idx]) == 0
            and exclude(sig_in, in_sig[u_idx]) == 0
        }
        pruned += len(row) - len(kept)
        filtered.append(kept)
    return filtered, pruned
