"""High-level matching facade.

Two entry points:

* :func:`match_prepared` is the primitive: it wires together the metric
  choice (cardinality vs overall similarity), the 1-1 constraint, the
  Appendix-B optimizations, and the match decision rule used throughout
  the paper's experiments (a graph matches when the mapping quality
  reaches a threshold — 0.75 in Section 6), solving one pattern against a
  :class:`~repro.core.prepared.PreparedDataGraph`.
* :func:`match` is the convenience wrapper the rest of the code base and
  the CLI use.  It routes through the process-wide
  :class:`~repro.core.service.MatchingService`, so repeated calls against
  the same data graph reuse its prepared ``G2⁺`` index (an LRU cache
  keyed by content fingerprint) instead of rebuilding it — see
  :mod:`repro.core.service` for sessions, the ``match_many`` batch API,
  and per-call statistics.

:func:`closure_pattern` implements the Remark of Section 3.2: replacing
``G1`` by its transitive closure ``G1⁺`` turns the edge-to-path semantics
into a symmetric path-to-path comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.backends import SolverBackend, get_backend
from repro.core.comp_max_card import comp_max_card, comp_max_card_injective
from repro.core.comp_max_sim import comp_max_sim, comp_max_sim_injective
from repro.core.engine import PICK_RULES
from repro.core.optimize import comp_max_card_partitioned
from repro.core.phom import PHomResult, validate_threshold
from repro.core.prefilter import (
    LabelEqualitySimilarity,
    gated_candidate_rows,
    label_gate_of,
    validate_prefilter,
)
from repro.core.prepared import PreparedDataGraph
from repro.graph.closure import transitive_closure_graph
from repro.graph.digraph import DiGraph
from repro.similarity.matrix import SimilarityMatrix
from repro.utils.errors import InputError

__all__ = [
    "MatchReport",
    "match",
    "match_prepared",
    "closure_pattern",
    "update_graph",
    "validate_match_options",
]

#: The paper's experimental match-decision threshold (Section 6).
DEFAULT_MATCH_THRESHOLD = 0.75


@dataclass
class MatchReport:
    """A match decision plus the mapping it rests on."""

    matched: bool
    quality: float
    threshold: float
    metric: str
    result: PHomResult


def validate_match_options(
    metric: str,
    threshold: float,
    xi: float | None = None,
    partitioned: bool = False,
    pick: str = "similarity",
    backend: "str | SolverBackend | None" = None,
    prefilter: str = "auto",
) -> None:
    """Reject bad options *before* any expensive work.

    Shared by :func:`match_prepared` and the service layer, which calls
    it ahead of index preparation so a typo'd metric (or an unsupported
    option combination) cannot cost a full ``G2⁺`` construction — or pin
    one in the cache — before raising.
    """
    if metric not in ("cardinality", "similarity"):
        raise InputError(f"unknown metric {metric!r}")
    if not 0.0 <= threshold <= 1.0:
        raise InputError(f"threshold must lie in [0, 1], got {threshold!r}")
    if partitioned and metric != "cardinality":
        raise InputError("partitioned matching is implemented for the cardinality metric")
    if pick not in PICK_RULES:
        raise InputError(f"unknown pick rule {pick!r}; choose one of {PICK_RULES}")
    get_backend(backend)  # raises on unknown names / missing dependencies
    validate_prefilter(prefilter)
    if prefilter == "strict" and not (partitioned and metric == "cardinality"):
        raise InputError(
            "prefilter='strict' needs the partitioned cardinality path "
            "(partitioned=True or sharded routing)"
        )
    if xi is not None:
        validate_threshold(xi)


def closure_pattern(graph1: DiGraph) -> DiGraph:
    """``G1⁺`` — for the symmetric (path-to-path) matching of Section 3.2.

    "one only need to compute G1⁺, the transitive closure of G1, and check
    whether G1⁺ ≾(e,p) G2."
    """
    return transitive_closure_graph(graph1)


def match_prepared(
    graph1: DiGraph,
    prepared: PreparedDataGraph,
    mat: SimilarityMatrix,
    xi: float,
    metric: str = "cardinality",
    injective: bool = False,
    threshold: float = DEFAULT_MATCH_THRESHOLD,
    partitioned: bool = False,
    symmetric: bool = False,
    pick: str = "similarity",
    backend: "str | SolverBackend | None" = None,
    prefilter: str = "auto",
) -> MatchReport:
    """Match ``graph1`` against an already-prepared data graph.

    The deterministic core of :func:`match`: identical inputs produce
    identical reports whether the prepared index is freshly built or
    reused, which is what lets sessions and the service cache amortise
    preparation without changing any output (fingerprints include node
    enumeration order precisely to keep this true — see
    :mod:`repro.graph.fingerprint`).  See :func:`match` for parameter
    semantics.
    """
    validate_match_options(
        metric,
        threshold,
        partitioned=partitioned,
        pick=pick,
        backend=backend,
        prefilter=prefilter,
    )
    return _solve_prepared(
        graph1,
        prepared,
        mat,
        xi,
        metric=metric,
        injective=injective,
        threshold=threshold,
        partitioned=partitioned,
        symmetric=symmetric,
        pick=pick,
        backend=backend,
        prefilter=prefilter,
    )


def _label_gate(
    mat: object, prefilter: str, metric: str, partitioned: bool
) -> LabelEqualitySimilarity | None:
    """The label gate to build a request's candidate rows from, or ``None``.

    The prefilter's gated fast path: rows come straight off the prepared
    label index — no similarity matrix is ever materialised — when the
    source declares label-equality semantics and the request runs the
    partitioned cardinality path with the pipeline on.  ``None`` is the
    conservative bypass: the source is resolved as a matrix, and results
    stay bit-identical either way.
    """
    if prefilter == "off" or not partitioned or metric != "cardinality":
        return None
    return label_gate_of(mat)


def _solve_prepared(
    graph1: DiGraph,
    prepared: PreparedDataGraph,
    mat: SimilarityMatrix,
    xi: float,
    metric: str,
    injective: bool,
    threshold: float,
    partitioned: bool,
    symmetric: bool,
    pick: str = "similarity",
    backend: "str | SolverBackend | None" = None,
    prefilter: str = "auto",
    candidate_rows=None,
) -> MatchReport:
    """:func:`match_prepared` minus validation — for callers (the service
    layer) that already ran :func:`validate_match_options` pre-flight.

    ``candidate_rows`` are pre-computed rows for the partitioned path
    (the service's gated fast path hands them down); without them a
    label-gated ``mat`` builds its own (see :func:`_label_gate`).
    """
    pattern = closure_pattern(graph1) if symmetric else graph1
    graph2 = prepared.graph

    if candidate_rows is None:
        gate = _label_gate(mat, prefilter, metric, partitioned)
        if gate is not None:
            candidate_rows = gated_candidate_rows(gate, pattern, prepared)
    if candidate_rows is None:
        gate = label_gate_of(mat)
        if gate is not None:
            # A gated source outside the fast path (prefilter off, or a
            # non-partitioned metric) evaluates like any callable source.
            mat = gate(graph1, graph2)

    if metric == "cardinality":
        if partitioned:
            result = comp_max_card_partitioned(
                pattern, graph2, mat, xi, injective=injective, pick=pick,
                prepared=prepared, backend=backend,
                candidate_rows=candidate_rows,
                prefilter=prefilter if prefilter == "strict" else None,
            )
        elif injective:
            result = comp_max_card_injective(
                pattern, graph2, mat, xi, pick=pick, prepared=prepared,
                backend=backend,
            )
        else:
            result = comp_max_card(
                pattern, graph2, mat, xi, pick=pick, prepared=prepared,
                backend=backend,
            )
        quality = result.qual_card
    else:
        runner: Callable = comp_max_sim_injective if injective else comp_max_sim
        result = runner(
            pattern, graph2, mat, xi, pick=pick, prepared=prepared, backend=backend
        )
        quality = result.qual_sim

    return MatchReport(
        matched=quality >= threshold,
        quality=quality,
        threshold=threshold,
        metric=metric,
        result=result,
    )


def update_graph(graph2: DiGraph, shards: int | None = None) -> None:
    """Tell the serving layer ``graph2`` was mutated in place.

    Routed calls notice a mutation on their own (the content fingerprint
    misses and the cached index is *evolved* through the recorded delta
    — see :meth:`~repro.core.service.MatchingService.update_graph`);
    calling this right after mutating simply moves that work off the
    next request's serving path.  Pass the same ``shards`` you serve
    with: ``None`` refreshes the flat default service, ``N`` re-plans
    the process-wide N-shard router instead (a graph only ever served
    sharded has no flat-service index worth building).
    """
    if shards is not None:
        from repro.core.sharding import default_sharded_service

        default_sharded_service(shards).update_graph(graph2)
        return
    from repro.core.service import default_service

    default_service().update_graph(graph2)


def match(
    graph1: DiGraph,
    graph2: DiGraph,
    mat: SimilarityMatrix,
    xi: float,
    metric: str = "cardinality",
    injective: bool = False,
    threshold: float = DEFAULT_MATCH_THRESHOLD,
    partitioned: bool = False,
    symmetric: bool = False,
    pick: str = "similarity",
    prepared: PreparedDataGraph | None = None,
    backend: "str | SolverBackend | None" = None,
    shards: int | None = None,
    prefilter: str = "auto",
) -> MatchReport:
    """Match ``graph1`` (pattern) against ``graph2`` (data graph).

    Parameters
    ----------
    metric:
        ``"cardinality"`` maximises ``qualCard`` (CPH family);
        ``"similarity"`` maximises ``qualSim`` (SPH family).
    injective:
        Enforce the 1-1 constraint (CPH^{1-1} / SPH^{1-1}).
    threshold:
        Declare a match when the mapping quality reaches this value
        (paper default 0.75).
    partitioned:
        Apply the Appendix-B pattern-partitioning optimization
        (cardinality metric only).
    symmetric:
        Match ``G1⁺`` instead of ``G1`` (path-to-path semantics).
    pick:
        greedyMatch's candidate rule — ``"similarity"`` (default) or
        ``"arbitrary"``; see ``repro.core.engine.PICK_RULES``.
    backend:
        Solver mask representation — ``"python"`` (big-int reference,
        default) or ``"numpy"`` (vectorized uint64 blocks); a
        :class:`~repro.core.backends.base.SolverBackend` instance also
        works.  ``None`` defers to ``REPRO_BACKEND``.  Results are
        bit-identical across backends; only speed differs.
    prepared:
        An explicit pre-built index of ``graph2`` (bypasses the service
        cache; ``graph2`` is ignored in favour of ``prepared.graph``).
    shards:
        Route through the process-wide
        :func:`~repro.core.sharding.default_sharded_service`: ``graph2``
        is partitioned into ``shards`` closure-closed shards and the
        pattern's components are solved per shard and merged under
        Proposition 1 — the sharded equivalent of ``partitioned=True``
        (cardinality metric only), bit-identical to it at any shard
        count.  Mutually exclusive with ``prepared``.
    prefilter:
        Candidate-pruning mode (:mod:`repro.core.prefilter`) —
        ``"auto"`` (default) applies only bit-identical prunes and
        conservatively bypasses opaque similarity sources, ``"off"``
        disables the pipeline, ``"strict"`` adds sketch pair pruning
        (valid mappings, possibly lower quality — the approximate tier;
        partitioned/sharded cardinality paths only).  Pass a
        :class:`~repro.core.prefilter.LabelEqualitySimilarity` as
        ``mat`` to unlock the gated fast path.

    Without ``prepared`` the call goes through the process-wide
    :func:`~repro.core.service.default_service`, so back-to-back matches
    against the same data graph build its ``G2⁺`` index only once.
    """
    if shards is not None:
        if prepared is not None:
            raise InputError(
                "shards= routes through the sharded service; "
                "pass either shards= or prepared=, not both"
            )
        # Imported lazily: the sharding module builds on this one.
        from repro.core.sharding import default_sharded_service

        return default_sharded_service(shards).match_sharded(
            graph1,
            graph2,
            mat,
            xi,
            metric=metric,
            injective=injective,
            threshold=threshold,
            symmetric=symmetric,
            pick=pick,
            backend=backend,
            prefilter=prefilter,
        )
    if prepared is not None:
        return match_prepared(
            graph1,
            prepared,
            mat,
            xi,
            metric=metric,
            injective=injective,
            threshold=threshold,
            partitioned=partitioned,
            symmetric=symmetric,
            pick=pick,
            backend=backend,
            prefilter=prefilter,
        )
    # Imported lazily: the service module builds on this one.
    from repro.core.service import default_service

    return default_service().match(
        graph1,
        graph2,
        mat,
        xi,
        metric=metric,
        injective=injective,
        threshold=threshold,
        partitioned=partitioned,
        symmetric=symmetric,
        pick=pick,
        backend=backend,
        prefilter=prefilter,
    )
