"""The service-shaped matching core: sessions, caching, batch execution.

The north-star workload is a traffic-serving one: many patterns matched
against few, large, slowly-changing data graphs (the paper's own
web-mirror experiments of Section 6 match every archive version against
one site skeleton).  This module layers that shape on top of the
algorithms:

:class:`MatchSession`
    binds one :class:`~repro.core.prepared.PreparedDataGraph` to a
    similarity source and ξ.  Per-pattern workspaces become thin views
    over the prepared artifacts, so matching N patterns costs one
    ``G2⁺`` construction instead of N.

:class:`PreparedGraphCache`
    an LRU of prepared graphs keyed by
    :func:`~repro.graph.fingerprint.graph_fingerprint`.  Content keying
    makes invalidation automatic: mutate a graph and its next lookup is
    a miss; hand in an equal copy and it is a hit.  With a
    :class:`~repro.core.store.PreparedIndexStore` attached the cache is
    **two-tier** — memory LRU → disk store → build — so a cold process
    pointed at a pre-warmed store directory skips ``G2⁺`` construction
    entirely, and every fresh build is persisted for the next process.

:class:`MatchingService`
    the facade the CLI, :func:`repro.core.api.match` and the batch API
    route through.  Tracks :class:`ServiceStats` — cache hits/misses,
    prepare vs solve seconds — and offers :meth:`MatchingService.match_many`
    with optional :mod:`concurrent.futures` thread fan-out (the solver is
    pure Python over shared *read-only* prepared rows, so worker threads
    never contend on locks of ours; results are order-preserving and
    bit-identical to the sequential path).

A *similarity source* is either a
:class:`~repro.similarity.matrix.SimilarityMatrix` (used as-is) or a
callable ``(pattern, data) -> SimilarityMatrix`` (evaluated per pattern —
how label-equality and shingle similarities are built), so batch calls
need not precompute matrices for every pattern up front.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from copy import copy
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import Callable, Sequence

from repro.core.api import (
    DEFAULT_MATCH_THRESHOLD,
    MatchReport,
    _label_gate,
    _solve_prepared,
    closure_pattern,
    match_prepared,
    validate_match_options,
)
from repro.core.backends import SolverBackend, get_backend
from repro.core.incremental import DeltaLog
from repro.core.phom import validate_threshold
from repro.core.prefilter import gated_candidate_rows
from repro.core.prepared import PreparedDataGraph
from repro.core.store import PreparedIndexStore
from repro.core.workspace import MatchingWorkspace
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.similarity.matrix import SimilarityMatrix
from repro.utils.errors import InputError
from repro.utils.timing import Stopwatch

__all__ = [
    "SimilaritySource",
    "resolve_similarity",
    "ServiceStats",
    "PreparedGraphCache",
    "MatchSession",
    "MatchingService",
    "default_service",
    "reset_default_service",
    "match_many",
]

#: A similarity matrix, or a factory evaluated per (pattern, data) pair.
SimilaritySource = (
    SimilarityMatrix | Callable[[DiGraph, DiGraph], SimilarityMatrix]
)


def resolve_similarity(
    source: SimilaritySource, pattern: DiGraph, data: DiGraph
) -> SimilarityMatrix:
    """Materialise a similarity source for one (pattern, data) pair."""
    if isinstance(source, SimilarityMatrix):
        return source
    if not callable(source):
        raise InputError(
            f"similarity source must be a SimilarityMatrix or callable, got {source!r}"
        )
    return source(pattern, data)


def _observe(
    hook: Callable[[str, float], None] | None,
    op: str,
    seconds: float,
    charge: Callable[[float], None] | None = None,
) -> None:
    """Feed one completed call's wall-clock to a latency hook, if any.

    The service, the sharded router and the async adapter all observe
    through here, after the call's stats landed and outside every lock
    (a hook may itself snapshot stats).  ``charge`` receives the hook's
    own seconds, so a slow hook is accounted apart from the call it
    observes; a raising hook is swallowed — observability must never
    fail serving.
    """
    if hook is None:
        return
    with Stopwatch() as watch:
        try:
            hook(op, seconds)
        except Exception:
            pass
    if charge is not None:
        charge(watch.elapsed)


@dataclass
class ServiceStats:
    """Counters a service accumulates across calls (see ``snapshot``).

    Concurrency contract: every mutation happens under :attr:`lock` —
    the cache's counter bumps and the service's solve recording share
    that one lock, and :meth:`snapshot` acquires it too, so a snapshot
    taken while threaded or async fan-out is in flight is a *consistent
    cut*: it can never interleave half of one update (``calls`` bumped
    but its ``solved_by`` entry not yet, a ``solve_seconds`` figure from
    a different batch than ``batch_seconds``).  Invariant maintained by
    the service layer and asserted by the regression tests:
    ``calls == sum(solved_by.values())`` in every snapshot.
    """

    #: Individual pattern solves (one per pattern in a batch).
    calls: int = 0
    #: Prepared-index constructions (memory *and* disk both missed).
    prepares: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    #: Disk-store lookups that restored an index (two-tier cache only).
    disk_hits: int = 0
    #: Disk-store lookups that found no usable file (two-tier cache only).
    disk_misses: int = 0
    #: Disk hits served by *mapping* the store file in place instead of
    #: decoding the payload (``backend="mmap"`` services only — also
    #: counted in ``disk_hits``).
    mmap_opens: int = 0
    #: Payload bytes those mapped opens cover — what the OS may page in,
    #: not what was read; operators budget page cache against it.
    mapped_bytes: int = 0
    #: Cache misses served by *evolving* a tracked base index through a
    #: recorded :class:`~repro.core.incremental.DeltaLog` instead of a
    #: full re-prepare (see :meth:`MatchingService.update_graph`).
    delta_hits: int = 0
    #: Closure rows recomputed across every delta evolution — the work an
    #: operator compares against ``prepares`` · |V2| to see what
    #: incremental preparation saved.
    delta_nodes_recomputed: int = 0
    #: Seconds spent evolving indexes through deltas.
    delta_seconds: float = 0.0
    #: Evolved indexes persisted as compact store *delta records*
    #: (``chain=True`` services) instead of full payload rewrites.
    chain_writes: int = 0
    #: Write bytes those delta records avoided versus the full payload
    #: each would otherwise have rewritten — the chain's I/O savings.
    chain_bytes_saved: int = 0
    #: Sharded requests where a changed shard's worker *evolved* its
    #: resident index through a router-scoped delta instead of
    #: cold-preparing the shard (also counted in ``delta_hits``).
    shard_evolves: int = 0
    #: Seconds spent building prepared indexes (the amortised cost).
    prepare_seconds: float = 0.0
    #: Seconds spent solving patterns, summed per solve — a parallel
    #: batch reports the same value as the identical sequential batch.
    solve_seconds: float = 0.0
    #: Seconds spent loading prepared indexes from the disk store.
    load_seconds: float = 0.0
    #: Seconds spent persisting freshly built indexes to the disk store.
    store_seconds: float = 0.0
    #: Wall-clock seconds of ``match_many`` batches, summed **per
    #: batch** (pool time; with thread fan-out this is less than the
    #: batch's ``solve_seconds``).  Concurrent batches overlap in real
    #: time, so this sum can exceed wall-clock elapsed — normalize by
    #: :attr:`batches` for a mean per-batch wall-clock, which can not.
    batch_seconds: float = 0.0
    #: ``match_many`` batches completed — the normalizer that makes
    #: ``batch_seconds`` meaningful under concurrent batch callers.
    batches: int = 0
    #: Candidate (v, u) pairs the prefilter pipeline removed before any
    #: engine frame (strict sketch pruning; route-scoped sharded rows).
    pairs_pruned: int = 0
    #: Shards the router never consulted for a request because their
    #: label signature excluded every pattern label (sharded only).
    shards_skipped: int = 0
    #: Requests where the prefilter conservatively disengaged because
    #: the similarity source stayed opaque (bit-identity guarantee).
    filter_bypasses: int = 0
    #: Seconds spent in prefilter work (gated row construction, sketch
    #: tests) — compare against the solve/resolve time it saved.
    filter_seconds: float = 0.0
    #: Latency-hook invocations (services constructed with
    #: ``latency_hook=`` — one per observed call).
    hook_calls: int = 0
    #: Seconds spent *inside* the latency hook.  Hook overhead runs
    #: after every solve stopwatch has closed, so it lands here and
    #: never inflates ``solve_seconds``/``batch_seconds``.
    hook_seconds: float = 0.0
    #: The service's default solver backend name (``""`` until a service
    #: adopts these stats).
    backend: str = ""
    #: Solves per backend name — per-call ``backend=`` overrides mean a
    #: service can serve through several engines; operators audit which
    #: one actually answered here.
    solved_by: dict = field(default_factory=dict)
    #: The write lock every counter mutation (and ``snapshot``) holds.
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_backend(self, name: str, count: int = 1) -> None:
        """Count ``count`` solves against backend ``name``.

        The caller must hold :attr:`lock` (the service layer bundles this
        with the matching ``calls`` increment so the two stay consistent).
        """
        # repro-lint: ignore[RL002] -- documented caller-holds-lock contract
        self.solved_by[name] = self.solved_by.get(name, 0) + count

    def snapshot(self) -> dict:
        """A plain-dict copy of every field but the lock, in declaration
        order — for reports and JSON payloads.

        Taken under :attr:`lock`: concurrent ``match_many`` fan-out (or
        async serving) can never leak a torn snapshot where some fields
        include an in-flight update and others do not.
        """
        with self.lock:
            return {
                f.name: copy(getattr(self, f.name))
                for f in fields(self)
                if f.name != "lock"
            }


#: The :class:`ServiceStats` fields that count — every field but the
#: ``backend`` label and the ``lock``.  The sharded aggregate sums
#: exactly these, and repro-lint's RL002 guards them.
_COUNTERS = tuple(
    f.name for f in fields(ServiceStats) if f.name not in ("backend", "lock")
)


class PreparedGraphCache:
    """LRU cache of :class:`PreparedDataGraph`, keyed by content fingerprint.

    Fingerprint keying gives mutation safety for free: a structurally
    changed graph hashes to a new key and is re-prepared, while a
    content-equal graph instance with the same node enumeration order (a
    ``copy()``, a JSON round-trip) hits the cached index.  Enumeration
    order is part of the key on purpose — the greedy engine tie-breaks
    by node position, so serving a reordered graph from another graph's
    index would make results depend on process history.

    Mutation no longer means a cold rebuild, though: the cache attaches
    a :class:`~repro.core.incremental.DeltaLog` to every graph it
    prepares, and a miss whose graph object carries a log with a
    still-resident base entry is served by **evolving** that base
    through the recorded delta
    (:meth:`~repro.core.prepared.PreparedDataGraph.apply_delta` —
    bit-identical to a cold prepare, counted in ``delta_hits`` /
    ``delta_nodes_recomputed``).

    ``store`` attaches a :class:`~repro.core.store.PreparedIndexStore`
    as a second tier below the LRU: a memory miss first tries a disk
    load (counted in ``disk_hits``/``load_seconds``), and only a double
    miss builds — after which the fresh index is persisted best-effort
    (``store_seconds``; persistence failures are swallowed, the serving
    path never fails because a disk filled up).

    Concurrency: the LRU order and counters are guarded by a lock, but
    index *builds and disk loads* happen outside it — a cold prepare of
    a huge graph must not stall hits on other graphs (the cache sits
    behind the process-wide service every ``api.match`` call routes
    through).  Concurrent requests for one not-yet-prepared graph are
    deduplicated through a per-key in-flight
    :class:`~concurrent.futures.Future`: the first caller loads/builds,
    the rest wait on the future (counted as cache hits — they pay no
    build).
    """

    def __init__(
        self,
        max_entries: int = 8,
        stats: ServiceStats | None = None,
        store: PreparedIndexStore | None = None,
        backend: SolverBackend | None = None,
        chain: bool = False,
    ) -> None:
        if max_entries < 1:
            raise InputError(f"cache needs at least one slot, got {max_entries!r}")
        self.max_entries = max_entries
        self.stats = stats if stats is not None else ServiceStats()
        self.store = store
        #: Persist delta-evolved indexes as compact store delta records
        #: (:meth:`~repro.core.store.PreparedIndexStore.save_delta`)
        #: instead of full payload rewrites.  Off by default: chained
        #: files hydrate by replay, so operators opt in per deployment.
        self.chain = chain
        #: The owning service's default backend — when it hydrates from
        #: mapped store files (``hydrates_mapped``), disk hits become
        #: zero-copy opens instead of payload decodes.
        self.backend = backend
        self._entries: OrderedDict[str, PreparedDataGraph] = OrderedDict()
        self._building: dict[str, Future] = {}
        self._lock = threading.Lock()
        self._generation = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def clear(self) -> None:
        """Drop every cached prepared graph (counters are kept).

        Builds in flight still hand their result to their waiters, but a
        build started before ``clear()`` will not re-populate the cache
        when it completes (the generation bump below discards it).
        """
        with self._lock:
            self._entries.clear()
            self._generation += 1

    def prepared_for(
        self, graph2: DiGraph, fingerprint: str | None = None
    ) -> PreparedDataGraph:
        """The cached prepared index of ``graph2``.

        Tier order on a miss: disk store (when attached), then a fresh
        build (persisted back to the store, best-effort).  ``fingerprint``
        skips the digest computation for callers that already know it
        (the sharded router caches shard-graph fingerprints in its plan);
        it must be ``graph_fingerprint(graph2)`` — a wrong hint would
        serve another graph's index.
        """
        key = graph_fingerprint(graph2) if fingerprint is None else fingerprint
        log = DeltaLog.find(graph2, self)
        # Lock order: the cache lock (LRU structure) is always taken
        # before the stats lock, never the other way around.
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                with self.stats.lock:
                    self.stats.cache_hits += 1
                return hit
            pending = self._building.get(key)
            if pending is None:
                base = None
                if (
                    log is not None
                    and log.base_fingerprint is not None
                    and log.base_fingerprint != key
                ):
                    # The very graph object we prepared earlier has
                    # mutated: if its base index is still resident, the
                    # recorded delta can evolve it instead of a rebuild.
                    base = self._entries.get(log.base_fingerprint)
                future: Future = Future()
                self._building[key] = future
                with self.stats.lock:
                    self.stats.cache_misses += 1
                generation = self._generation
        if pending is not None:
            # Another thread is preparing this graph: wait off-lock.
            prepared = pending.result()
            with self.stats.lock:
                self.stats.cache_hits += 1
            return prepared
        try:
            prepared = self._load_or_build(key, graph2, log=log, base=base)
        except BaseException as exc:
            with self._lock:
                del self._building[key]
            future.set_exception(exc)
            raise
        with self._lock:
            if self._building.get(key) is future:
                del self._building[key]
            if generation == self._generation:  # not clear()ed meanwhile
                self._entries[key] = prepared
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    with self.stats.lock:
                        self.stats.evictions += 1
        future.set_result(prepared)
        return prepared

    def _load_or_build(
        self,
        key: str,
        graph2: DiGraph,
        log: DeltaLog | None = None,
        base: PreparedDataGraph | None = None,
    ) -> PreparedDataGraph:
        """Delta tier, mapped tier, disk tier, then build tier — off-lock.

        Tier order on a memory miss: **evolve** a still-resident base
        index through the graph's recorded delta (the cheapest path — it
        recomputes only the rows the mutations touched), then a
        **zero-copy mapped open** of the store file (mmap-capable
        backends only — no payload decode, counted in ``mmap_opens`` /
        ``mapped_bytes``), then a decoding disk load, then a cold build.
        Evolved and built indexes are both persisted best-effort, so the
        store always holds the graph's *current* fingerprint.
        """
        if base is not None and log is not None:
            evolved = self._evolve(key, graph2, log, base)
            if evolved is not None:
                return evolved
        if self.store is not None:
            mapped = self._open_mapped(key, graph2)
            if mapped is not None:
                return mapped
            with Stopwatch() as watch:
                loaded = self.store.load(key, graph2)  # any defect -> None
            if loaded is not None:
                with self.stats.lock:
                    self.stats.disk_hits += 1
                    self.stats.load_seconds += watch.elapsed
                self._track(graph2, key)
                return loaded
            with self.stats.lock:
                self.stats.disk_misses += 1
        prepared = PreparedDataGraph(graph2, fingerprint=key)
        with self.stats.lock:
            self.stats.prepares += 1
            self.stats.prepare_seconds += prepared.prepare_seconds
        self._persist(prepared)
        self._track(graph2, key)
        return prepared

    def _open_mapped(
        self, key: str, graph2: DiGraph
    ) -> PreparedDataGraph | None:
        """Zero-copy store hydration: view the file, decode nothing.

        Only runs for a cache backend that ``hydrates_mapped`` (the
        ``"mmap"`` backend): :meth:`~repro.core.store.PreparedIndexStore.payload_region`
        validates the file (header-mode — the sidecar lets repeat opens
        skip whole-file hashing), ``open_payload`` views the mask section
        over a shared mapping, and
        :meth:`~repro.core.prepared.PreparedDataGraph.from_mapped` wraps
        it without touching a mask byte.  Every defect — v1 files,
        geometry drift, a concurrent rewrite — returns ``None`` and the
        slower tiers take over; corruption degrades to a rebuild, never
        a crash.
        """
        backend = self.backend
        if backend is None or not backend.hydrates_mapped:
            return None
        with Stopwatch() as watch:
            try:
                region = self.store.payload_region(key)
                if region is None:
                    return None
                payload = backend.open_payload(region)
                prepared = PreparedDataGraph.from_mapped(
                    graph2, payload, fingerprint=key
                )
            except (ValueError, KeyError, TypeError, OSError):
                return None  # unmappable or stale file: decode tier is next
        with self.stats.lock:
            self.stats.disk_hits += 1
            self.stats.mmap_opens += 1
            self.stats.mapped_bytes += region.payload_length
            self.stats.load_seconds += watch.elapsed
        self._track(graph2, key)
        return prepared

    def _evolve(
        self, key: str, graph2: DiGraph, log: DeltaLog, base: PreparedDataGraph
    ) -> PreparedDataGraph | None:
        """Evolve ``base`` through ``log``; ``None`` defers to disk/build."""
        try:
            with Stopwatch() as watch:
                evolved = base.apply_delta(log, graph2=graph2, fingerprint=key)
        except InputError:
            return None  # stale or foreign log: the slower tiers are safe
        stats = evolved.delta_stats or {}
        if stats.get("full_rebuild"):
            # The delta was too wide to splice: an honest cold prepare
            # ran inside apply_delta — account it as one.
            with self.stats.lock:
                self.stats.prepares += 1
                self.stats.prepare_seconds += evolved.prepare_seconds
        else:
            with self.stats.lock:
                self.stats.delta_hits += 1
                self.stats.delta_nodes_recomputed += stats.get("recomputed_nodes", 0)
                self.stats.delta_seconds += watch.elapsed
        self._persist(evolved, base=base)
        log.rebase(key)
        return evolved

    def _persist(
        self, prepared: PreparedDataGraph, base: PreparedDataGraph | None = None
    ) -> None:
        """Best-effort store write (serving must not fail on a full disk).

        A ``chain=True`` cache persists a delta-evolved index as a
        compact delta record against ``base`` (the index it was evolved
        from) instead of rewriting the full payload — counted in
        ``chain_writes`` / ``chain_bytes_saved``.  ``save_delta`` refuses
        unchainable pairs (depth cap, reordered nodes, no stored base),
        in which case the full save runs and the chain depth resets —
        the depth cap *is* the periodic compaction.
        """
        if self.store is None:
            return
        try:
            with Stopwatch() as watch:
                chained = None
                if (
                    self.chain
                    and base is not None
                    and prepared.delta_stats is not None
                    and not prepared.delta_stats.get("full_rebuild")
                ):
                    chained = self.store.save_delta(base, prepared)
                if chained is None:
                    self.store.save(prepared)
        except OSError:
            pass
        else:
            with self.stats.lock:
                self.stats.store_seconds += watch.elapsed
                if chained is not None:
                    self.stats.chain_writes += 1
                    self.stats.chain_bytes_saved += chained[1]["bytes_saved"]

    def _track(self, graph2: DiGraph, key: str) -> None:
        """Attach (or rebase) this cache's delta log on ``graph2``.

        From here on the graph's mutators record into the log, so the
        *next* fingerprint miss for this graph object can evolve the
        index we just produced instead of rebuilding it.
        """
        DeltaLog.track(graph2, self, key)


class MatchSession:
    """One prepared data graph bound to a similarity source and ξ.

    The cheap way to match many patterns against one data graph: every
    :meth:`match` builds only the pattern-side workspace (similarity rows
    and pattern adjacency), reusing the session's ``G2⁺`` index.

    ``data_graph`` is the graph callable similarity sources are resolved
    against.  It defaults to ``prepared.graph``, but a cache-backed
    session passes the *caller's* graph object: fingerprints ignore node
    attrs (page contents etc.), so a cache hit may return an index
    prepared from an older, structurally identical graph whose attrs —
    which similarity functions do read — have since changed.
    """

    def __init__(
        self,
        prepared: PreparedDataGraph,
        similarity: SimilaritySource,
        xi: float,
        data_graph: DiGraph | None = None,
        service: "MatchingService | None" = None,
        backend: "str | SolverBackend | None" = None,
    ) -> None:
        validate_threshold(xi)
        self.prepared = prepared
        self.similarity = similarity
        self.xi = xi
        #: The solver backend this session's solves run on (inherits the
        #: service's default, then the process default).
        if backend is None and service is not None:
            self.backend = service.backend
        else:
            self.backend = get_backend(backend)
        #: The data graph the session serves (similarity-resolution view).
        self.data_graph = prepared.graph if data_graph is None else data_graph
        #: The service whose stats this session's solves count toward.
        self.service = service
        #: Patterns solved through this session (sequential paths only).
        self.patterns_matched = 0

    def matrix_for(self, graph1: DiGraph) -> SimilarityMatrix:
        """The session's similarity matrix for one pattern."""
        return resolve_similarity(self.similarity, graph1, self.data_graph)

    def workspace(self, graph1: DiGraph) -> MatchingWorkspace:
        """A pattern workspace as a thin view over the prepared index."""
        return MatchingWorkspace(
            graph1, self.data_graph, self.matrix_for(graph1), self.xi,
            prepared=self.prepared, backend=self.backend,
        )

    def match(
        self,
        graph1: DiGraph,
        metric: str = "cardinality",
        injective: bool = False,
        threshold: float = DEFAULT_MATCH_THRESHOLD,
        partitioned: bool = False,
        symmetric: bool = False,
        pick: str = "similarity",
        prefilter: str = "auto",
    ) -> MatchReport:
        """Match one pattern; parameters as in :func:`repro.core.api.match`.

        A service-backed session takes the service's own request path
        (:meth:`MatchingService.match` minus the cache lookup), so its
        solves, prefilter work and hook observations count exactly like
        the service's.  A standalone session solves against its index
        with the resolved matrix and records nothing.
        """
        options = dict(
            metric=metric, injective=injective, threshold=threshold,
            partitioned=partitioned, symmetric=symmetric, pick=pick,
            prefilter=prefilter,
        )
        if self.service is None:
            report = match_prepared(
                graph1, self.prepared, self.matrix_for(graph1), self.xi,
                backend=self.backend, **options,
            )
        else:
            (report,) = self.service._serve(
                [graph1], self.data_graph, self.similarity, self.xi,
                self.backend, options, prepared=self.prepared,
            )
        self.patterns_matched += 1
        return report


class MatchingService:
    """Cached, stat-tracking, batch-capable matching facade.

    ``max_prepared`` bounds the LRU of prepared data graphs (each costs
    ~|V2|²/8 bytes of bitmask rows).  ``store`` (an existing
    :class:`~repro.core.store.PreparedIndexStore`) or ``store_dir`` (a
    directory path, from which one is built) opt into the persistent
    second cache tier — see :class:`PreparedGraphCache`.  ``chain=True``
    persists delta-evolved indexes as compact store delta records
    instead of full payload rewrites (high-churn streaming graphs; see
    :meth:`~repro.core.store.PreparedIndexStore.save_delta`).

    ``latency_hook`` is an optional ``(op, seconds) -> None`` callable
    observed after every completed request — ``op`` is ``"match"``,
    ``"batch"`` or ``"update"`` and ``seconds`` the call's wall-clock
    from entry: validation, tier lookup, hydration, delta evolution,
    the prefilter, similarity resolution and the solve.  Inside a batch
    each pattern's ``"match"`` times its own gate, resolve and solve,
    and the ``"batch"`` times the whole call.  It is how the load
    harness (:mod:`repro.workload`) collects per-call latency without
    wrapping call sites.  The hook runs *after* every timing stopwatch
    and stats update has completed, so its own overhead is charged to
    ``hook_seconds`` only; a raising hook is swallowed (observability
    must never fail serving).
    """

    def __init__(
        self,
        max_prepared: int = 8,
        store: PreparedIndexStore | None = None,
        store_dir: str | None = None,
        backend: "str | SolverBackend | None" = None,
        chain: bool = False,
        latency_hook: Callable[[str, float], None] | None = None,
    ) -> None:
        if store is not None and store_dir is not None:
            raise InputError("pass either store= or store_dir=, not both")
        if store_dir is not None:
            store = PreparedIndexStore(store_dir)
        #: Default solver backend for every solve this service runs
        #: (per-call ``backend=`` overrides win); resolved eagerly so a
        #: misconfigured service fails at construction, not under load.
        self.backend: SolverBackend = get_backend(backend)
        self.stats = ServiceStats(backend=self.backend.name)
        self.latency_hook = latency_hook
        self.cache = PreparedGraphCache(
            max_prepared, stats=self.stats, store=store, backend=self.backend,
            chain=chain,
        )

    @property
    def store(self) -> PreparedIndexStore | None:
        """The disk tier, if one is attached."""
        return self.cache.store

    def prepared_for(
        self, graph2: DiGraph, fingerprint: str | None = None
    ) -> PreparedDataGraph:
        """The (cached) prepared index of ``graph2``.

        ``fingerprint`` is an optional precomputed digest hint — see
        :meth:`PreparedGraphCache.prepared_for`.
        """
        return self.cache.prepared_for(graph2, fingerprint=fingerprint)

    def update_graph(self, graph2: DiGraph) -> PreparedDataGraph:
        """Bring the cached index of a *mutated* ``graph2`` up to date.

        Every graph this service prepares gets a
        :class:`~repro.core.incremental.DeltaLog` attached, so when the
        graph mutates in place the next request **evolves** the cached
        index — recomputing only the closure rows the delta touched —
        instead of rebuilding it from scratch (counted in
        ``stats.delta_hits`` / ``delta_nodes_recomputed``; a too-wide
        delta degrades to one honest ``prepares``).  That happens lazily
        on the next :meth:`match` anyway; calling ``update_graph`` right
        after mutating moves the work off the serving path and returns
        the evolved index (persisted to the disk tier, when one is
        attached, under the graph's new fingerprint).
        """
        with Stopwatch() as watch:
            prepared = self.cache.prepared_for(graph2)
        _observe(self.latency_hook, "update", watch.elapsed, self._charge_hook)
        return prepared

    def _charge_hook(self, seconds: float) -> None:
        """Account one latency-hook call's own overhead."""
        with self.stats.lock:
            self.stats.hook_calls += 1
            self.stats.hook_seconds += seconds

    def _serve(
        self,
        patterns: list[DiGraph],
        graph2: DiGraph,
        mat: SimilaritySource,
        xi: float,
        backend: "str | SolverBackend | None",
        options: dict,
        prepared: PreparedDataGraph | None = None,
        max_workers: int | None = None,
        batch: bool = False,
    ) -> list[MatchReport]:
        """The flat request path every match, batch and session solve takes.

        Validate pre-flight (a bad option must not cost a prepare), look
        up the index (``prepared`` skips this: sessions hold theirs),
        then per pattern: the prefilter's gated rows (see
        :func:`~repro.core.api._label_gate`) or the resolved similarity
        matrix, and the solve.  One stats update records the lot, then
        the latency hook observes.  ``options`` are the solve options of
        :func:`~repro.core.api.match`, ``metric`` through ``prefilter``.

        Stats: ``solve_seconds`` sums the per-solve times (a parallel
        batch reports what the sequential one does), gated row
        construction lands in ``filter_seconds`` and a disengaged
        prefilter bumps ``filter_bypasses`` per pattern.  A ``batch``
        also adds the fan-out's wall-clock to ``batch_seconds``.
        """
        started = perf_counter()
        solver = self.backend if backend is None else get_backend(backend)
        metric, partitioned = options["metric"], options["partitioned"]
        prefilter = options["prefilter"]
        validate_match_options(
            metric, options["threshold"], xi, partitioned, options["pick"],
            backend=solver, prefilter=prefilter,
        )
        index = self.prepared_for(graph2) if prepared is None else prepared
        gate = _label_gate(mat, prefilter, metric, partitioned)

        def solve(graph1: DiGraph) -> tuple[MatchReport, float, float, float]:
            path_started = perf_counter()
            rows = None
            filtered = 0.0
            if gate is not None:
                with Stopwatch() as filter_watch:
                    pattern = closure_pattern(graph1) if options["symmetric"] else graph1
                    rows = gated_candidate_rows(gate, pattern, index)
                filtered = filter_watch.elapsed
            with Stopwatch() as watch:  # resolving the source counts as solving
                source = mat if rows is not None else resolve_similarity(mat, graph1, graph2)
                report = _solve_prepared(
                    graph1, index, source, xi, backend=solver,
                    candidate_rows=rows, **options,
                )
            return report, watch.elapsed, filtered, perf_counter() - path_started

        with Stopwatch() as fan_out:
            if max_workers is not None and max_workers > 1 and len(patterns) > 1:
                with ThreadPoolExecutor(max_workers=max_workers) as pool:
                    solved = list(pool.map(solve, patterns))
            else:
                solved = [solve(graph1) for graph1 in patterns]
        with self.stats.lock:
            self.stats.calls += len(solved)
            self.stats.record_backend(solver.name, len(solved))
            for report, solve_seconds, filter_seconds, _ in solved:
                self.stats.solve_seconds += solve_seconds
                self.stats.filter_seconds += filter_seconds
                self.stats.pairs_pruned += report.result.stats.get("pairs_pruned", 0)
            if gate is None and prefilter != "off":
                self.stats.filter_bypasses += len(solved)
            if batch:
                # Summed per batch: concurrent match_many callers overlap
                # in real time, so only batch_seconds / batches (the mean
                # per-batch wall-clock) is comparable to elapsed time.
                self.stats.batch_seconds += fan_out.elapsed
                self.stats.batches += 1
        if batch:
            for _, _, _, path_seconds in solved:
                _observe(self.latency_hook, "match", path_seconds, self._charge_hook)
        _observe(
            self.latency_hook, "batch" if batch else "match",
            perf_counter() - started, self._charge_hook,
        )
        return [report for report, *_ in solved]

    def session(
        self,
        graph2: DiGraph,
        similarity: SimilaritySource,
        xi: float,
        backend: "str | SolverBackend | None" = None,
    ) -> MatchSession:
        """Open a session against ``graph2`` (preparing it if needed).

        Solves through the session count toward this service's stats;
        ``backend`` overrides the service's solver backend for the
        session's lifetime.
        """
        return MatchSession(
            self.prepared_for(graph2), similarity, xi, data_graph=graph2,
            service=self, backend=self.backend if backend is None else backend,
        )

    def match(
        self,
        graph1: DiGraph,
        graph2: DiGraph,
        mat: SimilaritySource,
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
        """One pattern against one data graph, through the prepared cache."""
        (report,) = self._serve(
            [graph1], graph2, mat, xi, backend,
            dict(
                metric=metric, injective=injective, threshold=threshold,
                partitioned=partitioned, symmetric=symmetric, pick=pick,
                prefilter=prefilter,
            ),
        )
        return report

    def match_many(
        self,
        patterns: Sequence[DiGraph],
        graph2: DiGraph,
        mat: SimilaritySource,
        xi: float,
        metric: str = "cardinality",
        injective: bool = False,
        threshold: float = DEFAULT_MATCH_THRESHOLD,
        partitioned: bool = False,
        symmetric: bool = False,
        pick: str = "similarity",
        max_workers: int | None = None,
        backend: "str | SolverBackend | None" = None,
        prefilter: str = "auto",
    ) -> list[MatchReport]:
        """Match every pattern against one data graph, preparing it once.

        Reports come back in pattern order.  ``max_workers > 1`` fans the
        (independent, read-only-shared) solves out over a thread pool;
        the results are identical to the sequential path.  Stats:
        ``solve_seconds`` accumulates the *sum of per-solve times* (so a
        parallel batch reports the same figure as the sequential one),
        while the pool's wall-clock lands in ``batch_seconds``.
        """
        return self._serve(
            list(patterns), graph2, mat, xi, backend,
            dict(
                metric=metric, injective=injective, threshold=threshold,
                partitioned=partitioned, symmetric=symmetric, pick=pick,
                prefilter=prefilter,
            ),
            max_workers=max_workers,
            batch=True,
        )


_default_service: MatchingService | None = None
_default_service_lock = threading.Lock()


def default_service() -> MatchingService:
    """The process-wide service :func:`repro.core.api.match` routes through.

    Its cache pins up to ``max_prepared`` (default 8) data graphs and
    their O(|V2|²/8)-byte bitmask indexes for the life of the process.
    One-shot callers matching against a huge graph who do not want that
    retention can bypass the cache entirely with
    ``match(..., prepared=prepare_data_graph(graph2))`` or drop it
    afterwards via :func:`reset_default_service`.
    """
    global _default_service
    with _default_service_lock:
        if _default_service is None:
            _default_service = MatchingService()
        return _default_service


def reset_default_service(
    max_prepared: int = 8,
    store: PreparedIndexStore | None = None,
    store_dir: str | None = None,
    backend: "str | SolverBackend | None" = None,
) -> MatchingService:
    """Replace the process-wide service, releasing every cached index.

    Returns the fresh service; ``max_prepared`` resizes its LRU,
    ``store``/``store_dir`` attach a persistent index store so every
    subsequent :func:`repro.core.api.match` call reads through (and
    warms) the disk tier, and ``backend`` sets the default solver
    backend for every routed call.
    """
    global _default_service
    with _default_service_lock:
        _default_service = MatchingService(
            max_prepared=max_prepared, store=store, store_dir=store_dir,
            backend=backend,
        )
        return _default_service


def match_many(
    patterns: Sequence[DiGraph],
    graph2: DiGraph,
    mat: SimilaritySource,
    xi: float,
    **options,
) -> list[MatchReport]:
    """Batch :func:`repro.core.api.match` through the default service."""
    return default_service().match_many(patterns, graph2, mat, xi, **options)
