"""Tests for the prepared-index / session / service layer.

Covers the contracts the refactor rests on: a reused prepared index
changes *nothing* about the outputs (bit-identical reports modulo
wall-clock stats), the LRU cache hits/evicts/invalidates correctly, and
``match_many`` is order-preserving and parallel-equivalent while
preparing the data graph exactly once.
"""

from __future__ import annotations

import random

import pytest

from helpers import make_random_instance
from repro.core.api import match, match_prepared
from repro.core.comp_max_card import comp_max_card, comp_max_card_injective
from repro.core.comp_max_sim import comp_max_sim
from repro.core.optimize import comp_max_card_partitioned
from repro.core.prepared import PreparedDataGraph, prepare_data_graph
from repro.core.service import (
    MatchingService,
    MatchSession,
    PreparedGraphCache,
    resolve_similarity,
)
from repro.core.workspace import MatchingWorkspace
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators import random_digraph
from repro.similarity.labels import label_equality_matrix
from repro.similarity.matrix import SimilarityMatrix
from repro.utils.errors import InputError

#: Stats keys that legitimately differ between a cold and a warm run.
TIMING_KEYS = ("elapsed_seconds",)


def comparable(report):
    """Everything in a MatchReport except wall-clock noise."""
    stats = {k: v for k, v in report.result.stats.items() if k not in TIMING_KEYS}
    return (
        report.matched,
        report.quality,
        report.threshold,
        report.metric,
        report.result.mapping,
        report.result.qual_card,
        report.result.qual_sim,
        report.result.injective,
        stats,
    )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_copy_and_roundtrip_stable(self):
        a = DiGraph.from_edges([("x", "y"), ("y", "z")])
        assert graph_fingerprint(a) == graph_fingerprint(a.copy())
        assert graph_fingerprint(a) == graph_fingerprint(a)

    def test_insertion_order_sensitive(self):
        """Node enumeration order feeds the greedy tie-break, so reordered
        content-equal graphs must not alias one prepared index — keeping
        ``match()`` a pure function of its inputs."""
        a = DiGraph.from_edges([("x", "y"), ("y", "z")])
        b = DiGraph()
        b.add_node("z")
        b.add_edge("y", "z")
        b.add_edge("x", "y")
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_successor_set_order_irrelevant(self):
        """Head-set iteration order never influences a result, so edges
        added in a different order (same tails) fingerprint identically."""
        a = DiGraph.from_edges([("x", "y"), ("x", "z"), ("x", "w")])
        b = DiGraph()
        for node in ("x", "y", "z", "w"):
            b.add_node(node)
        for head in ("w", "y", "z"):
            b.add_edge("x", head)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_sensitive_to_edges_labels_weights(self):
        base = DiGraph.from_edges([("x", "y")])
        prints = {graph_fingerprint(base)}

        with_edge = base.copy()
        with_edge.add_edge("y", "x")
        prints.add(graph_fingerprint(with_edge))

        with_label = base.copy()
        with_label.set_label("x", "other")
        prints.add(graph_fingerprint(with_label))

        with_weight = base.copy()
        with_weight.set_weight("x", 2.0)
        prints.add(graph_fingerprint(with_weight))

        with_node = base.copy()
        with_node.add_node("lonely")
        prints.add(graph_fingerprint(with_node))

        assert len(prints) == 5

    def test_name_and_attrs_ignored(self):
        a = DiGraph.from_edges([("x", "y")], name="first")
        b = DiGraph.from_edges([("x", "y")], name="second")
        b.attrs("x")["content"] = "megabytes of page text"
        assert graph_fingerprint(a) == graph_fingerprint(b)


# ----------------------------------------------------------------------
# PreparedDataGraph + workspace-as-view
# ----------------------------------------------------------------------
class TestPreparedDataGraph:
    def test_matches_workspace_artifacts(self):
        _, g2, _ = make_random_instance(3, n2=12)
        prepared = prepare_data_graph(g2)
        cold = MatchingWorkspace(DiGraph(), g2, SimilarityMatrix(), 0.5)
        assert prepared.nodes2 == cold.nodes2
        assert prepared.from_mask == cold.from_mask
        assert prepared.to_mask == cold.to_mask
        assert prepared.cycle_mask == cold.cycle_mask

    def test_workspace_shares_prepared_rows(self):
        g1, g2, mat = make_random_instance(4)
        prepared = prepare_data_graph(g2)
        workspace = MatchingWorkspace(g1, None, mat, 0.5, prepared=prepared)
        assert workspace.from_mask is prepared.from_mask
        assert workspace.to_mask is prepared.to_mask
        assert workspace.index2 is prepared.index2
        assert workspace.graph2 is g2

    def test_workspace_needs_graph_or_prepared(self):
        with pytest.raises(InputError):
            MatchingWorkspace(DiGraph(), None, SimilarityMatrix(), 0.5)

    def test_workspace_rejects_mismatched_prepared(self):
        _, g2, _ = make_random_instance(5)
        prepared = prepare_data_graph(g2)
        other = DiGraph.from_edges([("only", "two")])
        with pytest.raises(InputError):
            MatchingWorkspace(DiGraph(), other, SimilarityMatrix(), 0.5, prepared=prepared)

    def test_lazy_fingerprint(self):
        _, g2, _ = make_random_instance(6)
        prepared = PreparedDataGraph(g2)
        assert prepared._fingerprint is None
        assert prepared.fingerprint == graph_fingerprint(g2)

    def test_closure_size_agrees_with_reachability(self):
        from repro.graph.closure import ReachabilityIndex

        _, g2, _ = make_random_instance(7, n2=10)
        prepared = prepare_data_graph(g2)
        assert prepared.closure_size() == ReachabilityIndex(g2).closure_size()


# ----------------------------------------------------------------------
# Prepared reuse is invisible in the outputs
# ----------------------------------------------------------------------
class TestPreparedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_comp_max_card_identical(self, seed):
        g1, g2, mat = make_random_instance(seed)
        prepared = prepare_data_graph(g2)
        cold = comp_max_card(g1, g2, mat, 0.5)
        warm = comp_max_card(g1, g2, mat, 0.5, prepared=prepared)
        assert cold.mapping == warm.mapping
        assert cold.qual_card == warm.qual_card
        assert cold.qual_sim == warm.qual_sim

    @pytest.mark.parametrize("runner", [
        comp_max_card,
        comp_max_card_injective,
        comp_max_sim,
    ])
    def test_all_runners_accept_prepared(self, runner):
        g1, g2, mat = make_random_instance(11)
        prepared = prepare_data_graph(g2)
        cold = runner(g1, g2, mat, 0.4)
        warm = runner(g1, g2, mat, 0.4, prepared=prepared)
        assert cold.mapping == warm.mapping

    def test_partitioned_accepts_prepared(self):
        g1, g2, mat = make_random_instance(12)
        prepared = prepare_data_graph(g2)
        cold = comp_max_card_partitioned(g1, g2, mat, 0.4, injective=True)
        warm = comp_max_card_partitioned(
            g1, g2, mat, 0.4, injective=True, prepared=prepared
        )
        assert cold.mapping == warm.mapping

    @pytest.mark.parametrize("options", [
        {},
        {"injective": True},
        {"metric": "similarity"},
        {"metric": "similarity", "injective": True},
        {"partitioned": True},
        {"symmetric": True},
    ])
    def test_match_reports_bit_identical(self, options):
        g1, g2, mat = make_random_instance(13, n1=6, n2=9)
        prepared = prepare_data_graph(g2)
        cold = match_prepared(g1, prepare_data_graph(g2), mat, 0.4, **options)
        warm = match(g1, g2, mat, 0.4, prepared=prepared, **options)
        assert comparable(cold) == comparable(warm)


# ----------------------------------------------------------------------
# The LRU cache
# ----------------------------------------------------------------------
class TestPreparedGraphCache:
    def test_hit_and_miss_counters(self):
        cache = PreparedGraphCache(max_entries=4)
        _, g2, _ = make_random_instance(20)
        first = cache.prepared_for(g2)
        second = cache.prepared_for(g2)
        assert first is second
        assert cache.stats.prepares == 1
        assert cache.stats.cache_misses == 1
        assert cache.stats.cache_hits == 1

    def test_content_equal_copy_hits(self):
        cache = PreparedGraphCache(max_entries=4)
        _, g2, _ = make_random_instance(21)
        prepared = cache.prepared_for(g2)
        assert cache.prepared_for(g2.copy()) is prepared
        assert cache.stats.prepares == 1

    def test_mutation_invalidates(self):
        """A mutation must never serve the stale index — since the
        delta-evolution PR the fresh one is *evolved*, not rebuilt."""
        cache = PreparedGraphCache(max_entries=4)
        g2 = DiGraph.from_edges([("a", "b"), ("b", "c")])
        before = cache.prepared_for(g2)
        g2.add_edge("c", "a")  # now a cycle: reachability genuinely changes
        after = cache.prepared_for(g2)
        assert after is not before
        assert cache.stats.prepares == 1  # the evolved index cost no rebuild
        assert cache.stats.delta_hits == 1
        assert cache.stats.cache_misses == 2
        assert after.cycle_mask != 0
        assert before.cycle_mask == 0
        cold = PreparedDataGraph(g2)
        assert after.from_mask == cold.from_mask
        assert after.to_mask == cold.to_mask
        assert after.cycle_mask == cold.cycle_mask

    def test_mutation_of_untracked_copy_still_rebuilds(self):
        """Only the very graph *object* the cache served carries a delta
        log; an equal copy mutated elsewhere pays a normal prepare."""
        cache = PreparedGraphCache(max_entries=4)
        g2 = DiGraph.from_edges([("a", "b"), ("b", "c")])
        cache.prepared_for(g2)
        other = g2.copy()  # copies never inherit delta logs
        other.add_edge("c", "a")
        cache.prepared_for(other)
        assert cache.stats.prepares == 2
        assert cache.stats.delta_hits == 0

    def test_lru_eviction(self):
        cache = PreparedGraphCache(max_entries=2)
        graphs = [random_digraph(6, 8, random.Random(seed)) for seed in range(3)]
        for graph in graphs:
            cache.prepared_for(graph)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # graphs[0] was evicted: asking again re-prepares it.
        cache.prepared_for(graphs[0])
        assert cache.stats.prepares == 4

    def test_recently_used_survives(self):
        cache = PreparedGraphCache(max_entries=2)
        a = random_digraph(6, 8, random.Random(0))
        b = random_digraph(6, 8, random.Random(1))
        c = random_digraph(6, 8, random.Random(2))
        kept = cache.prepared_for(a)
        cache.prepared_for(b)
        cache.prepared_for(a)  # refresh a: b becomes least-recent
        cache.prepared_for(c)  # evicts b
        assert cache.prepared_for(a) is kept
        assert cache.stats.prepares == 3  # a, b, c — never a again

    def test_rejects_zero_capacity(self):
        with pytest.raises(InputError):
            PreparedGraphCache(max_entries=0)

    def test_concurrent_cold_requests_build_once_without_blocking_others(self):
        """A slow cold prepare must not stall hits on other graphs, and
        concurrent requests for the same cold graph must build it once."""
        import threading
        import time

        slow = DiGraph.from_edges([("s1", "s2"), ("s2", "s3")])
        other = DiGraph.from_edges([("o1", "o2")])
        cache = PreparedGraphCache(max_entries=4)
        cached_other = cache.prepared_for(other)

        release = threading.Event()
        original_init = PreparedDataGraph.__init__

        def stalling_init(self, graph2, fingerprint=None):
            if graph2 is slow:
                release.wait(timeout=5.0)
            original_init(self, graph2, fingerprint=fingerprint)

        results = []
        hit_latency = []

        def build_slow():
            results.append(cache.prepared_for(slow))

        try:
            PreparedDataGraph.__init__ = stalling_init
            builders = [threading.Thread(target=build_slow) for _ in range(3)]
            for thread in builders:
                thread.start()
            time.sleep(0.05)  # let the first builder enter the stalled build
            # A hit on a *different* graph must not wait for the build.
            start = time.perf_counter()
            assert cache.prepared_for(other) is cached_other
            hit_latency.append(time.perf_counter() - start)
            release.set()
            for thread in builders:
                thread.join(timeout=5.0)
        finally:
            PreparedDataGraph.__init__ = original_init
            release.set()

        assert len(results) == 3
        assert all(prepared is results[0] for prepared in results)
        # Exactly one build of `slow` (plus the earlier `other`).
        assert cache.stats.prepares == 2
        assert hit_latency[0] < 1.0  # served while the slow build stalled

    def test_clear_during_inflight_build_stays_cleared(self):
        """A build that completes after clear() must not re-populate the
        cache the caller just emptied (it still serves its waiters)."""
        import threading

        graph = DiGraph.from_edges([("a", "b")])
        cache = PreparedGraphCache(max_entries=4)

        in_build = threading.Event()
        release = threading.Event()
        original_init = PreparedDataGraph.__init__

        def stalling_init(self, graph2, fingerprint=None):
            in_build.set()
            release.wait(timeout=5.0)
            original_init(self, graph2, fingerprint=fingerprint)

        results = []
        try:
            PreparedDataGraph.__init__ = stalling_init
            builder = threading.Thread(
                target=lambda: results.append(cache.prepared_for(graph))
            )
            builder.start()
            assert in_build.wait(timeout=5.0)
            cache.clear()  # caller wants the memory back
            release.set()
            builder.join(timeout=5.0)
        finally:
            PreparedDataGraph.__init__ = original_init
            release.set()

        assert len(results) == 1  # the builder still got its index
        assert len(cache) == 0  # ...but the cleared cache stayed empty
        cache.prepared_for(graph)
        assert cache.stats.prepares == 2  # next request re-prepares


# ----------------------------------------------------------------------
# Sessions and the service
# ----------------------------------------------------------------------
class TestMatchSession:
    def test_session_matches_equal_cold(self):
        g1, g2, mat = make_random_instance(30, n1=6, n2=9)
        session = MatchSession(prepare_data_graph(g2), mat, 0.4)
        for _ in range(3):
            warm = session.match(g1)
            cold = match_prepared(g1, prepare_data_graph(g2), mat, 0.4)
            assert comparable(warm) == comparable(cold)
        assert session.patterns_matched == 3

    def test_similarity_source_callable(self):
        g1, g2, _ = make_random_instance(31)
        session = MatchSession(prepare_data_graph(g2), label_equality_matrix, 0.5)
        built = session.matrix_for(g1)
        explicit = label_equality_matrix(g1, g2)
        assert sorted(built.pairs()) == sorted(explicit.pairs())

    def test_resolve_similarity_rejects_garbage(self):
        g1, g2, _ = make_random_instance(32)
        with pytest.raises(InputError):
            resolve_similarity("not a matrix", g1, g2)


class TestMatchingService:
    def test_match_through_service_hits_cache(self):
        g1, g2, mat = make_random_instance(40)
        service = MatchingService()
        first = service.match(g1, g2, mat, 0.4)
        second = service.match(g1, g2, mat, 0.4)
        assert comparable(first) == comparable(second)
        assert service.stats.prepares == 1
        assert service.stats.cache_hits == 1
        assert service.stats.calls == 2
        assert service.stats.solve_seconds >= 0.0

    def test_match_many_prepares_once_and_preserves_order(self):
        rng = random.Random(99)
        data = random_digraph(60, 180, rng, name="data")
        data_nodes = list(data.nodes())
        patterns = [
            data.subgraph(rng.sample(data_nodes, 6), name=f"p{i}")
            for i in range(12)
        ]
        service = MatchingService()
        reports = service.match_many(patterns, data, label_equality_matrix, 0.5)
        assert len(reports) == 12
        assert service.stats.prepares == 1
        assert service.stats.calls == 12
        # Order preserved: report i is pattern i's (label-equality maps
        # each sampled node to its namesake, so qualities are per-pattern).
        colds = [
            match_prepared(p, service.prepared_for(data), label_equality_matrix(p, data), 0.5)
            for p in patterns
        ]
        assert [comparable(r) for r in reports] == [comparable(c) for c in colds]

    def test_match_many_parallel_equivalent(self):
        rng = random.Random(7)
        data = random_digraph(40, 120, rng, name="data")
        data_nodes = list(data.nodes())
        patterns = [
            data.subgraph(rng.sample(data_nodes, 5), name=f"p{i}")
            for i in range(10)
        ]
        sequential = MatchingService().match_many(
            patterns, data, label_equality_matrix, 0.5
        )
        parallel = MatchingService().match_many(
            patterns, data, label_equality_matrix, 0.5, max_workers=4
        )
        assert [comparable(r) for r in sequential] == [comparable(r) for r in parallel]

    def test_api_match_routes_through_default_service(self):
        from repro.core.service import default_service

        g1, g2, mat = make_random_instance(41)
        baseline = default_service().stats.calls
        match(g1, g2, mat, 0.4)
        assert default_service().stats.calls == baseline + 1

    def test_reset_default_service(self):
        from repro.core.service import default_service, reset_default_service

        g1, g2, mat = make_random_instance(43)
        match(g1, g2, mat, 0.4)
        fresh = reset_default_service(max_prepared=2)
        assert default_service() is fresh
        assert fresh.stats.calls == 0
        assert len(fresh.cache) == 0
        assert fresh.cache.max_entries == 2
        reset_default_service()  # restore the default shape for other tests

    def test_concurrent_match_through_shared_service(self):
        """The global-cache path must survive concurrent callers: distinct
        graphs churning a 2-slot LRU from many threads (the raciest shape:
        hits, misses and evictions interleaving)."""
        from concurrent.futures import ThreadPoolExecutor

        instances = [make_random_instance(seed, n2=10) for seed in range(6)]
        service = MatchingService(max_prepared=2)

        def worker(idx):
            g1, g2, mat = instances[idx % len(instances)]
            return service.match(g1, g2, mat, 0.4)

        with ThreadPoolExecutor(max_workers=8) as pool:
            reports = list(pool.map(worker, range(48)))
        assert len(reports) == 48
        assert service.stats.calls == 48
        assert (
            service.stats.cache_hits + service.stats.cache_misses == 48
        )  # no lost updates
        # Every thread's report matches its instance's cold solve.
        for idx in range(len(instances)):
            g1, g2, mat = instances[idx]
            cold = match_prepared(g1, prepare_data_graph(g2), mat, 0.4)
            assert comparable(reports[idx]) == comparable(cold)

    def test_session_resolves_similarity_against_callers_graph(self):
        """Fingerprints ignore attrs, so a cache hit may serve an index
        prepared from an older graph object; callable similarity sources
        must still see the *caller's* graph (whose attrs they read)."""
        old = DiGraph.from_edges([("x", "y")])
        old.attrs("x")["content"] = "old text"
        new = DiGraph.from_edges([("x", "y")])
        new.attrs("x")["content"] = "new text"
        assert graph_fingerprint(old) == graph_fingerprint(new)

        seen = []

        def spy_similarity(pattern, data):
            seen.append(data)
            return label_equality_matrix(pattern, data)

        service = MatchingService()
        service.prepared_for(old)  # cache the index built from `old`
        session = service.session(new, spy_similarity, 0.5)
        assert session.prepared.graph is old  # cache hit, stale object
        assert session.data_graph is new
        pattern = DiGraph.from_edges([("x", "y")])
        session.match(pattern)
        session.workspace(pattern)
        service.match(pattern, new, spy_similarity, 0.5)
        service.match_many([pattern], new, spy_similarity, 0.5)
        assert seen and all(graph is new for graph in seen)

    def test_session_factory_uses_cache(self):
        _, g2, mat = make_random_instance(42)
        service = MatchingService()
        one = service.session(g2, mat, 0.5)
        two = service.session(g2, mat, 0.5)
        assert one.prepared is two.prepared
        assert service.stats.prepares == 1

    def test_session_solves_count_toward_service_stats(self):
        g1, g2, mat = make_random_instance(44)
        service = MatchingService()
        session = service.session(g2, mat, 0.4)
        session.match(g1)
        session.match(g1)
        assert session.patterns_matched == 2
        assert service.stats.calls == 2
        assert service.stats.solve_seconds >= 0.0
        # A standalone session (no service) still tracks its own counter.
        bare = MatchSession(prepare_data_graph(g2), mat, 0.4)
        bare.match(g1)
        assert bare.patterns_matched == 1

    def test_bad_options_rejected_before_preparing(self):
        """A typo'd metric or bad threshold must not cost (or cache) a
        G2+ construction."""
        g1, g2, mat = make_random_instance(45)
        service = MatchingService()
        with pytest.raises(InputError):
            service.match(g1, g2, mat, 0.4, metric="similrity")
        with pytest.raises(InputError):
            service.match_many([g1], g2, mat, 0.4, threshold=1.5)
        with pytest.raises(InputError):
            service.match(g1, g2, mat, -0.1)
        assert service.stats.prepares == 0
        assert len(service.cache) == 0


# ----------------------------------------------------------------------
# Solve-time accounting: per-solve sums, not pool wall-clock
# ----------------------------------------------------------------------
class TestSolveSecondsAccounting:
    #: Per-solve sleep injected through the similarity callable (the
    #: service resolves it inside the timed solve).
    NAP = 0.03

    def slow_similarity(self, pattern, data):
        import time

        time.sleep(self.NAP)
        return label_equality_matrix(pattern, data)

    def batch(self, max_workers):
        g2 = DiGraph.from_edges([("x", "m"), ("m", "y")])
        patterns = [DiGraph.from_edges([("x", "y")], name=f"p{i}") for i in range(4)]
        service = MatchingService()
        service.match_many(
            patterns, g2, self.slow_similarity, 0.5, max_workers=max_workers
        )
        return service.stats

    def test_parallel_solve_seconds_match_sequential(self):
        """Regression: threaded batches used to record pool wall-clock as
        solve_seconds, under-reporting against the sequential batch."""
        floor = 4 * self.NAP  # 4 solves, each at least one nap long
        sequential = self.batch(max_workers=None)
        parallel = self.batch(max_workers=4)
        assert sequential.solve_seconds >= floor
        assert parallel.solve_seconds >= floor  # the old code reported ~1 nap

    def test_batch_seconds_is_the_pool_wall_clock(self):
        sequential = self.batch(max_workers=None)
        assert sequential.batch_seconds >= 4 * self.NAP
        parallel = self.batch(max_workers=4)
        # Four 30ms naps across four threads: the wall-clock must come in
        # well under the per-solve sum (the gap the old stat conflated).
        assert parallel.batch_seconds < parallel.solve_seconds
        assert parallel.batch_seconds < 3 * self.NAP
        assert "batch_seconds" in sequential.snapshot()

    def test_single_match_does_not_touch_batch_seconds(self):
        g1, g2, mat = make_random_instance(21)
        service = MatchingService()
        service.match(g1, g2, mat, 0.4)
        assert service.stats.batch_seconds == 0.0
        assert service.stats.solve_seconds > 0.0


# ----------------------------------------------------------------------
# Workspace prepared-mismatch guard
# ----------------------------------------------------------------------
class TestPreparedMismatchGuard:
    def test_equal_counts_different_nodes_rejected(self):
        """Regression: equal node/edge counts used to slip through and
        produce mappings onto the wrong graph's nodes."""
        g2 = DiGraph.from_edges([("x", "m"), ("m", "y")])
        impostor = DiGraph.from_edges([("p", "q"), ("q", "r")])
        prepared = prepare_data_graph(g2)
        assert impostor.num_nodes() == g2.num_nodes()
        assert impostor.num_edges() == g2.num_edges()
        with pytest.raises(InputError):
            MatchingWorkspace(DiGraph(), impostor, SimilarityMatrix(), 0.5, prepared=prepared)

    @pytest.mark.parametrize("with_fingerprint", [True, False])
    def test_same_nodes_different_edges_rejected_via_fingerprint(self, with_fingerprint):
        g2 = DiGraph.from_edges([("a", "b"), ("c", "d")])
        rewired = DiGraph.from_edges([("a", "c"), ("b", "d")])
        # Force identical node enumeration order in both graphs.
        rewired2 = DiGraph()
        for node in g2.nodes():
            rewired2.add_node(node)
        rewired2.add_edges(rewired.edges())
        # The guard must hold whether or not the digest was precomputed
        # (a lazily fingerprinted index computes it on demand).
        fingerprint = graph_fingerprint(g2) if with_fingerprint else None
        prepared = PreparedDataGraph(g2, fingerprint=fingerprint)
        assert list(rewired2.nodes()) == list(g2.nodes())
        with pytest.raises(InputError):
            MatchingWorkspace(DiGraph(), rewired2, SimilarityMatrix(), 0.5, prepared=prepared)

    def test_content_equal_copy_accepted(self):
        g1, g2, mat = make_random_instance(8)
        prepared = PreparedDataGraph(g2, fingerprint=graph_fingerprint(g2))
        workspace = MatchingWorkspace(g1, g2.copy(), mat, 0.5, prepared=prepared)
        assert workspace.from_mask is prepared.from_mask

    def test_attrs_only_difference_accepted(self):
        """The session contract: attrs may drift, structure may not."""
        g1, g2, mat = make_random_instance(9)
        prepared = PreparedDataGraph(g2, fingerprint=graph_fingerprint(g2))
        refreshed = g2.copy()
        refreshed.attrs(next(refreshed.nodes()))["content"] = "new page text"
        workspace = MatchingWorkspace(g1, refreshed, mat, 0.5, prepared=prepared)
        assert workspace.graph2 is refreshed


# ----------------------------------------------------------------------
# The pick rule is surfaced end to end
# ----------------------------------------------------------------------
class TestPickSurfaced:
    def scenario(self):
        g1 = DiGraph.from_edges([], nodes=["solo"])
        g2 = DiGraph.from_edges([], nodes=["u1", "u2"])
        mat = SimilarityMatrix.from_pairs({("solo", "u1"): 0.6, ("solo", "u2"): 0.9})
        return g1, g2, mat

    def test_api_match_forwards_pick_to_partitioned(self):
        g1, g2, mat = self.scenario()
        by_sim = match(g1, g2, mat, 0.5, partitioned=True, pick="similarity")
        assert by_sim.result.mapping == {"solo": "u2"}
        arbitrary = match(g1, g2, mat, 0.5, partitioned=True, pick="arbitrary")
        assert arbitrary.result.mapping == {"solo": "u1"}

    def test_service_rejects_unknown_pick_preflight(self):
        g1, g2, mat = self.scenario()
        service = MatchingService()
        with pytest.raises(InputError):
            service.match(g1, g2, mat, 0.5, pick="best")
        with pytest.raises(InputError):
            service.match_many([g1], g2, mat, 0.5, pick="best")
        assert service.stats.prepares == 0  # rejected before preparing

    def test_session_match_accepts_pick(self):
        g1, g2, mat = self.scenario()
        session = MatchingService().session(g2, mat, 0.5)
        assert session.match(g1, pick="arbitrary", partitioned=True).result.mapping == {
            "solo": "u1"
        }


# ----------------------------------------------------------------------
# The acceptance-criterion scenario: ≥50 patterns vs one 500-node graph
# ----------------------------------------------------------------------
class TestAmortizationAtScale:
    def test_fifty_patterns_one_prepare(self):
        rng = random.Random(2010)
        data = random_digraph(500, 1500, rng, name="big")
        data_nodes = list(data.nodes())
        patterns = [
            data.subgraph(rng.sample(data_nodes, 8), name=f"p{i}")
            for i in range(50)
        ]
        service = MatchingService()
        reports = service.match_many(patterns, data, label_equality_matrix, 0.75)
        assert len(reports) == 50
        # The whole point of the refactor: one G2+ construction, 50 solves.
        assert service.stats.prepares == 1
        assert service.stats.cache_misses == 1
        assert service.stats.cache_hits == 0
        assert service.stats.calls == 50
        # Subgraph patterns under label equality always admit the identity
        # mapping, so every report should find a perfect match.
        assert all(report.quality == 1.0 for report in reports)


# ----------------------------------------------------------------------
# Stats snapshots under concurrent fan-out must be consistent cuts
# ----------------------------------------------------------------------
class TestStatsSnapshotConsistency:
    def test_snapshot_never_tears_under_threaded_match_many(self):
        """Regression: ``snapshot()`` used to read fields without the
        writers' lock, so a cut taken mid-way through ``_serve``'s stats
        update could show ``calls`` without the matching ``solved_by``
        entry (or the other way round).  Snapshots are now taken under
        the stats lock; the ``calls == sum(solved_by)`` invariant must
        hold in *every* snapshot, no matter how the fan-out
        interleaves."""
        import threading

        rng = random.Random(71)
        data = random_digraph(80, 240, rng, name="hammer")
        nodes = list(data.nodes())
        patterns = [
            data.subgraph(rng.sample(nodes, 5), name=f"p{i}") for i in range(40)
        ]
        service = MatchingService()
        stop = threading.Event()
        torn: list[dict] = []

        def snapshot_loop() -> None:
            while not stop.is_set():
                snap = service.stats.snapshot()
                if snap["calls"] != sum(snap["solved_by"].values()):
                    torn.append(snap)

        watcher = threading.Thread(target=snapshot_loop)
        watcher.start()
        try:
            for _ in range(3):
                service.match_many(
                    patterns, data, label_equality_matrix, 0.75, max_workers=4
                )
        finally:
            stop.set()
            watcher.join(timeout=30)
        assert torn == []
        final = service.stats.snapshot()
        assert final["calls"] == 3 * len(patterns)
        assert final["calls"] == sum(final["solved_by"].values())

    def test_snapshot_consistent_with_cache_counters(self):
        """Cache counters (hits/misses/prepares) and solve counters are
        updated under the same stats lock discipline, so a post-batch
        snapshot is internally coherent."""
        g1, g2, mat = make_random_instance(3, n1=5, n2=12)
        service = MatchingService()
        service.match(g1, g2, mat, 0.5)
        service.match(g1, g2, mat, 0.5)
        snap = service.stats.snapshot()
        assert snap["cache_hits"] + snap["cache_misses"] == snap["calls"] == 2
        assert snap["prepares"] == 1


class TestFingerprintCacheInvalidation:
    """The memoized digest must drop on *every* content mutation."""

    def test_every_mutator_invalidates(self):
        graph = DiGraph.from_edges([("a", "b"), ("b", "c")])
        mutations = [
            lambda g: g.add_node("d", label="new"),
            lambda g: g.add_edge("c", "a"),
            lambda g: g.remove_edge("a", "b"),
            lambda g: g.remove_node("c"),
            lambda g: g.set_label("a", "relabelled"),
            lambda g: g.set_weight("a", 2.5),
        ]
        for mutate in mutations:
            before = graph_fingerprint(graph)  # primes the memo
            mutate(graph)
            after = graph_fingerprint(graph)
            assert after != before, mutate
            # The new digest matches a fresh, never-cached copy.
            assert after == graph_fingerprint(graph.copy())

    def test_memo_hit_is_stable(self):
        graph = DiGraph.from_edges([("a", "b")])
        assert graph_fingerprint(graph) == graph_fingerprint(graph)
        # Re-adding an existing edge conservatively re-hashes but the
        # digest itself must not move (content unchanged).
        before = graph_fingerprint(graph)
        graph.add_edge("a", "b")
        assert graph_fingerprint(graph) == before


# ----------------------------------------------------------------------
# Delta evolution through the service (mutable data graphs)
# ----------------------------------------------------------------------
class TestServiceEvolution:
    """A mutated data graph evolves its cached index instead of
    rebuilding it — with reports bit-identical to a fresh service."""

    @staticmethod
    def _labels(pattern, data):
        return label_equality_matrix(pattern, data)

    def _instance(self, seed=61, nodes=40, edges=90, sites=4):
        """A multi-site data graph (the Section-6 serving shape): deltas
        inside one site leave every other site's closure rows clean, so
        evolution stays under the dirty-row cutoff."""
        rng = random.Random(seed)
        data = DiGraph(name=f"serve-{seed}")
        per_site = nodes // sites
        for i in range(nodes):
            data.add_node(i, label=f"L{i % 7}")
        for _ in range(edges):
            site = rng.randrange(sites)
            base = site * per_site
            a = base + rng.randrange(per_site)
            b = base + rng.randrange(per_site)
            if a != b:
                data.add_edge(a, b)
        patterns = [
            data.subgraph(rng.sample(list(data.nodes()), 5), name=f"p{i}")
            for i in range(4)
        ]
        return data, patterns

    def test_evolved_index_serves_bit_identical_reports(self):
        data, patterns = self._instance()
        service = MatchingService()
        service.match_many(patterns, data, self._labels, 0.5)

        # Mutate between match() calls: a small structural edit.
        data.add_edge(0, 37)
        victim = next(e for e in data.edges() if e[0] != 0)
        data.remove_edge(*victim)

        evolved_reports = service.match_many(patterns, data, self._labels, 0.5)
        fresh = MatchingService()
        fresh_reports = fresh.match_many(patterns, data.copy(), self._labels, 0.5)
        assert [comparable(r) for r in evolved_reports] == [
            comparable(r) for r in fresh_reports
        ]
        snap = service.stats.snapshot()
        assert snap["delta_hits"] == 1
        assert snap["delta_nodes_recomputed"] > 0
        assert snap["prepares"] == 1  # only the initial cold build

    def test_update_graph_moves_evolution_off_the_serving_path(self):
        data, patterns = self._instance(seed=62)
        service = MatchingService()
        service.match(patterns[0], data, self._labels, 0.5)
        data.add_edge(1, 23)
        evolved = service.update_graph(data)
        assert evolved.fingerprint == graph_fingerprint(data)
        assert service.stats.delta_hits == 1
        # The follow-up match is a pure cache hit on the evolved entry.
        before = service.stats.snapshot()
        service.match(patterns[1], data, self._labels, 0.5)
        after = service.stats.snapshot()
        assert after["prepares"] == before["prepares"] == 1
        assert after["delta_hits"] == before["delta_hits"] == 1
        assert after["cache_hits"] == before["cache_hits"] + 1

    def test_session_over_evolved_index_matches_cold(self):
        data, patterns = self._instance(seed=63)
        service = MatchingService()
        service.match(patterns[0], data, self._labels, 0.5)
        data.add_edge(2, 31)
        session = service.session(data, self._labels, 0.5)
        warm = session.match(patterns[2])
        cold = match_prepared(
            patterns[2], prepare_data_graph(data), self._labels(patterns[2], data), 0.5
        )
        assert comparable(warm) == comparable(cold)
        assert service.stats.delta_hits == 1

    def test_evolution_persists_to_the_disk_tier(self, tmp_path):
        data, patterns = self._instance(seed=64)
        service = MatchingService(store_dir=str(tmp_path))
        service.match(patterns[0], data, self._labels, 0.5)
        data.add_edge(3, 29)
        service.update_graph(data)
        assert service.stats.delta_hits == 1
        # A cold process pointed at the same store loads the *evolved*
        # index: zero prepares, one disk hit, identical answers.
        cold_service = MatchingService(store_dir=str(tmp_path))
        report = cold_service.match(patterns[1], data.copy(), self._labels, 0.5)
        snap = cold_service.stats.snapshot()
        assert snap["disk_hits"] == 1 and snap["prepares"] == 0
        fresh = MatchingService().match(patterns[1], data.copy(), self._labels, 0.5)
        assert comparable(report) == comparable(fresh)

    def test_wide_delta_counts_as_prepare_not_delta_hit(self):
        data, patterns = self._instance(seed=65, nodes=20, edges=30)
        service = MatchingService()
        service.match(patterns[0], data, self._labels, 0.5)
        # Rewire most of the graph: the dirty frontier blows the cutoff.
        for node in list(data.nodes())[:15]:
            data.remove_node(node)
        service.match(patterns[0], data, self._labels, 0.5)
        snap = service.stats.snapshot()
        assert snap["delta_hits"] == 0
        assert snap["prepares"] == 2  # initial + honest fallback rebuild

    def test_match_many_during_update_graph_race(self):
        """Concurrent batch traffic on one graph while another graph
        mutates and evolves: no torn stats, bit-identical reports."""
        import threading

        stable, stable_patterns = self._instance(seed=66)
        moving, moving_patterns = self._instance(seed=67)
        service = MatchingService(max_prepared=8)
        service.match(moving_patterns[0], moving, self._labels, 0.5)

        batches = 6
        reports_box: list = []
        errors: list = []

        def serve():
            try:
                for _ in range(batches):
                    reports_box.append(
                        service.match_many(
                            stable_patterns, stable, self._labels, 0.5, max_workers=2
                        )
                    )
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def mutate():
            try:
                rng = random.Random(99)
                nodes = list(moving.nodes())
                for _ in range(batches):
                    a, b = rng.choice(nodes), rng.choice(nodes)
                    if a != b and not moving.has_edge(a, b):
                        moving.add_edge(a, b)
                    service.update_graph(moving)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=serve), threading.Thread(target=mutate)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        snap = service.stats.snapshot()
        assert snap["calls"] == sum(snap["solved_by"].values())
        # Every batch identical to a fresh, single-threaded service.
        fresh = MatchingService().match_many(
            stable_patterns, stable.copy(), self._labels, 0.5
        )
        for reports in reports_box:
            assert [comparable(r) for r in reports] == [comparable(r) for r in fresh]
        # The moving graph ends bit-identical to a cold prepare.
        final = service.update_graph(moving)
        cold = prepare_data_graph(moving)
        assert final.from_mask == cold.from_mask
        assert final.to_mask == cold.to_mask
        assert final.cycle_mask == cold.cycle_mask

    def test_default_service_update_graph_helper(self):
        from repro.core.api import update_graph
        from repro.core.service import default_service, reset_default_service

        reset_default_service()
        try:
            data, patterns = self._instance(seed=68)
            match(patterns[0], data, self._labels(patterns[0], data), 0.5)
            data.add_edge(4, 19)
            update_graph(data)
            assert default_service().stats.delta_hits == 1
        finally:
            reset_default_service()
