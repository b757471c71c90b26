"""Sharded matching cluster: plan soundness and bit-identity.

The load-bearing claim of :mod:`repro.core.sharding` is that the sharded
solve is *bit-identical* to the single-process partitioned solve — same
σ node for node, same qualities to the last float bit, same round
counts — for every shard count, both pick rules, injective included,
and on both solver backends.  These tests assert exactly that, on
workloads that exercise both the single-shard fan-out path and the
spill path (components whose candidates span shards).
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.sharding as sharding
from helpers import make_random_instance
from repro.core.api import match
from repro.core.backends import BACKEND_NAMES
from repro.core.incremental import DeltaLog
from repro.core.optimize import comp_max_card_partitioned
from repro.core.phom import check_phom_mapping
from repro.core.prefilter import LabelEqualitySimilarity, label_signature
from repro.core.prepared import PreparedDataGraph
from repro.core.service import MatchingService
from repro.core.sharding import (
    ShardPlan,
    ShardedMatchingService,
    default_sharded_service,
    reset_default_sharded_services,
)
from repro.graph.components import weakly_connected_components
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.scc import strongly_connected_components
from repro.similarity.labels import label_equality_matrix
from repro.similarity.matrix import SimilarityMatrix
from repro.utils.errors import InputError


def corpus_graph(
    sites: int = 3,
    site_nodes: int = 40,
    labels: int = 6,
    seed: int = 5,
    shared_labels: bool = True,
) -> DiGraph:
    """A union-of-sites data graph: one weak component per site.

    ``shared_labels`` draws labels from one alphabet across sites, so
    label-equality candidates span sites — the workload that forces the
    router's spill path.  Site-prefixed labels confine candidates to one
    site (the pure fan-out regime).
    """
    rng = random.Random(seed)
    graph = DiGraph(name="corpus")
    for s in range(sites):
        base = s * site_nodes
        prefix = "" if shared_labels else f"s{s}:"
        for i in range(site_nodes):
            graph.add_node(base + i, label=f"{prefix}L{rng.randrange(labels)}")
        for _ in range(3 * site_nodes):
            a = base + rng.randrange(site_nodes)
            b = base + rng.randrange(site_nodes)
            if a != b:
                graph.add_edge(a, b)
        for i in range(site_nodes - 1):  # keep each site weakly connected
            graph.add_edge(base + i, base + i + 1)
    return graph


def random_pattern(graph: DiGraph, size: int, seed: int) -> DiGraph:
    rng = random.Random(seed)
    return graph.subgraph(rng.sample(list(graph.nodes()), size), name=f"p{seed}")


def assert_reports_identical(sharded, reference):
    """Bit-identity of a sharded MatchReport vs a partitioned PHomResult."""
    assert sharded.result.mapping == reference.mapping
    assert sharded.result.qual_card == reference.qual_card
    assert sharded.result.qual_sim == reference.qual_sim
    assert sharded.result.injective == reference.injective
    for key in ("components", "candidate_free", "rounds"):
        assert sharded.result.stats[key] == reference.stats[key]


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_weak_components_never_split(self):
        graph = corpus_graph(sites=4, site_nodes=20)
        plan = ShardPlan.for_data_graph(graph, 3)
        for component in weakly_connected_components(graph):
            owners = {plan.shard_of[node] for node in component}
            assert len(owners) == 1

    def test_sccs_never_split(self):
        graph = corpus_graph(sites=3, site_nodes=25)
        plan = ShardPlan.for_data_graph(graph, 2)
        for scc in strongly_connected_components(graph):
            assert len({plan.shard_of[node] for node in scc}) == 1

    def test_plan_is_deterministic_and_balanced(self):
        graph = corpus_graph(sites=6, site_nodes=15)
        one = ShardPlan.for_data_graph(graph, 3)
        two = ShardPlan.for_data_graph(graph.copy(), 3)
        assert one.shard_nodes == two.shard_nodes
        assert one.fingerprint == two.fingerprint
        sizes = [len(nodes) for nodes in one.shard_nodes]
        assert sum(sizes) == graph.num_nodes()
        assert max(sizes) - min(sizes) <= 15  # one site of slack

    def test_shard_graph_preserves_enumeration_order(self):
        graph = corpus_graph(sites=3, site_nodes=20)
        plan = ShardPlan.for_data_graph(graph, 2)
        position = {node: i for i, node in enumerate(graph.nodes())}
        for sid in plan.nonempty_shards():
            shard = plan.shard_graph(sid)
            order = [position[node] for node in shard.nodes()]
            assert order == sorted(order)
            assert plan.shard_graph(sid) is shard  # cached

    def test_shard_graph_is_closure_closed(self):
        # Every edge of the full graph between shard members survives,
        # and no shard edge crosses shards (paths cannot leave a shard).
        graph = corpus_graph(sites=3, site_nodes=15)
        plan = ShardPlan.for_data_graph(graph, 3)
        seen_edges = 0
        for sid in plan.nonempty_shards():
            shard = plan.shard_graph(sid)
            for tail, head in shard.edges():
                assert plan.shard_of[tail] == plan.shard_of[head] == sid
                assert graph.has_edge(tail, head)
                seen_edges += 1
        assert seen_edges == graph.num_edges()

    def test_union_graph_merges_in_order(self):
        graph = corpus_graph(sites=4, site_nodes=10)
        plan = ShardPlan.for_data_graph(graph, 4)
        a, b = plan.nonempty_shards()[:2]
        union = plan.union_graph(frozenset({a, b}))
        position = {node: i for i, node in enumerate(graph.nodes())}
        order = [position[node] for node in union.nodes()]
        assert order == sorted(order)
        assert union.num_nodes() == len(plan.shard_nodes[a]) + len(plan.shard_nodes[b])
        assert plan.union_graph(frozenset({b, a})) is union  # cached by set

    def test_cycle_nodes_match_reachability(self):
        graph = DiGraph.from_edges(
            [("a", "b"), ("b", "a"), ("b", "c"), ("d", "d"), ("e", "f")]
        )
        plan = ShardPlan.for_data_graph(graph, 2)
        assert plan.cycle_nodes == {"a", "b", "d"}

    def test_single_weak_component_degenerates_to_one_shard(self):
        rng = random.Random(0)
        graph = DiGraph()
        for i in range(30):
            graph.add_node(i, label="L")
        for i in range(29):
            graph.add_edge(i, i + 1)
        plan = ShardPlan.for_data_graph(graph, 4)
        assert plan.nonempty_shards() == [0]
        assert plan.describe()["shard_sizes"].count(0) == 3

    def test_corpus_plan_routes_stably_and_in_range(self):
        plan = ShardPlan.for_corpus(4)
        graphs = [corpus_graph(sites=1, site_nodes=8, seed=s) for s in range(12)]
        shards = [plan.shard_of_graph(g) for g in graphs]
        assert shards == [plan.shard_of_graph(g) for g in graphs]  # stable
        assert all(0 <= s < 4 for s in shards)
        fp = graph_fingerprint(graphs[0])
        assert plan.shard_of_fingerprint(fp) == shards[0]

    def test_plan_validation(self):
        graph = corpus_graph(sites=1, site_nodes=5)
        with pytest.raises(InputError):
            ShardPlan.for_data_graph(graph, 0)
        with pytest.raises(InputError):
            ShardPlan("weird", 2)
        plan = ShardPlan.for_data_graph(graph, 2)
        with pytest.raises(InputError):
            plan.shard_graph(7)
        with pytest.raises(InputError):
            plan.union_graph(frozenset())
        corpus = ShardPlan.for_corpus(2)
        with pytest.raises(InputError):
            corpus.shard_graph(0)
        assert "kind" in plan.describe() and repr(plan)

    def test_describe_counts(self):
        graph = corpus_graph(sites=3, site_nodes=10)
        described = ShardPlan.for_data_graph(graph, 2).describe()
        assert described["weak_components"] == 3
        assert described["nonempty_shards"] == 2
        assert sum(described["shard_sizes"]) == 30


# ----------------------------------------------------------------------
# Bit-identity of the sharded solve
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestShardedEquivalence:
    XI = 0.5

    def test_corpus_workload_identical_across_shard_counts(self, backend):
        # Shared labels: candidates span sites, so shards>1 exercises the
        # spill path; the result must not move by a bit.
        graph2 = corpus_graph(sites=3, site_nodes=40, shared_labels=True)
        patterns = [random_pattern(graph2, 10, seed) for seed in range(4)]
        for injective in (False, True):
            for pick in ("similarity", "arbitrary"):
                for graph1 in patterns:
                    mat = label_equality_matrix(graph1, graph2)
                    reference = comp_max_card_partitioned(
                        graph1, graph2, mat, self.XI,
                        injective=injective, pick=pick, backend=backend,
                    )
                    for shards in (1, 2, 4):
                        service = ShardedMatchingService(shards, backend=backend)
                        report = service.match_sharded(
                            graph1, graph2, mat, self.XI,
                            injective=injective, pick=pick,
                        )
                        assert_reports_identical(report, reference)

    def test_spill_path_is_exercised_and_counted(self, backend):
        graph2 = corpus_graph(sites=3, site_nodes=30, shared_labels=True)
        graph1 = random_pattern(graph2, 12, 99)
        mat = label_equality_matrix(graph1, graph2)
        service = ShardedMatchingService(3, backend=backend)
        report = service.match_sharded(graph1, graph2, mat, self.XI)
        snap = service.stats_snapshot()
        assert report.result.stats["spill_components"] > 0
        assert snap["spill_components"] == report.result.stats["spill_components"]
        assert snap["spill"]["calls"] > 0  # the spill worker actually solved

    def test_confined_workload_never_spills(self, backend):
        graph2 = corpus_graph(sites=3, site_nodes=30, shared_labels=False)
        graph1 = random_pattern(graph2, 9, 7)
        mat = label_equality_matrix(graph1, graph2)
        service = ShardedMatchingService(3, backend=backend)
        report = service.match_sharded(graph1, graph2, mat, self.XI)
        assert report.result.stats["spill_components"] == 0
        assert service.stats_snapshot()["spill"]["calls"] == 0
        reference = comp_max_card_partitioned(
            graph1, graph2, mat, self.XI, backend=backend
        )
        assert_reports_identical(report, reference)

    def test_random_instances_identical(self, backend):
        for seed in range(6):
            graph1, graph2, mat = make_random_instance(seed, n1=8, n2=30)
            for injective in (False, True):
                reference = comp_max_card_partitioned(
                    graph1, graph2, mat, self.XI, injective=injective,
                    backend=backend,
                )
                service = ShardedMatchingService(2, backend=backend)
                report = service.match_sharded(
                    graph1, graph2, mat, self.XI, injective=injective
                )
                assert_reports_identical(report, reference)

    def test_parallel_fanout_identical(self, backend):
        graph2 = corpus_graph(sites=4, site_nodes=25, shared_labels=False)
        graph1 = random_pattern(graph2, 16, 3)
        mat = label_equality_matrix(graph1, graph2)
        service = ShardedMatchingService(4, backend=backend)
        sequential = service.match_sharded(graph1, graph2, mat, self.XI)
        parallel = service.match_sharded(
            graph1, graph2, mat, self.XI, max_workers=4
        )
        assert parallel.result.mapping == sequential.result.mapping
        assert parallel.result.qual_sim == sequential.result.qual_sim

    def test_match_many_sharded_orders_and_parallelises(self, backend):
        graph2 = corpus_graph(sites=3, site_nodes=25)
        patterns = [random_pattern(graph2, 8, s) for s in range(6)]
        mats = {p.name: label_equality_matrix(p, graph2) for p in patterns}
        source = lambda pattern, data: mats[pattern.name]
        service = ShardedMatchingService(3, backend=backend)
        sequential = service.match_many_sharded(patterns, graph2, source, self.XI)
        parallel = service.match_many_sharded(
            patterns, graph2, source, self.XI, max_workers=4
        )
        singles = [
            service.match_sharded(p, graph2, source, self.XI) for p in patterns
        ]
        for a, b, c in zip(sequential, parallel, singles):
            assert a.result.mapping == b.result.mapping == c.result.mapping
        assert service.stats_snapshot()["batch_seconds"] > 0.0

    def test_symmetric_and_threshold_flow_through(self, backend):
        graph2 = corpus_graph(sites=2, site_nodes=20)
        graph1 = random_pattern(graph2, 6, 11)
        mat = label_equality_matrix(graph1, graph2)
        reference = match(
            graph1, graph2, mat, self.XI, partitioned=True, symmetric=True,
            threshold=0.4, backend=backend,
        )
        service = ShardedMatchingService(2, backend=backend)
        report = service.match_sharded(
            graph1, graph2, mat, self.XI, symmetric=True, threshold=0.4
        )
        assert report.result.mapping == reference.result.mapping
        assert report.matched == reference.matched
        assert report.quality == reference.quality


# ----------------------------------------------------------------------
# Router behaviour beyond the solve
# ----------------------------------------------------------------------
class TestShardedService:
    XI = 0.5

    def test_hash_routing_matches_unsharded_service(self):
        corpus = [corpus_graph(sites=1, site_nodes=25, seed=s) for s in range(5)]
        pattern = random_pattern(corpus[0], 6, 2)
        router = ShardedMatchingService(3)
        flat = MatchingService()
        for graph2 in corpus:
            mat = label_equality_matrix(pattern, graph2)
            routed = router.match(pattern, graph2, mat, self.XI)
            reference = flat.match(pattern, graph2, mat, self.XI)
            assert routed.result.mapping == reference.result.mapping
        snap = router.stats_snapshot()
        assert snap["routed_calls"] == len(corpus)
        per_worker_calls = [s["calls"] for s in snap["per_shard"]]
        assert sum(per_worker_calls) == len(corpus)
        assert snap["aggregate"]["calls"] == len(corpus)

    def test_match_many_hash_routed(self):
        graph2 = corpus_graph(sites=1, site_nodes=30, seed=8)
        patterns = [random_pattern(graph2, 6, s) for s in range(4)]
        mats = {p.name: label_equality_matrix(p, graph2) for p in patterns}
        source = lambda pattern, data: mats[pattern.name]
        router = ShardedMatchingService(2)
        reports = router.match_many(patterns, graph2, source, self.XI)
        reference = MatchingService().match_many(patterns, graph2, source, self.XI)
        assert [r.result.mapping for r in reports] == [
            r.result.mapping for r in reference
        ]
        owning = router.worker_for(graph2)
        assert owning.stats.snapshot()["prepares"] == 1

    def test_shared_store_across_sharded_services(self, tmp_path):
        graph2 = corpus_graph(sites=3, site_nodes=20)
        graph1 = random_pattern(graph2, 6, 4)
        mat = label_equality_matrix(graph1, graph2)
        first = ShardedMatchingService(3, store_dir=str(tmp_path))
        warm = first.match_sharded(graph1, graph2, mat, self.XI)
        assert first.stats_snapshot()["aggregate"]["prepares"] > 0
        # A cold process (fresh service) pointed at the same store loads
        # every shard index from disk instead of rebuilding.
        second = ShardedMatchingService(3, store_dir=str(tmp_path))
        cold = second.match_sharded(graph1, graph2, mat, self.XI)
        snap = second.stats_snapshot()["aggregate"]
        assert cold.result.mapping == warm.result.mapping
        assert snap["prepares"] == 0
        assert snap["disk_hits"] > 0

    def test_per_shard_backends_audited_and_identical(self):
        graph2 = corpus_graph(sites=2, site_nodes=25, shared_labels=False)
        graph1 = random_pattern(graph2, 10, 6)
        mat = label_equality_matrix(graph1, graph2)
        mixed = ShardedMatchingService(2, backends=["python", "numpy"])
        report = mixed.match_sharded(graph1, graph2, mat, self.XI)
        reference = comp_max_card_partitioned(graph1, graph2, mat, self.XI)
        assert_reports_identical(report, reference)
        snap = mixed.stats_snapshot()
        audited = set(snap["aggregate"]["solved_by"])
        per_worker = [s["backend"] for s in snap["per_shard"]]
        assert per_worker == ["python", "numpy"]
        assert audited <= {"python", "numpy"} and audited

    def test_component_calls_accounted_per_worker(self):
        graph2 = corpus_graph(sites=3, site_nodes=20, shared_labels=False)
        graph1 = random_pattern(graph2, 9, 12)
        mat = label_equality_matrix(graph1, graph2)
        service = ShardedMatchingService(3)
        report = service.match_sharded(graph1, graph2, mat, self.XI)
        snap = service.stats_snapshot()
        total_components = report.result.stats["components"]
        worker_calls = sum(s["calls"] for s in snap["per_shard"])
        assert worker_calls + snap["spill"]["calls"] == total_components
        assert snap["sharded_solves"] == 1
        assert snap["aggregate"]["solve_seconds"] >= 0.0

    def test_plan_cache_reuse_and_eviction(self):
        service = ShardedMatchingService(2, max_plans=1)
        g_a = corpus_graph(sites=2, site_nodes=10, seed=1)
        g_b = corpus_graph(sites=2, site_nodes=10, seed=2)
        plan_a = service.plan_for(g_a)
        assert service.plan_for(g_a) is plan_a
        service.plan_for(g_b)  # evicts plan_a (max_plans=1)
        assert service.plan_for(g_a) is not plan_a
        assert service.stats_snapshot()["plans_built"] == 3

    def test_explicit_plan_must_match_graph(self):
        service = ShardedMatchingService(2)
        g_a = corpus_graph(sites=2, site_nodes=10, seed=1)
        g_b = corpus_graph(sites=2, site_nodes=10, seed=2)
        plan = ShardPlan.for_data_graph(g_a, 2)
        graph1 = random_pattern(g_b, 4, 3)
        mat = label_equality_matrix(graph1, g_b)
        with pytest.raises(InputError):
            service.match_sharded(graph1, g_b, mat, self.XI, plan=plan)
        with pytest.raises(InputError):
            service.match_sharded(
                graph1, g_a, label_equality_matrix(graph1, g_a), self.XI,
                plan=ShardPlan.for_corpus(2),
            )

    def test_validation_errors(self):
        with pytest.raises(InputError):
            ShardedMatchingService(0)
        with pytest.raises(InputError):
            ShardedMatchingService(2, backends=["python"])
        with pytest.raises(InputError):
            ShardedMatchingService(2, store=object(), store_dir="x")  # type: ignore[arg-type]
        with pytest.raises(InputError):
            ShardedMatchingService(2, max_plans=0)
        service = ShardedMatchingService(2)
        graph2 = corpus_graph(sites=1, site_nodes=8)
        graph1 = random_pattern(graph2, 3, 1)
        mat = label_equality_matrix(graph1, graph2)
        with pytest.raises(InputError):
            service.match_sharded(graph1, graph2, mat, self.XI, metric="similarity")
        with pytest.raises(InputError):
            service.match_sharded(graph1, graph2, mat, self.XI, pick="best")
        with pytest.raises(InputError):
            service.match_sharded(graph1, graph2, mat, self.XI, threshold=1.5)

    def test_empty_pattern_and_empty_data(self):
        service = ShardedMatchingService(2)
        empty = DiGraph(name="empty")
        graph2 = corpus_graph(sites=1, site_nodes=6)
        report = service.match_sharded(empty, graph2, SimilarityMatrix(), self.XI)
        assert report.result.mapping == {} and report.quality == 1.0
        pattern = random_pattern(graph2, 3, 2)
        report = service.match_sharded(
            pattern, DiGraph(name="void"), SimilarityMatrix(), self.XI
        )
        assert report.result.mapping == {} and report.quality == 0.0


# ----------------------------------------------------------------------
# api.match(shards=) and the default router
# ----------------------------------------------------------------------
class TestMatchShards:
    XI = 0.5

    def teardown_method(self):
        reset_default_sharded_services()

    def test_match_shards_equals_partitioned(self):
        graph2 = corpus_graph(sites=3, site_nodes=20)
        for seed in range(3):
            graph1 = random_pattern(graph2, 7, seed)
            mat = label_equality_matrix(graph1, graph2)
            for injective in (False, True):
                reference = match(
                    graph1, graph2, mat, self.XI,
                    partitioned=True, injective=injective,
                )
                for shards in (1, 3):
                    sharded = match(
                        graph1, graph2, mat, self.XI,
                        shards=shards, injective=injective,
                    )
                    assert sharded.result.mapping == reference.result.mapping
                    assert sharded.quality == reference.quality
                    assert sharded.matched == reference.matched

    def test_default_router_reused_per_shard_count(self):
        assert default_sharded_service(2) is default_sharded_service(2)
        assert default_sharded_service(2) is not default_sharded_service(3)
        reset_default_sharded_services()
        graph2 = corpus_graph(sites=2, site_nodes=10)
        graph1 = random_pattern(graph2, 4, 0)
        mat = label_equality_matrix(graph1, graph2)
        match(graph1, graph2, mat, self.XI, shards=2)
        match(graph1, graph2, mat, self.XI, shards=2)
        assert default_sharded_service(2).stats_snapshot()["plans_built"] == 1

    def test_shards_option_validation(self):
        graph2 = corpus_graph(sites=1, site_nodes=8)
        graph1 = random_pattern(graph2, 3, 1)
        mat = label_equality_matrix(graph1, graph2)
        with pytest.raises(InputError):
            match(graph1, graph2, mat, self.XI, shards=0)
        with pytest.raises(InputError):
            match(graph1, graph2, mat, self.XI, shards=2, metric="similarity")
        from repro.core.prepared import prepare_data_graph

        with pytest.raises(InputError):
            match(
                graph1, graph2, mat, self.XI,
                shards=2, prepared=prepare_data_graph(graph2),
            )


class TestCandidateRowInjection:
    """The router hands its routing-scan rows to shard workspaces; the
    resulting workspace tables must be identical to a fresh scan."""

    def test_injected_rows_match_scan(self):
        from repro.core.workspace import MatchingWorkspace

        graph2 = corpus_graph(sites=2, site_nodes=20)
        graph1 = random_pattern(graph2, 6, 5)
        graph1.add_edge(list(graph1.nodes())[0], list(graph1.nodes())[0])
        mat = label_equality_matrix(graph1, graph2)
        xi = 0.5
        plan = ShardPlan.for_data_graph(graph2, 2)
        scanned = MatchingWorkspace(graph1, graph2, mat, xi)
        rows = []
        for v in graph1.nodes():
            row = {
                u: score for u, score in mat.row(v).items()
                if u in plan.shard_of and score >= xi
            }
            if graph1.has_self_loop(v):
                row = {u: s for u, s in row.items() if u in plan.cycle_nodes}
            rows.append(row)
        injected = MatchingWorkspace(
            graph1, graph2, mat, xi, candidate_rows=rows
        )
        assert injected.scores == scanned.scores
        assert injected.cand_mask == scanned.cand_mask
        assert injected.pref == scanned.pref

    def test_row_count_validated(self):
        from repro.core.workspace import MatchingWorkspace

        graph2 = corpus_graph(sites=1, site_nodes=8)
        graph1 = random_pattern(graph2, 3, 1)
        mat = label_equality_matrix(graph1, graph2)
        with pytest.raises(InputError):
            MatchingWorkspace(graph1, graph2, mat, 0.5, candidate_rows=[{}])


# ----------------------------------------------------------------------
# Delta-aware shard re-planning (mutable data graphs)
# ----------------------------------------------------------------------
class TestShardPlanEvolution:
    """Mutating a served graph re-plans only the shards whose components
    changed — with sharded results still bit-identical to the flat
    partitioned solve."""

    def _mat(self, pattern, data):
        return label_equality_matrix(pattern, data)

    def test_untouched_components_keep_their_shards_and_fingerprints(self):
        data = corpus_graph(sites=4, site_nodes=20, shared_labels=False, seed=41)
        service = ShardedMatchingService(4)
        old_plan = service.plan_for(data)
        old_nodes = [list(nodes) for nodes in old_plan.shard_nodes]
        old_prints = {
            sid: old_plan.fingerprint_for(sid) for sid in old_plan.nonempty_shards()
        }
        victim = old_plan.shard_of[0]  # mutate inside node 0's component
        head = next(i for i in range(1, 20) if not data.has_edge(0, i))
        data.add_edge(0, head)

        plan = service.update_graph(data)
        assert plan is not old_plan
        stats = plan.evolve_stats
        assert stats is not None and stats["replanned_components"] == 1
        assert len(stats["reused_shards"]) == 3
        for sid in range(4):
            if sid == victim:
                continue
            assert plan.shard_nodes[sid] == old_nodes[sid]
            if sid in old_prints:
                # The cached fingerprint (the workers' cache key) came
                # through the evolve without re-hashing the subgraph.
                assert plan._fingerprints.get(sid) == old_prints[sid]
        snap = service.stats_snapshot()
        assert snap["plans_evolved"] == 1
        assert snap["shards_replanned"] == 1

    def test_evolved_plan_serves_bit_identical_to_flat(self):
        data = corpus_graph(sites=3, site_nodes=25, seed=42)
        rng = random.Random(42)
        patterns = [
            data.subgraph(rng.sample(list(data.nodes()), 5), name=f"p{i}")
            for i in range(3)
        ]
        service = ShardedMatchingService(3)
        service.match_many_sharded(patterns, data, self._mat, 0.5)

        head = next(i for i in range(2, 25) if not data.has_edge(1, i))
        data.add_edge(1, head)  # SCC-relevant edit inside one site
        data.remove_edge(*next(e for e in data.edges() if e[0] != 1))
        service.update_graph(data)
        for pattern in patterns:
            sharded = service.match_sharded(pattern, data, self._mat, 0.5)
            flat = comp_max_card_partitioned(
                pattern, data, self._mat(pattern, data), 0.5
            )
            assert sharded.result.mapping == flat.mapping
            assert sharded.result.qual_card == flat.qual_card
            assert sharded.result.qual_sim == flat.qual_sim
        assert service.stats_snapshot()["plans_evolved"] == 1

    def test_component_merge_is_replanned_and_exact(self):
        data = corpus_graph(sites=3, site_nodes=20, shared_labels=False, seed=43)
        service = ShardedMatchingService(3)
        service.plan_for(data)
        data.add_edge(0, 25)  # bridges two sites: their components merge
        plan = service.update_graph(data)
        assert plan.weak_components == 2
        assert plan.evolve_stats["replanned_components"] == 1
        merged_shard = plan.shard_of[0]
        assert plan.shard_of[25] == merged_shard
        rng = random.Random(43)
        pattern = data.subgraph(rng.sample(list(data.nodes()), 5), name="p")
        sharded = service.match_sharded(pattern, data, self._mat, 0.5)
        flat = comp_max_card_partitioned(pattern, data, self._mat(pattern, data), 0.5)
        assert sharded.result.mapping == flat.mapping

    def test_relabel_only_delta_still_replans_touched_component(self):
        """Label changes move shard fingerprints, so the touched
        component may not be pinned to its stale cached views."""
        data = corpus_graph(sites=2, site_nodes=15, shared_labels=False, seed=44)
        service = ShardedMatchingService(2)
        old_plan = service.plan_for(data)
        data.set_label(3, "renamed")
        plan = service.update_graph(data)
        touched_shard = old_plan.shard_of[3]
        assert plan.evolve_stats["replanned_components"] >= 1
        assert touched_shard not in plan.evolve_stats["reused_shards"]

    def test_stale_plan_log_is_rejected_cleanly(self):
        data = corpus_graph(sites=2, site_nodes=10, seed=45)
        plan = ShardPlan.for_data_graph(data, 2)
        from repro.core.incremental import DeltaLog

        log = DeltaLog(data, base_fingerprint="f" * 64)
        data.add_edge(0, 3)
        with pytest.raises(InputError):
            plan.evolve(data, log)


# ----------------------------------------------------------------------
# Local plan evolution: work in proportion to what an update hit
# ----------------------------------------------------------------------
def expected_evolution(old_plan, graph, touched, relabeled, removed):
    """The whole-graph re-plan evolution did before it went local.

    Recompute every weak component, pin a component to its old shard
    when all its nodes lived there and none was touched, relabeled or
    removed, re-balance the rest with the plan's placement rule, and
    derive cycle members from every SCC.  Returns ``(shard_nodes,
    cycle_nodes, weak_components, evolve_stats)``.
    """
    shards = old_plan.shards
    affected = touched | relabeled | removed
    position = {node: i for i, node in enumerate(graph.nodes())}
    weak = weakly_connected_components(graph)
    assignment = [[] for _ in range(shards)]
    loads = [0] * shards
    stable_only = [True] * shards
    repooled, stable = [], 0
    for component in weak:
        homes = {old_plan.shard_of.get(node) for node in component}
        if len(homes) == 1 and None not in homes and not affected & set(component):
            (home,) = homes
            assignment[home].extend(component)
            loads[home] += len(component)
            stable += 1
        else:
            repooled.append(component)
    placer = ShardPlan("graph", shards)
    placer._position = position
    for target in placer._balance_components(repooled, assignment, loads):
        stable_only[target] = False
    shard_nodes = [sorted(nodes, key=position.__getitem__) for nodes in assignment]
    reused = [
        sid for sid in range(shards)
        if stable_only[sid] and shard_nodes[sid] == old_plan.shard_nodes[sid]
    ]
    cycle_nodes = frozenset(
        node
        for members in strongly_connected_components(graph)
        if len(members) > 1 or graph.has_self_loop(next(iter(members)))
        for node in members
    )
    stats = {
        "stable_components": stable,
        "replanned_components": len(repooled),
        "reused_shards": reused,
    }
    return shard_nodes, cycle_nodes, len(weak), stats


def assert_cold_identical(prepared, graph):
    """A served index must equal a cold prepare of its graph, bit for bit."""
    cold = PreparedDataGraph(graph)
    assert prepared.nodes2 == cold.nodes2
    assert list(prepared.from_mask) == list(cold.from_mask)
    assert list(prepared.to_mask) == list(cold.to_mask)
    assert prepared.cycle_mask == cold.cycle_mask


def warm_every_shard(router, plan):
    """Prepare every shard's index on its worker (the set-up a serving
    fleet runs), which also caches each shard view an evolve carries."""
    for sid in plan.nonempty_shards():
        router.workers[sid].prepared_for(
            plan.shard_graph(sid), fingerprint=plan.fingerprint_for(sid)
        )


def halves_corpus(sites: int = 3, size: int = 20) -> DiGraph:
    """Chain sites with forward shortcuts and one 2-cycle each.

    Labels name the site *and* its half, so a pattern cut from one half
    has candidates in that half only.  The chain edge in the middle of a
    site is a bridge: removing it splits the site into its halves.
    """
    graph = DiGraph(name="halves")
    for s in range(sites):
        base = s * size
        for i in range(size):
            graph.add_node(base + i, label=f"s{s}h{2 * i // size}:L{i % 3}")
        for i in range(size - 1):
            graph.add_edge(base + i, base + i + 1)
        for i in range(0, size - 4, 5):
            graph.add_edge(base + i, base + i + 3)
        graph.add_edge(base + 2, base + 1)
    return graph


def half_patterns(graph: DiGraph, sites: int = 3, size: int = 20) -> list[DiGraph]:
    """One four-node pattern per site half."""
    return [
        graph.subgraph(
            [s * size + h * size // 2 + i for i in range(4)], name=f"s{s}h{h}"
        )
        for s in range(sites)
        for h in range(2)
    ]


class DiffSpy:
    """Counts ``DeltaLog.from_diff`` calls (the router's fallback)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = DeltaLog.from_diff.__func__

        def spy(cls, *args, **kwargs):
            self.calls += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(DeltaLog, "from_diff", classmethod(spy))


@st.composite
def mutation_runs(draw):
    """A multi-component graph, a shard count and mutation steps.

    Each step is one or two raw ops — indices are resolved against the
    graph as it is when the op runs, so every op is applicable — and
    whether requests reach the shards after it.  The last step always
    serves, so bases carried over unserved steps are served too.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    edges = draw(
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=12)
    )
    shards = draw(st.integers(1, 3))
    op = st.tuples(
        st.sampled_from(
            ["add_inside", "add_across", "remove_edge", "add_node",
             "remove_node", "relabel"]
        ),
        st.integers(0, 99),
        st.integers(0, 99),
    )
    steps = draw(
        st.lists(
            st.tuples(st.lists(op, min_size=1, max_size=2), st.booleans()),
            min_size=1,
            max_size=6,
        )
    )
    steps[-1] = (steps[-1][0], True)
    return sizes, edges, shards, steps


def build_components(sizes, edges):
    """Components as chains (so each is weakly connected) plus extra
    edges drawn inside them; labels are component-prefixed."""
    graph = DiGraph(name="multi")
    members = []
    node = 0
    for c, size in enumerate(sizes):
        ids = list(range(node, node + size))
        node += size
        members.append(ids)
        for i in ids:
            graph.add_node(i, label=f"c{c}:{'ab'[i % 2]}")
        for a, b in zip(ids, ids[1:]):
            graph.add_edge(a, b)
    for a, b in edges:
        ids = members[a % len(members)]
        graph.add_edge(ids[a % len(ids)], ids[b % len(ids)])
    return graph


def apply_op(graph, op, next_id, removed_ids):
    """Apply one drawn op; returns the next unused node id."""
    kind, i, j = op
    nodes = list(graph.nodes())
    if not nodes:
        graph.add_node(next_id, label="fresh")
        return next_id + 1
    a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
    if kind == "add_inside":
        component = next(c for c in weakly_connected_components(graph) if a in c)
        graph.add_edge(a, component[j % len(component)])
    elif kind == "add_across":
        graph.add_edge(a, b)
    elif kind == "remove_edge":
        edges = sorted(graph.edges(), key=repr)
        if edges:
            graph.remove_edge(*edges[i % len(edges)])
    elif kind == "add_node":
        if removed_ids and j % 2:
            fresh = removed_ids.pop()  # a removed id comes back
        else:
            fresh, next_id = next_id, next_id + 1
        graph.add_node(fresh, label=graph.label(a))
        if i % 3:
            graph.add_edge(fresh, a)
    elif kind == "remove_node":
        graph.remove_node(a)
        removed_ids.append(a)
    else:
        graph.set_label(a, f"{graph.label(b)}'" if i % 2 else graph.label(b))
    return next_id


class TestLocalPlanEvolution:
    """``ShardPlan.evolve`` re-plans only the components a delta hit,
    and the router hands each changed shard's worker its delta — the
    slice of its log, or a diff — from the index the worker holds.  The
    results must be exactly those of the whole-graph re-plan, every
    answer a valid p-hom mapping, and every served index exactly a cold
    prepare."""

    XI = 0.5

    @settings(max_examples=40, deadline=None)
    @given(mutation_runs())
    def test_evolution_equals_whole_graph_recomputation(self, run):
        sizes, edges, shards, steps = run
        graph = build_components(sizes, edges)
        pattern = graph.subgraph(
            list(graph.nodes())[: max(2, len(graph) // 2)], name="p"
        )
        source = LabelEqualitySimilarity()
        router = ShardedMatchingService(shards, max_plans=64)
        plans = {}
        plan = router.plan_for(graph)
        plans[plan.fingerprint] = plan
        warm_every_shard(router, plan)
        next_id, removed_ids = 1000, []
        for ops, serve in steps:
            for op in ops:
                next_id = apply_op(graph, op, next_id, removed_ids)
            log = DeltaLog.find(graph, router)
            base = plans[log.base_fingerprint]
            touched = set(log.touched)
            relabeled = set(log.relabeled)
            removed = set(log.removed_nodes)
            evolved_before = router.stats_snapshot()["plans_evolved"]
            plan = router.update_graph(graph)
            if plan.fingerprint in plans:
                # The content came back to an earlier version: the router
                # serves that version's plan as it is.
                assert plans[plan.fingerprint] is plan
            else:
                plans[plan.fingerprint] = plan
                assert router.stats_snapshot()["plans_evolved"] == evolved_before + 1
                shard_nodes, cycle_nodes, weak, stats = expected_evolution(
                    base, graph, touched, relabeled, removed
                )
                assert plan.shard_nodes == shard_nodes
                assert plan.cycle_nodes == cycle_nodes
                assert plan.weak_components == weak
                assert plan.evolve_stats == stats
                assert plan.shard_of == {
                    node: sid for sid, nodes in enumerate(shard_nodes) for node in nodes
                }
            for sid, nodes in enumerate(plan.shard_nodes):
                labels = [graph.label(node) for node in nodes]
                assert plan.shard_label_signature(sid) == label_signature(labels)
                members = {}
                for node in nodes:
                    members.setdefault(graph.label(node), []).append(node)
                assert plan.shard_label_members(sid) == members
            if not serve:
                # No request reaches a shard: the next plan carries each
                # changed shard's base forward.
                continue

            report = router.match_sharded(pattern, graph, source, self.XI)
            mat = source(pattern, graph)
            reference = comp_max_card_partitioned(pattern, graph, mat, self.XI)
            assert_reports_identical(report, reference)
            assert check_phom_mapping(
                pattern, graph, report.result.mapping, mat, self.XI
            ) == []
            # Whatever tier served each shard (slice, diff, build), its
            # index is a cold prepare's; preparing the shards the match
            # did not touch, through their deltas as the router does,
            # also caches their views for the next step.
            for sid in plan.nonempty_shards():
                shard_graph = plan.shard_graph(sid)
                prepared = router.workers[sid].cache.prepared_for(
                    shard_graph,
                    fingerprint=plan.fingerprint_for(sid),
                    delta=plan.shard_delta(sid),
                )
                assert_cold_identical(prepared, shard_graph)

    def test_one_edge_update_stays_inside_its_component(self, monkeypatch):
        """A one-edge update walks and condenses only the component it
        touched, and the changed shard's worker evolves from the slice
        of the router's log (no whole-shard diff)."""
        graph = halves_corpus(sites=6, size=20)
        patterns = half_patterns(graph, sites=6, size=20)
        source = LabelEqualitySimilarity()
        router = ShardedMatchingService(2)
        plan = router.plan_for(graph)
        warm_every_shard(router, plan)
        warm_prepares = router.stats_snapshot()["aggregate"]["prepares"]

        walked, condensed = [], []
        original_walk = sharding.weakly_connected_components
        original_condense = ShardPlan._derive_cycle_nodes

        def spy_walk(graph2, roots=None):
            found = original_walk(graph2, roots)
            walked.append((roots is None, sum(map(len, found))))
            return found

        def spy_condense(graph2):
            condensed.append(graph2.num_nodes())
            return original_condense(graph2)

        monkeypatch.setattr(sharding, "weakly_connected_components", spy_walk)
        monkeypatch.setattr(ShardPlan, "_derive_cycle_nodes", staticmethod(spy_condense))
        diffs = DiffSpy(monkeypatch)

        # Every edit yields content the router has not planned before,
        # so each one evolves the plan.
        edits = [
            ("add", 40, 46), ("add", 75, 79), ("remove", 80, 83), ("remove", 40, 46),
        ]
        for step, (kind, tail, head) in enumerate(edits, start=1):
            if kind == "add":
                graph.add_edge(tail, head)
            else:
                graph.remove_edge(tail, head)
            walked.clear()
            condensed.clear()
            plan = router.update_graph(graph)
            site = next(c for c in weakly_connected_components(graph) if tail in c)
            assert walked == [(False, len(site))]
            assert condensed == [len(site)]
            assert router.stats_snapshot()["plans_evolved"] == step
            owner = plan.shard_of[tail]
            for pattern in patterns:
                report = router.match_sharded(pattern, graph, source, self.XI)
                reference = comp_max_card_partitioned(
                    pattern, graph, source(pattern, graph), self.XI
                )
                assert_reports_identical(report, reference)
            assert_cold_identical(
                router.workers[owner].prepared_for(
                    plan.shard_graph(owner), fingerprint=plan.fingerprint_for(owner)
                ),
                plan.shard_graph(owner),
            )
        assert diffs.calls == 0
        aggregate = router.stats_snapshot()["aggregate"]
        assert aggregate["shard_evolves"] == len(edits)
        assert aggregate["prepares"] == warm_prepares  # no cold shard prepare

    @pytest.mark.parametrize(
        "second, slices",
        [((80, 86), 2), ((60, 66), 1)],
        ids=["same-shard", "other-shard"],
    )
    def test_two_writes_before_a_match_evolve_the_held_index(
        self, monkeypatch, second, slices
    ):
        """Two writes, each followed by ``update_graph``, then a match on
        the first write's shard: the middle plan never built that
        shard's view, so the last plan carries its base forward — both
        slices concatenated when the second write hit the same shard,
        the base kept as it was when the shard did not change again —
        and the worker evolves the index it holds."""
        graph = halves_corpus(sites=6, size=20)
        pattern = half_patterns(graph, sites=6, size=20)[4]  # site 2
        source = LabelEqualitySimilarity()
        router = ShardedMatchingService(2)
        plan = router.plan_for(graph)
        warm_every_shard(router, plan)
        owner = plan.shard_of[40]
        # Sites 2 and 4 share a shard; site 3 lives on the other one.
        assert (plan.shard_of[second[0]] == owner) == (slices == 2)
        before = router.stats_snapshot()["aggregate"]
        diffs = DiffSpy(monkeypatch)

        graph.add_edge(40, 46)
        router.update_graph(graph)
        graph.add_edge(*second)
        plan = router.update_graph(graph)
        report = router.match_sharded(pattern, graph, source, self.XI)
        reference = comp_max_card_partitioned(
            pattern, graph, source(pattern, graph), self.XI
        )
        assert_reports_identical(report, reference)
        after = router.stats_snapshot()["aggregate"]
        assert after["shard_evolves"] == before["shard_evolves"] + 1
        assert after["delta_hits"] == before["delta_hits"] + 1
        assert after["prepares"] == before["prepares"]
        assert diffs.calls == 0
        assert len(plan.shard_delta(owner).events) == slices
        assert_cold_identical(
            router.workers[owner].prepared_for(
                plan.shard_graph(owner), fingerprint=plan.fingerprint_for(owner)
            ),
            plan.shard_graph(owner),
        )

    def test_served_views_carry_no_delta_log(self):
        """Workers look views up by the plan's fingerprint, so they
        attach no delta log to a view: after an update and a second
        round of requests, the corpus carries the router's log and no
        served view carries one."""
        graph = halves_corpus(sites=4, size=20)
        source = LabelEqualitySimilarity()
        router = ShardedMatchingService(2)
        plan = router.plan_for(graph)
        far = next(node for node in graph if plan.shard_of[node] != plan.shard_of[0])
        single = half_patterns(graph, sites=4, size=20)[0]
        spill = DiGraph(name="spill")  # one component, candidates on both shards
        spill.add_node("a", label=graph.label(0))
        spill.add_node("b", label=graph.label(far))
        spill.add_edge("a", "b")

        def serve():
            for pattern in (single, spill):
                report = router.match_sharded(pattern, graph, source, self.XI)
                reference = comp_max_card_partitioned(
                    pattern, graph, source(pattern, graph), self.XI
                )
                assert_reports_identical(report, reference)

        serve()
        before = router.stats_snapshot()
        graph.add_edge(0, 6)
        plan = router.update_graph(graph)
        serve()
        after = router.stats_snapshot()
        assert after["spill_components"] == before["spill_components"] + 1
        assert after["aggregate"]["shard_evolves"] > before["aggregate"]["shard_evolves"]
        views = dict(plan._graphs)
        assert {plan.shard_of[0], frozenset({0, 1})} <= set(views)  # both served
        for key, view in views.items():
            assert view._delta_logs == [], key
        assert graph._delta_logs == [DeltaLog.find(graph, router)]

    def test_label_views_carry_over_unless_relabeled(self):
        graph = halves_corpus(sites=4, size=20)
        router = ShardedMatchingService(2)
        plan = router.plan_for(graph)
        sigs = [plan.shard_label_signature(sid) for sid in range(2)]
        members = [plan.shard_label_members(sid) for sid in range(2)]
        graph.add_edge(0, 6)
        evolved = router.update_graph(graph)
        assert evolved._position is plan._position  # no node added or removed
        for sid in range(2):
            assert evolved.shard_nodes[sid] is plan.shard_nodes[sid]
            assert evolved._label_sigs[sid] == sigs[sid]
            assert evolved.shard_label_members(sid) is members[sid]
        graph.set_label(25, "renamed")
        relabeled = router.update_graph(graph)
        renamed_shard = relabeled.shard_of[25]
        assert renamed_shard not in relabeled._label_sigs
        assert "renamed" in relabeled.shard_label_members(renamed_shard)
        relabeled.shard_label_signature(renamed_shard)
        # Lazily filled views land in the new plan's own containers;
        # the predecessor's shared ones keep what they held.
        assert evolved._label_sigs[renamed_shard] == sigs[renamed_shard]
        assert "renamed" not in evolved._label_members[renamed_shard]

    def _fallback_run(self, monkeypatch, mutate, sites=3):
        """Mutate a warm router's graph, serve every half pattern, and
        check answers, the diff fallback and cold identity."""
        graph = halves_corpus(sites=sites, size=20)
        patterns = half_patterns(graph, sites=sites, size=20)
        source = LabelEqualitySimilarity()
        router = ShardedMatchingService(2)
        plan = router.plan_for(graph)
        warm_every_shard(router, plan)
        for pattern in patterns:
            router.match_sharded(pattern, graph, source, self.XI)
        diffs = DiffSpy(monkeypatch)
        mutate(graph, router)
        plan = router.update_graph(graph)
        for pattern in patterns:
            report = router.match_sharded(pattern, graph, source, self.XI)
            reference = comp_max_card_partitioned(
                pattern, graph, source(pattern, graph), self.XI
            )
            assert_reports_identical(report, reference)
        assert diffs.calls >= 1
        assert router.stats_snapshot()["aggregate"]["shard_evolves"] >= 1
        for sid in plan.nonempty_shards():
            shard_graph = plan.shard_graph(sid)
            assert_cold_identical(
                router.workers[sid].prepared_for(
                    shard_graph, fingerprint=plan.fingerprint_for(sid)
                ),
                shard_graph,
            )
        return plan

    def test_node_add_falls_back_to_the_diff(self, monkeypatch):
        def mutate(graph, router):
            graph.add_node(500, label="s2h1:L0")
            graph.add_edge(59, 500)

        plan = self._fallback_run(monkeypatch, mutate)
        assert plan.shard_of[500] == plan.shard_of[59]

    def test_relabel_falls_back_to_the_diff(self, monkeypatch):
        def mutate(graph, router):
            graph.set_label(5, "s0h0:L1")

        self._fallback_run(monkeypatch, mutate)

    def test_component_moving_shards_falls_back_to_the_diff(self, monkeypatch):
        # Three sites on two shards: sites 0 and 2 share shard 0.  Cutting
        # site 2's middle bridge re-pools its halves; the second half
        # lands on shard 1, so both shards' node lists move.
        def mutate(graph, router):
            graph.remove_edge(49, 50)

        before = ShardPlan.for_data_graph(halves_corpus(), 2)
        assert before.shard_of[40] == before.shard_of[59] == 0
        plan = self._fallback_run(monkeypatch, mutate)
        assert plan.shard_of[40] == 0 and plan.shard_of[59] == 1

    def test_overflowed_log_falls_back_to_the_diff(self, monkeypatch):
        def mutate(graph, router):
            log = DeltaLog.find(graph, router)
            log.max_events = 1
            graph.add_edge(0, 7)
            graph.add_edge(1, 8)
            assert log.overflowed

        self._fallback_run(monkeypatch, mutate)


# ----------------------------------------------------------------------
# Lock discipline: shard views build off-lock (repro-lint RL001 fix)
# ----------------------------------------------------------------------
class TestOffLockShardBuilds:
    """``shard_graph``/``union_graph`` used to run ``graph.subgraph`` while
    holding the plan lock, stalling every concurrent router scan behind
    one O(|shard|) build.  These tests pin the off-lock double-checked
    pattern (and would deadlock/fail against the old code)."""

    def test_shard_build_does_not_hold_the_plan_lock(self, monkeypatch):
        graph = corpus_graph(sites=2, site_nodes=15)
        plan = ShardPlan.for_data_graph(graph, 2)
        sid = plan.nonempty_shards()[0]
        entered, release = threading.Event(), threading.Event()
        original = DiGraph.subgraph

        def slow_subgraph(self, nodes, name=""):
            entered.set()
            assert release.wait(5), "builder was never released"
            return original(self, nodes, name=name)

        monkeypatch.setattr(DiGraph, "subgraph", slow_subgraph)
        builder = threading.Thread(target=plan.shard_graph, args=(sid,))
        builder.start()
        try:
            assert entered.wait(5), "builder never reached subgraph"
            # While the O(|shard|) build is in flight, the plan lock must
            # be free for other readers (fingerprint cache, describe()).
            acquired = plan._lock.acquire(timeout=1)
            assert acquired, "shard_graph held the plan lock across the build"
            plan._lock.release()
        finally:
            release.set()
            builder.join(5)
        monkeypatch.undo()
        shard = plan.shard_graph(sid)  # cached by the builder thread
        assert sorted(shard.nodes()) == sorted(plan.shard_nodes[sid])

    def test_union_build_does_not_hold_the_plan_lock(self, monkeypatch):
        graph = corpus_graph(sites=3, site_nodes=12)
        plan = ShardPlan.for_data_graph(graph, 3)
        key = frozenset(plan.nonempty_shards()[:2])
        entered, release = threading.Event(), threading.Event()
        original = DiGraph.subgraph

        def slow_subgraph(self, nodes, name=""):
            entered.set()
            assert release.wait(5)
            return original(self, nodes, name=name)

        monkeypatch.setattr(DiGraph, "subgraph", slow_subgraph)
        builder = threading.Thread(target=plan.union_graph, args=(key,))
        builder.start()
        try:
            assert entered.wait(5)
            acquired = plan._lock.acquire(timeout=1)
            assert acquired, "union_graph held the plan lock across the build"
            plan._lock.release()
        finally:
            release.set()
            builder.join(5)

    def test_racing_builders_share_one_cached_graph(self):
        graph = corpus_graph(sites=3, site_nodes=15)
        plan = ShardPlan.for_data_graph(graph, 3)
        sid = plan.nonempty_shards()[0]
        key = frozenset(plan.nonempty_shards())
        barrier = threading.Barrier(8)
        shard_results, union_results = [], []

        def build():
            barrier.wait()
            shard_results.append(plan.shard_graph(sid))
            union_results.append(plan.union_graph(key))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        # Racing builders may each construct a graph, but setdefault
        # publishes exactly one canonical object: identity, not equality.
        assert all(g is shard_results[0] for g in shard_results)
        assert all(g is union_results[0] for g in union_results)
        assert sorted(shard_results[0].nodes()) == sorted(plan.shard_nodes[sid])

    def test_stats_never_tear_under_concurrent_traffic(self):
        """RL002 regression: every aggregate snapshot taken while traffic
        is in flight satisfies calls == sum(solved_by) — the PR-4
        invariant the stats lock exists to protect."""
        graph2 = corpus_graph(sites=2, site_nodes=18, seed=3)
        patterns = [random_pattern(graph2, 5, s) for s in range(3)]
        mats = {p.name: label_equality_matrix(p, graph2) for p in patterns}
        router = ShardedMatchingService(2)
        torn, stop = [], threading.Event()

        def hammer():
            for _ in range(15):
                for pattern in patterns:
                    router.match(pattern, graph2, mats[pattern.name], 0.5)

        def watch():
            while not stop.is_set():
                agg = router.stats_snapshot()["aggregate"]
                if agg["calls"] != sum(agg["solved_by"].values()):
                    torn.append(agg)

        workers = [threading.Thread(target=hammer) for _ in range(3)]
        watcher = threading.Thread(target=watch)
        watcher.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(30)
        stop.set()
        watcher.join(10)
        assert not torn, torn[:3]
        agg = router.stats_snapshot()["aggregate"]
        assert agg["calls"] == 3 * 15 * len(patterns)
