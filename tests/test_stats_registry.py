"""The serving counters' public shape, and what the latency hook times.

* The snapshot keys are pinned in order: perfbench's ``_flat_counters``,
  ``repro.workload``'s ``stats_of`` and the CLI ``batch`` summary all
  read them, so deriving ``snapshot()`` and the router aggregate from
  the ``ServiceStats`` fields must not move a single key.
* RL002 still guards a ``snapshot()`` that names no counter: reading
  the fields generically (``getattr``/``vars``/``asdict``/``__dict__``)
  off the stats lock is a torn read like any named one.
* The latency hook times the whole call from its entry — tier lookup,
  hydration, planning, similarity resolution and the prefilter
  included — not just the solve.
"""

from __future__ import annotations

import asyncio
import random
import time
from pathlib import Path

from repro.analysis import all_rules, run_analysis
from repro.core.aio import AsyncMatchingService
from repro.core.service import MatchingService, ServiceStats
from repro.core.sharding import ShardedMatchingService
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph
from repro.similarity.labels import label_equality_matrix

FIXTURES = Path(__file__).parent / "analysis_fixtures"

SERVICE_KEYS = [
    "calls",
    "prepares",
    "cache_hits",
    "cache_misses",
    "evictions",
    "disk_hits",
    "disk_misses",
    "mapped_bytes",
    "delta_hits",
    "delta_nodes_recomputed",
    "delta_seconds",
    "chain_writes",
    "chain_bytes_saved",
    "shard_evolves",
    "prepare_seconds",
    "solve_seconds",
    "load_seconds",
    "store_seconds",
    "batch_seconds",
    "batches",
    "pairs_pruned",
    "shards_skipped",
    "filter_bypasses",
    "filter_seconds",
    "hook_calls",
    "hook_seconds",
    "backend",
    "solved_by",
]

ROUTER_KEYS = [
    "shards",
    "routed_calls",
    "sharded_solves",
    "fanout_components",
    "spill_components",
    "plans_built",
    "plans_evolved",
    "shards_replanned",
    "batch_seconds",
    "batches",
    "pairs_pruned",
    "shards_skipped",
    "filter_bypasses",
    "filter_seconds",
    "hook_calls",
    "hook_seconds",
    "aggregate",
    "per_shard",
    "spill",
]


class TestSnapshotKeys:
    def test_service_snapshot_keys_in_order(self):
        assert list(ServiceStats().snapshot()) == SERVICE_KEYS

    def test_router_snapshot_keys_in_order(self):
        snap = ShardedMatchingService(2).stats_snapshot()
        assert list(snap) == ROUTER_KEYS
        # The aggregate sums every counter and reports the router's
        # backend last, after the merged ``solved_by``.
        aggregate = [key for key in SERVICE_KEYS if key != "backend"] + ["backend"]
        assert list(snap["aggregate"]) == aggregate
        assert [list(s) for s in snap["per_shard"]] == [SERVICE_KEYS] * 2
        assert list(snap["spill"]) == SERVICE_KEYS

    def test_aggregate_sums_counters_and_merges_solved_by(self):
        corpus, patterns = _two_sites()
        router = ShardedMatchingService(2, backends=["python", "numpy"])
        for pattern in patterns:
            router.match_sharded(pattern, corpus, label_equality_matrix, 0.5)
        snap = router.stats_snapshot()
        parts = snap["per_shard"] + [snap["spill"]]
        aggregate = snap["aggregate"]
        for key in ("calls", "prepares", "solve_seconds", "cache_misses"):
            assert aggregate[key] == sum(part[key] for part in parts)
        merged: dict = {}
        for part in parts:
            for name, count in part["solved_by"].items():
                merged[name] = merged.get(name, 0) + count
        assert aggregate["solved_by"] == merged
        assert sum(merged.values()) == aggregate["calls"] > 0
        assert aggregate["backend"] == router.backend.name

    def test_snapshot_is_a_copy(self):
        stats = ServiceStats()
        snap = stats.snapshot()
        snap["solved_by"]["python"] = 5
        assert stats.solved_by == {}


class TestRl002FieldDerivedSnapshot:
    def _findings(self, name: str):
        report = run_analysis(
            [FIXTURES / name], rules=all_rules(), select=["RL002"],
            restrict_paths=False,
        )
        assert not report.parse_errors, report.parse_errors
        return report.findings

    def test_generic_reads_off_the_lock_are_flagged(self):
        findings = self._findings("rl002_derived_violation.py")
        assert len(findings) == 4, [f.render() for f in findings]
        assert all("snapshot()" in f.message for f in findings)
        kinds = " ".join(f.message for f in findings)
        for needle in ("getattr", "vars", "asdict", "__dict__"):
            assert needle in kinds, kinds

    def test_generic_reads_under_the_lock_are_clean(self):
        assert self._findings("rl002_derived_clean.py") == []


# ----------------------------------------------------------------------
# The latency hook times the whole call
# ----------------------------------------------------------------------
def _big_graph(nodes: int = 600, seed: int = 3):
    rng = random.Random(seed)
    data = random_digraph(nodes, 3 * nodes, rng, name="hooked")
    patterns = [
        data.subgraph(rng.sample(list(data.nodes()), 6), name=f"p{i}") for i in range(2)
    ]
    return data, patterns


def _two_sites():
    corpus = DiGraph(name="two-sites")
    rng = random.Random(5)
    for s in range(2):
        for i in range(20):
            corpus.add_node(s * 20 + i, label=f"s{s}:L{rng.randrange(4)}")
        for i in range(19):
            corpus.add_edge(s * 20 + i, s * 20 + i + 1)
    patterns = [
        corpus.subgraph(range(s * 20 + 2, s * 20 + 7), name=f"q{s}") for s in range(2)
    ]
    return corpus, patterns


def _slow_labels(pattern: DiGraph, data: DiGraph):
    time.sleep(0.02)
    return label_equality_matrix(pattern, data)


class TestHookTimesWholeCall:
    def test_cold_match_includes_the_prepare(self):
        data, patterns = _big_graph()
        seen: list[tuple[str, float]] = []
        service = MatchingService(latency_hook=lambda op, s: seen.append((op, s)))
        service.match(patterns[0], data, label_equality_matrix, 0.75)
        prepare = service.stats.snapshot()["prepare_seconds"]
        assert prepare > 0
        assert [op for op, _ in seen] == ["match"]
        assert seen[0][1] >= prepare

    def test_cold_match_many_includes_the_prepare(self):
        data, patterns = _big_graph()
        seen: list[tuple[str, float]] = []
        service = MatchingService(latency_hook=lambda op, s: seen.append((op, s)))
        service.match_many(patterns, data, label_equality_matrix, 0.75)
        snap = service.stats.snapshot()
        assert snap["prepare_seconds"] > 0
        assert [op for op, _ in seen] == ["match"] * len(patterns) + ["batch"]
        assert seen[-1][1] >= snap["prepare_seconds"]
        # batch_seconds keeps its meaning: the solve fan-out, no prepare.
        assert snap["batch_seconds"] < seen[-1][1]

    def test_sharded_match_includes_resolve_and_planning(self):
        corpus, patterns = _two_sites()
        seen: list[tuple[str, float]] = []
        router = ShardedMatchingService(2, latency_hook=lambda op, s: seen.append((op, s)))
        router.match_sharded(patterns[0], corpus, _slow_labels, 0.5)
        assert seen[0][0] == "match_sharded" and seen[0][1] >= 0.02

        plan_for = router.plan_for

        def slow_plan_for(graph2):
            time.sleep(0.02)
            return plan_for(graph2)

        router.plan_for = slow_plan_for  # type: ignore[method-assign]
        seen.clear()
        router.match_many_sharded(patterns, corpus, label_equality_matrix, 0.5)
        assert seen[-1][0] == "batch" and seen[-1][1] >= 0.02

    def test_async_hook_includes_the_semaphore_wait(self):
        corpus, patterns = _two_sites()
        seen: list[tuple[str, float]] = []
        inner = MatchingService()
        inner.prepared_for(corpus)

        async def burst():
            async with AsyncMatchingService(
                inner, max_concurrency=1,
                latency_hook=lambda op, s: seen.append((op, s)),
            ) as service:
                await service.match_many(patterns, corpus, _slow_labels, 0.5)

        asyncio.run(burst())
        assert [op for op, _ in seen] == ["async", "async"]
        # One slot: the second request queued behind the first's
        # 20 ms similarity resolve, then resolved its own.
        assert max(s for _, s in seen) >= 0.04
