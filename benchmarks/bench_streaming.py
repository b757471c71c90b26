"""Streaming graphs: a sustained mutate+query mix over one live index.

The serving story behind the streaming fast path: a 2000-node site
skeleton mutates continuously (removal-heavy, with inserts mixed in)
while queries keep landing, and the ``G2⁺`` index **evolves** through
every step instead of re-preparing — with the evolved index persisted as
compact delta-chain records (``store.save_delta``) rather than full
payload rewrites.  Three floors are asserted over a 500-step run:

* removal-step evolution is ≥ 5× faster than the cold prepare;
* chain-mode persistence writes ≥ 5× fewer bytes than rewriting the
  full payload every step (depth-capped: every
  :data:`~repro.core.store.CHAIN_DEPTH_MAX`-th write is a fresh base);
* the evolved index — and the match reports served off it — stay
  bit-identical to a cold-prepared control at every checkpoint.

``--json PATH`` writes ``BENCH_streaming.json`` (with ``peak_rss_kb``)
via the shared benchmark plumbing; ``-k equivalence`` is the cheap CI
smoke.  It also drives the sharded write path: a multi-site corpus
mutating under ``ShardedMatchingService.update_graph`` (plan evolution
plus per-shard delta evolution), every answer checked against the flat
partitioned solve and the p-hom definition.
"""

from __future__ import annotations

import random
import time

from repro.core.api import match_prepared
from repro.core.incremental import DeltaLog
from repro.core.optimize import comp_max_card_partitioned
from repro.core.phom import check_phom_mapping
from repro.core.prepared import PreparedDataGraph, prepare_data_graph
from repro.core.sharding import ShardedMatchingService
from repro.core.store import CHAIN_DEPTH_MAX, PreparedIndexStore
from repro.similarity.labels import label_equality_matrix
from repro.workload.scenario import Scenario, ScenarioSpec

from bench_incremental import _fresh_edge, _skeleton

STEPS = 500
DATA_NODES = 2000
PATTERN_NODES = 10
XI = 0.75
QUERY_EVERY = 10
CHECK_EVERY = 50
REMOVE_BIAS = 0.7  # fraction of steps that remove an edge
MIN_REMOVE_SPEEDUP = 5.0
MIN_CHAIN_BYTES_RATIO = 5.0


def _mutate(data, rng):
    """One streaming step: removal-biased edge churn; returns the kind."""
    if rng.random() < REMOVE_BIAS and data.num_edges() > DATA_NODES // 2:
        data.remove_edge(*rng.choice(list(data.edges())))
        return "remove"
    data.add_edge(*_fresh_edge(data, rng))
    return "add"


def _assert_bit_identical(evolved, cold):
    assert evolved.nodes2 == cold.nodes2
    assert evolved.from_mask == cold.from_mask
    assert evolved.to_mask == cold.to_mask
    assert evolved.cycle_mask == cold.cycle_mask


def test_streaming_equivalence(tmp_path):
    """CI smoke: a 60-step removal-heavy mutate+query mix on a small
    skeleton — every step bit-identical to the cold prepare, every
    report identical to the cold-served one, and the chain store
    hydrating each persisted step exactly."""
    rng = random.Random(19)
    data = _skeleton(nodes=300, seed=19)
    pattern = data.subgraph(rng.sample(list(data.nodes()), PATTERN_NODES), name="p")
    prepared = prepare_data_graph(data)
    log = DeltaLog(data, base_fingerprint=prepared.fingerprint)
    store = PreparedIndexStore(tmp_path / "idx")
    store.save(prepared)
    persisted = prepared
    chained_writes = 0
    for step in range(60):
        _mutate(data, rng)
        evolved = prepared.apply_delta(log)
        cold = prepare_data_graph(data)
        _assert_bit_identical(evolved, cold)
        assert not evolved.delta_stats["full_rebuild"], (step, evolved.delta_stats)
        chained = store.save_delta(persisted, evolved)
        if chained is None:
            store.save(evolved)
        else:
            chained_writes += 1
        persisted = evolved
        loaded = store.load(evolved.fingerprint, data)
        assert loaded is not None, step
        _assert_bit_identical(loaded, cold)
        if step % 5 == 0:
            mat = label_equality_matrix(pattern, data)
            via_evolved = match_prepared(pattern, evolved, mat, XI)
            via_cold = match_prepared(pattern, cold, mat, XI)
            assert via_evolved.quality == via_cold.quality
            assert via_evolved.result.mapping == via_cold.result.mapping
        prepared = evolved
        log.rebase(prepared.fingerprint)
    assert chained_writes >= 50  # chain mode, not full rewrites, carried the run


def test_sharded_streaming_equivalence(tmp_path):
    """CI smoke for the sharded write path: 60 mutate+match steps on a
    multi-site corpus under ``ShardedMatchingService(2, chain=True)``.

    Each step toggles one intra-site shortcut edge (``Scenario.mutate``),
    re-plans through ``update_graph`` and serves one pattern; the answer
    must equal the flat partitioned solve on the current graph and be a
    valid p-hom mapping under ξ.  The shard workers must have evolved
    their resident indexes rather than only cold-preparing.
    """
    scenario = Scenario(
        ScenarioSpec(sites=8, site_size=60, patterns_per_site=2), seed=7
    )
    corpus = scenario.corpus
    router = ShardedMatchingService(2, store_dir=str(tmp_path / "idx"), chain=True)
    plan = router.plan_for(corpus)
    for sid in plan.nonempty_shards():
        router.workers[sid].prepared_for(
            plan.shard_graph(sid), fingerprint=plan.fingerprint_for(sid)
        )
    rng = random.Random(23)
    steps = 60
    for step in range(steps):
        scenario.mutate(rng)
        router.update_graph(corpus)
        pattern = rng.choice(scenario.patterns)
        report = router.match_sharded(
            pattern, corpus, scenario.similarity, scenario.xi
        )
        mat = label_equality_matrix(pattern, corpus)
        reference = comp_max_card_partitioned(pattern, corpus, mat, scenario.xi)
        assert report.result.mapping == reference.mapping, step
        assert report.result.qual_card == reference.qual_card, step
        assert report.result.qual_sim == reference.qual_sim, step
        violations = check_phom_mapping(
            pattern, corpus, report.result.mapping, mat, scenario.xi
        )
        assert violations == [], (step, violations)
    snap = router.stats_snapshot()
    assert snap["plans_evolved"] == steps
    assert snap["aggregate"]["shard_evolves"] > 0
    assert snap["aggregate"]["chain_writes"] > 0


def test_streaming_sustained(bench_json, tmp_path):
    """The 500-step headline run on the 2000-node skeleton."""
    rng = random.Random(2026)
    data = _skeleton()
    pattern = data.subgraph(rng.sample(list(data.nodes()), PATTERN_NODES), name="p")

    start = time.perf_counter()
    prepared = prepare_data_graph(data)
    cold_seconds = time.perf_counter() - start

    store = PreparedIndexStore(tmp_path / "idx")
    base_path = store.save(prepared)
    full_payload_bytes = base_path.stat().st_size

    log = DeltaLog(data, base_fingerprint=prepared.fingerprint)
    persisted = prepared
    remove_seconds = 0.0
    remove_steps = 0
    add_steps = 0
    chain_bytes = 0
    chain_writes = 0
    full_writes = 0
    queries = 0
    checkpoints = 0
    for step in range(STEPS):
        kind = _mutate(data, rng)
        start = time.perf_counter()
        evolved = prepared.apply_delta(log)
        elapsed = time.perf_counter() - start
        assert not evolved.delta_stats["full_rebuild"], (step, evolved.delta_stats)
        if kind == "remove":
            remove_seconds += elapsed
            remove_steps += 1
        else:
            add_steps += 1

        # Chain-mode persistence: a compact delta record per step, a
        # fresh full base only when the replay depth hits the cap.
        chained = store.save_delta(persisted, evolved)
        if chained is None:
            path = store.save(evolved)
            chain_bytes += path.stat().st_size
            full_writes += 1
        else:
            chain_bytes += chained[1]["delta_bytes"]
            chain_writes += 1
        persisted = evolved

        if step % QUERY_EVERY == 0:
            mat = label_equality_matrix(pattern, data)
            match_prepared(pattern, evolved, mat, XI)
            queries += 1
        if (step + 1) % CHECK_EVERY == 0:
            cold = prepare_data_graph(data)
            _assert_bit_identical(evolved, cold)
            mat = label_equality_matrix(pattern, data)
            via_evolved = match_prepared(pattern, evolved, mat, XI)
            via_cold = match_prepared(pattern, cold, mat, XI)
            assert via_evolved.quality == via_cold.quality
            assert via_evolved.result.mapping == via_cold.result.mapping
            checkpoints += 1

        prepared = evolved
        log.rebase(prepared.fingerprint)

    mean_remove = remove_seconds / remove_steps
    remove_speedup = cold_seconds / mean_remove
    # The control: rewriting the full payload on every step.
    full_rewrite_bytes = STEPS * full_payload_bytes
    bytes_ratio = full_rewrite_bytes / chain_bytes
    print(
        f"\n{STEPS} steps ({remove_steps} remove / {add_steps} add), "
        f"{queries} queries, {checkpoints} cold-control checkpoints\n"
        f"cold prepare={cold_seconds:.3f}s  removal evolve="
        f"{mean_remove * 1000:.1f}ms ({remove_speedup:.1f}x)\n"
        f"chain writes={chain_writes} (+{full_writes} full at depth cap): "
        f"{chain_bytes / 1e6:.2f} MB vs {full_rewrite_bytes / 1e6:.2f} MB "
        f"full rewrites ({bytes_ratio:.1f}x fewer bytes)"
    )
    bench_json(
        "streaming",
        {
            "data_nodes": DATA_NODES,
            "steps": STEPS,
            "remove_steps": remove_steps,
            "add_steps": add_steps,
            "queries": queries,
            "checkpoints": checkpoints,
            "cold_prepare_seconds": cold_seconds,
            "removal_evolve_seconds": mean_remove,
            "removal_speedup": remove_speedup,
            "chain_writes": chain_writes,
            "full_writes_at_depth_cap": full_writes,
            "chain_depth_max": CHAIN_DEPTH_MAX,
            "chain_bytes_written": chain_bytes,
            "full_rewrite_bytes": full_rewrite_bytes,
            "chain_bytes_ratio": bytes_ratio,
            "min_remove_speedup": MIN_REMOVE_SPEEDUP,
            "min_chain_bytes_ratio": MIN_CHAIN_BYTES_RATIO,
        },
    )
    assert remove_speedup >= MIN_REMOVE_SPEEDUP
    assert bytes_ratio >= MIN_CHAIN_BYTES_RATIO
