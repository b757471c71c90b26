"""Candidate-prefilter pipeline: soundness, persistence, and bit-identity.

The load-bearing claim of :mod:`repro.core.prefilter` is that the
``auto`` tier is *invisible* in results: gated candidate rows, signature
shard-skipping and route-scoped fan-out must produce bit-identical
mappings, qualities and result stats to ``prefilter="off"`` — while the
service counters prove real work was skipped (``pairs_pruned``,
``shards_skipped``).  A seeded fuzz sweep (200+ comparisons per backend
leg: seeds × pick rules × label topologies × flat/sharded) pins exactly
that; unit tests cover the sketch algebra, sketches derived (never
stored) on every hydration path (mapped store hit, chain overlay,
evolution), the strict tier's validity guarantee, rendezvous-hashed
corpus routing, and the workspace's candidate-row validation.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.api import match
from repro.core.backends import get_backend
from repro.core.incremental import DeltaLog
from repro.core.phom import check_phom_mapping
from repro.core.prefilter import (
    LabelEqualitySimilarity,
    PREFILTER_MODES,
    SIG_BITS,
    build_sketches,
    gated_candidate_rows,
    label_bit,
    label_gate_of,
    label_signature,
    pattern_sketches,
    validate_prefilter,
)
from repro.core.prepared import PreparedDataGraph
from repro.core.service import MatchingService
from repro.core.sharding import ShardPlan, ShardedMatchingService
from repro.core.store import PreparedIndexStore
from repro.core.workspace import MatchingWorkspace
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.io import dump_json
from repro.similarity.labels import label_equality_matrix
from repro.utils.errors import InputError
from repro.workload.scenario import Scenario
from repro.__main__ import main


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------
def labeled_instance(
    seed: int,
    n1: int = 5,
    n2: int = 24,
    labels: int = 4,
    site_prefix: bool = False,
    sites: int = 3,
) -> tuple[DiGraph, DiGraph]:
    """A random labeled (pattern, data) pair; data has several components.

    ``site_prefix`` confines each data label to one site, the regime
    where shard signatures and route scoping actually prune; shared
    labels force spills instead.  Both regimes must be bit-identical.
    """
    rng = random.Random(seed)
    graph2 = DiGraph(name=f"data-{seed}")
    site_nodes = max(2, n2 // sites)
    for s in range(sites):
        base = s * site_nodes
        prefix = f"s{s}:" if site_prefix else ""
        for i in range(site_nodes):
            graph2.add_node(base + i, label=f"{prefix}L{rng.randrange(labels)}")
        for _ in range(2 * site_nodes):
            a = base + rng.randrange(site_nodes)
            b = base + rng.randrange(site_nodes)
            if a != b:
                graph2.add_edge(a, b)
    data_labels = sorted({graph2.label(u) for u in graph2.nodes()})
    graph1 = DiGraph(name=f"pattern-{seed}")
    for v in range(n1):
        graph1.add_node(f"p{v}", label=rng.choice(data_labels))
    for _ in range(n1):
        a, b = rng.randrange(n1), rng.randrange(n1)
        if a != b:
            graph1.add_edge(f"p{a}", f"p{b}")
    return graph1, graph2


def clustered_data(clusters: int = 6, size: int = 8) -> DiGraph:
    """Disconnected label-confined clusters: the maximal-pruning workload."""
    graph = DiGraph(name="clusters")
    for c in range(clusters):
        for k in range(size):
            graph.add_node(c * size + k, label=f"c{c}" if k else "hub")
        for k in range(size - 1):
            graph.add_edge(c * size + k, c * size + k + 1)
    return graph


def strip_timing(stats: dict) -> dict:
    """Result stats minus wall-clock fields (everything else must match)."""
    return {k: v for k, v in stats.items() if not k.endswith("_seconds")}


# ----------------------------------------------------------------------
# Sketch algebra
# ----------------------------------------------------------------------
class TestSketchAlgebra:
    def test_label_bit_stable_and_in_range(self):
        for label in ["a", "b", 17, ("t", 1), None, "a"]:
            bit = label_bit(label)
            assert 0 <= bit < SIG_BITS
            assert bit == label_bit(label)  # process-independent (blake2b)
        assert label_bit("a") == label_bit("a")

    def test_label_signature_is_or_of_bits(self):
        labels = ["x", "y", "z"]
        sig = label_signature(labels)
        for label in labels:
            assert sig >> label_bit(label) & 1
        assert label_signature([]) == 0

    def test_build_sketches_on_chain(self):
        # 0 -> 1 -> 2 with distinct labels: closure rows are suffixes.
        graph = DiGraph()
        for i, label in enumerate("abc"):
            graph.add_node(i, label=label)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        prepared = PreparedDataGraph(graph)
        sk = prepared.sketches
        assert list(sk.out_card) == [2, 1, 0]
        assert list(sk.in_card) == [0, 1, 2]
        assert sk.out_sig[0] == label_signature(["b", "c"])
        assert sk.out_sig[2] == 0
        assert sk.in_sig[2] == label_signature(["a", "b"])
        # build_sketches is the same function the prepared property uses
        rebuilt = build_sketches(
            prepared.from_mask, prepared.to_mask,
            [graph.label(u) for u in prepared.nodes2],
        )
        assert rebuilt == sk

    def test_validate_prefilter(self):
        for mode in PREFILTER_MODES:
            validate_prefilter(mode)
        with pytest.raises(InputError):
            validate_prefilter("aggressive")

    def test_label_gate_recognition_and_rows(self):
        gate = LabelEqualitySimilarity()
        assert label_gate_of(gate) is gate
        assert label_gate_of(label_equality_matrix(DiGraph(), DiGraph())) is None
        graph1, graph2 = labeled_instance(3)
        # The gate evaluates to exactly the label-equality matrix ...
        mat = gate(graph1, graph2)
        want = label_equality_matrix(graph1, graph2)
        for v in graph1.nodes():
            assert mat.row(v) == want.row(v)
        # ... and gated rows match the workspace's own matrix scan.
        prepared = PreparedDataGraph(graph2)
        rows = gated_candidate_rows(gate, graph1, prepared)
        baseline = MatchingWorkspace(graph1, graph2, want, 0.75, prepared=prepared)
        gated = MatchingWorkspace(
            graph1, graph2, want, 0.75, prepared=prepared, candidate_rows=rows
        )
        assert gated.scores == baseline.scores
        assert gated.cand_mask == baseline.cand_mask


# ----------------------------------------------------------------------
# Sketches are derived, not stored: decode, mmap, chain overlay, evolution
# ----------------------------------------------------------------------
def strict_answers(service, graph, patterns, sim, xi):
    """``(mapping, quality, pairs_pruned)`` per pattern under ``strict``,
    after checking the index holds no sketches before its first strict
    request."""
    assert service.prepared_for(graph)._sketches is None
    answers = []
    for pattern in patterns:
        report = service.match(
            pattern, graph, sim, xi, partitioned=True, prefilter="strict"
        )
        answers.append(
            (report.result.mapping, report.quality,
             report.result.stats["pairs_pruned"])
        )
    return answers


class TestSketchPersistence:
    def test_payload_round_trip(self, tmp_path):
        _, graph2 = labeled_instance(11)
        prepared = PreparedDataGraph(graph2)
        store = PreparedIndexStore(tmp_path)
        store.save(prepared)
        restored = store.load(prepared.fingerprint, graph2)
        assert restored._sketches is None  # derived on first use, not stored
        assert restored.sketches == PreparedDataGraph(graph2).sketches

    def test_store_round_trip_and_mmap_views(self, tmp_path):
        _, graph2 = labeled_instance(13)
        prepared = PreparedDataGraph(graph2)
        store = PreparedIndexStore(tmp_path)
        store.save(prepared)
        loaded = store.load(prepared.fingerprint, graph2)
        assert loaded is not None
        assert loaded._sketches is None
        assert loaded.sketches == prepared.sketches

        backend = get_backend("mmap")
        region = store.payload_region(prepared.fingerprint, verify="full")
        assert region is not None
        mapped = PreparedDataGraph.from_mapped(
            graph2, backend.open_payload(region), fingerprint=prepared.fingerprint
        )
        assert mapped._sketches is None
        assert mapped.sketches == prepared.sketches

    def test_incremental_carry_matches_cold(self):
        _, graph2 = labeled_instance(15, n2=30)
        prepared = PreparedDataGraph(graph2)
        assert prepared.sketches is not None  # materialize the base
        log = DeltaLog(graph2, base_fingerprint=prepared.fingerprint)
        nodes = list(graph2.nodes())
        graph2.add_edge(nodes[0], nodes[-1])
        graph2.add_node("fresh", label="L0")
        graph2.add_edge(nodes[1], "fresh")
        evolved = prepared.apply_delta(log)
        assert evolved._sketches is None  # nothing carried: derived on use
        cold = PreparedDataGraph(graph2)
        assert evolved.sketches == cold.sketches

    def test_incremental_carry_bails_on_relabel_and_removal(self):
        _, graph2 = labeled_instance(16)
        prepared = PreparedDataGraph(graph2)
        assert prepared.sketches is not None
        log = DeltaLog(graph2, base_fingerprint=prepared.fingerprint)
        victim = next(iter(graph2.nodes()))
        graph2.set_label(victim, "relabeled")
        evolved = prepared.apply_delta(log)
        # a relabel changes other nodes' signatures: derived afresh
        assert evolved.sketches == PreparedDataGraph(graph2).sketches

    @pytest.mark.parametrize("seed", [1, 2])
    def test_strict_answers_do_not_depend_on_hydration(self, tmp_path, seed):
        """Mapped (under either backend), overlay-mapped and evolved
        indexes answer ``strict`` exactly as a cold one: sketches depend
        only on the closure rows and labels every hydration path
        reproduces."""
        scenario = Scenario(seed=seed)
        sim, xi, patterns = scenario.similarity, scenario.xi, scenario.patterns
        base = scenario.corpus.copy()
        cold = strict_answers(MatchingService(), base, patterns, sim, xi)
        assert sum(pruned for *_, pruned in cold) > 0

        store = PreparedIndexStore(tmp_path)
        store.save(PreparedDataGraph(base))
        for backend in ("python", "numpy"):
            service = MatchingService(store=store, backend=backend)
            graph = base.copy()
            assert strict_answers(service, graph, patterns, sim, xi) == cold
            snap = service.stats.snapshot()
            assert snap["disk_hits"] == 1 and snap["prepares"] == 0, (backend, snap)

        # In memory: a served graph mutates and its index evolves.  The
        # base index already built sketches; the evolved one derives its own.
        live = MatchingService()
        assert strict_answers(live, scenario.corpus, patterns, sim, xi) == cold
        scenario.mutate(random.Random(seed))
        mutated = scenario.corpus
        live.update_graph(mutated)
        assert live.stats.snapshot()["delta_hits"] == 1
        cold = strict_answers(MatchingService(), mutated.copy(), patterns, sim, xi)
        assert strict_answers(live, mutated, patterns, sim, xi) == cold

        # On disk: the same edit chained onto the store, then mapped as
        # the base file plus a copy-on-write overlay of replayed rows.
        _, info = store.evolve(base, mutated.copy(), chain=True)
        assert info["action"] == "chained", info
        region = store.payload_region(graph_fingerprint(mutated))
        assert region is not None and region.overlay is not None
        service = MatchingService(store=store, backend="numpy")
        assert strict_answers(service, mutated.copy(), patterns, sim, xi) == cold
        assert service.stats.snapshot()["disk_hits"] == 1


# ----------------------------------------------------------------------
# Workspace candidate-row validation (satellite: clear InputError)
# ----------------------------------------------------------------------
class TestCandidateRowValidation:
    def test_unknown_node_raises(self):
        graph1, graph2 = labeled_instance(21, n1=3)
        rows = [{"no-such-node": 1.0}, {}, {}]
        with pytest.raises(InputError, match="no-such-node"):
            MatchingWorkspace(
                graph1, graph2, label_equality_matrix(graph1, graph2), 0.75,
                candidate_rows=rows,
            )

    def test_partial_rows_opts_into_silent_drop(self):
        graph1, graph2 = labeled_instance(21, n1=3)
        rows = [{"no-such-node": 1.0}, {}, {}]
        workspace = MatchingWorkspace(
            graph1, graph2, label_equality_matrix(graph1, graph2), 0.75,
            candidate_rows=rows, partial_rows=True,
        )
        assert workspace.scores == [{}, {}, {}]

    def test_row_count_mismatch_raises(self):
        graph1, graph2 = labeled_instance(21, n1=3)
        with pytest.raises(InputError, match="one row per pattern node"):
            MatchingWorkspace(
                graph1, graph2, label_equality_matrix(graph1, graph2), 0.75,
                candidate_rows=[{}],
            )


# ----------------------------------------------------------------------
# Rendezvous corpus routing (satellite: graceful fleet resizing)
# ----------------------------------------------------------------------
class TestRendezvousRouting:
    def test_shrinking_fleet_remaps_only_departed_shard(self):
        fingerprints = [
            graph_fingerprint(labeled_instance(seed)[1]) for seed in range(40)
        ]
        four = ShardPlan.for_corpus(4)
        three = ShardPlan.for_corpus(3)
        before = {fp: four.shard_of_fingerprint(fp) for fp in fingerprints}
        after = {fp: three.shard_of_fingerprint(fp) for fp in fingerprints}
        assert any(sid == 3 for sid in before.values())  # workload reaches it
        for fp in fingerprints:
            if before[fp] == 3:
                assert 0 <= after[fp] < 3  # departed shard's graphs re-home
            else:
                assert after[fp] == before[fp]  # everyone else stays put

    def test_growing_fleet_moves_a_minority(self):
        fingerprints = [
            graph_fingerprint(labeled_instance(seed)[1]) for seed in range(40)
        ]
        four = ShardPlan.for_corpus(4)
        five = ShardPlan.for_corpus(5)
        moved = sum(
            four.shard_of_fingerprint(fp) != five.shard_of_fingerprint(fp)
            for fp in fingerprints
        )
        assert 0 < moved < len(fingerprints) // 2
        for fp in fingerprints:
            if four.shard_of_fingerprint(fp) != five.shard_of_fingerprint(fp):
                assert five.shard_of_fingerprint(fp) == 4  # only onto the new shard


# ----------------------------------------------------------------------
# Bit-identity fuzz: auto ≡ off, flat and sharded
# ----------------------------------------------------------------------
class TestAutoTierBitIdentity:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("pick", ["similarity", "arbitrary"])
    @pytest.mark.parametrize("site_prefix", [False, True])
    def test_fuzz_auto_equals_off(self, seed, pick, site_prefix):
        # 25 seeds × 2 picks × 2 topologies = 100 cases per backend leg,
        # each asserting flat and sharded identity (200+ comparisons).
        graph1, graph2 = labeled_instance(
            seed, n1=4 + seed % 3, n2=18 + seed % 13, site_prefix=site_prefix
        )
        gate = LabelEqualitySimilarity()
        mat = label_equality_matrix(graph1, graph2)
        xi = 0.75
        injective = seed % 5 == 0

        off = match(
            graph1, graph2, mat, xi, partitioned=True, pick=pick,
            injective=injective, prefilter="off",
        )
        auto = match(
            graph1, graph2, gate, xi, partitioned=True, pick=pick,
            injective=injective, prefilter="auto",
        )
        assert auto.result.mapping == off.result.mapping
        assert auto.result.qual_card == off.result.qual_card
        assert auto.result.qual_sim == off.result.qual_sim
        assert strip_timing(auto.result.stats) == strip_timing(off.result.stats)
        assert auto.matched == off.matched

        cluster = ShardedMatchingService(3)
        sharded_off = cluster.match_sharded(
            graph1, graph2, mat, xi, pick=pick, injective=injective,
            prefilter="off",
        )
        sharded_auto = cluster.match_sharded(
            graph1, graph2, gate, xi, pick=pick, injective=injective,
        )
        assert sharded_auto.result.mapping == sharded_off.result.mapping
        assert sharded_auto.result.qual_card == sharded_off.result.qual_card
        assert sharded_auto.result.qual_sim == sharded_off.result.qual_sim
        assert strip_timing(sharded_auto.result.stats) == strip_timing(
            sharded_off.result.stats
        )
        # and the sharded fan-out agrees with the flat partitioned solve
        assert sharded_auto.result.mapping == off.result.mapping
        assert sharded_auto.result.qual_sim == off.result.qual_sim

    def test_opaque_sources_bypass_conservatively(self):
        graph1, graph2 = labeled_instance(31)
        mat = label_equality_matrix(graph1, graph2)  # matrix: not a gate
        service = MatchingService()
        with_filter = service.match(graph1, graph2, mat, 0.75, partitioned=True)
        without = service.match(
            graph1, graph2, mat, 0.75, partitioned=True, prefilter="off"
        )
        assert with_filter.result.mapping == without.result.mapping
        snap = service.stats.snapshot()
        assert snap["filter_bypasses"] >= 1
        assert snap["pairs_pruned"] == 0


# ----------------------------------------------------------------------
# Strict tier: always-valid mappings, really prunes
# ----------------------------------------------------------------------
class TestStrictTier:
    def test_strict_requires_partitioned_path(self):
        graph1, graph2 = labeled_instance(41)
        with pytest.raises(InputError, match="strict"):
            match(
                graph1, graph2, LabelEqualitySimilarity(), 0.75,
                prefilter="strict",
            )

    def test_strict_mode_name_validated(self):
        graph1, graph2 = labeled_instance(41)
        with pytest.raises(InputError):
            match(graph1, graph2, LabelEqualitySimilarity(), 0.75,
                  partitioned=True, prefilter="bogus")

    @pytest.mark.parametrize("seed", range(10))
    def test_strict_mappings_stay_valid(self, seed):
        graph1, graph2 = labeled_instance(seed, n1=5, n2=26)
        gate = LabelEqualitySimilarity()
        report = match(
            graph1, graph2, gate, 0.75, partitioned=True, prefilter="strict"
        )
        assert "pairs_pruned" in report.result.stats
        violations = check_phom_mapping(
            graph1, graph2, report.result.mapping,
            label_equality_matrix(graph1, graph2), 0.75,
        )
        assert violations == []

    def test_strict_prunes_impossible_pairs(self):
        # Pattern demands a 'a'->'b' closure edge; data node 'lone-a' has
        # label 'a' but no descendants at all — sketch-excludable.
        graph1 = DiGraph()
        graph1.add_node("x", label="a")
        graph1.add_node("y", label="b")
        graph1.add_edge("x", "y")
        graph2 = DiGraph()
        graph2.add_node("good-a", label="a")
        graph2.add_node("good-b", label="b")
        graph2.add_edge("good-a", "good-b")
        graph2.add_node("lone-a", label="a")  # no out-closure
        report = match(
            graph1, graph2, LabelEqualitySimilarity(), 0.75,
            partitioned=True, prefilter="strict",
        )
        assert report.result.stats["pairs_pruned"] >= 1
        assert report.result.mapping == {"x": "good-a", "y": "good-b"}

    def test_pattern_sketches_need_nothing_for_leaves(self):
        graph1 = DiGraph()
        graph1.add_node("solo", label="q")
        sk = pattern_sketches(graph1)
        assert sk.out_need == [0] and sk.in_need == [0]


# ----------------------------------------------------------------------
# Counters and CLI surfacing
# ----------------------------------------------------------------------
class TestCountersAndCli:
    def pattern_pair(self):
        graph1 = DiGraph(name="pat")
        graph1.add_node("x", label="c2")
        graph1.add_node("y", label="c4")
        return graph1, clustered_data()

    def test_sharded_counters_fire(self):
        graph1, graph2 = self.pattern_pair()
        cluster = ShardedMatchingService(4)
        auto = cluster.match_sharded(graph1, graph2, LabelEqualitySimilarity(), 0.75)
        off = cluster.match_sharded(
            graph1, graph2, label_equality_matrix(graph1, graph2), 0.75,
            prefilter="off",
        )
        assert auto.result.mapping == off.result.mapping
        snap = cluster.stats_snapshot()
        assert snap["pairs_pruned"] > 0
        assert snap["shards_skipped"] > 0
        assert snap["filter_seconds"] > 0.0

    def test_cli_batch_summary_surfaces_counters(self, tmp_path, capsys):
        graph1, graph2 = self.pattern_pair()
        dpath = tmp_path / "data.json"
        ppath = tmp_path / "pat.json"
        dump_json(graph2, dpath)
        dump_json(graph1, ppath)
        out = tmp_path / "batch.jsonl"
        code = main([
            "batch", str(dpath), str(ppath), "--shards", "4",
            "--out", str(out),
        ])
        assert code == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        summary = lines[-1]
        assert summary["summary"] is True
        assert summary["service"]["pairs_pruned"] > 0
        assert summary["service"]["shards_skipped"] > 0
        # identical mappings with the prefilter off
        out_off = tmp_path / "batch-off.jsonl"
        assert main([
            "batch", str(dpath), str(ppath), "--shards", "4",
            "--prefilter", "off", "--out", str(out_off),
        ]) == 0
        off_lines = [json.loads(line) for line in out_off.read_text().splitlines()]
        assert off_lines[0]["mapping"] == lines[0]["mapping"]
        assert off_lines[-1]["service"]["pairs_pruned"] == 0

    def test_cli_match_prefilter_verify(self, tmp_path, capsys):
        graph1, graph2 = self.pattern_pair()
        dpath = tmp_path / "data.json"
        ppath = tmp_path / "pat.json"
        dump_json(graph2, dpath)
        dump_json(graph1, ppath)
        assert main([
            "match", str(ppath), str(dpath), "--partitioned", "--verify",
        ]) == 0
        auto_payload = json.loads(capsys.readouterr().out)
        assert auto_payload["violations"] == []
        assert main([
            "match", str(ppath), str(dpath), "--partitioned",
            "--prefilter", "off",
        ]) == 0
        off_payload = json.loads(capsys.readouterr().out)
        assert auto_payload["mapping"] == off_payload["mapping"]
