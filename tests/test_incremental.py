"""Incremental preparation: DeltaLog, apply_delta, and the fuzz suite.

Three layers of defense around the delta-evolution machinery:

* **Delta-equivalence fuzz**: seeded random mutation sequences (edge and
  node insertions and removals, SCC merges and splits, cycle creation
  and destruction, label/weight churn) asserting after *every* step that
  ``apply_delta`` is bit-identical to a cold ``PreparedDataGraph`` —
  masks, node order, payload bytes — under every backend and
  through the store round-trip.  Well over 200 randomized steps run
  across the parameter grid.
* **Mutator-invalidation audit**: every ``DiGraph`` mutator must both
  drop the memoized fingerprint and emit the right :class:`DeltaLog`
  event; a source-scan guard makes sure a future mutator cannot be
  added without joining the audit table.
* **Unit coverage** for the log lifecycle (rebase/detach/overflow/diff)
  and the evolution strategy selection (payload / additive / scc-delta /
  rebuild, cutoff fallback).
"""

from __future__ import annotations

import random

import pytest

from repro.core.backends import BACKEND_NAMES, get_backend
from repro.core.incremental import (
    ADDITIVE_MAX_EVENTS,
    DeltaEvent,
    DeltaLog,
    STRUCTURAL_OPS,
)
from repro.core.prepared import PreparedDataGraph
from repro.core.store import PreparedIndexStore
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.utils.errors import InputError


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def seeded_graph(seed: int, nodes: int = 28, edges: int = 55) -> DiGraph:
    """A random labeled digraph with some cycles and several components."""
    rng = random.Random(seed)
    graph = DiGraph(name=f"fuzz-{seed}")
    for i in range(nodes):
        graph.add_node(i, label=f"L{i % 5}", weight=1.0 + (i % 3))
    for _ in range(edges):
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            graph.add_edge(a, b)
    return graph


def assert_bit_identical(evolved: PreparedDataGraph, cold: PreparedDataGraph):
    """Every observable of the index, bit for bit."""
    assert evolved.nodes2 == cold.nodes2
    assert evolved.index2 == cold.index2
    assert evolved.from_mask == cold.from_mask
    assert evolved.to_mask == cold.to_mask
    assert evolved.cycle_mask == cold.cycle_mask
    assert evolved.num_edges() == cold.num_edges()
    assert evolved.fingerprint == cold.fingerprint


def assert_payload_identical(evolved: PreparedDataGraph, cold: PreparedDataGraph):
    """Store payloads agree byte-for-byte, modulo the build-time stamp.

    ``prepare_seconds`` is a wall-clock measurement in the header (a cold
    build and an evolve can never agree on it); every other header field
    and the entire mask section must match exactly.
    """
    a, b = evolved.to_payload(), cold.to_payload()
    header_a = PreparedDataGraph.payload_header(a)
    header_b = PreparedDataGraph.payload_header(b)
    header_a.pop("prepare_seconds"), header_b.pop("prepare_seconds")
    assert header_a == header_b
    # Compare the mask sections proper: layout 2 pads the header line to
    # the next 8-byte boundary, and the pad length tracks the header
    # length (which prepare_seconds varies), so skip past the padding.
    off_a, off_b = a.index(b"\n") + 1, b.index(b"\n") + 1
    assert a[off_a + (-off_a % 8) :] == b[off_b + (-off_b % 8) :]


#: The default op mix: every mutation class, mildly edge-biased.
MIXED_OPS = (
    "add_edge", "add_edge", "remove_edge", "remove_edge",
    "add_node", "remove_node", "merge_scc", "split_scc",
    "self_loop", "set_label", "set_weight", "readd_node",
)

#: Removal-heavy streaming: mostly edge removals (the decremental fast
#: path), some node removals and SCC splits, a trickle of inserts so the
#: graph never fully drains.
REMOVAL_OPS = (
    "remove_edge", "remove_edge", "remove_edge", "remove_edge",
    "remove_edge", "remove_node", "split_scc", "add_edge",
)

#: Interleaved insert/remove churn: the strategy dispatch flips between
#: additive, decremental and scc-delta from step to step.
INTERLEAVED_OPS = (
    "add_edge", "remove_edge", "add_edge", "remove_edge",
    "add_node", "remove_node", "merge_scc", "split_scc",
)


class Mutator:
    """One randomized mutation step; returns a tag for failure messages."""

    def __init__(self, rng: random.Random, fresh_base: int, ops=MIXED_OPS):
        self.rng = rng
        self.fresh = fresh_base
        self.ops = ops

    def apply(self, graph: DiGraph) -> str:
        rng = self.rng
        nodes = list(graph.nodes())
        op = rng.choice(self.ops)
        if op == "add_edge" and len(nodes) >= 2:
            graph.add_edge(rng.choice(nodes), rng.choice(nodes))
        elif op == "remove_edge":
            edges = list(graph.edges())
            if edges:
                graph.remove_edge(*rng.choice(edges))
        elif op == "add_node":
            self.fresh += 1
            graph.add_node(self.fresh, label=f"N{self.fresh % 5}")
            if nodes and rng.random() < 0.75:
                graph.add_edge(self.fresh, rng.choice(nodes))
                graph.add_edge(rng.choice(nodes), self.fresh)
        elif op == "remove_node" and len(nodes) > 4:
            graph.remove_node(rng.choice(nodes))
        elif op == "merge_scc" and len(nodes) >= 2:
            # An extra back edge: if v already reached u this merges
            # (or grows) an SCC — cycle creation by construction.
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u != v:
                graph.add_edge(v, u)
                graph.add_edge(u, v)
        elif op == "split_scc":
            # Removing an intra-cycle edge tends to split an SCC.
            prepared = PreparedDataGraph(graph)
            cyclic = [
                i for i in range(len(prepared.nodes2))
                if prepared.cycle_mask >> i & 1
            ]
            if cyclic:
                u = prepared.nodes2[rng.choice(cyclic)]
                succs = [
                    s for s in graph.successors(u)
                    if prepared.from_mask[prepared.index2[s]] >> prepared.index2[u] & 1
                    or s == u
                ]
                if succs:
                    graph.remove_edge(u, rng.choice(succs))
        elif op == "self_loop" and nodes:
            node = rng.choice(nodes)
            if graph.has_self_loop(node):
                graph.remove_edge(node, node)
            else:
                graph.add_edge(node, node)
        elif op == "set_label" and nodes:
            graph.set_label(rng.choice(nodes), f"relab-{rng.randrange(9)}")
        elif op == "set_weight" and nodes:
            graph.set_weight(rng.choice(nodes), rng.uniform(0.2, 4.0))
        elif op == "readd_node" and len(nodes) > 4:
            # Remove + re-add: the node moves to the end of the
            # enumeration order, the nastiest remap case.
            node = rng.choice(nodes)
            graph.remove_node(node)
            graph.add_node(node, label="readded")
            others = [n for n in graph.nodes() if n != node]
            if others:
                graph.add_edge(node, rng.choice(others))
        return op


# ----------------------------------------------------------------------
# The delta-equivalence fuzz suite
# ----------------------------------------------------------------------
class TestDeltaEquivalenceFuzz:
    """apply_delta ≡ cold prepare, after every randomized mutation step."""

    # 4 single-step runs × 45 steps + 2 burst runs × 30 rounds ≥ 200
    # asserted delta applications, across both cutoff regimes.
    @pytest.mark.parametrize(
        "seed,cutoff", [(101, 1.0), (202, 1.0), (303, 0.5), (404, 0.15)]
    )
    def test_single_step_deltas(self, seed, cutoff):
        rng = random.Random(seed)
        graph = seeded_graph(seed)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        mutator = Mutator(rng, fresh_base=1000 * seed)
        backends = [get_backend(name) for name in BACKEND_NAMES]
        for step in range(45):
            tag = mutator.apply(graph)
            evolved = prepared.apply_delta(log, cutoff=cutoff)
            cold = PreparedDataGraph(graph)
            context = (seed, step, tag, evolved.delta_stats)
            assert evolved.from_mask == cold.from_mask, context
            assert_bit_identical(evolved, cold)
            assert_payload_identical(evolved, cold)
            for backend in backends:
                got = evolved.backend_rows(backend)
                want = backend.build_rows(
                    cold.from_mask, cold.to_mask, len(cold.nodes2)
                )
                if backend.name in ("numpy", "mmap"):
                    import numpy as np

                    assert np.array_equal(got.from_rows, want.from_rows), context
                    assert np.array_equal(got.to_rows, want.to_rows), context
                else:
                    assert list(got[0]) == list(want[0]), context
                    assert list(got[1]) == list(want[1]), context
            prepared = evolved
            log.rebase(prepared.fingerprint)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_burst_deltas(self, seed, tmp_path):
        """Multi-event deltas, with the store round-trip every round."""
        rng = random.Random(seed)
        graph = seeded_graph(seed, nodes=22, edges=40)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        mutator = Mutator(rng, fresh_base=90_000 * seed)
        store = PreparedIndexStore(tmp_path)
        for round_number in range(30):
            for _ in range(rng.randrange(1, 7)):
                mutator.apply(graph)
            evolved = prepared.apply_delta(log, cutoff=1.0)
            cold = PreparedDataGraph(graph)
            assert_bit_identical(evolved, cold)
            assert_payload_identical(evolved, cold)
            # The store round-trip: an evolved index persists under the
            # new fingerprint and hydrates bit-identically.
            store.save(evolved)
            loaded = store.load(evolved.fingerprint, graph)
            assert loaded is not None, round_number
            assert_bit_identical(loaded, cold)
            prepared = evolved
            log.rebase(prepared.fingerprint)

    # Streaming schedules: 3 removal-heavy runs × 30 steps + 2
    # interleaved runs × 30 steps + 2 chain runs × 25 rounds ≥ 200 more
    # asserted applications, across seeds × cutoffs × every backend.
    @pytest.mark.parametrize(
        "seed,cutoff", [(51, 1.0), (52, 0.5), (53, 0.15)]
    )
    def test_removal_heavy_stream(self, seed, cutoff):
        """Sustained removal bursts — the decremental path's home turf —
        stay bit-identical at every cutoff (including one low enough to
        force honest rebuild fallbacks mid-stream)."""
        rng = random.Random(seed)
        graph = seeded_graph(seed, nodes=26, edges=70)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        mutator = Mutator(rng, fresh_base=2000 * seed, ops=REMOVAL_OPS)
        backends = [get_backend(name) for name in BACKEND_NAMES]
        strategies = set()
        for step in range(30):
            tag = mutator.apply(graph)
            evolved = prepared.apply_delta(log, cutoff=cutoff)
            cold = PreparedDataGraph(graph)
            context = (seed, step, tag, evolved.delta_stats)
            assert_bit_identical(evolved, cold)
            assert_payload_identical(evolved, cold)
            strategies.add((evolved.delta_stats or {}).get("strategy"))
            for backend in backends:
                got = evolved.backend_rows(backend)
                want = backend.build_rows(
                    cold.from_mask, cold.to_mask, len(cold.nodes2)
                )
                if backend.name in ("numpy", "mmap"):
                    import numpy as np

                    assert np.array_equal(got.from_rows, want.from_rows), context
                    assert np.array_equal(got.to_rows, want.to_rows), context
                else:
                    assert list(got[0]) == list(want[0]), context
                    assert list(got[1]) == list(want[1]), context
            prepared = evolved
            log.rebase(prepared.fingerprint)
        if cutoff >= 1.0:
            assert "decremental" in strategies, strategies

    @pytest.mark.parametrize("seed,cutoff", [(61, 1.0), (62, 0.4)])
    def test_interleaved_insert_remove_stream(self, seed, cutoff):
        """Alternating insert/remove churn flips the strategy dispatch
        between additive, decremental and scc-delta every few steps —
        all of them bit-identical to the cold prepare."""
        rng = random.Random(seed)
        graph = seeded_graph(seed, nodes=24, edges=48)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        mutator = Mutator(rng, fresh_base=3000 * seed, ops=INTERLEAVED_OPS)
        backends = [get_backend(name) for name in BACKEND_NAMES]
        for step in range(30):
            tag = mutator.apply(graph)
            evolved = prepared.apply_delta(log, cutoff=cutoff)
            cold = PreparedDataGraph(graph)
            context = (seed, step, tag, evolved.delta_stats)
            assert_bit_identical(evolved, cold)
            assert_payload_identical(evolved, cold)
            for backend in backends:
                got = evolved.backend_rows(backend)
                want = backend.build_rows(
                    cold.from_mask, cold.to_mask, len(cold.nodes2)
                )
                if backend.name in ("numpy", "mmap"):
                    import numpy as np

                    assert np.array_equal(got.from_rows, want.from_rows), context
                    assert np.array_equal(got.to_rows, want.to_rows), context
                else:
                    assert list(got[0]) == list(want[0]), context
                    assert list(got[1]) == list(want[1]), context
            prepared = evolved
            log.rebase(prepared.fingerprint)

    @pytest.mark.parametrize("seed", [71, 72])
    def test_chain_round_trip_through_store(self, seed, tmp_path):
        """Chained persistence under a removal stream: every round writes
        a delta record (or auto-compacts at the depth cap) and hydrates
        bit-identically through the replay path."""
        from repro.core.store import CHAIN_DEPTH_MAX

        rng = random.Random(seed)
        graph = seeded_graph(seed, nodes=24, edges=46)
        store = PreparedIndexStore(tmp_path)
        store.save(PreparedDataGraph(graph))
        actions = []
        for round_number in range(25):
            old = graph.copy()
            edges = list(graph.edges())
            if not edges:
                break
            for edge in rng.sample(edges, min(len(edges), rng.randrange(1, 4))):
                graph.remove_edge(*edge)
            evolved, info = store.evolve(old, graph, cutoff=1.0, chain=True)
            assert evolved is not None, info
            cold = PreparedDataGraph(graph)
            assert_bit_identical(evolved, cold)
            loaded = store.load(evolved.fingerprint, graph)
            assert loaded is not None, (round_number, info)
            assert_bit_identical(loaded, cold)
            depth = store.chain_depth(evolved.fingerprint)
            assert depth is not None and depth <= CHAIN_DEPTH_MAX, info
            actions.append(info["action"])
        assert "chained" in actions, actions
        assert "compacted" in actions, actions  # the depth cap fired

    def test_cutoff_zero_always_rebuilds_and_still_agrees(self):
        """The cutoff bounds the scc-delta frontier: at 0.0 any removal
        delta (the additive fast path never pays per-frontier costs)
        degrades to an honest full rebuild with identical output."""
        graph = seeded_graph(11)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        graph.remove_edge(*next(iter(graph.edges())))
        evolved = prepared.apply_delta(log, cutoff=0.0)
        assert evolved.delta_stats["full_rebuild"]
        assert_bit_identical(evolved, PreparedDataGraph(graph))

    def test_base_index_is_never_modified(self):
        graph = seeded_graph(12)
        prepared = PreparedDataGraph(graph)
        before = (
            list(prepared.from_mask),
            list(prepared.to_mask),
            prepared.cycle_mask,
            list(prepared.nodes2),
        )
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        graph.add_edge(1, 2)
        graph.remove_node(5)
        prepared.apply_delta(log)
        assert (
            list(prepared.from_mask),
            list(prepared.to_mask),
            prepared.cycle_mask,
            list(prepared.nodes2),
        ) == before

    def test_mismatched_base_fingerprint_raises(self):
        graph = seeded_graph(13)
        prepared = PreparedDataGraph(graph)
        prepared.fingerprint  # force the lazy digest
        log = DeltaLog(graph, base_fingerprint="0" * 64)
        graph.add_edge(0, 2)
        with pytest.raises(InputError):
            prepared.apply_delta(log)

    def test_bad_cutoff_rejected(self):
        graph = seeded_graph(14)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        with pytest.raises(InputError):
            prepared.apply_delta(log, cutoff=1.5)


# ----------------------------------------------------------------------
# Strategy selection
# ----------------------------------------------------------------------
class TestEvolutionStrategies:
    def test_payload_only_shares_rows_and_backend_caches(self):
        graph = seeded_graph(21)
        prepared = PreparedDataGraph(graph)
        python_rows = prepared.backend_rows(get_backend("python"))
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        graph.set_label(3, "renamed")
        graph.set_weight(4, 2.0)
        evolved = prepared.apply_delta(log)
        assert evolved.delta_stats["strategy"] == "payload"
        assert evolved.delta_stats["recomputed_nodes"] == 0
        assert evolved.from_mask is prepared.from_mask  # spliced by reference
        assert evolved.to_mask is prepared.to_mask
        assert evolved._backend_rows["python"] is python_rows
        assert evolved.fingerprint == graph_fingerprint(graph)
        assert evolved.fingerprint != prepared.fingerprint

    def test_small_insert_burst_takes_additive_path(self):
        graph = seeded_graph(22)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        graph.add_edge(0, 9)
        graph.add_node(7777)
        graph.add_edge(7777, 1)
        evolved = prepared.apply_delta(log, cutoff=1.0)
        assert evolved.delta_stats["strategy"] == "additive"
        assert evolved.delta_stats["recomputed_nodes"] > 0
        assert_bit_identical(evolved, PreparedDataGraph(graph))

    def test_long_insert_burst_switches_to_scc_delta(self):
        graph = seeded_graph(23, nodes=80, edges=80)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        rng = random.Random(23)
        added = 0
        while added <= ADDITIVE_MAX_EVENTS:
            a, b = rng.randrange(80), rng.randrange(80)
            if a != b and not graph.has_edge(a, b):
                graph.add_edge(a, b)
                added += 1
        evolved = prepared.apply_delta(log, cutoff=1.0)
        assert evolved.delta_stats["strategy"] == "scc-delta"
        assert_bit_identical(evolved, PreparedDataGraph(graph))

    def test_edge_removal_takes_decremental_path(self):
        graph = seeded_graph(24)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        graph.remove_edge(*next(iter(graph.edges())))
        evolved = prepared.apply_delta(log, cutoff=1.0)
        assert evolved.delta_stats["strategy"] == "decremental"
        assert_bit_identical(evolved, PreparedDataGraph(graph))

    def test_node_removal_takes_scc_delta_path(self):
        graph = seeded_graph(24)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        graph.remove_node(next(iter(graph.nodes())))
        evolved = prepared.apply_delta(log, cutoff=1.0)
        assert evolved.delta_stats["strategy"] == "scc-delta"
        assert_bit_identical(evolved, PreparedDataGraph(graph))

    def test_mixed_insert_remove_takes_scc_delta_path(self):
        graph = seeded_graph(24)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        graph.remove_edge(*next(iter(graph.edges())))
        graph.add_edge(0, 27)
        evolved = prepared.apply_delta(log, cutoff=1.0)
        assert evolved.delta_stats["strategy"] == "scc-delta"
        assert_bit_identical(evolved, PreparedDataGraph(graph))

    def test_decremental_keeps_unchanged_rows_by_reference(self):
        """A removed edge with alternative support changes nothing: every
        row passes through by reference and the wave stops at the tail."""
        graph = DiGraph()
        for i in range(6):
            graph.add_node(i)
        for i in range(5):
            graph.add_edge(i, i + 1)
        graph.add_edge(0, 2)  # a shortcut 0→2 with support via 0→1→2
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        graph.remove_edge(0, 2)
        evolved = prepared.apply_delta(log, cutoff=1.0)
        assert evolved.delta_stats["strategy"] == "decremental"
        for i in range(6):
            assert evolved.from_mask[i] is prepared.from_mask[i]
            assert evolved.to_mask[i] is prepared.to_mask[i]
        assert_bit_identical(evolved, PreparedDataGraph(graph))

    def test_untouched_rows_are_shared_by_reference(self):
        """Edge-only deltas splice clean rows without copying them."""
        graph = DiGraph()
        for i in range(10):
            graph.add_node(i)
        for i in range(4):  # two disjoint chains
            graph.add_edge(i, i + 1)
            graph.add_edge(5 + i, 6 + i)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        graph.add_edge(7, 5)  # touches only the second chain
        evolved = prepared.apply_delta(log, cutoff=1.0)
        for i in range(5):  # first chain: untouched rows pass through
            assert evolved.from_mask[i] is prepared.from_mask[i]
            assert evolved.to_mask[i] is prepared.to_mask[i]
        assert_bit_identical(evolved, PreparedDataGraph(graph))

    def test_overflowed_log_still_evolves_exactly(self):
        graph = seeded_graph(25)
        prepared = PreparedDataGraph(graph)
        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint, max_events=3)
        rng = random.Random(925)  # NOT the graph's seed: fresh edge pairs
        nodes = list(graph.nodes())
        for _ in range(12):
            a, b = rng.choice(nodes), rng.choice(nodes)
            if a != b:
                graph.add_edge(a, b)
        graph.remove_node(nodes[0])
        assert log.overflowed
        evolved = prepared.apply_delta(log, cutoff=1.0)
        assert not evolved.delta_stats["full_rebuild"]
        assert_bit_identical(evolved, PreparedDataGraph(graph))

    def test_from_diff_equivalence(self):
        """Synthesized deltas (offline snapshots) evolve exactly too."""
        rng = random.Random(26)
        old = seeded_graph(26)
        new = old.copy()
        mutator = Mutator(rng, fresh_base=50_000)
        for _ in range(8):
            mutator.apply(new)
        prepared = PreparedDataGraph(old)
        log = DeltaLog.from_diff(old, new)
        evolved = prepared.apply_delta(log, graph2=new, cutoff=1.0)
        assert_bit_identical(evolved, PreparedDataGraph(new))


# ----------------------------------------------------------------------
# The mutator-invalidation audit
# ----------------------------------------------------------------------
#: Every DiGraph mutator, with a setup-free mutation and the event ops it
#: must emit.  repro-lint's RL003 statically audits the mutator source
#: (see test_static_mutator_audit_is_clean); this table checks behavior.
MUTATOR_AUDIT = {
    "add_node": (lambda g: g.add_node("fresh"), ["add_node"]),
    "add_node (existing)": (
        lambda g: g.add_node("a", label="A2", weight=2.0, note=1),
        ["set_label", "set_weight", "set_attrs"],
    ),
    "add_edge": (lambda g: g.add_edge("a", "c"), ["add_edge"]),
    "add_edge (new endpoints)": (
        lambda g: g.add_edge("p", "q"),
        ["add_node", "add_node", "add_edge"],
    ),
    "add_edges": (
        lambda g: g.add_edges([("a", "c"), ("c", "a")]),
        ["add_edge", "add_edge"],
    ),
    "remove_edge": (lambda g: g.remove_edge("a", "b"), ["remove_edge"]),
    "remove_node": (lambda g: g.remove_node("b"), ["remove_node"]),
    "set_label": (lambda g: g.set_label("a", "renamed"), ["set_label"]),
    "set_weight": (lambda g: g.set_weight("a", 3.0), ["set_weight"]),
}


class TestMutatorAudit:
    """Every mutator must invalidate the fingerprint memo *and* notify
    the delta log — a future mutator that forgets either would silently
    corrupt the serving cache or the evolution machinery."""

    @pytest.mark.parametrize("name", sorted(MUTATOR_AUDIT))
    def test_mutator_invalidates_and_notifies(self, name):
        mutate, expected_ops = MUTATOR_AUDIT[name]
        graph = DiGraph.from_edges([("a", "b"), ("b", "c")])
        log = DeltaLog(graph)
        fingerprint_before = graph_fingerprint(graph)
        assert graph._fingerprint_cache is not None
        mutate(graph)
        assert graph._fingerprint_cache is None, name  # PR-4 memo dropped
        assert [event.op for event in log.events] == expected_ops, name
        # Structural events must re-derive to a different fingerprint.
        if set(expected_ops) & STRUCTURAL_OPS:
            assert graph_fingerprint(graph) != fingerprint_before, name

    def test_remove_node_event_carries_neighbor_snapshot(self):
        graph = DiGraph.from_edges([("a", "b"), ("b", "c"), ("b", "b")])
        log = DeltaLog(graph)
        graph.remove_node("b")
        (event,) = log.events
        assert event.op == "remove_node" and event.a == "b"
        assert event.b == frozenset({"a", "b", "c"})
        assert log.touched == {"a", "b", "c"}
        assert log.removed_nodes == {"b"}

    def test_static_mutator_audit_is_clean(self):
        """RL003 (repro-lint's mutator audit) is the single enforcement
        point for the drop-cache + notify pairing: zero findings on the
        live DiGraph source.  This replaces the old inspect.getsource
        scan — the static rule additionally proves *every mutation path*
        notifies, not just that a _fingerprint_cache line exists."""
        import repro.graph.digraph as digraph_module
        from repro.analysis import all_rules, run_analysis

        report = run_analysis(
            [digraph_module.__file__], rules=all_rules(), select=["RL003"]
        )
        assert report.findings == [], [f.render() for f in report.findings]
        assert report.files, "the digraph source must have been scanned"

    def test_no_log_attached_costs_nothing(self):
        graph = DiGraph.from_edges([("a", "b")])
        assert graph._delta_logs == []
        graph.add_edge("b", "c")  # must not raise, nothing records

    def test_copies_do_not_inherit_logs(self):
        graph = DiGraph.from_edges([("a", "b")])
        log = DeltaLog(graph)
        clone = graph.copy()
        clone.add_edge("b", "c")
        assert log.events == []  # only the original notifies


# ----------------------------------------------------------------------
# DeltaLog lifecycle
# ----------------------------------------------------------------------
class TestDeltaLog:
    def test_rebase_clears_history(self):
        graph = DiGraph.from_edges([("a", "b")])
        log = DeltaLog(graph, base_fingerprint="x")
        graph.add_edge("b", "c")
        graph.remove_node("a")
        assert log.has_structural and log.events
        log.rebase("y")
        assert log.base_fingerprint == "y"
        assert not log.events and not log.touched and not log.removed_nodes
        assert not log.has_structural and not log.overflowed

    def test_detach_stops_recording(self):
        graph = DiGraph.from_edges([("a", "b")])
        log = DeltaLog(graph)
        log.detach()
        log.detach()  # idempotent
        graph.add_edge("b", "c")
        assert log.events == []
        assert graph._delta_logs == []

    def test_observed_graph_is_freed_by_refcount_alone(self):
        """A log holds its graph weakly, so graph ↔ log is no reference
        cycle: a dropped shard view (with its adjacency sets) is freed at
        once, not at the next full collection."""
        import gc
        import weakref

        graph = DiGraph.from_edges([("a", "b"), ("b", "c")])
        log = DeltaLog(graph, base_fingerprint="x" * 64, owner=self)
        assert log.graph is graph
        probe = weakref.ref(graph)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del graph
            assert probe() is None
        finally:
            if enabled:
                gc.enable()
        assert log.graph is None
        log.detach()  # a freed graph detaches cleanly

    def test_overflow_keeps_summaries(self):
        graph = DiGraph()
        log = DeltaLog(graph, max_events=2)
        for i in range(5):
            graph.add_node(i)
        assert log.overflowed and log.events == []
        assert log.touched == {0, 1, 2, 3, 4}
        assert not log.is_additive  # replay history is gone

    def test_dead_owner_logs_are_pruned(self):
        """A long-lived graph served by short-lived services must not
        accumulate dead observers: owners are held weakly, and find()
        prunes logs whose cache was garbage-collected."""
        import gc

        class Owner:  # weak-referenceable, unlike bare object()
            pass

        graph = DiGraph.from_edges([("a", "b")])
        for _ in range(5):
            owner = Owner()
            DeltaLog(graph, base_fingerprint="x" * 64, owner=owner)
            del owner
        gc.collect()
        keeper_owner = Owner()
        keeper = DeltaLog(graph, owner=keeper_owner)
        assert DeltaLog.find(graph, keeper_owner) is keeper
        assert graph._delta_logs == [keeper]  # the five orphans are gone

    def test_short_lived_services_do_not_accumulate_logs(self):
        """The review-found leak shape: one long-lived graph served by
        many recreated services leaves at most one live log behind."""
        import gc

        from repro.core.service import MatchingService

        graph = DiGraph.from_edges([(i, i + 1) for i in range(6)])
        for _ in range(4):
            service = MatchingService()
            service.prepared_for(graph)
            del service
        gc.collect()
        survivor = MatchingService()
        survivor.prepared_for(graph)
        live = [log for log in graph._delta_logs if not log.orphaned]
        assert len(graph._delta_logs) == len(live) == 1

    def test_track_attaches_then_rebases(self):
        graph = DiGraph.from_edges([("a", "b")])
        owner = object()
        log = DeltaLog.track(graph, owner, "f" * 64)
        graph.add_edge("b", "c")
        assert log.events
        assert DeltaLog.track(graph, owner, "e" * 64) is log
        assert log.base_fingerprint == "e" * 64 and not log.events

    def test_find_by_owner(self):
        graph = DiGraph.from_edges([("a", "b")])
        owner_a, owner_b = object(), object()
        log_a = DeltaLog(graph, owner=owner_a)
        log_b = DeltaLog(graph, owner=owner_b)
        assert DeltaLog.find(graph, owner_a) is log_a
        assert DeltaLog.find(graph, owner_b) is log_b
        assert DeltaLog.find(graph, object()) is None

    def test_unknown_op_rejected(self):
        log = DeltaLog()
        with pytest.raises(InputError):
            log.record("transmogrify", "a")

    def test_event_tuple_shape(self):
        assert DeltaEvent("add_edge", "a", "b") == ("add_edge", "a", "b")
        assert DeltaEvent("add_node", "a").b is None

    def test_from_diff_records_label_and_weight_changes(self):
        old = DiGraph.from_edges([("a", "b")])
        new = old.copy()
        new.set_label("a", "A")
        new.set_weight("b", 2.0)
        log = DeltaLog.from_diff(old, new)
        assert not log.has_structural
        assert log.relabeled == {"a", "b"}


# ----------------------------------------------------------------------
# Store-level offline evolution
# ----------------------------------------------------------------------
class TestStoreEvolve:
    def test_evolve_persists_under_new_fingerprint(self, tmp_path):
        store = PreparedIndexStore(tmp_path)
        old = seeded_graph(31)
        store.save(PreparedDataGraph(old))
        new = old.copy()
        new.add_edge(0, 7)
        evolved, info = store.evolve(old, new, cutoff=1.0)
        assert evolved is not None
        assert info["action"] == "evolved"
        assert info["fingerprint"] == graph_fingerprint(new)
        assert graph_fingerprint(new) in store
        loaded = store.load(graph_fingerprint(new), new)
        assert loaded is not None
        assert_bit_identical(loaded, PreparedDataGraph(new))

    def test_evolve_without_base_reports_miss(self, tmp_path):
        store = PreparedIndexStore(tmp_path)
        old = seeded_graph(32)
        new = old.copy()
        new.add_edge(1, 2)
        evolved, info = store.evolve(old, new)
        assert evolved is None
        assert info["action"] == "missing-base"
