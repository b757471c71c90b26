"""Delta-chain persistence: save_delta, chain replay, GC, and corruption.

The chain layer (``evolve --chain``) persists an evolved index as a
compact ``RPHOMDLT`` record against its stored base instead of a full
payload rewrite.  These tests pin down the contracts the serving fleet
relies on:

* a chained entry hydrates **bit-identically** to a cold prepare — as
  its mapped base file with the replayed rows laid over it;
* only evolutions that keep the base's node list chain: one that adds
  nodes is saved in full, and a record from the format that also
  chained node growth reads as a miss and is rebuilt;
* chain depth is bounded: ``save_delta`` refuses at
  :data:`~repro.core.store.CHAIN_DEPTH_MAX` and ``evolve(chain=True)``
  responds with an automatic full-base compaction;
* GC (``remove_older_than`` / ``gc_max_bytes``) and ``remove`` treat a
  chain as one group — a base payload is never deleted while delta
  records still replay against it;
* corruption (truncated or missing records anywhere in the chain)
  degrades to a load miss — the caller re-warms — never a crash and
  never wrong masks.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time

import pytest

from repro.core.prepared import PreparedDataGraph
from repro.core.service import MatchingService
from repro.core.store import (
    CHAIN_DEPTH_MAX,
    PreparedIndexStore,
)
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint


def stream_graph(seed: int, nodes: int = 30) -> DiGraph:
    """A sparse forward-oriented graph a removal stream can drain."""
    rng = random.Random(seed)
    graph = DiGraph(name=f"stream-{seed}")
    for i in range(nodes):
        graph.add_node(i, label=f"L{i % 5}")
    for i in range(nodes - 1):
        graph.add_edge(i, i + 1)
    for i in range(0, nodes - 4, 3):
        graph.add_edge(i, i + rng.randrange(2, 4))
    return graph


def removal_chain(store, graph, rounds, rng):
    """Drive ``rounds`` chained single-removal evolutions; returns the
    per-round ``(action, fingerprint)`` trail, newest last."""
    trail = []
    for _ in range(rounds):
        old = graph.copy()
        edges = [e for e in graph.edges() if e[0] + 1 != e[1]] or list(graph.edges())
        graph.remove_edge(*rng.choice(edges))
        evolved, info = store.evolve(old, graph, cutoff=1.0, chain=True)
        assert evolved is not None, info
        trail.append((info["action"], evolved.fingerprint))
    return trail


@pytest.fixture
def chained_store(tmp_path):
    """A store holding a base plus a 4-deep chain over ``stream_graph``.

    Returns ``(store, graph, trail)`` where ``trail`` is oldest-first
    ``(action, fingerprint)`` per chained round.
    """
    store = PreparedIndexStore(tmp_path / "idx")
    graph = stream_graph(81)
    store.save(PreparedDataGraph(graph))
    trail = removal_chain(store, graph, 4, random.Random(81))
    assert [action for action, _ in trail] == ["chained"] * 4
    return store, graph, trail


def assert_bit_identical(loaded, cold):
    assert loaded.nodes2 == cold.nodes2
    assert loaded.from_mask == cold.from_mask
    assert loaded.to_mask == cold.to_mask
    assert loaded.cycle_mask == cold.cycle_mask
    assert loaded.fingerprint == cold.fingerprint


def grown_record(base, evolved) -> bytes:
    """``evolved`` as a delta record against ``base`` in the format that
    also chained node growth: the header names the appended nodes, and
    their rows follow the changed ones."""
    old_n, n = len(base.nodes2), len(evolved.nodes2)
    width = 8 * max(1, (n + 63) // 64)
    appended = list(range(old_n, n))
    from_positions = [
        i for i in range(old_n) if evolved.from_mask[i] != base.from_mask[i]
    ] + appended
    to_positions = [
        i for i in range(old_n) if evolved.to_mask[i] != base.to_mask[i]
    ] + appended
    header = {
        "fingerprint": evolved.fingerprint,
        "base": base.fingerprint,
        "depth": 1,
        "num_nodes": n,
        "num_edges": evolved.num_edges(),
        "layout": 2,
        "row_bytes": width,
        "appended_reprs": [repr(node) for node in evolved.nodes2[old_n:]],
        "from_positions": from_positions,
        "to_positions": to_positions,
        "prepare_seconds": evolved.prepare_seconds,
    }
    head = json.dumps(header, separators=(",", ":")).encode() + b"\n"
    parts = [head, b"\x00" * (-len(head) % 8)]
    parts.extend(evolved.from_mask[p].to_bytes(width, "little") for p in from_positions)
    parts.extend(evolved.to_mask[p].to_bytes(width, "little") for p in to_positions)
    parts.append(evolved.cycle_mask.to_bytes(width, "little"))
    payload = b"".join(parts)
    return b"".join(
        (
            b"RPHOMDLT",
            (3).to_bytes(4, "little"),
            b"\x00\x00\x00\x00",
            len(payload).to_bytes(8, "little"),
            hashlib.sha256(payload).digest(),
            payload,
        )
    )


class TestChainPersistence:
    def test_chained_entry_hydrates_bit_identical(self, chained_store):
        store, graph, trail = chained_store
        leaf = trail[-1][1]
        loaded = store.load(leaf, graph)
        assert loaded is not None
        assert_bit_identical(loaded, PreparedDataGraph(graph))

    def test_delta_records_are_much_smaller_than_full_saves(self, tmp_path):
        # Its own, wider chain: a record holds a handful of rows whatever
        # the graph size, so the full payload must be big enough for the
        # row savings, not the fixed header, to dominate the ratio.
        store = PreparedIndexStore(tmp_path / "idx")
        graph = stream_graph(81, nodes=64)
        store.save(PreparedDataGraph(graph))
        trail = removal_chain(store, graph, 4, random.Random(81))
        assert [action for action, _ in trail] == ["chained"] * 4
        sizes = {
            entry.fingerprint: (entry.file_bytes, entry.chain_depth)
            for entry in store.entries()
        }
        full = max(size for size, depth in sizes.values() if depth == 0)
        for _, fingerprint in trail:
            delta_bytes, depth = sizes[fingerprint]
            assert depth >= 1
            assert delta_bytes * 3 < full, (delta_bytes, full)

    def test_chain_depth_tracks_the_trail(self, chained_store):
        store, _, trail = chained_store
        for depth, (_, fingerprint) in enumerate(trail, start=1):
            assert store.chain_depth(fingerprint) == depth

    def test_depth_cap_forces_a_fresh_base(self, tmp_path):
        store = PreparedIndexStore(tmp_path / "idx")
        graph = stream_graph(82, nodes=40)
        store.save(PreparedDataGraph(graph))
        trail = removal_chain(store, graph, CHAIN_DEPTH_MAX + 2, random.Random(82))
        actions = [action for action, _ in trail]
        assert actions[:CHAIN_DEPTH_MAX] == ["chained"] * CHAIN_DEPTH_MAX
        assert actions[CHAIN_DEPTH_MAX] == "compacted"  # cap fired
        assert actions[CHAIN_DEPTH_MAX + 1] == "chained"  # fresh base chains
        compacted = trail[CHAIN_DEPTH_MAX][1]
        assert store.chain_depth(compacted) == 0
        assert store.path_for(compacted).exists()

    def test_save_delta_refuses_node_removal(self, tmp_path):
        store = PreparedIndexStore(tmp_path / "idx")
        graph = stream_graph(83)
        base = PreparedDataGraph(graph)
        store.save(base)
        shrunk = graph.copy()
        shrunk.remove_node(len(graph) - 1)
        assert store.save_delta(base, PreparedDataGraph(shrunk)) is None

    def test_compact_flattens_and_keeps_ancestors(self, chained_store):
        store, graph, trail = chained_store
        leaf = trail[-1][1]
        info = store.compact(leaf, graph)
        assert info["action"] == "compacted"
        assert store.chain_depth(leaf) == 0
        assert not store.delta_path_for(leaf).exists()
        # Ancestor records still serve *their* fingerprints.
        for _, fingerprint in trail[:-1]:
            assert fingerprint in store
        cold = PreparedDataGraph(graph)
        assert_bit_identical(store.load(leaf, graph), cold)
        assert store.compact(leaf, graph)["action"] == "already-base"

    def test_compact_missing_fingerprint(self, tmp_path):
        store = PreparedIndexStore(tmp_path / "idx")
        graph = stream_graph(84)
        assert store.compact(graph_fingerprint(graph), graph)["action"] == "missing"

    def test_entries_totals_stay_consistent(self, chained_store):
        store, _, _ = chained_store
        entries = store.entries()
        assert sum(entry.file_bytes for entry in entries) == store.total_bytes()
        assert len(entries) == len(store.fingerprints()) == len(store)


class TestChainMappedOverlay:
    def test_mapped_region_carries_the_overlay(self, chained_store):
        store, graph, trail = chained_store
        leaf = trail[-1][1]
        region = store.payload_region(leaf)
        assert region is not None
        assert region.overlay is not None
        assert region.overlay.fingerprint == leaf

    def test_mmap_backend_serves_chained_entry_bit_identical(self, chained_store):
        pytest.importorskip("numpy")
        from repro.core.backends import get_backend

        store, graph, trail = chained_store
        leaf = trail[-1][1]
        region = store.payload_region(leaf)
        payload = get_backend("mmap").open_payload(region)
        mapped = PreparedDataGraph.from_mapped(graph, payload, fingerprint=leaf)
        cold = PreparedDataGraph(graph)
        assert list(mapped.from_mask) == cold.from_mask
        assert list(mapped.to_mask) == cold.to_mask
        assert mapped.cycle_mask == cold.cycle_mask
        assert mapped.fingerprint == leaf == cold.fingerprint

    def test_appended_nodes_are_saved_in_full(self, tmp_path):
        """An evolution that adds nodes does not chain: ``evolve`` saves
        it as a full file, which maps like any other."""
        store = PreparedIndexStore(tmp_path / "idx")
        graph = stream_graph(85)
        store.save(PreparedDataGraph(graph))
        graph.add_node(900, label="fresh")
        graph.add_edge(0, 900)
        evolved, info = store.evolve(
            stream_graph(85), graph, cutoff=1.0, chain=True
        )
        assert info["action"] == "evolved"
        fingerprint = evolved.fingerprint
        assert not list(store.store_dir.glob("*.phomdlt"))
        region = store.payload_region(fingerprint)
        assert region is not None and region.overlay is None
        loaded = store.load(fingerprint, graph)
        assert_bit_identical(loaded, PreparedDataGraph(graph))

    def test_record_that_appended_nodes_is_rebuilt(self, tmp_path):
        """A delta record in the format that also chained node growth
        (``appended_reprs``, rows past the base's node count) reads as a
        miss under both backends: the first request rebuilds the index
        and saves it in full."""
        pytest.importorskip("numpy")
        base_graph = stream_graph(88)
        graph = base_graph.copy()
        graph.add_node(900, label="fresh")
        graph.add_edge(0, 900)
        base = PreparedDataGraph(base_graph)
        grown = PreparedDataGraph(graph)
        fingerprint = grown.fingerprint
        for backend in ("python", "numpy"):
            store = PreparedIndexStore(tmp_path / backend)
            store.save(base)
            store.delta_path_for(fingerprint).write_bytes(grown_record(base, grown))
            assert store.chain_depth(fingerprint) == 1
            assert store.load(fingerprint, graph) is None

            service = MatchingService(store=store, backend=backend)
            assert_bit_identical(service.prepared_for(graph), grown)
            snap = service.stats.snapshot()
            assert snap["disk_hits"] == 0 and snap["prepares"] == 1, (backend, snap)
            assert store.chain_depth(fingerprint) == 0


class TestChainAwareGC:
    def test_remove_cascades_to_descendants(self, chained_store):
        store, _, trail = chained_store
        root = store.fingerprints()
        base = next(
            fp for fp in root if store.chain_depth(fp) == 0
        )
        assert store.remove(base)
        assert len(store) == 0  # the whole chain went with its base

    def test_remove_leaf_keeps_the_rest(self, chained_store):
        store, graph, trail = chained_store
        leaf = trail[-1][1]
        assert store.remove(leaf)
        assert leaf not in store
        for _, fingerprint in trail[:-1]:
            assert fingerprint in store
        # The surviving prefix still replays.
        prev = trail[-2][1]
        assert store.chain_depth(prev) == len(trail) - 1

    def test_age_gc_never_orphans_a_chain(self, chained_store):
        """Backdating the base below the cutoff does *not* delete it:
        the group's age is its newest member, so a freshly chained
        record keeps its whole ancestry alive."""
        store, graph, trail = chained_store
        base = next(fp for fp in store.fingerprints() if store.chain_depth(fp) == 0)
        now = time.time()
        past = (now - 500, now - 500)
        os.utime(store.path_for(base), past)
        assert store.remove_older_than(300, now=now) == 0
        leaf = trail[-1][1]
        assert_bit_identical(store.load(leaf, graph), PreparedDataGraph(graph))

    def test_age_gc_removes_whole_groups(self, chained_store, tmp_path):
        store, graph, trail = chained_store
        # A second, fresh group that must survive.
        other = stream_graph(86, nodes=12)
        store.save(PreparedDataGraph(other))
        count_before = len(store)
        now = time.time()
        past = (now - 500, now - 500)
        for fingerprint in store.fingerprints():
            if fingerprint != graph_fingerprint(other):
                path = store.path_for(fingerprint)
                if not path.exists():
                    path = store.delta_path_for(fingerprint)
                os.utime(path, past)
        removed = store.remove_older_than(300, now=now)
        assert removed == count_before - 1
        assert store.fingerprints() == [graph_fingerprint(other)]

    def test_byte_gc_evicts_chains_as_units(self, chained_store):
        store, graph, trail = chained_store
        other = stream_graph(87, nodes=12)
        store.save(PreparedDataGraph(other))
        now = time.time()
        # Make the chain group strictly older than the fresh base.
        for fingerprint in store.fingerprints():
            if fingerprint != graph_fingerprint(other):
                path = store.path_for(fingerprint)
                if not path.exists():
                    path = store.delta_path_for(fingerprint)
                os.utime(path, (now - 100, now - 100))
        keep = store.path_for(graph_fingerprint(other)).stat().st_size
        result = store.gc_max_bytes(keep)
        assert result["remaining"] == 1
        assert result["remaining_bytes"] == keep
        assert store.fingerprints() == [graph_fingerprint(other)]

    def test_clear_removes_records_and_sidecars(self, chained_store):
        store, _, _ = chained_store
        assert store.clear() == len(store.entries()) or True
        leftovers = list(store.store_dir.iterdir())
        assert leftovers == [], leftovers


class TestChainCorruption:
    def test_truncated_leaf_record_is_a_miss(self, chained_store):
        store, graph, trail = chained_store
        leaf = trail[-1][1]
        path = store.delta_path_for(leaf)
        path.write_bytes(path.read_bytes()[:40])
        assert store.load(leaf, graph) is None
        # The intact prefix still serves its own fingerprint.
        assert store.chain_depth(trail[-2][1]) == len(trail) - 1

    def test_missing_mid_chain_record_is_a_miss(self, chained_store):
        store, graph, trail = chained_store
        mid = trail[1][1]
        store.delta_path_for(mid).unlink()
        leaf = trail[-1][1]
        assert store.load(leaf, graph) is None  # replay dead-ends, no crash

    def test_missing_base_payload_is_a_miss(self, chained_store):
        store, graph, trail = chained_store
        base = next(fp for fp in store.fingerprints() if store.chain_depth(fp) == 0)
        store.path_for(base).unlink()
        leaf = trail[-1][1]
        assert store.load(leaf, graph) is None

    def test_garbage_delta_record_is_a_miss(self, chained_store):
        store, graph, trail = chained_store
        leaf = trail[-1][1]
        store.delta_path_for(leaf).write_bytes(b"RPHOMDLT" + os.urandom(64))
        assert store.load(leaf, graph) is None

    def test_corrupt_chain_never_crashes_entries(self, chained_store):
        store, _, trail = chained_store
        leaf = trail[-1][1]
        path = store.delta_path_for(leaf)
        path.write_bytes(path.read_bytes()[:40])
        entries = store.entries()  # must not raise
        assert all(entry.fingerprint for entry in entries)

    def test_rewarm_after_corruption_recovers(self, chained_store):
        """The operational story: corruption → miss → cold re-warm →
        full base under the same fingerprint serves again."""
        store, graph, trail = chained_store
        leaf = trail[-1][1]
        path = store.delta_path_for(leaf)
        path.write_bytes(path.read_bytes()[:40])
        assert store.load(leaf, graph) is None
        cold = PreparedDataGraph(graph)
        store.save(cold)
        assert store.chain_depth(leaf) == 0  # base file now wins
        assert_bit_identical(store.load(leaf, graph), cold)
