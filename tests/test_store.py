"""Tests for the persistent prepared-index store and the two-tier cache.

The contracts under test: a saved index restores *bit-identically*
(masks, node order, match reports), every flavour of file damage is a
miss rather than a crash, the service's disk tier accounts its
hits/misses/timings, and the ``index`` CLI round-trips a store
directory that a separate ``batch`` process can then serve from.
"""

from __future__ import annotations

import json
import random

import pytest

from helpers import make_random_instance
from repro.__main__ import main
from repro.core.api import match, match_prepared
from repro.core.prepared import PreparedDataGraph, _parse_payload, prepare_data_graph
from repro.core.service import MatchingService, reset_default_service
from repro.core.store import STORE_SUFFIX, PreparedIndexStore
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint, is_fingerprint
from repro.graph.generators import random_digraph
from repro.graph.io import dump_json
from repro.similarity.labels import label_equality_matrix
from repro.utils.errors import InputError


@pytest.fixture
def instance():
    """A (pattern, data, mat) triple plus the data graph's fingerprint."""
    g1, g2, mat = make_random_instance(11, n1=5, n2=20)
    return g1, g2, mat, graph_fingerprint(g2)


def identical_masks(a: PreparedDataGraph, b: PreparedDataGraph) -> bool:
    return (
        a.from_mask == b.from_mask
        and a.to_mask == b.to_mask
        and a.cycle_mask == b.cycle_mask
        and a.nodes2 == b.nodes2
        and a.index2 == b.index2
        and a.num_edges() == b.num_edges()
    )


# ----------------------------------------------------------------------
# Payload round-trip
# ----------------------------------------------------------------------
class TestPayload:
    """A payload round-trips through the store's one open path: ``save``
    then ``load``, which maps the file."""

    def test_round_trip_bit_identity(self, tmp_path, instance):
        _, g2, _, fingerprint = instance
        prepared = prepare_data_graph(g2)
        store = PreparedIndexStore(tmp_path)
        store.save(prepared)
        restored = store.load(fingerprint, g2)
        assert identical_masks(prepared, restored)
        assert restored.fingerprint == prepared.fingerprint
        assert restored.prepare_seconds == prepared.prepare_seconds

    def test_round_trip_identical_match_reports(self, tmp_path, instance):
        g1, g2, mat, fingerprint = instance
        prepared = prepare_data_graph(g2)
        store = PreparedIndexStore(tmp_path)
        store.save(prepared)
        restored = store.load(fingerprint, g2)
        cold = match_prepared(g1, prepared, mat, 0.4)
        warm = match_prepared(g1, restored, mat, 0.4)
        assert cold.matched == warm.matched
        assert cold.quality == warm.quality
        assert cold.result.mapping == warm.result.mapping

    def test_empty_graph_round_trips(self, tmp_path):
        empty = DiGraph(name="empty")
        prepared = prepare_data_graph(empty)
        store = PreparedIndexStore(tmp_path)
        store.save(prepared)
        restored = store.load(prepared.fingerprint, empty)
        assert identical_masks(prepared, restored)

    def test_header_is_inspectable(self, instance):
        _, g2, _, fingerprint = instance
        payload = prepare_data_graph(g2).to_payload()
        header = PreparedDataGraph.payload_header(payload)
        assert header["fingerprint"] == fingerprint
        assert header["num_nodes"] == g2.num_nodes()
        assert header["node_reprs"] == [repr(node) for node in g2.nodes()]

    def test_wrong_graph_rejected(self, tmp_path, instance):
        _, g2, _, fingerprint = instance
        store = PreparedIndexStore(tmp_path)
        store.save(prepare_data_graph(g2))
        other = DiGraph.from_edges([("p", "q")])
        assert store.load(fingerprint, other) is None

    def test_reordered_nodes_rejected(self, tmp_path, instance):
        _, g2, _, fingerprint = instance
        store = PreparedIndexStore(tmp_path)
        store.save(prepare_data_graph(g2))
        reordered = DiGraph(name=g2.name)
        for node in reversed(list(g2.nodes())):
            reordered.add_node(node, label=g2.label(node), weight=g2.weight(node))
        reordered.add_edges(g2.edges())
        assert store.load(fingerprint, reordered) is None

    def test_truncated_masks_rejected(self, instance):
        _, g2, _, _ = instance
        payload = prepare_data_graph(g2).to_payload()
        with pytest.raises(ValueError):
            _parse_payload(payload[:-3])


# ----------------------------------------------------------------------
# Interned file mappings open off the process-wide lock
# ----------------------------------------------------------------------
class TestOffLockMappedOpens:
    """``_shared_mapping`` used to open, map and size-check a file while
    holding the process-wide ``_mappings_lock``, so mapped opens of
    different files queued behind each other.  The lock now guards only
    the table (the double-checked pattern ``ShardPlan.shard_graph``
    uses)."""

    @staticmethod
    def _stored_regions(tmp_path, count):
        store = PreparedIndexStore(tmp_path)
        regions = []
        for seed in range(count):
            graph = random_digraph(30, 90, random.Random(seed), name=f"g{seed}")
            prepared = prepare_data_graph(graph)
            store.save(prepared)
            regions.append(store.payload_region(prepared.fingerprint))
        return regions

    def test_open_of_one_file_does_not_block_another(self, tmp_path, monkeypatch):
        import threading

        import repro.core.store as store_module

        region_a, region_b = self._stored_regions(tmp_path, 2)
        entered, release = threading.Event(), threading.Event()
        original = store_module._Mapping

        class HeldMapping(original):
            __slots__ = ()

            def __init__(self, path, size, mtime_ns):
                if str(path) == str(region_a.path):
                    entered.set()
                    assert release.wait(5), "the held open was never released"
                super().__init__(path, size, mtime_ns)

        monkeypatch.setattr(store_module, "_Mapping", HeldMapping)
        holder = threading.Thread(target=store_module.map_payload, args=(region_a,))
        holder.start()
        try:
            assert entered.wait(5), "the open of file A never started"
            opened = []
            other = threading.Thread(
                target=lambda: opened.append(store_module.map_payload(region_b))
            )
            other.start()
            other.join(2)
            assert opened, "mapping file B waited behind file A's open"
        finally:
            release.set()
            holder.join(5)
            other.join(5)
        assert not holder.is_alive() and not other.is_alive()

    def test_racing_opens_of_one_file_share_one_mapping(self, tmp_path, monkeypatch):
        import sys
        import threading

        import repro.core.store as store_module

        (region,) = self._stored_regions(tmp_path, 1)
        racers = 4
        inside = threading.Barrier(racers)
        original = store_module._Mapping

        class RacingMapping(original):
            __slots__ = ()

            def __init__(self, path, size, mtime_ns):
                try:  # hold every racer inside the open at once
                    inside.wait(timeout=2)
                except threading.BrokenBarrierError:
                    pass
                super().__init__(path, size, mtime_ns)

        monkeypatch.setattr(store_module, "_Mapping", RacingMapping)
        start = threading.Barrier(racers)
        payloads = []

        def open_once():
            start.wait()
            payloads.append(store_module.map_payload(region))

        threads = [threading.Thread(target=open_once) for _ in range(racers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(payloads) == racers
        shared = payloads[0].mapping
        assert all(payload.mapping is shared for payload in payloads)
        assert not shared.buffer.closed
        assert all(
            list(payload.from_ints) == list(payloads[0].from_ints)
            for payload in payloads
        )


# ----------------------------------------------------------------------
# Store files
# ----------------------------------------------------------------------
class TestPreparedIndexStore:
    def test_save_load_bit_identity(self, tmp_path, instance):
        _, g2, _, fingerprint = instance
        store = PreparedIndexStore(tmp_path)
        prepared = prepare_data_graph(g2)
        path = store.save(prepared)
        assert path.is_file() and path.suffix == STORE_SUFFIX
        loaded = store.load(fingerprint, g2)
        assert loaded is not None and identical_masks(prepared, loaded)

    def test_save_is_atomic_no_leftover_tmp(self, tmp_path, instance):
        _, g2, _, _ = instance
        store = PreparedIndexStore(tmp_path)
        store.save(prepare_data_graph(g2))
        assert [p.suffix for p in tmp_path.iterdir()] == [STORE_SUFFIX]

    def test_concurrent_saves_of_one_fingerprint(self, tmp_path, instance):
        """Same-process writers must not share tmp files: every save
        succeeds and the final file stays loadable throughout."""
        import threading

        _, g2, _, fingerprint = instance
        store = PreparedIndexStore(tmp_path)
        prepared = prepare_data_graph(g2)
        errors = []

        def write_many():
            try:
                for _ in range(20):
                    store.save(prepared)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert [p.suffix for p in tmp_path.iterdir()] == [STORE_SUFFIX]
        assert store.load(fingerprint, g2) is not None

    def test_missing_file_is_miss(self, tmp_path, instance):
        _, g2, _, fingerprint = instance
        assert PreparedIndexStore(tmp_path).load(fingerprint, g2) is None

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: b"",
            lambda blob: b"garbage, not an index",
            lambda blob: blob[:20],  # truncated inside the envelope
            lambda blob: blob[:-10],  # truncated payload (length mismatch)
            lambda blob: b"WRONGMAG" + blob[8:],
            lambda blob: blob[:8] + (99).to_bytes(4, "little") + blob[12:],  # version
            # One flipped payload byte: checksum catches it.
            lambda blob: blob[:60] + bytes([blob[60] ^ 0xFF]) + blob[61:],
            # Valid envelope, corrupt JSON header inside the payload.
            lambda blob: None,
        ],
    )
    def test_damaged_file_is_miss_not_crash(self, tmp_path, instance, damage):
        _, g2, _, fingerprint = instance
        store = PreparedIndexStore(tmp_path)
        path = store.save(prepare_data_graph(g2))
        blob = path.read_bytes()
        damaged = damage(blob)
        if damaged is None:
            # Re-frame a garbage payload with a *correct* checksum, so only
            # the payload parser can reject it.
            import hashlib

            payload = b"{not json" + b"\x00" * 30
            damaged = (
                blob[:8]
                + (1).to_bytes(4, "little")
                + len(payload).to_bytes(8, "little")
                + hashlib.sha256(payload).digest()
                + payload
            )
        path.write_bytes(damaged)
        assert store.load(fingerprint, g2) is None

    def test_stale_content_is_miss(self, tmp_path, instance):
        _, g2, _, _ = instance
        store = PreparedIndexStore(tmp_path)
        store.save(prepare_data_graph(g2))
        mutated = g2.copy()
        mutated.add_edge(list(mutated.nodes())[0], "definitely-new-node")
        assert graph_fingerprint(mutated) != graph_fingerprint(g2)
        assert store.load(graph_fingerprint(mutated), mutated) is None

    def test_file_keyed_by_other_fingerprint_is_miss(self, tmp_path, instance):
        _, g2, _, fingerprint = instance
        store = PreparedIndexStore(tmp_path)
        saved = store.save(prepare_data_graph(g2))
        # An index renamed to another graph's key must not be served.
        _, other, _ = make_random_instance(12, n2=20)
        other_key = graph_fingerprint(other)
        saved.rename(store.path_for(other_key))
        assert store.load(other_key, other) is None

    def test_listing_contains_and_remove(self, tmp_path, instance):
        _, g2, _, fingerprint = instance
        store = PreparedIndexStore(tmp_path)
        assert len(store) == 0 and fingerprint not in store
        store.save(prepare_data_graph(g2))
        assert len(store) == 1 and fingerprint in store
        (entry,) = store.entries()
        assert entry.fingerprint == fingerprint
        assert entry.num_nodes == g2.num_nodes()
        assert entry.num_edges == g2.num_edges()
        assert entry.file_bytes > 0
        assert json.dumps(entry.as_dict())  # JSON-serialisable for the CLI
        assert store.remove(fingerprint) is True
        assert store.remove(fingerprint) is False
        assert len(store) == 0

    def test_entries_skip_corrupt_files(self, tmp_path, instance):
        _, g2, _, fingerprint = instance
        store = PreparedIndexStore(tmp_path)
        path = store.save(prepare_data_graph(g2))
        path.write_bytes(b"junk")
        assert store.entries() == []
        assert fingerprint in store  # file exists, even though unreadable

    def test_clear(self, tmp_path, instance):
        _, g2, _, _ = instance
        store = PreparedIndexStore(tmp_path)
        store.save(prepare_data_graph(g2))
        assert store.clear() == 1
        assert store.clear() == 0

    def test_path_for_rejects_non_fingerprints(self, tmp_path):
        store = PreparedIndexStore(tmp_path)
        with pytest.raises(InputError):
            store.path_for("../../etc/passwd")
        with pytest.raises(InputError):
            store.path_for("deadbeef")  # too short

    def test_missing_dir_without_create(self, tmp_path):
        with pytest.raises(InputError):
            PreparedIndexStore(tmp_path / "nope", create=False)

    def test_is_fingerprint(self):
        digest = "a" * 64
        assert is_fingerprint(digest)
        assert not is_fingerprint(digest[:-1])
        assert not is_fingerprint(digest[:-1] + "G")
        assert is_fingerprint("abc123", prefix=True)
        assert not is_fingerprint("", prefix=True)
        assert not is_fingerprint("xyz", prefix=True)


# ----------------------------------------------------------------------
# Two-tier service accounting
# ----------------------------------------------------------------------
class TestTwoTierService:
    def test_cold_warm_hot_accounting(self, tmp_path, instance):
        g1, g2, mat, _ = instance
        cold = MatchingService(store_dir=str(tmp_path))
        first = cold.match(g1, g2, mat, 0.4)
        snap = cold.stats.snapshot()
        assert snap["cache_misses"] == 1
        assert snap["disk_misses"] == 1 and snap["disk_hits"] == 0
        assert snap["prepares"] == 1
        assert snap["store_seconds"] > 0.0
        assert len(cold.store) == 1  # the build was persisted

        # A separate "process": fresh service, same directory.
        warm = MatchingService(store_dir=str(tmp_path))
        second = warm.match(g1, g2, mat, 0.4)
        snap = warm.stats.snapshot()
        assert snap["cache_misses"] == 1
        assert snap["disk_hits"] == 1 and snap["disk_misses"] == 0
        assert snap["prepares"] == 0 and snap["prepare_seconds"] == 0.0
        assert snap["load_seconds"] > 0.0

        # Same service again: memory tier absorbs it, disk untouched.
        third = warm.match(g1, g2, mat, 0.4)
        snap = warm.stats.snapshot()
        assert snap["cache_hits"] == 1 and snap["disk_hits"] == 1

        assert first.result.mapping == second.result.mapping == third.result.mapping
        assert first.quality == second.quality == third.quality

    def test_corrupt_store_falls_back_to_build(self, tmp_path, instance):
        g1, g2, mat, fingerprint = instance
        MatchingService(store_dir=str(tmp_path)).match(g1, g2, mat, 0.4)
        store = PreparedIndexStore(tmp_path)
        store.path_for(fingerprint).write_bytes(b"scribble")

        service = MatchingService(store=store)
        report = service.match(g1, g2, mat, 0.4)
        assert report.quality >= 0.0
        assert service.stats.disk_misses == 1
        assert service.stats.prepares == 1
        # The rebuild re-persisted a good file.
        assert store.load(fingerprint, g2) is not None

    def test_match_many_through_disk_tier(self, tmp_path):
        rng = random.Random(5)
        data = random_digraph(50, 150, rng, name="data")
        nodes = list(data.nodes())
        patterns = [data.subgraph(rng.sample(nodes, 5), name=f"p{i}") for i in range(8)]

        plain = MatchingService().match_many(patterns, data, label_equality_matrix, 0.5)
        MatchingService(store_dir=str(tmp_path)).match_many(
            patterns, data, label_equality_matrix, 0.5
        )
        warm = MatchingService(store_dir=str(tmp_path))
        reports = warm.match_many(patterns, data, label_equality_matrix, 0.5)
        assert warm.stats.disk_hits == 1 and warm.stats.prepares == 0
        assert [r.result.mapping for r in reports] == [r.result.mapping for r in plain]

    def test_store_and_store_dir_are_exclusive(self, tmp_path):
        with pytest.raises(InputError):
            MatchingService(store=PreparedIndexStore(tmp_path), store_dir=str(tmp_path))

    def test_reset_default_service_with_store(self, tmp_path, instance):
        g1, g2, mat, _ = instance
        try:
            service = reset_default_service(store_dir=str(tmp_path))
            match(g1, g2, mat, 0.4)  # routes through the disk-backed default
            assert service.stats.disk_misses == 1
            assert len(service.store) == 1
            fresh = reset_default_service(store_dir=str(tmp_path))
            match(g1, g2, mat, 0.4)
            assert fresh.stats.disk_hits == 1
        finally:
            reset_default_service()


# ----------------------------------------------------------------------
# The index CLI
# ----------------------------------------------------------------------
class TestIndexCli:
    @pytest.fixture
    def workload_files(self, tmp_path):
        rng = random.Random(3)
        data = random_digraph(60, 180, rng, name="data")
        nodes = list(data.nodes())
        dpath = tmp_path / "data.json"
        dump_json(data, dpath)
        ppaths = []
        for i in range(3):
            path = tmp_path / f"p{i}.json"
            dump_json(data.subgraph(rng.sample(nodes, 5), name=f"p{i}"), path)
            ppaths.append(str(path))
        return str(dpath), ppaths, str(tmp_path / "idx"), graph_fingerprint(data)

    def parsed_lines(self, capsys):
        return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    def test_warm_ls_batch_rm_cycle(self, workload_files, capsys):
        dpath, ppaths, store_dir, fingerprint = workload_files

        assert main(["index", "warm", store_dir, dpath]) == 0
        (warmed,) = self.parsed_lines(capsys)
        assert warmed["action"] == "stored" and warmed["fingerprint"] == fingerprint

        # Warming again is a no-op unless forced.
        assert main(["index", "warm", store_dir, dpath]) == 0
        (rewarmed,) = self.parsed_lines(capsys)
        assert rewarmed["action"] == "exists"
        assert main(["index", "warm", store_dir, dpath, "--force"]) == 0
        (forced,) = self.parsed_lines(capsys)
        assert forced["action"] == "stored"

        assert main(["index", "ls", store_dir]) == 0
        *entries, summary = self.parsed_lines(capsys)
        assert summary == {"summary": True, "entries": 1}
        assert entries[0]["fingerprint"] == fingerprint

        # A cold batch served from the warmed store: no prepare at all.
        assert main(["batch", dpath, *ppaths, "--store-dir", store_dir]) == 0
        *_, batch_summary = self.parsed_lines(capsys)
        service = batch_summary["service"]
        assert service["disk_hits"] == 1 and service["prepares"] == 0
        assert service["load_seconds"] > 0.0

        # Remove by unambiguous prefix, then confirm the store is empty.
        assert main(["index", "rm", store_dir, fingerprint[:12]]) == 0
        (removed,) = self.parsed_lines(capsys)
        assert removed == {"removed": 1}
        assert main(["index", "ls", store_dir]) == 0
        (empty_summary,) = self.parsed_lines(capsys)
        assert empty_summary["entries"] == 0

    def test_warm_repairs_corrupt_file(self, workload_files, capsys):
        """A damaged store file must be re-prepared, not reported warm."""
        dpath, _, store_dir, fingerprint = workload_files
        assert main(["index", "warm", store_dir, dpath]) == 0
        capsys.readouterr()
        store = PreparedIndexStore(store_dir, create=False)
        store.path_for(fingerprint).write_bytes(b"bit rot")
        assert main(["index", "warm", store_dir, dpath]) == 0
        (repaired,) = self.parsed_lines(capsys)
        assert repaired["action"] == "stored"
        from repro.graph.io import load_json

        assert store.load(fingerprint, load_json(dpath)) is not None

    def test_rm_all_and_bad_args(self, workload_files, capsys):
        dpath, _, store_dir, _ = workload_files
        assert main(["index", "warm", store_dir, dpath]) == 0
        capsys.readouterr()
        assert main(["index", "rm", store_dir]) == 2  # nothing requested
        assert main(["index", "rm", store_dir, "zz"]) == 2  # not hex
        capsys.readouterr()
        assert main(["index", "rm", store_dir, "--all"]) == 0
        (removed,) = self.parsed_lines(capsys)
        assert removed == {"removed": 1}

    def test_match_with_store_dir(self, workload_files, capsys):
        dpath, ppaths, store_dir, _ = workload_files
        main(["match", ppaths[0], dpath, "--xi", "0.5", "--store-dir", store_dir])
        capsys.readouterr()
        # The first run warmed the store; a second process would now load.
        service = MatchingService(store_dir=store_dir)
        from repro.graph.io import load_json

        service.match(
            load_json(ppaths[0]),
            load_json(dpath),
            label_equality_matrix,
            0.5,
        )
        assert service.stats.disk_hits == 1
