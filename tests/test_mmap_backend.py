"""The numpy backend's mapped hydration and the store format carrying it.

Covers the zero-copy contract end to end: v3 records keep mask rows
8-byte aligned (asserted on real file bytes) while older records
rebuild; ``payload_region``'s verification modes (full, header+sidecar)
degrade corruption to a miss, never a crash; mapped matrix views are
read-only; mappings are shared per file identity; ``evolve_rows``
copy-on-write leaves the on-disk file byte-identical; and a
``backend="numpy"`` service (``"mmap"`` is its alias) hydrates from the
store without a single payload decode, answering bit-identically to
the ``python`` reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from repro.core.api import match_prepared
from repro.core.backends import BACKEND_NAMES, get_backend
from repro.core.backends.mmap_block import _CowMatrix
from repro.core.incremental import DeltaLog
from repro.core.prepared import PAYLOAD_LAYOUT, PreparedDataGraph, prepare_data_graph
from repro.core.service import MatchingService
from repro.core.store import (
    SIDECAR_SUFFIX,
    STORE_VERSION,
    PreparedIndexStore,
    _MappedIntRows,
)
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators import random_digraph
from repro.similarity.matrix import SimilarityMatrix

def build_graph(seed: int = 17, nodes: int = 90, edges: int = 270) -> DiGraph:
    return random_digraph(nodes, edges, random.Random(seed), name="mapped")


def workload(seed: int = 17, nodes: int = 90, pattern_nodes: int = 12):
    rng = random.Random(seed + 1)
    graph = build_graph(seed, nodes, 3 * nodes)
    pattern = graph.subgraph(
        rng.sample(list(graph.nodes()), pattern_nodes), name="pat"
    )
    mat = SimilarityMatrix()
    candidates = rng.sample(list(graph.nodes()), min(nodes, 40))
    for v in pattern.nodes():
        for u in candidates:
            mat.set(v, u, 1.0)
    return graph, pattern, mat


def warm_store(tmp_path, graph):
    store = PreparedIndexStore(tmp_path)
    prepared = prepare_data_graph(graph)
    store.save(prepared)
    return store, prepared


def hand_payload(prepared, width: int, pad: bool, **extra) -> bytes:
    """``prepared``'s mask rows under a hand-written header: ``width``
    bytes per row, header padding to 8 bytes only when ``pad``, and
    ``extra`` header keys (an older release's layout)."""
    header = {
        "fingerprint": prepared.fingerprint,
        "num_nodes": prepared.num_nodes(),
        "num_edges": prepared.num_edges(),
        **extra,
        "row_bytes": width,
        "node_reprs": [repr(node) for node in prepared.nodes2],
        "prepare_seconds": prepared.prepare_seconds,
    }
    head = json.dumps(header, separators=(",", ":")).encode() + b"\n"
    parts = [head, b"\x00" * (-len(head) % 8) if pad else b""]
    parts.extend(m.to_bytes(width, "little") for m in prepared.from_mask)
    parts.extend(m.to_bytes(width, "little") for m in prepared.to_mask)
    parts.append(prepared.cycle_mask.to_bytes(width, "little"))
    return b"".join(parts)


def assert_rebuilds(tmp_path, graph, prepared, files):
    """Each ``name -> (version, reserved, body)`` store file reads as a
    miss under the ``python`` and ``numpy`` services: the first request
    prepares once and rewrites the file as the current format, exactly
    envelope + header + ``(2n+1)`` rows, which a fresh service then hits
    on disk."""
    n = prepared.num_nodes()
    mask_bytes = (2 * n + 1) * 8 * max(1, (n + 63) // 64)
    for name, (version, reserved, body) in files.items():
        for backend in ("python", "numpy"):
            store = PreparedIndexStore(tmp_path / f"{name}-{backend}")
            path = store.path_for(prepared.fingerprint)
            path.write_bytes(
                b"".join(
                    (
                        b"RPHOMIDX",
                        version.to_bytes(4, "little"),
                        reserved,
                        len(body).to_bytes(8, "little"),
                        hashlib.sha256(body).digest(),
                        body,
                    )
                )
            )
            assert store.load(prepared.fingerprint, graph) is None
            region = store.payload_region(prepared.fingerprint)
            if version == STORE_VERSION:  # current envelope, stale payload
                with pytest.raises(ValueError):
                    get_backend("numpy").open_payload(region)
            else:
                assert region is None

            first = MatchingService(store_dir=str(store.store_dir), backend=backend)
            rebuilt = first.prepared_for(graph)
            assert list(rebuilt.from_mask) == list(prepared.from_mask)
            snap = first.stats.snapshot()
            assert snap["disk_hits"] == 0 and snap["prepares"] == 1, (name, backend)
            blob = path.read_bytes()
            assert int.from_bytes(blob[8:12], "little") == STORE_VERSION
            head = blob.index(b"\n", 56) + 1 - 56
            head += -head % 8
            assert len(blob) == 56 + head + mask_bytes, (name, backend)
            [entry] = store.entries()
            assert entry.version == STORE_VERSION

            fresh = MatchingService(store_dir=str(store.store_dir), backend=backend)
            fresh.prepared_for(graph)
            snap = fresh.stats.snapshot()
            assert snap["disk_hits"] == 1 and snap["prepares"] == 0, (name, backend)


def open_mapped(store, graph, prepared, verify: str = "full"):
    backend = get_backend("mmap")
    region = store.payload_region(prepared.fingerprint, verify=verify)
    assert region is not None
    payload = backend.open_payload(region)
    return PreparedDataGraph.from_mapped(
        graph, payload, fingerprint=prepared.fingerprint
    ), payload, region


# ----------------------------------------------------------------------
# v3 format: alignment asserted on the real file bytes; older files rebuild
# ----------------------------------------------------------------------
class TestStoreFormat:
    def test_v2_record_is_8_byte_aligned(self, tmp_path):
        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        region = store.payload_region(prepared.fingerprint, verify="full")
        assert region is not None
        assert region.version == STORE_VERSION
        # The payload itself starts on an 8-byte boundary...
        assert region.payload_offset % 8 == 0
        blob = store.path_for(prepared.fingerprint).read_bytes()
        payload = blob[region.payload_offset :]
        header = json.loads(payload[: payload.index(b"\n")])
        assert header["layout"] == PAYLOAD_LAYOUT
        n, width = header["num_nodes"], header["row_bytes"]
        assert width % 8 == 0
        # ...and so does the mask section, in absolute file coordinates.
        mask_offset = payload.index(b"\n") + 1
        mask_offset += -mask_offset % 8
        assert (region.payload_offset + mask_offset) % 8 == 0
        # ...and the mask rows are all that follows the header.
        assert len(payload) - mask_offset == (2 * n + 1) * width

    def test_pre_v3_files_rebuild(self, tmp_path):
        """Hand-made version-1 and version-2 files read as a miss: the
        first request rebuilds the index and rewrites the file as v3,
        which the next process then hits on disk."""
        graph = build_graph()
        prepared = prepare_data_graph(graph)
        n = prepared.num_nodes()
        # v1: 52-byte envelope, packed layout-1 rows; v2: 56-byte
        # envelope (reserved word), word-aligned layout-2 rows.
        v1 = hand_payload(prepared, (n + 7) // 8, pad=False)
        v2 = hand_payload(prepared, 8 * max(1, (n + 63) // 64), pad=True, layout=2)
        assert_rebuilds(tmp_path, graph, prepared, {
            "v1": (1, b"", v1),
            "v2": (2, b"\x00\x00\x00\x00", v2),
        })

    def test_sketch_section_files_rebuild(self, tmp_path):
        """A v3 file that still carries the closure-sketch section older
        releases appended (``"sketch": true`` in the header, four
        ``n``-entry uint64 columns after the cycle row) fails the
        payload length check, so it reads as a miss and is rewritten
        without the section."""
        graph = build_graph()
        prepared = prepare_data_graph(graph)
        n = prepared.num_nodes()
        sketches = prepared.sketches
        columns = (
            sketches.out_card, sketches.in_card, sketches.out_sig, sketches.in_sig
        )
        body = hand_payload(
            prepared, 8 * max(1, (n + 63) // 64), pad=True, layout=2, sketch=True
        ) + b"".join(v.to_bytes(8, "little") for column in columns for v in column)
        assert_rebuilds(tmp_path, graph, prepared, {
            "sketch": (STORE_VERSION, b"\x00\x00\x00\x00", body),
        })

    def test_entries_report_section_sizes(self, tmp_path):
        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        [entry] = store.entries()
        n = prepared.num_nodes()
        width = 8 * max(1, (n + 63) // 64)
        assert entry.mask_section_bytes == (2 * n + 1) * width
        assert entry.payload_bytes == len(prepared.to_payload())
        assert entry.mask_section_bytes < entry.payload_bytes < entry.file_bytes
        doc = entry.as_dict()
        assert doc["payload_bytes"] == entry.payload_bytes
        assert doc["mask_section_bytes"] == entry.mask_section_bytes


# ----------------------------------------------------------------------
# Verification modes and the sidecar lifecycle
# ----------------------------------------------------------------------
class TestVerifyModes:
    def test_header_mode_skips_hash_after_full_verify(self, tmp_path):
        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        path = store.path_for(prepared.fingerprint)
        sidecar = path.with_name(path.name + SIDECAR_SUFFIX)
        assert not sidecar.exists()  # save() never writes sidecars
        # First header-mode region upgrades to a full hash and records it.
        region1 = store.payload_region(prepared.fingerprint, verify="header")
        assert region1 is not None
        assert sidecar.exists()
        doc = json.loads(sidecar.read_text())
        assert doc["size"] == region1.file_size
        assert doc["mtime_ns"] == region1.mtime_ns
        # Now header mode trusts the stat identity — prove it by making
        # the sidecar lie: corrupt payload bytes, restore the stat.
        stat = path.stat()
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        import os

        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert store.payload_region(prepared.fingerprint, verify="header") is not None
        # Full mode re-hashes and refuses.
        assert store.payload_region(prepared.fingerprint, verify="full") is None
        assert store.load(prepared.fingerprint, graph, verify="full") is None

    def test_corruption_degrades_to_miss_never_crash(self, tmp_path):
        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        path = store.path_for(prepared.fingerprint)
        blob = path.read_bytes()
        for damage in (
            blob[:20],  # truncated inside the envelope
            blob[:-10],  # truncated payload
            b"WRONGMAG" + blob[8:],  # bad magic
            blob[:8] + (99).to_bytes(4, "little") + blob[12:],  # unknown version
            blob[:8] + blob[8:12] + b"\x01\x00\x00\x00" + blob[16:],  # reserved
            blob[:70] + bytes([blob[70] ^ 0xFF]) + blob[71:],  # payload flip
        ):
            path.write_bytes(damage)
            sidecar = path.with_name(path.name + SIDECAR_SUFFIX)
            sidecar.unlink(missing_ok=True)
            assert store.payload_region(prepared.fingerprint, verify="full") is None
            assert store.load(prepared.fingerprint, graph) is None
        # A service over the corrupt file rebuilds rather than crashing.
        path.write_bytes(blob[:-10])
        service = MatchingService(store_dir=str(tmp_path), backend="mmap")
        rebuilt = service.prepared_for(graph)
        assert list(rebuilt.from_mask) == list(prepared.from_mask)
        snap = service.stats.snapshot()
        assert snap["prepares"] == 1 and snap["disk_hits"] == 0

    def test_remove_cleans_sidecar(self, tmp_path):
        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        assert store.payload_region(prepared.fingerprint, verify="full") is not None
        path = store.path_for(prepared.fingerprint)
        sidecar = path.with_name(path.name + SIDECAR_SUFFIX)
        assert sidecar.exists()
        assert store.remove(prepared.fingerprint)
        assert not path.exists() and not sidecar.exists()

    def test_load_rejects_bad_verify_mode(self, tmp_path):
        from repro.utils.errors import InputError

        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        with pytest.raises(InputError, match="verify"):
            store.load(prepared.fingerprint, graph, verify="paranoid")


# ----------------------------------------------------------------------
# Mapped hydration: zero-copy views, read-only, shared mappings
# ----------------------------------------------------------------------
class TestMappedHydration:
    def test_mapped_equals_decoded(self, tmp_path):
        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        mapped, payload, region = open_mapped(store, graph, prepared)
        assert list(mapped.from_mask) == list(prepared.from_mask)
        assert list(mapped.to_mask) == list(prepared.to_mask)
        assert mapped.cycle_mask == prepared.cycle_mask
        assert mapped.fingerprint == prepared.fingerprint
        assert mapped.num_edges() == prepared.num_edges()
        # The lazy adapters compare element-wise, slices included.
        assert mapped.from_mask == prepared.from_mask
        assert mapped.from_mask[3:7] == prepared.from_mask[3:7]
        assert payload.mask_section_bytes <= region.payload_length

    def test_mapped_views_are_read_only(self, tmp_path):
        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        mapped, payload, _ = open_mapped(store, graph, prepared)
        rows = mapped.backend_rows(get_backend("mmap"))
        assert rows is payload.rows  # pre-seeded, never rebuilt
        with pytest.raises(ValueError):
            rows.from_rows[0, 0] = 1
        with pytest.raises(ValueError):
            rows.to_rows[0, 0] = 1

    def test_mappings_shared_per_file_identity(self, tmp_path):
        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        _, payload_a, _ = open_mapped(store, graph, prepared)
        _, payload_b, _ = open_mapped(store, graph, prepared, verify="header")
        assert payload_a.rows.mapping is payload_b.rows.mapping
        # A rewrite moves the stat identity: new region, new mapping.
        store.save(prepared)
        _, payload_c, _ = open_mapped(store, graph, prepared)
        assert payload_c.rows.mapping is not payload_a.rows.mapping

    def test_mapped_open_refuses_wrong_fingerprint(self, tmp_path):
        graph = build_graph()
        store, prepared = warm_store(tmp_path, graph)
        backend = get_backend("mmap")
        region = store.payload_region(prepared.fingerprint, verify="full")
        with pytest.raises(ValueError):
            PreparedDataGraph.from_mapped(
                graph, backend.open_payload(region),
                fingerprint=graph_fingerprint(build_graph(seed=99)),
            )
        # Count mismatches are the cheap honest check with no hint given.
        smaller = build_graph(seed=99, nodes=50, edges=150)
        with pytest.raises(ValueError):
            PreparedDataGraph.from_mapped(smaller, backend.open_payload(region))


# ----------------------------------------------------------------------
# Copy-on-write evolution over mapped rows
# ----------------------------------------------------------------------
class TestCopyOnWriteEvolve:
    def test_evolve_keeps_file_byte_identical(self, tmp_path):
        graph = build_graph(seed=5, nodes=70)
        store, prepared = warm_store(tmp_path, graph)
        path = store.path_for(prepared.fingerprint)
        before = path.read_bytes()
        mapped, payload, _ = open_mapped(store, graph, prepared)
        base_rows = mapped.backend_rows(get_backend("mmap"))

        log = DeltaLog(graph, base_fingerprint=prepared.fingerprint)
        nodes = list(graph.nodes())
        graph.add_edge(nodes[0], nodes[1])
        graph.add_edge(nodes[2], nodes[0])
        evolved = mapped.apply_delta(log)
        cold = prepare_data_graph(graph)
        assert list(evolved.from_mask) == list(cold.from_mask)
        assert list(evolved.to_mask) == list(cold.to_mask)
        assert evolved.cycle_mask == cold.cycle_mask
        # COW product answers like a cold build, row for row...
        import numpy as np

        backend = get_backend("mmap")
        evolved_rows = evolved.backend_rows(backend)
        want = backend.build_rows(cold.from_mask, cold.to_mask, len(cold.nodes2))
        for i in range(len(cold.nodes2)):
            assert np.array_equal(evolved_rows.from_rows[i], want.from_rows[i]), i
            assert np.array_equal(evolved_rows.to_rows[i], want.to_rows[i]), i
        # ...dirty rows are private overlays, clean rows still alias the
        # map, and the store file never changed underneath either.
        if isinstance(evolved_rows.from_rows, _CowMatrix):
            assert evolved_rows.from_rows.base is base_rows.from_rows
            assert evolved_rows.from_rows.overrides
        assert path.read_bytes() == before

    def test_cow_overlay_merges_across_evolutions(self, tmp_path):
        graph = build_graph(seed=6, nodes=60)
        store, prepared = warm_store(tmp_path, graph)
        mapped, _, _ = open_mapped(store, graph, prepared)
        backend = get_backend("mmap")
        rows = mapped.backend_rows(backend)
        n = len(mapped.nodes2)
        once = backend.evolve_rows(
            rows, list(mapped.from_mask), list(mapped.to_mask), n, [0, 1]
        )
        twice = backend.evolve_rows(
            once, list(mapped.from_mask), list(mapped.to_mask), n, [2]
        )
        assert isinstance(twice.from_rows, _CowMatrix)
        assert set(twice.from_rows.overrides) == {0, 1, 2}
        assert twice.from_rows.base is rows.from_rows
        # Geometry drift opts out (same contract as the numpy backend).
        assert (
            backend.evolve_rows(
                rows, list(mapped.from_mask)[:-1], list(mapped.to_mask)[:-1],
                n - 1, [0],
            )
            is None
        )


# ----------------------------------------------------------------------
# Service + CLI integration
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def test_mmap_service_serves_without_decoding(self, tmp_path):
        graph, pattern, mat = workload()
        warm = MatchingService(store_dir=str(tmp_path), backend="numpy")
        reference = warm.match(pattern, graph, mat, 0.6)

        service = MatchingService(store_dir=str(tmp_path), backend="mmap")
        report = service.match(pattern, graph, mat, 0.6)
        snap = service.stats.snapshot()
        assert snap["mapped_bytes"] > 0
        assert snap["disk_hits"] == 1 and snap["prepares"] == 0
        assert report.matched == reference.matched
        assert report.quality == reference.quality
        assert report.result.mapping == reference.result.mapping
        # Memory hit on the second call: no second open.
        service.match(pattern, graph, mat, 0.6)
        assert service.stats.snapshot()["disk_hits"] == 1

    def test_all_backends_identical_via_facade(self, tmp_path):
        graph, pattern, mat = workload(seed=23)
        prepared = prepare_data_graph(graph)
        store = PreparedIndexStore(tmp_path)
        store.save(prepared)
        mapped, _, _ = open_mapped(store, graph, prepared)
        reports = {
            name: match_prepared(
                pattern, mapped if name == "mmap" else prepared, mat, 0.6,
                backend=name,
            )
            for name in BACKEND_NAMES
        }
        reference = reports["python"]
        for name, report in reports.items():
            assert report.result.mapping == reference.result.mapping, name
            assert report.quality == reference.quality, name

    def test_two_services_share_one_mapping(self, tmp_path):
        graph, pattern, mat = workload(seed=29)
        MatchingService(store_dir=str(tmp_path), backend="numpy").match(
            pattern, graph, mat, 0.6
        )
        a = MatchingService(store_dir=str(tmp_path), backend="mmap")
        b = MatchingService(store_dir=str(tmp_path), backend="mmap")
        pa = a.prepared_for(graph)
        pb = b.prepared_for(graph.copy())
        assert pa.mapped is not None and pb.mapped is not None
        assert pa.mapped.rows.mapping is pb.mapped.rows.mapping

    def test_cli_warm_reports_mapped_hydration(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.graph.io import dump_json

        graph, _, _ = workload(seed=31)
        gpath = tmp_path / "g.json"
        dump_json(graph, str(gpath))
        store_dir = tmp_path / "idx"
        assert main(
            ["index", "warm", str(store_dir), str(gpath), "--backend", "mmap"]
        ) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["action"] == "stored"
        assert line["backend"] == "numpy"  # "mmap" is the numpy backend's alias
        assert line["hydration"] == "mapped"
        assert main(
            ["index", "warm", str(store_dir), str(gpath), "--backend", "numpy"]
        ) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["action"] == "exists"
        assert line["hydration"] == "mapped"
        # The reference backend maps its store hits too.
        assert main(
            ["index", "warm", str(store_dir), str(gpath), "--backend", "python"]
        ) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["action"] == "exists"
        assert line["hydration"] == "mapped"

    def test_lazy_int_adapter_contract(self, tmp_path):
        graph = build_graph(seed=37, nodes=70)
        store, prepared = warm_store(tmp_path, graph)
        mapped, _, _ = open_mapped(store, graph, prepared)
        masks = mapped.from_mask
        assert isinstance(masks, _MappedIntRows)
        assert len(masks) == prepared.num_nodes()
        assert masks[-1] == prepared.from_mask[-1]
        assert list(iter(masks)) == list(prepared.from_mask)
        assert (masks == prepared.from_mask) is True
        assert (masks == prepared.from_mask[:-1]) is False
        with pytest.raises(TypeError):
            hash(masks)


# ----------------------------------------------------------------------
# Mapping interning identity: checksum in the key, not just stat identity
# ----------------------------------------------------------------------
class TestMappingInterningIdentity:
    def test_same_size_same_mtime_rewrite_gets_a_fresh_mapping(self, tmp_path):
        """A rewrite that preserves size *and* mtime must not serve the
        stale interned mapping.

        ``payload_region`` trusts (size, mtime) plus the envelope
        checksum; the interned-mapping key used to trust only the stat
        identity, so a same-length in-place rewrite landing within the
        filesystem's mtime granularity (or restored via utime, as
        backup/sync tools do) kept handing out the *old* bytes to new
        opens while any pinned mapping was alive.  The checksum now in
        the key makes the rewritten content a distinct identity.
        """
        graph = build_graph(seed=23, nodes=60, edges=180)
        store, prepared = warm_store(tmp_path, graph)
        path = store.path_for(prepared.fingerprint)
        _, pinned, region_a = open_mapped(store, graph, prepared, verify="full")
        assert pinned is not None  # keeps the weak-interned mapping alive

        stat_before = path.stat()
        blob = bytearray(path.read_bytes())
        offset = region_a.payload_offset
        blob[-1] ^= 0xFF  # flip one payload byte (tail of the cycle row)
        # Re-seal the envelope: checksum bytes sit at [24:56] for v2/v3.
        blob[24:56] = hashlib.sha256(bytes(blob[offset:])).digest()
        # Rewrite the way writers do: tmp + rename (a new inode), then
        # an mtime landing on the old stamp (coarse-granularity
        # filesystems; sync/backup tools restoring times).  The pinned
        # mapping still holds the *old* inode's bytes.
        tmp = path.with_name(path.name + ".rewrite")
        tmp.write_bytes(bytes(blob))
        os.replace(tmp, path)
        os.utime(path, ns=(stat_before.st_atime_ns, stat_before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (
            stat_before.st_size, stat_before.st_mtime_ns,
        )

        region_b = store.payload_region(prepared.fingerprint, verify="full")
        assert region_b is not None
        assert region_b.payload_sha256 != region_a.payload_sha256
        fresh = get_backend("mmap").open_payload(region_b)
        assert fresh.rows.mapping is not pinned.rows.mapping
        assert fresh.rows.mapping.buffer[-1] != pinned.rows.mapping.buffer[-1]

    def test_unchanged_file_still_shares_one_mapping(self, tmp_path):
        """The checksum key must not break sharing for unchanged files."""
        graph = build_graph(seed=29, nodes=60, edges=180)
        store, prepared = warm_store(tmp_path, graph)
        _, payload_a, _ = open_mapped(store, graph, prepared, verify="full")
        _, payload_b, _ = open_mapped(store, graph, prepared, verify="header")
        assert payload_a.rows.mapping is payload_b.rows.mapping

    def test_compact_then_reopen_serves_fresh_replayed_bytes(self, tmp_path):
        """Chain → compact → reopen: the mapped view equals a cold build.

        The flow the warm store runs under streaming load: an index
        served as a delta chain off its base is compacted into a fresh
        full payload; a reopen right after (with the old base mapping
        still pinned) must map the compacted file, not any stale
        identity, and its masks must equal a from-scratch prepare.
        """
        graph = build_graph(seed=31, nodes=60, edges=180)
        store, prepared = warm_store(tmp_path, graph)
        nodes = sorted(graph.nodes())
        evolved_graph = graph.copy(name="evolved")
        added = 0
        for a, b in zip(nodes, nodes[5:]):
            if not evolved_graph.has_edge(a, b):
                evolved_graph.add_edge(a, b)
                added += 1
            if added == 3:
                break
        evolved, info = store.evolve(graph, evolved_graph, chain=True)
        assert evolved is not None
        fp = graph_fingerprint(evolved_graph)

        chained = store.payload_region(fp, verify="full")
        assert chained is not None and chained.overlay is not None
        pinned = get_backend("mmap").open_payload(chained)  # pin the base mapping

        assert store.compact(fp, evolved_graph)["action"] == "compacted"
        region = store.payload_region(fp, verify="full")
        assert region is not None and region.overlay is None
        payload = get_backend("mmap").open_payload(region)
        assert payload.rows.mapping is not pinned.rows.mapping
        mapped = PreparedDataGraph.from_mapped(
            evolved_graph, payload, fingerprint=fp
        )
        cold = prepare_data_graph(evolved_graph)
        assert list(mapped.from_mask) == list(cold.from_mask)
        assert list(mapped.to_mask) == list(cold.to_mask)
        assert mapped.cycle_mask == cold.cycle_mask
