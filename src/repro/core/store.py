"""Persistent prepared-index store: ``G2⁺`` bitmask indexes on disk.

The web-mirror workload of Section 6 — and any serving deployment —
matches many patterns against few, large, slowly-changing data graphs.
The in-process LRU (:class:`~repro.core.service.PreparedGraphCache`)
amortises ``compMaxCard``'s dominant setup cost (materialising ``H2``,
Fig. 3 lines 5–7) across the *calls of one process*; this module
amortises it across *processes and restarts*: a fleet of cold workers
can load a pre-warmed index in milliseconds instead of each rebuilding
the transitive closure.

:class:`PreparedIndexStore`
    a directory of index files, one per data graph, named by the graph's
    content fingerprint (:func:`~repro.graph.fingerprint.graph_fingerprint`
    — so invalidation stays automatic: a mutated graph hashes to a new
    file name and the old file is simply never requested again).

File format (version 3)::

    magic    8 bytes   b"RPHOMIDX"
    version  4 bytes   little-endian uint32
    reserved 4 bytes   zero (pads the payload to an 8-byte file offset)
    length   8 bytes   little-endian uint64, payload byte count
    checksum 32 bytes  sha256 of the payload
    payload            PreparedDataGraph.to_payload() bytes

The envelope is 56 bytes, so the payload — whose mask section is itself
8-byte aligned within the payload — lands with every mask row on an
8-byte file offset.  That alignment is what lets :func:`map_payload`
serve the mask section in place — and the numpy backend view it as
uint64 matrices (:meth:`PreparedIndexStore.payload_region` hands both
the coordinates).
Only version 3 is read: a file in an older format reads as a miss, so
the first request rebuilds the index and ``save`` rewrites the file.

Delta chains
------------
A long mutation stream evolves one index into the next with only a
handful of changed closure rows per step, yet a plain ``save()`` of the
evolved index rewrites the **entire** payload — for a 2000-node graph
that is ~1 MiB of write amplification per single-edge delta.
:meth:`PreparedIndexStore.save_delta` instead persists a compact *delta
record* (``<fingerprint>.phomdlt``, magic ``RPHOMDLT``, same envelope
shape) holding just the changed rows, the new cycle row, and a pointer
to the parent fingerprint::

    header line (JSON): fingerprint, base, depth, num_nodes, num_edges,
                        layout, row_bytes, from_positions,
                        to_positions, prepare_seconds
    zero padding to an 8-byte boundary
    changed from_mask rows, then to_mask rows
    cycle row

Only evolutions that keep the base's node list chain; any other is
saved in full.  :meth:`PreparedIndexStore.payload_region` describes a
chained fingerprint as the *base* file's region plus a
:class:`ChainOverlay` of the replayed rows, so every open maps the
(shared, unchanged) base pages and serves the few evolved rows over
them.  Chain depth is capped at :data:`CHAIN_DEPTH_MAX`;
:meth:`PreparedIndexStore.evolve` compacts a capped chain into a fresh
full base, and :meth:`PreparedIndexStore.compact` does so on demand.
``remove`` and the GC policies treat a base and its delta descendants
as one *group* — a base payload is never deleted out from under delta
records that still replay against it, and a chain's age is its newest
member's.

Mapped hydration
----------------
:func:`map_payload` is the one way a stored index becomes rows: it maps
the file read-only (one mapping per file identity, shared process-wide)
and views the mask section in place.  The big-int rows every backend
understands decode lazily, one row on first touch
(:class:`_MappedIntRows`), so an open costs a header parse, not a
payload decode, and resident memory tracks the rows a solve touches.
:meth:`PreparedIndexStore.load` and the service's store tier both open
through it; a backend adds native views over the same mapping in its
``open_payload``.

Writes are atomic (tmp file + ``os.replace``) so a concurrent reader
never observes a half-written index, and loads are corruption-tolerant:
*any* defect — missing file, bad magic, other version, checksum or
length mismatch, malformed header, truncated masks, stale content, a
broken or cyclic delta chain — is reported as a miss (``None``), never
an exception.  A corrupt file costs one rebuild, exactly like a cold
cache.

Verification modes: ``load``/``payload_region`` accept
``verify="full"`` (hash the whole payload against the envelope
checksum — the default for ``load``) or ``verify="header"`` (envelope
sanity plus a stat comparison against a ``<name>.ok`` *sidecar* left by
the first full verification of that file — the mapped open path, which
must not read every byte of a file it is about to lazily page in).  A
missing or stale sidecar silently upgrades to a full verification that
refreshes it, so header mode is never weaker than "hashed once since
this file's bytes last changed".
"""

from __future__ import annotations

import hashlib
import itertools
import json
import mmap
import os
import threading
import time
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.prepared import (
    PAYLOAD_LAYOUT,
    PreparedDataGraph,
    _aligned_row_bytes,
    _int_rows,
    _parse_payload,
    _payload_head,
    _split_payload,
)
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import is_fingerprint
from repro.utils.errors import InputError

__all__ = [
    "PreparedIndexStore",
    "StoreEntry",
    "PayloadRegion",
    "ChainOverlay",
    "MappedPayload",
    "map_payload",
    "STORE_SUFFIX",
    "STORE_VERSION",
    "DELTA_SUFFIX",
    "CHAIN_DEPTH_MAX",
]

_MAGIC = b"RPHOMIDX"
#: Magic of delta-record files (same envelope shape as index files).
DELTA_MAGIC = b"RPHOMDLT"
#: Envelope byte count: magic, version, 4 reserved bytes (so the payload
#: starts at a file offset divisible by 8), length, checksum.
_ENVELOPE_LEN = len(_MAGIC) + 4 + 4 + 8 + 32

#: On-disk format version written by ``save`` — and the only one read.
STORE_VERSION = 3

#: File name suffix of index files (``<fingerprint>.phomidx``).
STORE_SUFFIX = ".phomidx"

#: File name suffix of delta-record files (``<fingerprint>.phomdlt``).
DELTA_SUFFIX = ".phomdlt"

#: Longest replay chain behind one fingerprint.  Past this depth
#: ``evolve(chain=True)`` compacts into a fresh full base instead of
#: appending — hydration cost stays O(depth) bounded, and a corrupt
#: middle record can never invalidate an unbounded tail.
CHAIN_DEPTH_MAX = 8

#: Suffix of verification sidecars (``<fingerprint>.phomidx.ok`` /
#: ``<fingerprint>.phomdlt.ok``) — the stat snapshot recorded by the
#: last full checksum of a file, letting ``verify="header"`` reads skip
#: re-hashing unchanged bytes.
SIDECAR_SUFFIX = ".ok"

#: Monotonic per-process discriminator for tmp-file names.
_tmp_counter = itertools.count()


def _parse_envelope(blob: bytes, magic: bytes = _MAGIC) -> tuple[int, bytes] | None:
    """``(length, checksum)`` of a :data:`STORE_VERSION` envelope; ``None``
    if malformed or another version.

    ``blob`` needs only the envelope bytes — callers validate the payload
    length against whatever they actually hold (a full read or a stat);
    the payload starts at :data:`_ENVELOPE_LEN`.
    """
    if (
        len(blob) < _ENVELOPE_LEN
        or not blob.startswith(magic)
        or int.from_bytes(blob[8:12], "little") != STORE_VERSION
        or blob[12:16] != b"\x00\x00\x00\x00"  # reserved bytes must be zero
    ):
        return None
    return int.from_bytes(blob[16:24], "little"), blob[24:_ENVELOPE_LEN]


def _envelope(magic: bytes, payload: bytes) -> bytes:
    """The :data:`STORE_VERSION` envelope framing ``payload``."""
    return b"".join(
        (
            magic,
            STORE_VERSION.to_bytes(4, "little"),
            b"\x00\x00\x00\x00",  # reserved: 8-aligns the payload offset
            len(payload).to_bytes(8, "little"),
            hashlib.sha256(payload).digest(),
        )
    )


def _decode_delta(
    payload: bytes,
) -> tuple[dict, dict[int, int], dict[int, int], int]:
    """Decode one delta-record payload, geometry-checked.

    ``(header, from_rows, to_rows, cycle_mask)`` where the row dicts map
    changed positions to their new masks at the record's row width.
    Raises :class:`ValueError` on any structural defect; the store layer
    treats that as a broken chain (a miss).
    """
    header, body = _split_payload(payload)
    n, width = PreparedDataGraph.header_geometry(header)
    base = header.get("base")
    if not (isinstance(base, str) and is_fingerprint(base)):
        raise ValueError("delta record names no base fingerprint")
    depth = header.get("depth")
    if not (isinstance(depth, int) and depth >= 1):
        raise ValueError("delta record depth is malformed")
    from_positions = header["from_positions"]
    to_positions = header["to_positions"]
    if not (isinstance(from_positions, list) and isinstance(to_positions, list)):
        raise ValueError("delta record row lists are malformed")
    for position in itertools.chain(from_positions, to_positions):
        if not (isinstance(position, int) and 0 <= position < n):
            raise ValueError("delta row position out of range")
    count = len(from_positions) + len(to_positions) + 1
    if len(body) != count * width:
        raise ValueError("delta mask section is truncated or oversized")
    decoded = _int_rows(body, width)
    split = len(from_positions)
    from_rows = dict(zip(from_positions, decoded[:split]))
    to_rows = dict(zip(to_positions, decoded[split:-1]))
    return header, from_rows, to_rows, decoded[-1]


def _estimate_full_bytes(prepared: PreparedDataGraph) -> int:
    """Bytes a full ``save(prepared)`` would write (header built for
    real, mask section by geometry) — the write amplification a delta
    record avoids, without serialising any row to find out."""
    n = len(prepared.nodes2)
    return (
        _ENVELOPE_LEN
        + len(_payload_head(prepared))
        + (2 * n + 1) * _aligned_row_bytes(n)
    )


@dataclass(frozen=True)
class StoreEntry:
    """Metadata of one stored index, as listed by ``index ls``.

    ``mtime`` is the file's modification time (the age the GC policies
    act on) and ``version`` the envelope's on-disk format version
    (:data:`STORE_VERSION`, the only one read) — the payload itself is
    backend-neutral, so fleet tooling scripting warm/GC decisions off
    ``index ls --json`` needs no knowledge of which solver backend will
    hydrate an index.  ``payload_bytes`` /
    ``mask_section_bytes`` split the file size into envelope + header vs
    the mask rows themselves — the mask section is what an mmap-serving
    fleet actually pages in, so it is the number operators budget page
    cache against.  ``chain_depth`` is 0 for a full base payload and the
    replay depth for a fingerprint stored as a delta record (whose
    ``file_bytes`` then cover just that record, not its chain).
    """

    fingerprint: str
    path: Path
    num_nodes: int
    num_edges: int
    file_bytes: int
    payload_bytes: int
    mask_section_bytes: int
    prepare_seconds: float
    mtime: float
    version: int
    chain_depth: int = 0

    def as_dict(self) -> dict:
        """A JSON-serialisable view (CLI output)."""
        return {
            "fingerprint": self.fingerprint,
            "path": str(self.path),
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "bytes": self.file_bytes,
            "payload_bytes": self.payload_bytes,
            "mask_section_bytes": self.mask_section_bytes,
            "prepare_seconds": self.prepare_seconds,
            "mtime": self.mtime,
            "version": self.version,
            "chain_depth": self.chain_depth,
        }


@dataclass(frozen=True)
class ChainOverlay:
    """Replayed delta rows layered over a mapped base payload.

    Produced by :meth:`PreparedIndexStore.payload_region` for a
    fingerprint stored as a delta chain: :func:`map_payload` maps the
    (unchanged, shared) base file and seeds its lazy rows with
    ``from_rows`` / ``to_rows`` — position → new mask — and the numpy
    backend layers them copy-on-write over its matrix views, exactly
    like an in-process ``evolve_rows`` refresh.  ``fingerprint`` /
    ``num_edges`` / ``prepare_seconds`` describe the chain *leaf* (they
    patch the base header on open).
    """

    fingerprint: str
    num_edges: int
    prepare_seconds: float
    from_rows: dict[int, int]
    to_rows: dict[int, int]
    cycle_mask: int


@dataclass(frozen=True)
class PayloadRegion:
    """Where a *validated* index payload lives inside its store file.

    The stable coordinates :meth:`PreparedIndexStore.payload_region`
    hands to :func:`map_payload`: map ``path``, and the payload is the
    ``payload_length`` bytes starting at ``payload_offset`` (a multiple
    of 8, so the payload's mask rows are 8-byte aligned in the file).
    ``file_size`` / ``mtime_ns`` snapshot the stat identity the
    validation covered, so mapping caches can key sharing on it and a
    concurrent rewrite shows up as a different region rather than a
    silently different file.
    ``payload_sha256`` is the envelope's payload checksum — the content
    identity mapping caches must *also* key on, because a rewrite to the
    same byte length within the filesystem's mtime granularity (an
    ``index compact`` flattening a chain, a ``--force`` re-warm) leaves
    size and mtime_ns unchanged while the bytes differ.  For a
    delta-chained fingerprint the coordinates describe the *base* file
    and ``overlay`` carries the replayed rows to layer over it
    (``payload_sha256`` stays the base file's — it names the mapped
    bytes).
    """

    path: Path
    fingerprint: str
    version: int
    payload_offset: int
    payload_length: int
    file_size: int
    mtime_ns: int
    payload_sha256: bytes = b""
    overlay: ChainOverlay | None = None


class _Mapping:
    """One shared read-only map of a store file.

    ``size``/``mtime_ns`` are the stat identity the caller validated
    (see :class:`PayloadRegion`); a file whose size changed between
    validation and open is rejected rather than silently mapped.  Only
    ``buffer`` is kept: the identity lives in the interning key.  The
    underlying :class:`mmap.mmap` closes once the last view over it is
    released.
    """

    __slots__ = ("buffer", "__weakref__")

    def __init__(self, path, size: int, mtime_ns: int) -> None:
        with open(path, "rb") as handle:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        if buffer.size() != size:
            buffer.close()
            raise ValueError("store file changed size since validation")
        self.buffer = buffer


#: Interned mappings, keyed ``(str(path), size, mtime_ns, payload
#: sha256)``.  Weak values: a mapping lives exactly as long as some
#: hydrated index references it.  The checksum (verified by
#: ``payload_region``) is part of the identity on purpose: stat identity
#: alone collides when a file is rewritten to the same byte length
#: within the filesystem's mtime granularity — ``index compact``
#: flattening a chain, a re-warm — and a stale mapping would keep
#: serving the old pages.
_mappings: "weakref.WeakValueDictionary[tuple, _Mapping]" = (
    weakref.WeakValueDictionary()
)
_mappings_lock = threading.Lock()


def _shared_mapping(region: PayloadRegion) -> _Mapping:
    """The process-wide mapping for ``region``'s exact file identity.

    The lock guards only the table: the open, map and size check run
    off-lock, so mapped opens of different files never queue behind
    each other.  Racing openers of one file may each map it; the first
    to publish wins and the others close their map and share its.
    """
    key = (
        str(region.path), region.file_size, region.mtime_ns, region.payload_sha256
    )
    with _mappings_lock:
        mapping = _mappings.get(key)
    if mapping is None:
        built = _Mapping(region.path, region.file_size, region.mtime_ns)
        with _mappings_lock:
            mapping = _mappings.setdefault(key, built)
        if mapping is not built:
            built.buffer.close()
    return mapping


class _MappedIntRows(Sequence):
    """Lazy big-int rows over ``width``-byte little-endian rows of a map.

    ``view`` is a memoryview slice of the mapped mask section.  Row
    ``i`` decodes with ``int.from_bytes`` on first access and is
    memoized — the backend-neutral mask currency without an upfront
    decode of rows nobody asks for.  ``seed`` (position → mask)
    pre-fills rows that differ from the mapped bytes: a chain overlay's
    replayed rows.  Equality is element-wise against any sequence.
    """

    __slots__ = ("_view", "_width", "_cache")

    def __init__(self, view, width: int, seed=None) -> None:
        self._view = view
        self._width = width
        self._cache: list[int | None] = [None] * (len(view) // width)
        for position, mask in (seed or {}).items():
            self._cache[position] = mask

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._cache)))]
        value = self._cache[index]
        if value is None:
            if index < 0:
                index += len(self._cache)
            start = index * self._width
            value = int.from_bytes(self._view[start : start + self._width], "little")
            self._cache[index] = value
        return value

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, _MappedIntRows)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # mutable cache; never used as a dict key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<_MappedIntRows n={len(self._cache)}>"


@dataclass(frozen=True, eq=False)
class MappedPayload:
    """A stored index opened in place by :func:`map_payload`.

    :meth:`~repro.core.prepared.PreparedDataGraph.from_mapped` consumes
    it to build an index whose big-int masks decode lazily off the
    mapped pages.  A backend's ``open_payload`` may add ``rows``, its
    native rows over the same mapping, which the index then starts with.
    """

    #: Decoded JSON payload header, patched to a chain leaf's identity.
    header: dict
    #: Lazy big-int ``from_mask`` rows.
    from_ints: _MappedIntRows
    #: Lazy big-int ``to_mask`` rows.
    to_ints: _MappedIntRows
    #: The cycle mask, eagerly decoded (one row; every prepare reads it).
    cycle_mask: int
    #: The mask section, ``2n+1`` rows viewed in place.
    masks: memoryview = field(repr=False)
    #: The shared :class:`_Mapping` the views read (pins it).
    mapping: _Mapping = field(repr=False)
    #: Name of the backend whose ``rows`` are pre-seeded, if any.
    backend_name: str | None = None
    #: That backend's native rows over the mapping.
    rows: object = field(repr=False, default=None)

    @property
    def mask_section_bytes(self) -> int:
        """Bytes of the mask section the views cover (page-cache budgeting)."""
        return len(self.masks)


def map_payload(region: PayloadRegion) -> MappedPayload:
    """Open a validated store region in place, decoding no row up front.

    The file is mapped read-only through the process-wide interned
    mapping, the header line and the cycle row are parsed, and the mask
    section becomes lazy big-int rows.  A region carrying a
    :class:`ChainOverlay` seeds those rows with the replayed ones and
    patches the header to the chain leaf.  Any geometry defect — a stale
    payload, an overlay row outside the base's node count — raises
    :class:`ValueError`; callers treat it as a store miss.
    """
    mapping = _shared_mapping(region)
    start = region.payload_offset
    header, n, width, masks = _parse_payload(
        mapping.buffer, start, start + region.payload_length
    )
    split = n * width
    from_seed = to_seed = None
    cycle_mask = int.from_bytes(masks[2 * split :], "little")
    overlay = region.overlay
    if overlay is not None:
        for position in itertools.chain(overlay.from_rows, overlay.to_rows):
            if not (isinstance(position, int) and 0 <= position < n):
                raise ValueError("chain overlay row position out of range")
        from_seed, to_seed = overlay.from_rows, overlay.to_rows
        cycle_mask = overlay.cycle_mask
        header = {
            **header,
            "fingerprint": overlay.fingerprint,
            "num_edges": overlay.num_edges,
            "prepare_seconds": overlay.prepare_seconds,
        }
    return MappedPayload(
        header=header,
        from_ints=_MappedIntRows(masks[:split], width, from_seed),
        to_ints=_MappedIntRows(masks[split : 2 * split], width, to_seed),
        cycle_mask=cycle_mask,
        masks=masks,
        mapping=mapping,
    )


class PreparedIndexStore:
    """A directory of fingerprint-keyed :class:`PreparedDataGraph` files.

    The store is safe to share between processes: writers are atomic,
    readers validate everything they read, and there is no cross-file
    state.  It keeps no open handles, so instances are cheap and
    thread-safe (every operation is a self-contained filesystem call).
    """

    def __init__(self, store_dir: str | os.PathLike, create: bool = True) -> None:
        self.store_dir = Path(store_dir)
        if create:
            self.store_dir.mkdir(parents=True, exist_ok=True)
        elif not self.store_dir.is_dir():
            raise InputError(f"index store directory {str(self.store_dir)!r} does not exist")

    # ------------------------------------------------------------------
    # Paths and listing
    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        """The file an index for ``fingerprint`` lives at (existing or not)."""
        if not is_fingerprint(fingerprint):
            raise InputError(f"not a graph fingerprint: {fingerprint!r}")
        return self.store_dir / f"{fingerprint}{STORE_SUFFIX}"

    def delta_path_for(self, fingerprint: str) -> Path:
        """The delta-record file of ``fingerprint`` (existing or not)."""
        if not is_fingerprint(fingerprint):
            raise InputError(f"not a graph fingerprint: {fingerprint!r}")
        return self.store_dir / f"{fingerprint}{DELTA_SUFFIX}"

    def fingerprints(self) -> list[str]:
        """Fingerprints with a stored file — full base payload or delta
        record — sorted (validity not checked)."""
        found = {
            path.stem
            for suffix in (STORE_SUFFIX, DELTA_SUFFIX)
            for path in self.store_dir.glob(f"*{suffix}")
            if is_fingerprint(path.stem)
        }
        return sorted(found)

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __contains__(self, fingerprint: str) -> bool:
        return is_fingerprint(fingerprint) and (
            self.path_for(fingerprint).is_file()
            or self.delta_path_for(fingerprint).is_file()
        )

    def chain_depth(self, fingerprint: str) -> int | None:
        """Replay depth behind ``fingerprint``: 0 for a full base
        payload, ≥ 1 for a delta record, ``None`` when nothing readable
        is stored under it."""
        if not is_fingerprint(fingerprint):
            return None
        if self.path_for(fingerprint).is_file():
            return 0
        payload = self._read_payload(
            self.delta_path_for(fingerprint), verify="header", magic=DELTA_MAGIC
        )
        if payload is None:
            return None
        try:
            depth = PreparedDataGraph.payload_header(payload).get("depth")
        except (ValueError, KeyError, TypeError):
            return None
        return depth if isinstance(depth, int) and depth >= 1 else None

    def entries(self) -> list[StoreEntry]:
        """Metadata of every *readable* stored index (corrupt files skipped).

        A fingerprint stored as a delta record lists with its record's
        own file size and ``chain_depth`` ≥ 1 — the chain's base (and any
        intermediate record) has its own entry, so summing ``bytes``
        over the listing still totals the store directory.
        """
        listed = []
        for fingerprint in self.fingerprints():
            path = self.path_for(fingerprint)
            payload = self._read_payload(path)
            if payload is not None:
                try:
                    header, _, _, masks = _parse_payload(payload)
                    info = path.stat()
                    listed.append(
                        StoreEntry(
                            fingerprint=fingerprint,
                            path=path,
                            num_nodes=int(header["num_nodes"]),
                            num_edges=int(header["num_edges"]),
                            file_bytes=info.st_size,
                            payload_bytes=len(payload),
                            mask_section_bytes=len(masks),
                            prepare_seconds=float(header["prepare_seconds"]),
                            mtime=info.st_mtime,
                            version=STORE_VERSION,
                        )
                    )
                except (ValueError, KeyError, TypeError, OSError):
                    pass
                continue
            delta_path = self.delta_path_for(fingerprint)
            payload = self._read_payload(delta_path, magic=DELTA_MAGIC)
            if payload is None:
                continue
            try:
                header, from_rows, to_rows, _ = _decode_delta(payload)
                info = delta_path.stat()
                listed.append(
                    StoreEntry(
                        fingerprint=fingerprint,
                        path=delta_path,
                        num_nodes=int(header["num_nodes"]),
                        num_edges=int(header["num_edges"]),
                        file_bytes=info.st_size,
                        payload_bytes=len(payload),
                        mask_section_bytes=(len(from_rows) + len(to_rows) + 1)
                        * header["row_bytes"],
                        prepare_seconds=float(header["prepare_seconds"]),
                        mtime=info.st_mtime,
                        version=STORE_VERSION,
                        chain_depth=int(header["depth"]),
                    )
                )
            except (ValueError, KeyError, TypeError, OSError):
                continue
        return listed

    # ------------------------------------------------------------------
    # Save / load / remove
    # ------------------------------------------------------------------
    def save(self, prepared: PreparedDataGraph) -> Path:
        """Write ``prepared`` to the store atomically; returns the path.

        An existing file for the same fingerprint is replaced (it
        necessarily described identical content, so this is idempotent).
        """
        payload = prepared.to_payload()
        path = self.path_for(prepared.fingerprint)
        self._write_blob(path, _envelope(_MAGIC, payload) + payload)
        return path

    def save_delta(
        self, base: PreparedDataGraph, evolved: PreparedDataGraph
    ) -> tuple[Path, dict] | None:
        """Persist ``evolved`` as a delta record against stored ``base``.

        Writes ``<evolved.fingerprint>.phomdlt`` holding only the rows
        that differ from ``base`` (plus the cycle row) and a parent
        pointer, instead of the full payload a ``save()`` would rewrite.
        Returns ``(path, info)`` with the write accounting
        (``delta_bytes``, the estimated ``full_bytes`` a full save would
        have cost, ``bytes_saved``, chain ``depth``), or ``None`` when
        the pair is not chainable: ``base`` has nothing stored under its
        fingerprint, the chain would exceed :data:`CHAIN_DEPTH_MAX` (the
        caller compacts with a full ``save()`` instead), or ``evolved``'s
        node list differs from ``base``'s (a node was added, removed or
        moved — the caller saves such an evolution in full, so every
        chain maps over its base file).
        """
        if evolved.nodes2 != base.nodes2:
            return None
        parent_depth = self.chain_depth(base.fingerprint)
        if parent_depth is None or parent_depth >= CHAIN_DEPTH_MAX:
            return None
        n = len(evolved.nodes2)
        width = _aligned_row_bytes(n)
        from_positions = []
        to_positions = []
        for i in range(n):
            row = evolved.from_mask[i]
            if row is not base.from_mask[i] and row != base.from_mask[i]:
                from_positions.append(i)
        for i in range(n):
            row = evolved.to_mask[i]
            if row is not base.to_mask[i] and row != base.to_mask[i]:
                to_positions.append(i)
        header = {
            "fingerprint": evolved.fingerprint,
            "base": base.fingerprint,
            "depth": parent_depth + 1,
            "num_nodes": n,
            "num_edges": evolved.num_edges(),
            "layout": PAYLOAD_LAYOUT,
            "row_bytes": width,
            "from_positions": from_positions,
            "to_positions": to_positions,
            "prepare_seconds": evolved.prepare_seconds,
        }
        head = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
        parts = [head, b"\x00" * (-len(head) % 8)]
        parts.extend(
            evolved.from_mask[p].to_bytes(width, "little") for p in from_positions
        )
        parts.extend(
            evolved.to_mask[p].to_bytes(width, "little") for p in to_positions
        )
        parts.append(evolved.cycle_mask.to_bytes(width, "little"))
        payload = b"".join(parts)
        blob = _envelope(DELTA_MAGIC, payload) + payload
        path = self.delta_path_for(evolved.fingerprint)
        self._write_blob(path, blob)
        full_bytes = _estimate_full_bytes(evolved)
        return path, {
            "path": str(path),
            "depth": parent_depth + 1,
            "rows": len(from_positions) + len(to_positions),
            "delta_bytes": len(blob),
            "full_bytes": full_bytes,
            "bytes_saved": max(0, full_bytes - len(blob)),
        }

    def load(
        self, fingerprint: str, graph2: DiGraph, verify: str = "full"
    ) -> PreparedDataGraph | None:
        """The stored index for ``fingerprint``, mapped onto ``graph2``.

        :meth:`payload_region` plus :func:`map_payload` plus
        :meth:`~repro.core.prepared.PreparedDataGraph.from_mapped` — the
        same open the service's store tier runs, so the result's rows
        decode lazily off the mapped file.  A delta-chained fingerprint
        opens as its base file with the replayed rows laid over it.
        Returns ``None`` on any miss: no file, unreadable, wrong
        magic/version, checksum mismatch, malformed or stale payload,
        any defect anywhere in a chain.  ``graph2`` must be the graph
        that fingerprints to ``fingerprint`` (the caller computed the
        digest from it); the payload's own node order and counts are
        verified against it as well.

        ``verify="full"`` (the default) hashes every file it opens;
        ``verify="header"`` trusts a sidecar that records a full
        verification of these exact bytes (stat identity), and without
        one silently upgrades to a full verification that leaves the
        sidecar behind.  Corruption in either mode is a miss — the
        caller rebuilds, never crashes.
        """
        if verify not in ("full", "header"):
            raise InputError(f"verify must be 'full' or 'header', got {verify!r}")
        try:
            region = self.payload_region(fingerprint, verify=verify)
            if region is None:
                return None
            payload = map_payload(region)
            node_reprs = [repr(node) for node in graph2.nodes()]
            if node_reprs != payload.header["node_reprs"]:
                return None  # the payload describes another node order
            return PreparedDataGraph.from_mapped(
                graph2, payload, fingerprint=fingerprint
            )
        except (ValueError, KeyError, TypeError, OSError):
            return None

    def _chain_records(
        self, fingerprint: str, verify: str = "full"
    ) -> tuple[str, list[tuple[dict, dict, dict, int]]] | None:
        """Walk ``fingerprint``'s delta chain down to a stored base.

        Returns ``(base_fingerprint, records)`` with decoded records
        leaf-first, or ``None`` when the chain is broken anywhere — a
        missing/corrupt record, a cycle, or a walk past the depth cap
        (plus slack for records written before a crashed compaction).
        """
        records: list[tuple[dict, dict, dict, int]] = []
        seen: set[str] = set()
        current = fingerprint
        while True:
            if current in seen or len(records) > CHAIN_DEPTH_MAX + 4:
                return None
            seen.add(current)
            payload = self._read_payload(
                self.delta_path_for(current), verify=verify, magic=DELTA_MAGIC
            )
            if payload is None:
                return None
            try:
                record = _decode_delta(payload)
            except (ValueError, KeyError, TypeError):
                return None
            if record[0].get("fingerprint") != current:
                return None  # record answers a different graph
            records.append(record)
            parent = record[0]["base"]
            if self.path_for(parent).is_file():
                return parent, records
            current = parent

    def evolve(
        self,
        old_graph: DiGraph,
        new_graph: DiGraph,
        delta=None,
        cutoff: float | None = None,
        chain: bool = False,
    ) -> tuple[PreparedDataGraph | None, dict]:
        """Evolve the stored index of ``old_graph`` onto ``new_graph``.

        Offline incremental preparation (the CLI's ``index evolve``): the
        index stored under ``old_graph``'s fingerprint is loaded, carried
        to ``new_graph``'s content through ``delta`` — synthesized by
        structural diff (:meth:`~repro.core.incremental.DeltaLog.from_diff`)
        when not given — and persisted under the **new** fingerprint, so
        a fleet's store follows its mutating data graph without anyone
        re-running a cold prepare.  With ``chain=True`` the result is
        persisted as a compact delta record against the base
        (``info["action"] == "chained"``) instead of a full payload
        rewrite — unless the chain hit :data:`CHAIN_DEPTH_MAX`, in which
        case a fresh full base is written and the depth resets
        (``"compacted"``), or the edit changed the node list, which is
        saved in full (``"evolved"``).  Returns ``(prepared, info)``;
        ``prepared`` is ``None`` only when no usable base file exists
        (``info["action"] == "missing-base"`` — the caller decides
        whether to warm cold instead).
        """
        from repro.core.incremental import DeltaLog
        from repro.graph.fingerprint import graph_fingerprint

        old_fingerprint = graph_fingerprint(old_graph)
        new_fingerprint = graph_fingerprint(new_graph)
        info: dict = {
            "old_fingerprint": old_fingerprint,
            "fingerprint": new_fingerprint,
        }
        base = self.load(old_fingerprint, old_graph)
        if base is None:
            info["action"] = "missing-base"
            return None, info
        if delta is None:
            delta = DeltaLog.from_diff(old_graph, new_graph)
        evolved = base.apply_delta(
            delta, graph2=new_graph, cutoff=cutoff, fingerprint=new_fingerprint
        )
        stats = evolved.delta_stats or {}
        action = "rebuilt" if stats.get("full_rebuild") else "evolved"
        written = None
        if chain and not stats.get("full_rebuild"):
            chained = self.save_delta(base, evolved)
            if chained is not None:
                written, chain_info = chained
                action = "chained"
                info.update(
                    chain_depth=chain_info["depth"],
                    delta_bytes=chain_info["delta_bytes"],
                    bytes_saved=chain_info["bytes_saved"],
                )
            else:
                # Depth cap is the one chain-refusal this store caused
                # itself; a fresh full base resets the replay depth.
                if (self.chain_depth(old_fingerprint) or 0) >= CHAIN_DEPTH_MAX:
                    action = "compacted"
                info["chain_depth"] = 0
        if written is None:
            written = self.save(evolved)
        info.update(
            action=action,
            strategy=stats.get("strategy"),
            recomputed_nodes=stats.get("recomputed_nodes", 0),
            nodes=evolved.num_nodes(),
            edges=evolved.num_edges(),
            evolve_seconds=evolved.prepare_seconds,
            path=str(written),
        )
        return evolved, info

    def compact(self, fingerprint: str, graph2: DiGraph) -> dict:
        """Flatten ``fingerprint``'s delta chain into a fresh full base.

        Opens the chained index (base plus replayed rows), writes it
        back as a full payload (depth resets to 0), and deletes the
        fingerprint's own delta record — ancestor records stay, still
        serving *their* fingerprints, grouped with the old base for GC.
        Returns an info dict; ``action`` is ``"compacted"``,
        ``"already-base"`` (depth was 0), ``"missing"`` (nothing
        stored), or ``"unreadable"`` (a broken chain — the caller warms
        cold instead).
        """
        depth = self.chain_depth(fingerprint)
        info: dict = {"fingerprint": fingerprint, "depth_before": depth or 0}
        if depth is None:
            info["action"] = "missing"
            return info
        if depth == 0:
            info.update(action="already-base", path=str(self.path_for(fingerprint)))
            return info
        prepared = self.load(fingerprint, graph2)
        if prepared is None:
            info["action"] = "unreadable"
            return info
        path = self.save(prepared)
        delta_path = self.delta_path_for(fingerprint)
        self._sidecar_for(delta_path).unlink(missing_ok=True)
        delta_path.unlink(missing_ok=True)
        info.update(
            action="compacted",
            path=str(path),
            bytes=path.stat().st_size,
            nodes=prepared.num_nodes(),
            edges=prepared.num_edges(),
        )
        return info

    def remove(self, fingerprint: str) -> bool:
        """Delete the stored index for ``fingerprint``; True if one existed.

        Chain-aware: delta records that replay *through* ``fingerprint``
        are swept first (deepest first), so a base payload is never
        deleted out from under records that still reference it, and
        verification sidecars always go with their files.
        """
        for descendant in reversed(self._descendants(fingerprint)):
            self._remove_own(descendant)
        return self._remove_own(fingerprint)

    def _remove_own(self, fingerprint: str) -> bool:
        """Delete ``fingerprint``'s own files (base payload, delta
        record, their sidecars); True if either payload file existed."""
        removed = False
        for path in (self.path_for(fingerprint), self.delta_path_for(fingerprint)):
            self._sidecar_for(path).unlink(missing_ok=True)
            try:
                path.unlink()
                removed = True
            except FileNotFoundError:
                pass
        return removed

    def _descendants(self, fingerprint: str) -> list[str]:
        """Fingerprints of delta records whose chains pass through
        ``fingerprint``, in BFS order from it (shallowest first)."""
        children: dict[str, list[str]] = {}
        for child, parent in self._delta_links().items():
            if parent is not None:
                children.setdefault(parent, []).append(child)
        ordered: list[str] = []
        seen = {fingerprint}
        frontier = [fingerprint]
        while frontier:
            current = frontier.pop(0)
            for child in sorted(children.get(current, ())):
                if child not in seen:
                    seen.add(child)
                    ordered.append(child)
                    frontier.append(child)
        return ordered

    def clear(self) -> int:
        """Delete every stored index; returns how many were removed."""
        removed = 0
        for fingerprint in self.fingerprints():
            if self._remove_own(fingerprint):
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Garbage collection (long-lived serving fleets)
    # ------------------------------------------------------------------
    def _delta_links(self) -> dict[str, str | None]:
        """Delta fingerprint → parent fingerprint for every readable
        delta record (``None`` parent for an unreadable record)."""
        links: dict[str, str | None] = {}
        for path in self.store_dir.glob(f"*{DELTA_SUFFIX}"):
            if not is_fingerprint(path.stem):
                continue
            parent = None
            payload = self._read_payload(path, verify="header", magic=DELTA_MAGIC)
            if payload is not None:
                try:
                    base = PreparedDataGraph.payload_header(payload).get("base")
                except (ValueError, KeyError, TypeError):
                    base = None
                if isinstance(base, str) and is_fingerprint(base):
                    parent = base
            links[path.stem] = parent
        return links

    def _group_entries(self) -> list[tuple[float, int, str, list[str]]]:
        """``(mtime, size, root, members)`` per chain group, oldest first.

        A group is a base payload plus every delta record that replays
        (transitively) against it — the GC's unit of eviction, since
        deleting a base would orphan its records and deleting only
        records would strand savings nobody asked for.  A record whose
        ancestry never reaches a stored base roots its own (orphan)
        group.  Group mtime is the *newest* member's (a chain actively
        being extended is warm); size sums every member file.  Files
        that vanish mid-scan are skipped (concurrent GC).
        """
        links = self._delta_links()
        bases = {
            path.stem
            for path in self.store_dir.glob(f"*{STORE_SUFFIX}")
            if is_fingerprint(path.stem)
        }
        roots: dict[str, str] = {}

        def root_of(fingerprint: str) -> str:
            trail: list[str] = []
            current = fingerprint
            while True:
                cached = roots.get(current)
                if cached is not None:
                    root = cached
                    break
                if current in bases:
                    root = current
                    break
                parent = links.get(current)
                if parent is None or parent in trail:
                    root = current  # orphan record (or a cycle): own group
                    break
                if parent not in bases and parent not in links:
                    root = current  # ancestry dead-ends before any base
                    break
                trail.append(current)
                current = parent
            for member in trail:
                roots[member] = root
            roots[fingerprint] = root
            return root

        members: dict[str, list[str]] = {}
        for fingerprint in set(links) | bases:
            members.setdefault(root_of(fingerprint), []).append(fingerprint)
        groups = []
        for root, fingerprints in members.items():
            mtime = None
            size = 0
            for fingerprint in fingerprints:
                for path in (
                    self.path_for(fingerprint),
                    self.delta_path_for(fingerprint),
                ):
                    try:
                        info = path.stat()
                    except OSError:
                        continue
                    size += info.st_size
                    mtime = (
                        info.st_mtime if mtime is None else max(mtime, info.st_mtime)
                    )
            if mtime is None:
                continue
            groups.append((mtime, size, root, sorted(fingerprints)))
        groups.sort(key=lambda group: (group[0], group[2]))
        return groups

    def total_bytes(self) -> int:
        """Total size of every stored file (base payloads + delta records)."""
        return sum(size for _, size, _, _ in self._group_entries())

    def remove_older_than(self, seconds: float, now: float | None = None) -> int:
        """Delete indexes whose chain group aged past ``seconds``.

        Age is a group's newest file *modification* time: a ``save()``
        (even an idempotent re-save of identical content) or a freshly
        chained delta record refreshes it, so warm-and-serve loops keep
        their hot indexes — and the whole chain beneath them — alive.
        Whole groups go at once (records first, base last), never a base
        out from under its records.  Returns the removal count.
        """
        if seconds < 0:
            raise InputError(f"age must be nonnegative, got {seconds!r}")
        cutoff = (time.time() if now is None else now) - seconds
        removed = 0
        for mtime, _, root, fingerprints in self._group_entries():
            if mtime >= cutoff:
                continue
            for fingerprint in fingerprints:
                if fingerprint != root and self._remove_own(fingerprint):
                    removed += 1
            if self._remove_own(root):
                removed += 1
        return removed

    def gc_max_bytes(self, max_bytes: int) -> dict:
        """Evict oldest-group-first until total size fits ``max_bytes``.

        The eviction order mirrors the serving cache's LRU intuition at
        fleet granularity: the chain group least recently (re-)warmed
        goes first, as one unit — delta records before their base, so no
        base payload is ever deleted while records still replay against
        it.  Returns ``{"removed": n, "remaining": k,
        "remaining_bytes": b}`` — the CLI's ``index gc`` output.
        """
        if max_bytes < 0:
            raise InputError(f"byte budget must be nonnegative, got {max_bytes!r}")
        entries = self._group_entries()
        total = sum(size for _, size, _, _ in entries)
        count = sum(len(fingerprints) for _, _, _, fingerprints in entries)
        removed = 0
        gone = 0
        for _, size, root, fingerprints in entries:
            if total <= max_bytes:
                break
            for fingerprint in fingerprints:
                if fingerprint != root and self._remove_own(fingerprint):
                    removed += 1
            if self._remove_own(root):
                removed += 1
            # A no-op removal means a concurrent GC beat us to the files
            # (stores are shared across fleet hosts): their bytes are
            # gone either way, so the budget math must not keep charging
            # them — or this loop would over-evict still-warm groups.
            gone += len(fingerprints)
            total -= size
        return {
            "removed": removed,
            "remaining": count - gone,
            "remaining_bytes": total,
        }

    # ------------------------------------------------------------------
    # Mapped access (the mmap backend's open path)
    # ------------------------------------------------------------------
    def payload_region(
        self, fingerprint: str, verify: str = "header"
    ) -> PayloadRegion | None:
        """Validated coordinates for :func:`map_payload`; ``None`` on miss.

        Reads the 56-byte envelope and the file's stat — not the payload
        — unless the sidecar is missing or stale, in which case the one
        full checksum runs (and records a sidecar) so every *subsequent*
        open of this file, across processes and restarts, is O(1) in the
        payload size.  ``verify="full"`` forces the checksum.  Any defect
        — an older format version included — returns ``None``.

        A fingerprint stored as a delta chain returns the **base**
        file's region with a :class:`ChainOverlay` of replayed rows
        attached — the open maps the shared base pages and lays the
        evolved rows over them.
        """
        if verify not in ("full", "header"):
            raise InputError(f"verify must be 'full' or 'header', got {verify!r}")
        if not is_fingerprint(fingerprint):
            return None
        path = self.path_for(fingerprint)
        if not path.is_file() and self.delta_path_for(fingerprint).is_file():
            return self._chained_region(fingerprint, verify)
        try:
            with open(path, "rb") as handle:
                head = handle.read(_ENVELOPE_LEN)
                info = os.fstat(handle.fileno())
        except OSError:
            return None
        parsed = _parse_envelope(head)
        if parsed is None:
            return None
        length, checksum = parsed
        if info.st_size != _ENVELOPE_LEN + length:
            return None
        if verify == "full" or not self._sidecar_verified(path, info):
            try:
                blob = path.read_bytes()
            except OSError:
                return None
            if (
                len(blob) != info.st_size
                or hashlib.sha256(blob[_ENVELOPE_LEN:]).digest() != checksum
            ):
                return None
            self._write_sidecar(path, checksum)
        return PayloadRegion(
            path=path,
            fingerprint=fingerprint,
            version=STORE_VERSION,
            payload_offset=_ENVELOPE_LEN,
            payload_length=length,
            file_size=info.st_size,
            mtime_ns=info.st_mtime_ns,
            payload_sha256=checksum,
        )

    def _chained_region(
        self, fingerprint: str, verify: str
    ) -> PayloadRegion | None:
        """The base file's region plus a :class:`ChainOverlay` of this
        fingerprint's replayed rows; ``None`` on any chain defect."""
        chain = self._chain_records(fingerprint, verify=verify)
        if chain is None:
            return None
        base_fingerprint, records = chain
        try:
            leaf = records[0][0]
            num_nodes = leaf["num_nodes"]
            from_rows: dict[int, int] = {}
            to_rows: dict[int, int] = {}
            cycle_mask = 0
            for header, delta_from, delta_to, delta_cycle in reversed(records):
                if header["num_nodes"] != num_nodes:
                    return None  # records disagree on the geometry: broken
                from_rows.update(delta_from)
                to_rows.update(delta_to)
                cycle_mask = delta_cycle
            overlay = ChainOverlay(
                fingerprint=fingerprint,
                num_edges=int(leaf["num_edges"]),
                prepare_seconds=float(leaf["prepare_seconds"]),
                from_rows=from_rows,
                to_rows=to_rows,
                cycle_mask=cycle_mask,
            )
        except (ValueError, KeyError, TypeError):
            return None
        region = self.payload_region(base_fingerprint, verify=verify)
        if region is None:
            return None
        return replace(region, fingerprint=fingerprint, overlay=overlay)

    # ------------------------------------------------------------------
    @staticmethod
    def _sidecar_for(path: Path) -> Path:
        return path.with_name(path.name + SIDECAR_SUFFIX)

    def _sidecar_verified(self, path: Path, info: os.stat_result) -> bool:
        """True when a sidecar attests a full checksum of exactly these
        bytes (size + mtime_ns — the git-stat-cache identity)."""
        try:
            doc = json.loads(self._sidecar_for(path).read_text("utf-8"))
            return (
                doc.get("size") == info.st_size
                and doc.get("mtime_ns") == info.st_mtime_ns
            )
        except (OSError, ValueError):
            return False

    def _write_sidecar(self, path: Path, checksum: bytes) -> None:
        """Record a passed full verification, best-effort.

        A torn concurrent write yields unparseable JSON, which reads as
        "no sidecar" — the next open simply hashes again.  ``save()``
        deliberately does *not* write sidecars: the first verification
        belongs to whoever first reads the file back (warm's hydration
        check, or a serving open).
        """
        try:
            info = path.stat()
            self._sidecar_for(path).write_text(
                json.dumps(
                    {
                        "size": info.st_size,
                        "mtime_ns": info.st_mtime_ns,
                        "sha256": checksum.hex(),
                    }
                ),
                "utf-8",
            )
        except OSError:
            pass

    def _write_blob(self, path: Path, blob: bytes) -> None:
        """Atomic write: tmp file + ``os.replace``, cleaned up on error.

        The tmp name must be unique per writer: pid alone is not enough
        (two services in one process can save one fingerprint
        concurrently), so the thread id and a counter disambiguate.
        """
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}.{next(_tmp_counter)}"
        )
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _read_payload(
        self, path: Path, verify: str = "full", magic: bytes = _MAGIC
    ) -> bytes | None:
        """Read and validate one file; its payload, or ``None``.

        ``verify="header"`` trusts a stat-matching sidecar in place of
        the sha256 pass; with no (valid) sidecar it upgrades to the full
        hash and records one, so the fast path is only ever taken over
        bytes some earlier read fully verified.
        """
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        parsed = _parse_envelope(blob, magic=magic)
        if parsed is None:
            return None
        length, checksum = parsed
        payload = blob[_ENVELOPE_LEN:]
        if len(payload) != length:
            return None
        if verify == "header":
            try:
                info = path.stat()
            except OSError:
                return None
            if self._sidecar_verified(path, info):
                return payload
        if hashlib.sha256(payload).digest() != checksum:
            return None
        if verify == "header":
            self._write_sidecar(path, checksum)
        return payload

    def __repr__(self) -> str:
        return f"<PreparedIndexStore {str(self.store_dir)!r} entries={len(self)}>"
