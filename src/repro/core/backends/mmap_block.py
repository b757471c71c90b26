"""The ``numpy`` backend: uint64-block kernels over mapped store pages.

Hydrating an index from the store costs a decoding backend twice — once
to read and checksum the file, once to repack every big-int mask into a
private ``(n, W)`` uint64 matrix.  For a store payload
(:data:`~repro.core.prepared.PAYLOAD_LAYOUT`) the second step is pure
ceremony: the mask section on disk *already is* the little-endian uint64
block matrix the kernels index, 8-byte aligned from the first
``from_mask`` row to the cycle row.  This backend therefore ``mmap``s
the store file and hands the kernels ``np.frombuffer`` views over the
mapped pages:

* **O(1) cold start** — :meth:`MmapBlockBackend.open_payload` does no
  deserialization; first-match-after-restart costs page-ins for the rows
  a pattern actually touches, not a full payload decode.
* **Bounded memory** — mapped pages are clean and evictable, so resident
  memory tracks the working set even when the corpus of prepared graphs
  exceeds RAM (the service LRU holds lightweight views, not payloads).
* **Shared per fingerprint** — mappings are interned in a
  module-level :class:`weakref.WeakValueDictionary` keyed by
  ``(path, size, mtime_ns, payload sha256)``, so shard workers (and any
  number of services) sharing one store share one mapping — and
  therefore one OS page cache — per fingerprint, while a same-length
  in-place rewrite (the checksum differs) gets a fresh mapping instead
  of the stale pages.

Indexes that never came from a store (a cold build, an evolved chain
that appended nodes, hop-bounded overrides) pack private matrices
through the inherited ``build_rows``.  Solving behaviour is entirely
inherited from :class:`~repro.core.backends.numpy_block.BlockBackendBase`
— the kernels only ever index ``rows.from_rows[u]`` / ``rows.to_rows[u]``
one row at a time, so they cannot tell a private matrix from a file
view.  Answers are bit-identical to the ``python`` reference; only where
the bytes live changes.  ``"mmap"`` is a registry alias for this backend.

The mapped views are **read-only** (``mmap.ACCESS_READ``): writing
through them raises.  Incremental evolution
(:meth:`MmapBlockBackend.evolve_rows`) is therefore copy-on-write —
dirty rows materialize as private numpy rows in a
:class:`_CowMatrix` overlay while clean rows keep aliasing the map, and
the on-disk file stays byte-identical by construction.

Big-int masks (the backend-neutral currency of every module boundary)
are served lazily by :class:`_MappedIntRows`: ``from_mask[i]`` decodes
row ``i`` on first touch and memoizes it, so code paths that never need
the ints never pay for them.

The module imports without numpy installed; constructing the backend
then raises a :class:`~repro.utils.errors.InputError` naming the fix.
"""

from __future__ import annotations

import mmap
import threading
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.backends.numpy_block import BlockBackendBase, _NumpyRows
from repro.core.prepared import _parse_payload

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

__all__ = ["MappedPayload", "MmapBlockBackend"]


class _Mapping:
    """One shared read-only map of a store file, identity-pinned.

    ``size``/``mtime_ns`` are the stat identity the caller validated
    (see :class:`~repro.core.store.PayloadRegion`); a file that changed
    between validation and open is rejected rather than silently mapped.
    The underlying :class:`mmap.mmap` closes when the last rows object
    holding this mapping is garbage-collected.
    """

    __slots__ = ("path", "size", "mtime_ns", "buffer", "__weakref__")

    def __init__(self, path, size: int, mtime_ns: int) -> None:
        with open(path, "rb") as handle:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        if buffer.size() != size:
            buffer.close()
            raise ValueError("store file changed size since validation")
        self.path = path
        self.size = size
        self.mtime_ns = mtime_ns
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


def _shared_mapping(region) -> _Mapping:
    """The process-wide mapping for ``region``'s exact file identity."""
    key = (
        str(region.path),
        region.file_size,
        region.mtime_ns,
        bytes(getattr(region, "payload_sha256", b"")),
    )
    with _mappings_lock:
        mapping = _mappings.get(key)
        if mapping is None:
            mapping = _Mapping(region.path, region.file_size, region.mtime_ns)
            _mappings[key] = mapping
        return mapping


class _MappedIntRows(Sequence):
    """Lazy big-int adapter over a ``(n, W)`` uint64 row matrix.

    Decodes ``int.from_bytes(matrix[i], "little")`` on first access and
    memoizes — the backend-neutral mask currency without an upfront
    decode of rows nobody asks for.  Equality is element-wise against
    any sequence (payload round-trip tests compare mask lists).
    """

    __slots__ = ("_matrix", "_cache")

    def __init__(self, matrix) -> None:
        self._matrix = matrix
        self._cache: list[int | None] = [None] * matrix.shape[0]

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._cache)))]
        value = self._cache[index]
        if value is None:
            value = int.from_bytes(self._matrix[index].tobytes(), "little")
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


class _CowMatrix:
    """Copy-on-write overlay: a read-only base matrix plus private rows.

    The kernels only index closure matrices one row at a time
    (``matrix[u]``), so a dict overlay is a complete implementation:
    dirty rows come from ``overrides``, everything else aliases the
    mapped base.  Writing through either side still raises — the
    override rows are themselves read-only ``frombuffer`` views.
    """

    __slots__ = ("base", "overrides")

    def __init__(self, base, overrides: dict) -> None:
        self.base = base
        self.overrides = overrides

    @property
    def shape(self):
        return self.base.shape

    def __getitem__(self, index):
        row = self.overrides.get(int(index))
        return self.base[index] if row is None else row


class _MappedRows(_NumpyRows):
    """:class:`_NumpyRows` whose matrices view a shared file mapping.

    The extra slot pins the :class:`_Mapping` so the ``mmap`` outlives
    every view derived from it.
    """

    __slots__ = ("mapping",)

    def __init__(
        self, from_rows, to_rows, from_ints, to_ints, num_bits, words, mapping
    ) -> None:
        super().__init__(from_rows, to_rows, from_ints, to_ints, num_bits, words)
        self.mapping = mapping


@dataclass(frozen=True)
class MappedPayload:
    """Everything :meth:`MmapBlockBackend.open_payload` hydrated in place.

    The zero-copy counterpart of ``to_payload`` bytes:
    :meth:`~repro.core.prepared.PreparedDataGraph.from_mapped` consumes
    it to build an index whose native rows are file views and whose
    big-int masks decode lazily.
    """

    #: Decoded JSON payload header (fingerprint, counts, geometry).
    header: dict
    #: Which backend's ``rows`` are pre-seeded (``"numpy"``).
    backend_name: str
    #: The :class:`_MappedRows` matrix views (pins the mapping).
    rows: _MappedRows
    #: Lazy big-int ``from_mask`` adapter.
    from_ints: _MappedIntRows
    #: Lazy big-int ``to_mask`` adapter.
    to_ints: _MappedIntRows
    #: The cycle mask, eagerly decoded (one row; every prepare reads it).
    cycle_mask: int
    #: Bytes of the mask section the views cover (page-cache budgeting).
    mask_section_bytes: int
    #: The validated :class:`~repro.core.store.PayloadRegion` opened.
    region: object = field(repr=False, default=None)


class MmapBlockBackend(BlockBackendBase):
    """The ``numpy`` backend: uint64-block engine, store hits mapped.

    ``build_rows`` (inherited) packs private matrices — the path for
    indexes that never came from a store, and for hop-bounded mask
    overrides.  Store hits take :meth:`open_payload`, which the
    service's mapped tier drives via
    :meth:`~repro.core.store.PreparedIndexStore.payload_region`.
    """

    name = "numpy"
    hydrates_mapped = True

    def open_payload(self, region) -> MappedPayload:
        """View a validated store region's mask section in place.

        No payload bytes are copied or decoded beyond the JSON header
        line: the uint64 row matrices are ``np.frombuffer`` views over
        the shared mapping, read-only by construction.  Any geometry
        defect :func:`~repro.core.prepared._parse_payload` finds raises
        :class:`ValueError`; callers treat it as a store miss.

        A region carrying a :class:`~repro.core.store.ChainOverlay` (a
        delta-chained fingerprint served off its base file) comes back
        with the overlay's replayed rows layered copy-on-write over the
        mapped base — the same :class:`_CowMatrix` shape
        :meth:`evolve_rows` produces — and the header patched to
        describe the chain leaf.
        """
        mapping = _shared_mapping(region)
        start = region.payload_offset
        header, n, width, masks = _parse_payload(
            mapping.buffer, start, start + region.payload_length
        )
        words = width // 8
        matrix = np.frombuffer(masks, dtype="<u8").reshape(2 * n + 1, words)
        from_rows = matrix[:n]
        to_rows = matrix[n : 2 * n]
        cycle_mask = int.from_bytes(matrix[2 * n].tobytes(), "little")
        overlay = getattr(region, "overlay", None)
        if overlay is not None:
            def patched(base, replayed):
                overrides = {}
                for position, mask in replayed.items():
                    if not (isinstance(position, int) and 0 <= position < n):
                        raise ValueError("chain overlay row position out of range")
                    try:
                        row = mask.to_bytes(width, "little")
                    except (OverflowError, AttributeError) as exc:
                        raise ValueError("chain overlay mask is malformed") from exc
                    overrides[position] = np.frombuffer(row, dtype="<u8")
                return _CowMatrix(base, overrides)

            from_rows = patched(from_rows, overlay.from_rows)
            to_rows = patched(to_rows, overlay.to_rows)
            cycle_mask = overlay.cycle_mask
            header = {
                **header,
                "fingerprint": overlay.fingerprint,
                "num_edges": overlay.num_edges,
                "prepare_seconds": overlay.prepare_seconds,
            }
        from_ints = _MappedIntRows(from_rows)
        to_ints = _MappedIntRows(to_rows)
        rows = _MappedRows(
            from_rows, to_rows, from_ints, to_ints, n, words, mapping
        )
        return MappedPayload(
            header=header,
            backend_name=self.name,
            rows=rows,
            from_ints=from_ints,
            to_ints=to_ints,
            cycle_mask=cycle_mask,
            mask_section_bytes=len(masks),
            region=region,
        )

    def evolve_rows(
        self,
        rows,
        from_mask: Sequence[int],
        to_mask: Sequence[int],
        num_bits: int,
        dirty: Sequence[int],
    ):
        """Copy-on-write refresh of mapped rows after a delta re-prepare.

        Dirty rows materialize as private (still read-only) numpy rows
        layered over the mapped base in a :class:`_CowMatrix`; clean
        rows keep aliasing the map, and the on-disk file is untouched by
        construction (``ACCESS_READ`` mappings cannot write back).
        Evolving an already-evolved product merges its overlay, so
        repeated deltas stay O(total dirty rows), not O(n).  Non-mapped
        rows (a ``build_rows`` fallback product) take the base class's
        copy-and-patch path.
        """
        if not isinstance(rows, _MappedRows):
            return super().evolve_rows(rows, from_mask, to_mask, num_bits, dirty)
        if rows.num_bits != num_bits or rows.from_rows.shape[0] != len(from_mask):
            return None  # geometry moved: rebuild lazily instead
        nbytes = rows.words * 8

        def overlay(matrix, masks):
            if isinstance(matrix, _CowMatrix):
                base, overrides = matrix.base, dict(matrix.overrides)
            else:
                base, overrides = matrix, {}
            for p in dirty:
                overrides[int(p)] = np.frombuffer(
                    masks[p].to_bytes(nbytes, "little"), dtype="<u8"
                )
            return _CowMatrix(base, overrides)

        return _MappedRows(
            overlay(rows.from_rows, from_mask),
            overlay(rows.to_rows, to_mask),
            from_mask,
            to_mask,
            num_bits,
            rows.words,
            rows.mapping,
        )
