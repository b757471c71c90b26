"""The ``numpy`` backend: uint64-block kernels over mapped store pages.

Every store hit opens the same way, for every backend:
:func:`~repro.core.store.map_payload` maps the file and serves lazy
big-int rows over the mask section.  For a store payload
(:data:`~repro.core.prepared.PAYLOAD_LAYOUT`) that mask section *already
is* the little-endian uint64 block matrix the kernels index, 8-byte
aligned from the first ``from_mask`` row to the cycle row, so
:meth:`MmapBlockBackend.open_payload` adds only ``np.frombuffer`` views
over the same mapped pages:

* **O(1) cold start** — no deserialization and no repacking;
  first-match-after-restart costs page-ins for the rows a pattern
  actually touches.
* **Bounded memory** — mapped pages are clean and evictable, so resident
  memory tracks the working set even when the corpus of prepared graphs
  exceeds RAM (the service LRU holds lightweight views, not payloads).
* **Shared per fingerprint** — the views read the store's process-wide
  interned mapping, so shard workers (and any number of services)
  sharing one store share one mapping — and one OS page cache — per
  file identity.

Indexes this backend did not open (a cold build, a store hit another
backend opened, hop-bounded overrides) pack private matrices through
the inherited ``build_rows``.  Solving behaviour is entirely inherited
from :class:`~repro.core.backends.numpy_block.BlockBackendBase` — the
kernels only ever index ``rows.from_rows[u]`` / ``rows.to_rows[u]`` one
row at a time, so they cannot tell a private matrix from a file view.
Answers are bit-identical to the ``python`` reference; only where the
bytes live changes.  ``"mmap"`` is a registry alias for this backend.

The mapped views are **read-only** (``mmap.ACCESS_READ``): writing
through them raises.  Chain overlays and incremental evolution
(:meth:`MmapBlockBackend.evolve_rows`) are therefore copy-on-write —
dirty rows materialize as private numpy rows in a :class:`_CowMatrix`
overlay while clean rows keep aliasing the map, and the on-disk file
stays byte-identical by construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.core.backends.numpy_block import BlockBackendBase, _NumpyRows
from repro.core.store import MappedPayload, map_payload

__all__ = ["MmapBlockBackend"]


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

    The extra slot pins the store's mapping so the ``mmap`` outlives
    every view derived from it.
    """

    __slots__ = ("mapping",)

    def __init__(
        self, from_rows, to_rows, from_ints, to_ints, num_bits, words, mapping
    ) -> None:
        super().__init__(from_rows, to_rows, from_ints, to_ints, num_bits, words)
        self.mapping = mapping


def _overlaid(base, replayed: dict, width: int) -> _CowMatrix:
    """``base`` with a chain overlay's replayed rows layered over it."""
    overrides = {}
    for position, mask in replayed.items():
        try:
            row = mask.to_bytes(width, "little")
        except (OverflowError, AttributeError) as exc:
            raise ValueError("chain overlay mask is malformed") from exc
        overrides[position] = np.frombuffer(row, dtype="<u8")
    return _CowMatrix(base, overrides)


class MmapBlockBackend(BlockBackendBase):
    """The ``numpy`` backend: uint64-block engine, store hits mapped.

    ``build_rows`` (inherited) packs private matrices — the path for
    indexes this backend did not open, and for hop-bounded mask
    overrides.  Store hits take :meth:`open_payload`, which the
    service's store tier drives via
    :meth:`~repro.core.store.PreparedIndexStore.payload_region`.
    """

    name = "numpy"

    def open_payload(self, region) -> MappedPayload:
        """:func:`~repro.core.store.map_payload` plus uint64 row views.

        The row matrices are ``np.frombuffer`` views over the same
        mapping the lazy big-int rows read, read-only by construction;
        nothing is copied or decoded beyond the header line and the
        cycle row.  A region carrying a
        :class:`~repro.core.store.ChainOverlay` gets the overlay's
        replayed rows layered copy-on-write over the views — the same
        :class:`_CowMatrix` shape :meth:`evolve_rows` produces.  Any
        geometry defect raises :class:`ValueError`; callers treat it as
        a store miss.
        """
        payload = map_payload(region)
        n = len(payload.from_ints)
        width = payload.header["row_bytes"]
        words = width // 8
        matrix = np.frombuffer(payload.masks, dtype="<u8").reshape(2 * n + 1, words)
        from_rows = matrix[:n]
        to_rows = matrix[n : 2 * n]
        overlay = region.overlay
        if overlay is not None:
            from_rows = _overlaid(from_rows, overlay.from_rows, width)
            to_rows = _overlaid(to_rows, overlay.to_rows, width)
        rows = _MappedRows(
            from_rows, to_rows, payload.from_ints, payload.to_ints, n, words,
            payload.mapping,
        )
        return replace(payload, backend_name=self.name, rows=rows)

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
