"""The vectorized kernels: candidate masks as ``uint64`` block matrices.

Profiling the reference backend shows the greedy recursion's frames are
bimodal: a short *spine* of wide matching lists (the ``H⁺`` chain of the
top-level list — tens to hundreds of rows) and a long tail of tiny
``H⁻`` lists, 80 %+ of them single-row chains that burn one full frame
per candidate bit.  This backend attacks both ends with two list
classes, chosen by row count:

:class:`BlockMatchingList` (more than ``SMALL_CUTOFF`` rows) — ``keys``
(present pattern indices, ascending) plus ``good`` / ``minus`` as
``(k, W)`` ``uint64`` matrices, word ``w`` of a row holding data-node
bits ``64·w … 64·w+63`` (little-endian, matching ``int.to_bytes``).
Every loop the reference runs row-by-row through a Python dict becomes
one whole-matrix kernel: line 2's "largest good list" is a
``bitwise_count`` + ``argmax`` (ties resolve to the smallest pattern
index for free because ``keys`` is sorted); trimMatching is a
fancy-indexed row-AND for all surviving parents (children) at once; the
1-1 capacity sweep is a single column test; the ``H⁺``/``H⁻`` partition
is two ``any`` reductions and boolean-mask row copies.

:class:`NumpyMatchingList` (at most ``SMALL_CUTOFF`` rows) — numpy
kernels cost ~µs each regardless of size, so small lists are the
reference's lists: a
:class:`~repro.core.backends.python_int.PythonMatchingList` subclass
(``{v: [good, minus]}`` big-int dicts, converted once when a dense
partition demotes a child), where CPython's C-level big-int ops win.
It inherits every operation, so the two backends cannot drift apart in
this regime, and adds one:

**Trivial chains** — a single-row list ``{v: mask}`` cannot trim or
exhaust anything (both operations only touch *other* rows), so its
entire recursion subtree has a closed form: ``σ = [(v, u₁)]`` and
``I = [(v, u_c), …, (v, u₁)]`` where ``u₁ … u_c`` is the pick sequence
(preference-ordered surviving candidates, then remaining bits
ascending — exactly what re-running line 2 per frame yields).
``solve_trivial`` returns that in O(c) instead of c frames; capacities
are irrelevant on the way (nothing else is left to exhaust).

Popcounts use ``numpy.bitwise_count`` (NumPy ≥ 2.0) with a SWAR
(SIMD-within-a-register) fallback for older NumPy.  Results are
bit-identical to :class:`~repro.core.backends.python_int.PythonIntBackend`
— the backend equivalence suite and ``benchmarks/bench_backends.py``
assert it, including the pick order inside collapsed chains — only the
time budget moves.  The ``numpy`` backend itself
(:class:`~repro.core.backends.mmap_block.MmapBlockBackend`) adds where
the row matrices live: views over mapped store pages, or private packs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.backends.base import MatchingList, SolverBackend
from repro.core.backends.bitops import iter_set_bits
from repro.core.backends.python_int import PythonMatchingList, _PythonContext

__all__ = [
    "BlockBackendBase",
    "BlockMatchingList",
    "NumpyMatchingList",
    "SMALL_CUTOFF",
]

#: Lists at or below this many rows are reference lists
#: (:class:`NumpyMatchingList`); above it, uint64 block matrices.  Around
#: this size the fixed cost of a numpy kernel launch crosses the per-row
#: cost of a C big-int op.
SMALL_CUTOFF = 48

_U1 = np.uint64(1)
_U6 = np.uint64(6)
_U63 = np.uint64(63)
#: Per-bit set / clear words, precomputed once.
_BIT = np.array([1 << b for b in range(64)], dtype=np.uint64)
_INV = np.array(
    [((1 << 64) - 1) ^ (1 << b) for b in range(64)], dtype=np.uint64
)

if hasattr(np, "bitwise_count"):

    def _popcount_rows(matrix):
        """Per-row popcounts of a ``(k, W)`` uint64 matrix."""
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)

else:  # pragma: no cover - NumPy < 2.0 fallback

    _M1 = np.uint64(0x5555555555555555)
    _M2 = np.uint64(0x3333333333333333)
    _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _H01 = np.uint64(0x0101010101010101)

    def _popcount_rows(matrix):
        """SWAR popcount (Hacker's Delight 5-2), vectorized per word."""
        x = matrix - ((matrix >> _U1) & _M1)
        x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
        x = (x + (x >> np.uint64(4))) & _M4
        return ((x * _H01) >> np.uint64(56)).sum(axis=1, dtype=np.int64)


class _NumpyRows:
    """Closure rows, both native ``(n, W)`` uint64 matrices *and* the
    original big-int lists (shared by reference — small lists trim with
    ints, dense lists with matrix rows)."""

    __slots__ = ("from_rows", "to_rows", "from_ints", "to_ints", "num_bits", "words")

    def __init__(self, from_rows, to_rows, from_ints, to_ints, num_bits, words):
        self.from_rows = from_rows
        self.to_rows = to_rows
        self.from_ints = from_ints
        self.to_ints = to_ints
        self.num_bits = num_bits
        self.words = words


class _SmallContext(_PythonContext):
    """The reference list's context over the big-int closure rows, plus
    lazy per-node preference ranks for the single-row closed form."""

    __slots__ = ("pref", "_pref_rank")

    def __init__(self, rows: _NumpyRows, prev, post, pref) -> None:
        super().__init__(rows.from_ints, rows.to_ints, prev, post)
        self.pref = pref
        self._pref_rank: list[dict[int, int] | None] = [None] * len(pref)

    def pref_rank(self, v: int) -> dict[int, int]:
        """Candidate → position in ``v``'s preference order."""
        rank = self._pref_rank[v]
        if rank is None:
            rank = {u: i for i, u in enumerate(self.pref[v])}
            self._pref_rank[v] = rank
        return rank


class _NumpyContext:
    """Engine context: native closure rows + pattern-side index tables."""

    __slots__ = ("rows", "num_pattern", "prev_idx", "post_idx", "pref_idx", "small")

    def __init__(self, rows: _NumpyRows, num_pattern: int, prev, post, pref) -> None:
        self.rows = rows
        self.num_pattern = num_pattern
        # Dense trim tables: unique neighbor indices with the owner
        # itself removed (the ``neighbor != v`` guard, hoisted out of the
        # hot loop).
        self.prev_idx = [
            np.unique(np.array([p for p in row if p != v], dtype=np.int64))
            for v, row in enumerate(prev)
        ]
        self.post_idx = [
            np.unique(np.array([s for s in row if s != v], dtype=np.int64))
            for v, row in enumerate(post)
        ]
        #: Preference orders as uint64 index arrays (dense similarity pick).
        self.pref_idx = [np.array(row, dtype=np.uint64) for row in pref]
        #: What every list of at most ``SMALL_CUTOFF`` rows runs on.
        self.small = _SmallContext(rows, prev, post, pref)


def _masks_to_matrix(masks: Sequence[int], words: int):
    """Pack big-int rows into a ``(len(masks), words)`` uint64 matrix."""
    if not masks:
        return np.zeros((0, words), dtype=np.uint64)
    nbytes = words * 8
    buffer = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    return np.frombuffer(buffer, dtype="<u8").reshape(len(masks), words).copy()


def _row_to_int(row) -> int:
    return int.from_bytes(row.tobytes(), "little")


class NumpyMatchingList(PythonMatchingList):
    """A small list: the reference list plus the single-row closed form.

    Every operation but :meth:`solve_trivial` is the reference's own.
    Its partitions build this class again, and lists never grow, so a
    list stays small, with the closed form, for its whole subtree.
    """

    __slots__ = ()
    ctx: _SmallContext

    def solve_trivial(self, by_similarity: bool):
        entries = self.entries
        if len(entries) != 1:
            return None
        ((v, masks),) = entries.items()
        bits = list(iter_set_bits(masks[0]))
        if by_similarity:
            # Stepwise pick order: preferred candidates in preference
            # order, then the un-ranked rest ascending — re-picking per
            # frame never reorders survivors, so one sort reproduces it.
            rank = self.ctx.pref_rank(v)
            missing = len(rank)
            bits.sort(key=lambda u: (rank.get(u, missing), u))
        sigma = [(v, bits[0])]
        iset = [(v, u) for u in reversed(bits)]
        return sigma, iset


class BlockMatchingList(MatchingList):
    """A dense list: more than ``SMALL_CUTOFF`` rows as block matrices.

    ``keys`` holds the present pattern indices, ascending; ``good`` and
    ``minus`` are ``(k, W)`` uint64 matrices whose row ``i`` belongs to
    ``keys[i]``.  Partitioning demotes a child of at most
    ``SMALL_CUTOFF`` rows to a :class:`NumpyMatchingList`.
    """

    __slots__ = ("ctx", "keys", "good", "minus", "_pos")

    def __init__(self, ctx: _NumpyContext, keys, good) -> None:
        self.ctx = ctx
        self.keys = keys
        self.good = good
        self.minus = np.zeros_like(good)
        # Position table: _pos[v] = row of v, -1 when absent.  The
        # pattern side is small, so one vectorized rebuild per frame
        # beats a searchsorted on every settle/trim.
        pos = np.full(ctx.num_pattern, -1, dtype=np.int64)
        pos[keys] = np.arange(keys.size, dtype=np.int64)
        self._pos = pos

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return self.keys.size == 0

    def pick_node(self) -> int:
        counts = _popcount_rows(self.good)
        return int(self.keys[int(np.argmax(counts))])  # first max == smallest key

    def pick_candidate(self, v: int, pref: Sequence[int] | None) -> int:
        row = self.good[self._pos[v]]
        if pref is not None and len(pref):
            order = self.ctx.pref_idx[v]
            words = row[(order >> _U6).astype(np.intp)]
            hits = ((words >> (order & _U63)) & _U1).nonzero()[0]
            if hits.size:
                return int(order[hits[0]])
        nonzero_words = row.nonzero()[0]
        w = int(nonzero_words[0])
        word = int(row[w])
        return (w << 6) + ((word & -word).bit_length() - 1)

    def settle(self, v: int, u: int) -> None:
        i = self._pos[v]
        w, b = u >> 6, u & 63
        self.minus[i, :] = self.good[i, :]
        self.minus[i, w] &= _INV[b]
        self.good[i, :] = 0

    def exhaust(self, u: int, v: int) -> None:
        # settle() already zeroed v's good row, so the column test never
        # selects it; no explicit skip needed.
        w, b = u >> 6, u & 63
        bit = _BIT[b]
        column = (self.good[:, w] & bit) != 0
        if column.any():
            self.minus[column, w] |= bit
            self.good[column, w] &= _INV[b]

    def trim(self, v: int, u: int) -> None:
        ctx = self.ctx
        pos = self._pos
        for neighbors, mask_row in (
            (ctx.prev_idx[v], ctx.rows.to_rows[u]),
            (ctx.post_idx[v], ctx.rows.from_rows[u]),
        ):
            if neighbors.size == 0:
                continue
            present = pos[neighbors]
            present = present[present >= 0]
            if present.size == 0:
                continue
            selected = self.good[present]
            bad = selected & ~mask_row
            self.good[present] = selected & mask_row
            self.minus[present] |= bad

    def partition(self) -> tuple[MatchingList, MatchingList]:
        ctx = self.ctx
        children: list[MatchingList] = []
        for matrix in (self.good, self.minus):
            alive = matrix.any(axis=1)
            keys = self.keys[alive]
            rows = matrix[alive]
            if keys.size <= SMALL_CUTOFF:
                # Demote: below the cutoff the reference list wins.
                entries = {
                    int(v): [_row_to_int(row), 0] for v, row in zip(keys, rows)
                }
                children.append(NumpyMatchingList(entries, ctx.small))
            else:
                children.append(BlockMatchingList(ctx, keys, rows))
        return children[0], children[1]


class BlockBackendBase(SolverBackend):
    """The uint64-block kernel set behind the ``numpy`` backend.

    Everything the engine touches — dense and small matching lists,
    dense trims, popcount picks, the collapsed trivial chains — lives
    here and operates through single-row indexing of
    ``context.rows.from_rows`` / ``to_rows`` (``from_ints`` /
    ``to_ints`` for small lists), so the subclass
    (:class:`~repro.core.backends.mmap_block.MmapBlockBackend`) chooses
    only *where the row matrices live*: private copies packed from the
    big-int masks (:meth:`build_rows`), or views over store-file pages.
    Either way the kernels — and therefore the answers — are
    byte-for-byte the same code.
    """

    @staticmethod
    def _words_for(num_bits: int) -> int:
        return max(1, (num_bits + 63) // 64)

    def build_rows(
        self, from_mask: Sequence[int], to_mask: Sequence[int], num_bits: int
    ) -> _NumpyRows:
        words = self._words_for(num_bits)
        return _NumpyRows(
            _masks_to_matrix(from_mask, words),
            _masks_to_matrix(to_mask, words),
            from_mask,
            to_mask,
            num_bits,
            words,
        )

    def evolve_rows(
        self,
        rows: _NumpyRows,
        from_mask: Sequence[int],
        to_mask: Sequence[int],
        num_bits: int,
        dirty: Sequence[int],
    ) -> _NumpyRows | None:
        """Rewrite only the dirty matrix rows of a cached conversion.

        An incremental re-prepare leaves most closure rows untouched, so
        the uint64 block matrices are copied once and the dirty rows
        repacked in place of a full ``build_rows`` — O(dirty · words)
        instead of O(n · words).  The base matrices are never mutated
        (the old index may still be serving from them).
        """
        if rows.num_bits != num_bits or len(from_mask) != rows.from_rows.shape[0]:
            return None  # geometry moved: rebuild lazily instead
        nbytes = rows.words * 8
        from_rows = rows.from_rows.copy()
        to_rows = rows.to_rows.copy()
        for p in dirty:
            from_rows[p] = np.frombuffer(
                from_mask[p].to_bytes(nbytes, "little"), dtype="<u8"
            )
            to_rows[p] = np.frombuffer(
                to_mask[p].to_bytes(nbytes, "little"), dtype="<u8"
            )
        return _NumpyRows(from_rows, to_rows, from_mask, to_mask, num_bits, rows.words)

    def build_context(self, workspace) -> _NumpyContext:
        prepared = workspace.prepared
        if (
            prepared is not None
            and workspace.from_mask is prepared.from_mask
            and workspace.to_mask is prepared.to_mask
        ):
            # Shared closure rows: the conversion is cached on the
            # prepared index, paid once per data graph, not per pattern.
            rows = prepared.backend_rows(self)
        else:
            # Overridden rows (hop-bounded matching, tests): private.
            rows = self.build_rows(
                workspace.from_mask, workspace.to_mask, len(workspace.nodes2)
            )
        return _NumpyContext(
            rows, len(workspace.nodes1), workspace.prev, workspace.post, workspace.pref
        )

    def matching_list(
        self, top_good: dict[int, int], context: _NumpyContext
    ) -> MatchingList:
        live = sorted((v, mask) for v, mask in top_good.items() if mask)
        if len(live) <= SMALL_CUTOFF:
            return NumpyMatchingList(
                {v: [mask, 0] for v, mask in live}, context.small
            )
        keys = np.fromiter((v for v, _ in live), dtype=np.int64, count=len(live))
        good = _masks_to_matrix([mask for _, mask in live], context.rows.words)
        return BlockMatchingList(context, keys, good)
