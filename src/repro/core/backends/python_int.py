"""The reference backend: candidate masks as Python arbitrary-precision ints.

This is the seed implementation's representation, extracted verbatim from
the engine's inner loops: a matching list is a ``dict`` from pattern-node
index to a ``[good, minus]`` pair of big-int bitmasks, and every
operation is the exact expression the pre-backend engine inlined.  It is
the semantic reference every other backend must match bit-for-bit, and
the default (``REPRO_BACKEND=python``).

Small lists are the reference's lists in every backend: the numpy
backend's :class:`~repro.core.backends.numpy_block.NumpyMatchingList`
subclasses :class:`PythonMatchingList` and adds only the single-row
closed form, so a fix here fixes both backends' small lists at once
(bit-identity by construction, not by parallel maintenance).  The
reference itself keeps the stepwise recursion, with no closed form.

Big ints are a surprisingly strong baseline — CPython's ``int.bit_count``
and bitwise ops run in C over 30-bit limbs — but every engine loop over
the matching list (the popcount scan of line 2, the capacity sweep, the
``H⁺``/``H⁻`` partition) steps through a Python-level dict.  The numpy
backend collapses those per-row loops into whole-matrix kernels once a
list is wide enough to pay for them.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.backends.base import MatchingList, SolverBackend

__all__ = ["PythonIntBackend", "PythonMatchingList"]

Entries = dict[int, list[int]]


class _PythonContext:
    """Engine context: plain references into the workspace's tables."""

    __slots__ = ("from_rows", "to_rows", "prev", "post")

    def __init__(
        self,
        from_rows: Sequence[int],
        to_rows: Sequence[int],
        prev: Sequence[Sequence[int]],
        post: Sequence[Sequence[int]],
    ) -> None:
        self.from_rows = from_rows
        self.to_rows = to_rows
        self.prev = prev
        self.post = post


class PythonMatchingList(MatchingList):
    """``H`` as ``{v: [good_int, minus_int]}`` — today's exact semantics."""

    __slots__ = ("entries", "ctx")

    def __init__(self, entries: Entries, ctx: _PythonContext) -> None:
        self.entries = entries
        self.ctx = ctx

    def is_empty(self) -> bool:
        return not self.entries

    def pick_node(self) -> int:
        """Maximal good list, deterministic tie-break on the smaller index."""
        v = -1
        best_count = 0
        for cand_v, masks in self.entries.items():
            count = masks[0].bit_count()
            if count > best_count or (count == best_count and cand_v < v):
                v, best_count = cand_v, count
        return v

    def pick_candidate(self, v: int, pref: Sequence[int] | None) -> int:
        good_v = self.entries[v][0]
        if pref is not None:
            for cand_u in pref:
                if good_v >> cand_u & 1:
                    return cand_u
        # Arbitrary pick, or a good bit with no similarity row — callers of
        # comp_max_card_engine may seed candidates beyond the workspace's
        # mat ≥ ξ pairs (restricted or partitioned groups), so the
        # preference scan can come up empty on a nonempty mask.
        return (good_v & -good_v).bit_length() - 1  # lowest set bit

    def settle(self, v: int, u: int) -> None:
        masks = self.entries[v]
        good_v = masks[0]
        masks[0] = 0
        masks[1] = good_v & ~(1 << u)

    def exhaust(self, u: int, v: int) -> None:
        u_bit = 1 << u
        for other_v, masks in self.entries.items():
            if other_v != v and masks[0] >> u & 1:
                masks[0] &= ~u_bit
                masks[1] |= u_bit

    def trim(self, v: int, u: int) -> None:
        ctx = self.ctx
        entries = self.entries
        # Parents of v keep what reaches u, then children what u reaches.
        for neighbors, mask in (
            (ctx.prev[v], ctx.to_rows[u]),
            (ctx.post[v], ctx.from_rows[u]),
        ):
            for neighbor in neighbors:
                masks = entries.get(neighbor)
                if masks is not None and neighbor != v:
                    bad = masks[0] & ~mask
                    if bad:
                        masks[0] &= mask
                        masks[1] |= bad

    def partition(self) -> tuple["PythonMatchingList", "PythonMatchingList"]:
        h_plus: Entries = {}
        h_minus: Entries = {}
        for node, (good, minus) in self.entries.items():
            if good:
                h_plus[node] = [good, 0]
            if minus:
                h_minus[node] = [minus, 0]
        # type(self): a subclass's children keep its methods (the numpy
        # backend's closed form) all the way down the subtree.
        cls = type(self)
        return cls(h_plus, self.ctx), cls(h_minus, self.ctx)


class PythonIntBackend(SolverBackend):
    """Today's semantics on Python big ints; the default backend."""

    name = "python"

    def build_rows(
        self, from_mask: Sequence[int], to_mask: Sequence[int], num_bits: int
    ) -> tuple[Sequence[int], Sequence[int]]:
        # Big ints *are* the native layout: share the rows by reference.
        return (from_mask, to_mask)

    def evolve_rows(
        self,
        rows: tuple[Sequence[int], Sequence[int]],
        from_mask: Sequence[int],
        to_mask: Sequence[int],
        num_bits: int,
        dirty: Sequence[int],
    ) -> tuple[Sequence[int], Sequence[int]]:
        # The evolved big-int lists are already the native layout.
        return (from_mask, to_mask)

    def build_context(self, workspace) -> _PythonContext:
        return _PythonContext(
            workspace.from_mask, workspace.to_mask, workspace.prev, workspace.post
        )

    def matching_list(
        self, top_good: dict[int, int], context: _PythonContext
    ) -> PythonMatchingList:
        return PythonMatchingList(
            {v: [mask, 0] for v, mask in top_good.items() if mask}, context
        )
