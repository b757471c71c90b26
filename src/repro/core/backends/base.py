"""The solver-backend protocol: the mask representation behind the engine.

``greedyMatch``/``trimMatching`` (paper Figs. 3–4) are dominated by a
handful of bit-set operations over ``G2⁺`` reachability rows: AND / OR /
AND-NOT between candidate masks, popcounts (line 2's "largest good
list"), lowest/indexed set-bit queries (candidate picks), and the
materialization of closure rows.  Historically those ran on Python's
arbitrary-precision ints; this module makes the representation a
first-class, swappable *backend* so a vectorized engine (numpy ``uint64``
blocks today; mmap-backed or GPU rows tomorrow) can slot in under
:func:`repro.core.engine.comp_max_card_engine` without touching the
service layer — exactly the seam ROADMAP's "multi-backend solve" item
calls for.

Two abstractions:

:class:`MatchingList`
    one recursion frame's matching list ``H`` (pattern-node index →
    ``[good, minus]`` candidate masks) *in backend representation*,
    exposing exactly the operations the engine's inner loop performs:
    ``pick_node`` (max-popcount row, ties to the smallest index),
    ``pick_candidate`` (preference walk, lowest-set-bit fallback),
    ``settle`` (line 3), ``exhaust`` (the 1-1 / capacity step),
    ``trim`` (Fig. 4's trimMatching — parent rows AND ``to_mask[u]``,
    child rows AND ``from_mask[u]``), and ``partition`` (lines 5–9's
    ``H⁺``/``H⁻`` split).  Every implementation must be *bit-identical*
    to the reference :class:`~repro.core.backends.python_int.PythonIntBackend`:
    backends may change how fast an answer arrives, never the answer.

:class:`SolverBackend`
    the factory: it materializes closure rows into its native layout
    (``build_rows`` — cached per :class:`~repro.core.prepared.PreparedDataGraph`
    so the conversion is paid once per data graph, not once per pattern),
    builds a per-workspace engine context (``build_context`` — the
    pattern-side adjacency and preference tables in native form), and
    constructs matching lists from backend-neutral ``{v: int_mask}``
    dicts (``matching_list``).  Python big-ints remain the *currency* at
    every module boundary — workspaces, prepared payloads, and the store
    format never change — so a disk index written under one backend
    hydrates into any other.  Every backend opens a store hit mapped
    (``open_payload``, by default
    :func:`~repro.core.store.map_payload`).

Backend selection and the registry live in
:mod:`repro.core.backends` (``get_backend``, ``REPRO_BACKEND``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.core.store import MappedPayload, PayloadRegion, map_payload

__all__ = ["MatchingList", "SolverBackend"]


class MatchingList(ABC):
    """One frame's matching list ``H`` in backend-native representation.

    The engine drives instances through a fixed call sequence per frame:
    ``pick_node`` → ``pick_candidate`` → ``settle`` → (``exhaust``?) →
    ``trim`` → ``partition``.  Instances are mutable and single-frame:
    once partitioned, a list is dead (the engine drops its reference).
    """

    __slots__ = ()

    @abstractmethod
    def is_empty(self) -> bool:
        """True iff no pattern node has a remaining candidate."""

    def solve_trivial(self, by_similarity: bool):
        """Closed-form ``(sigma, iset)`` of this list's whole recursion
        subtree when the list is degenerate, else ``None``.

        Optional accelerator hook: a single-row list cannot trim or
        exhaust anything (both only touch *other* rows), so its subtree
        collapses to one pick sequence.  Backends that implement it must
        reproduce the reference recursion's output exactly — including
        the order of ``iset``.  The default opts out.
        """
        return None

    @abstractmethod
    def pick_node(self) -> int:
        """Line 2's node pick: the ``v`` whose ``good`` mask has maximal
        popcount, ties broken toward the smaller pattern index."""

    @abstractmethod
    def pick_candidate(self, v: int, pref: Sequence[int] | None) -> int:
        """The candidate ``u`` for ``v``: the first entry of ``pref``
        whose bit is set in ``good[v]`` when a preference order is given,
        else (or when no preferred bit survives) the lowest set bit."""

    @abstractmethod
    def settle(self, v: int, u: int) -> None:
        """Line 3: ``v`` keeps no further good candidates; the rejected
        ones (``good[v]`` minus ``u``) become its minus list."""

    @abstractmethod
    def exhaust(self, u: int, v: int) -> None:
        """The 1-1 / capacity step: ``u`` leaves every good list other
        than ``v``'s, landing in the corresponding minus lists."""

    @abstractmethod
    def trim(self, v: int, u: int) -> None:
        """trimMatching (Fig. 4): AND every parent of ``v`` with
        ``to_mask[u]`` and every child with ``from_mask[u]``; pruned
        candidates move to the minus lists."""

    @abstractmethod
    def partition(self) -> tuple["MatchingList", "MatchingList"]:
        """Lines 5–9: ``(H⁺, H⁻)`` — nodes with nonempty good masks and
        nodes with nonempty minus masks (fresh minus lists both)."""


class SolverBackend(ABC):
    """Factory for backend-native closure rows, contexts, and lists.

    Implementations are stateless (safe to share across threads and
    services); all per-graph state lives in the rows/context objects they
    build, cached by :class:`~repro.core.prepared.PreparedDataGraph` and
    :class:`~repro.core.workspace.MatchingWorkspace` respectively.
    """

    #: Registry key (``"python"``, ``"numpy"``) — also what stats report.
    name: str = ""

    def open_payload(self, region: PayloadRegion) -> MappedPayload:
        """Open a validated store region in place — every store hit does.

        The default is :func:`~repro.core.store.map_payload`: the file's
        mask rows as lazy big ints, which every backend reads.  A backend
        overrides this only to add native row views over the same
        mapping (``MappedPayload.rows``).  Raises :class:`ValueError` on
        any geometry defect; callers treat it as a store miss.
        """
        return map_payload(region)

    @abstractmethod
    def build_rows(
        self, from_mask: Sequence[int], to_mask: Sequence[int], num_bits: int
    ) -> object:
        """Materialize closure rows (big-int bitmasks, bit ``i`` = data
        node ``i`` of ``num_bits``) into the backend's native layout."""

    def evolve_rows(
        self,
        rows: object,
        from_mask: Sequence[int],
        to_mask: Sequence[int],
        num_bits: int,
        dirty: Sequence[int],
    ) -> object | None:
        """Refresh a cached :meth:`build_rows` product after an
        incremental re-prepare rewrote only the ``dirty`` row positions.

        ``rows`` is the base index's cached product, ``from_mask`` /
        ``to_mask`` the *evolved* masks (same ``num_bits`` — callers only
        offer same-width evolutions, i.e. no node was added or removed).
        Return the refreshed product, or ``None`` to opt out — the
        evolved index then rebuilds lazily via :meth:`build_rows` on
        first use.  Implementations must never mutate ``rows`` in place:
        the base index (and any workspace over it) still serves from it.
        """
        return None

    @abstractmethod
    def build_context(self, workspace) -> object:
        """The engine context of one workspace: native closure rows plus
        pattern-side adjacency/preference tables.  Reads the workspace's
        *current* ``from_mask``/``to_mask`` (so hop-bounded overrides are
        honoured) and reuses the prepared index's cached rows whenever
        the workspace still shares them by reference."""

    @abstractmethod
    def matching_list(self, top_good: dict[int, int], context) -> MatchingList:
        """A matching list from a backend-neutral ``{v: int_mask}`` dict
        (zero masks are dropped)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name!r}>"
