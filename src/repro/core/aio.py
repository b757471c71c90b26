"""Async front-end: serve matching requests from asyncio applications.

The solver is synchronous, CPU-bound Python; an asyncio web tier must
not run it on the event loop.  :class:`AsyncMatchingService` is the
bridge: every request is pushed onto the adapter's own thread pool with
``loop.run_in_executor``.  The pool has ``max_concurrency`` threads, so
a burst of requests queues in the pool instead of spawning unbounded
threads, and the event loop stays responsive while solves run.

The wrapped service may be a plain
:class:`~repro.core.service.MatchingService` or a
:class:`~repro.core.sharding.ShardedMatchingService` (the async layer is
a thin adapter — results are exactly the wrapped service's, and its
``ServiceStats`` keep working because every mutation and snapshot is
lock-consistent since the sharding refactor).  Prepared indexes are
read-only and shared across worker threads; concurrent requests for one
cold graph are deduplicated by the prepared cache's in-flight future, so
an async stampede costs one build.

The pool belongs to no event loop: an ``AsyncMatchingService`` can
serve several consecutive ``asyncio.run`` invocations (each gets a
fresh loop), or several loops at once, and all of them share the one
``max_concurrency`` bound.

Usage::

    service = AsyncMatchingService(max_concurrency=8)
    async with service:
        reports = await service.match_many(patterns, data, mat, xi=0.75)
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from time import perf_counter
from typing import Callable, Sequence

from repro.core.api import MatchReport
from repro.core.service import MatchingService, SimilaritySource, _observe
from repro.core.sharding import ShardedMatchingService
from repro.graph.digraph import DiGraph
from repro.utils.errors import InputError

__all__ = ["AsyncMatchingService"]


class AsyncMatchingService:
    """Asyncio adapter over a matching service and the pool it owns.

    ``service`` defaults to a fresh :class:`MatchingService`; pass a
    configured (or sharded) one to share its caches with synchronous
    callers.  ``max_concurrency`` is the size of the owned thread pool,
    so it bounds the in-flight solves; later requests wait in the
    pool's queue.
    """

    def __init__(
        self,
        service: "MatchingService | ShardedMatchingService | None" = None,
        max_concurrency: int = 8,
        latency_hook: "Callable[[str, float], None] | None" = None,
    ) -> None:
        if max_concurrency < 1:
            raise InputError(
                f"max_concurrency needs at least one slot, got {max_concurrency!r}"
            )
        self.service = service if service is not None else MatchingService()
        self.max_concurrency = max_concurrency
        #: ``(op, seconds)`` callable observed per request with the
        #: *client-perceived* wall-clock — the wait in the pool's queue
        #: plus the solve (op ``"async"``).  Exceptions are swallowed.
        self.latency_hook = latency_hook
        self._lock = threading.Lock()
        #: ``None`` once ``close()`` has begun.
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-aio"
        )

    async def _run(self, fn, /, *args, **kwargs):
        """Run one synchronous service call on the pool.

        The submission holds the lock ``close()`` takes to drop the
        pool, so a request either finds the adapter closed and is
        rejected with :class:`~repro.utils.errors.InputError`, or is
        already in the pool when ``close()`` starts — and the pool's
        ``shutdown(wait=True)`` runs it to completion.  A submission
        that raises leaves nothing behind for ``close()`` to wait on.
        """
        started = perf_counter()
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._pool is None:
                raise InputError("AsyncMatchingService is closed")
            future = loop.run_in_executor(self._pool, partial(fn, *args, **kwargs))
        result = await future
        _observe(self.latency_hook, "async", perf_counter() - started)
        return result

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    async def match(
        self,
        graph1: DiGraph,
        graph2: DiGraph,
        mat: SimilaritySource,
        xi: float,
        **options,
    ) -> MatchReport:
        """Await one match; parameters as in the wrapped service.

        ``**options`` flows through verbatim, so ``prefilter=`` (the
        candidate-pruning pipeline of :mod:`repro.core.prefilter`)
        works here exactly as on the synchronous surface.
        """
        return await self._run(self.service.match, graph1, graph2, mat, xi, **options)

    async def match_many(
        self,
        patterns: Sequence[DiGraph],
        graph2: DiGraph,
        mat: SimilaritySource,
        xi: float,
        **options,
    ) -> list[MatchReport]:
        """Match every pattern concurrently (bounded); pattern order kept.

        Unlike the synchronous ``match_many`` this fans out through the
        event loop — each pattern is its own task, so async callers can
        interleave other work while the pool grinds.  The underlying
        prepared index is still built exactly once (in-flight dedupe).
        """
        patterns = list(patterns)
        return list(
            await asyncio.gather(
                *(
                    self._run(self.service.match, graph1, graph2, mat, xi, **options)
                    for graph1 in patterns
                )
            )
        )

    async def match_sharded(
        self,
        graph1: DiGraph,
        graph2: DiGraph,
        mat: SimilaritySource,
        xi: float,
        **options,
    ) -> MatchReport:
        """Await one component-fanned sharded solve.

        Only available when the wrapped service is a
        :class:`~repro.core.sharding.ShardedMatchingService`.
        """
        runner = getattr(self.service, "match_sharded", None)
        if runner is None:
            raise InputError(
                "match_sharded needs a ShardedMatchingService underneath; "
                f"got {type(self.service).__name__}"
            )
        return await self._run(runner, graph1, graph2, mat, xi, **options)

    async def update_graph(self, graph2: DiGraph):
        """Bring the wrapped service's view of a mutated graph up to
        date, off-loop (see the wrapped service's ``update_graph``)."""
        return await self._run(self.service.update_graph, graph2)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Reject new requests, finish submitted ones, then return.

        Idempotent.  New requests fail fast with
        :class:`~repro.utils.errors.InputError` the moment ``close()``
        begins; every request already submitted — running or still
        queued in the pool — runs to completion before ``close()``
        returns.  Closing mid-burst therefore never surfaces a
        ``RuntimeError`` from a pool that vanished under a request.

        Call from a thread that is not running the event loop (as
        ``__aexit__`` does): the shutdown blocks until the pool's work
        finishes.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncMatchingService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        # Shut the pool down off-loop: shutdown(wait=True) blocks.
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    def __repr__(self) -> str:
        return (
            f"<AsyncMatchingService max_concurrency={self.max_concurrency} "
            f"over {type(self.service).__name__}>"
        )
