"""Async front-end: serve matching requests from asyncio applications.

The solver is synchronous, CPU-bound Python; an asyncio web tier must
not run it on the event loop.  :class:`AsyncMatchingService` is the
bridge: every request is pushed onto a thread pool with
``loop.run_in_executor`` and bounded by a semaphore, so a burst of
requests queues instead of spawning unbounded threads, and the event
loop stays responsive while solves run.

The wrapped service may be a plain
:class:`~repro.core.service.MatchingService` or a
:class:`~repro.core.sharding.ShardedMatchingService` (the async layer is
a thin adapter — results are exactly the wrapped service's, and its
``ServiceStats`` keep working because every mutation and snapshot is
lock-consistent since the sharding refactor).  Prepared indexes are
read-only and shared across worker threads; concurrent requests for one
cold graph are deduplicated by the prepared cache's in-flight future, so
an async stampede costs one build.

Semaphores are created per running event loop: an
``AsyncMatchingService`` can serve several consecutive ``asyncio.run``
invocations (each gets a fresh loop) without tripping over primitives
bound to a closed loop.

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
    """Semaphore-bounded asyncio adapter over a matching service.

    ``service`` defaults to a fresh :class:`MatchingService`; pass a
    configured (or sharded) one to share its caches with synchronous
    callers.  ``max_concurrency`` bounds the in-flight solves *and* the
    owned thread pool; ``executor`` substitutes an external pool (it is
    then the caller's to shut down).
    """

    def __init__(
        self,
        service: "MatchingService | ShardedMatchingService | None" = None,
        max_concurrency: int = 8,
        executor: ThreadPoolExecutor | None = None,
        latency_hook: "Callable[[str, float], None] | None" = None,
    ) -> None:
        if max_concurrency < 1:
            raise InputError(
                f"max_concurrency needs at least one slot, got {max_concurrency!r}"
            )
        self.service = service if service is not None else MatchingService()
        self.max_concurrency = max_concurrency
        #: ``(op, seconds)`` callable observed per request with the
        #: *client-perceived* wall-clock — semaphore queueing plus the
        #: executor solve (op ``"async"``).  Exceptions are swallowed.
        self.latency_hook = latency_hook
        self._executor = executor
        self._owns_executor = executor is None
        self._semaphores: dict[
            int, tuple[asyncio.AbstractEventLoop, asyncio.Semaphore]
        ] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: Requests currently inside (or committed to) the executor;
        #: ``close()`` drains this to zero before shutting the pool down.
        self._inflight = 0
        self._idle = threading.Condition(self._lock)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise InputError("AsyncMatchingService is closed")
            return self._ensure_pool()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The executor, created lazily; caller holds :attr:`_lock`."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_concurrency,
                thread_name_prefix="repro-aio",
            )
        return self._executor

    def _semaphore(self) -> asyncio.Semaphore:
        """The bound for the *running* loop (created on first use).

        asyncio primitives latch onto the loop that first awaits them;
        keying per loop lets one service outlive ``asyncio.run``
        boundaries (tests, CLI tools, notebook re-runs).
        """
        loop = asyncio.get_running_loop()
        key = id(loop)
        with self._lock:
            entry = self._semaphores.get(key)
            if entry is not None and entry[0] is loop:
                return entry[1]
            # Housekeeping: evict only semaphores whose loop is closed —
            # a *live* loop's semaphore may hold acquired permits, and
            # dropping it would silently double the concurrency bound.
            for other_key, (other_loop, _) in list(self._semaphores.items()):
                if other_loop.is_closed():
                    del self._semaphores[other_key]
            semaphore = asyncio.Semaphore(self.max_concurrency)
            self._semaphores[key] = (loop, semaphore)
            return semaphore

    async def _run(self, fn, /, *args, **kwargs):
        """Run one synchronous service call off-loop, under the bound.

        The in-flight admission is atomic with the closed check: a
        request either observes ``closed`` and is rejected with
        :class:`~repro.utils.errors.InputError`, or registers itself in
        ``_inflight`` *before* touching the executor — and ``close()``
        waits for the in-flight count to drain before shutting the pool
        down, so a submission can never race a pool shutdown into
        ``RuntimeError``.  The count is released from the executor
        thread (not the coroutine), so a ``close()`` issued from the
        event-loop thread itself still drains.
        """
        started = perf_counter()
        loop = asyncio.get_running_loop()
        call = partial(fn, *args, **kwargs)

        def tracked():
            try:
                return call()
            finally:
                with self._lock:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.notify_all()

        async with self._semaphore():
            with self._lock:
                if self._closed:
                    raise InputError("AsyncMatchingService is closed")
                executor = self._ensure_pool()
                self._inflight += 1
            # run_in_executor submits synchronously, so the tracked
            # wrapper (and its in-flight release) is committed to the
            # pool before this coroutine can be suspended/cancelled.
            result = await loop.run_in_executor(executor, tracked)
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
        """Reject new requests, drain in-flight ones, then shut down.

        Idempotent.  New requests fail fast with
        :class:`~repro.utils.errors.InputError` the moment ``close()``
        begins; requests already admitted keep their executor and run to
        completion before the owned pool is shut down — closing mid-burst
        can therefore never surface a ``RuntimeError`` from a pool that
        vanished between admission and submission.  An external
        ``executor`` passed at construction is left running (and not
        drained — its lifecycle is the caller's).

        Call from a thread that is not running the event loop (as
        ``__aexit__`` does): the drain blocks until in-flight executor
        work finishes.
        """
        with self._lock:
            self._closed = True
            if self._owns_executor:
                # Condition.wait releases the lock, so executor threads
                # can take it to decrement the in-flight count.
                while self._inflight:
                    self._idle.wait()
            executor, self._executor = self._executor, None
            owns = self._owns_executor
        if owns and executor is not None:
            executor.shutdown(wait=True)

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
