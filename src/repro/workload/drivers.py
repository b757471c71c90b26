"""Client drivers: the per-process request loops of the load harness.

One driver process owns one front-end (flat :class:`MatchingService`,
:class:`ShardedMatchingService`, or :class:`AsyncMatchingService`) over
the shared warm store, a worker-local rebuild of the scenario, and a
:class:`Recorder` installed as the front-end's ``latency_hook`` — the
hook is the single source of latency truth, so the histograms measure
exactly what the service layer's stopwatches measured, not the driver's
own loop overhead.

The request loop is an **open-loop Poisson generator** (algotel2016's
simpy scenario idiom, flattened to real time): inter-arrival gaps are
``Expovariate(rate_at(t) / workers)``, pauses are slept through to the
next active phase, and an optional :class:`TokenBucket` clips the fleet
to ``--max-rate``.  A ``--mutate-mix`` fraction of arrivals mutate the
corpus and call ``update_graph`` instead of matching — which is what
drives ``delta_hits``/``shard_evolves`` during a run.

Results travel back to the parent as plain payload dicts on a queue:
histogram payloads (merged exactly by the runner), request/error
counts, the final stats snapshot, and the publisher's periodic samples.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time

from repro.core.aio import AsyncMatchingService
from repro.core.service import MatchingService
from repro.core.sharding import ShardedMatchingService
from repro.utils.errors import InputError
from repro.workload.histogram import LatencyHistogram
from repro.workload.pacing import TokenBucket
from repro.workload.scenario import Scenario

__all__ = [
    "Recorder",
    "StatsPublisher",
    "build_frontend",
    "stats_of",
    "run_driver",
    "worker_main",
]

FRONTENDS = ("flat", "sharded", "async")

#: The hook op that carries a front-end's client-perceived request
#: latency — the op whose histogram feeds the p99 gate.
PRIMARY_OPS = {"flat": "match", "sharded": "match_sharded", "async": "async"}


class Recorder:
    """Thread-safe ``latency_hook`` target: one histogram per op."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.histograms: dict[str, LatencyHistogram] = {}

    def __call__(self, op: str, seconds: float) -> None:
        with self._lock:
            histogram = self.histograms.get(op)
            if histogram is None:
                histogram = self.histograms[op] = LatencyHistogram()
            histogram.record(seconds)

    def payloads(self) -> dict[str, dict]:
        """Queue-transportable snapshot of every op histogram."""
        with self._lock:
            return {op: h.to_payload() for op, h in self.histograms.items()}


class StatsPublisher(threading.Thread):
    """Samples a stats-snapshot callable every ``interval`` seconds.

    The periodic publisher of the harness: each sample is a consistent
    cut of the service counters (snapshots are lock-held) stamped with
    the run offset, so a report can show counter *trajectories* —
    e.g. ``delta_hits`` climbing through a mutation-heavy phase — not
    just the final totals.
    """

    def __init__(self, snapshot, interval: float, clock=time.monotonic) -> None:
        super().__init__(name="workload-stats", daemon=True)
        if not interval > 0:
            raise InputError(f"stats interval must be positive, got {interval!r}")
        self._snapshot = snapshot
        self._interval = interval
        self._clock = clock
        self._start = clock()
        # Not named _stop: threading.Thread owns that attribute.
        self._halt = threading.Event()
        self.samples: list[dict] = []

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            self.samples.append(
                {"t": self._clock() - self._start, **self._snapshot()}
            )

    def stop(self) -> list[dict]:
        """Stop sampling, take one final sample, return all samples."""
        self._halt.set()
        if self.is_alive():
            self.join()
        self.samples.append({"t": self._clock() - self._start, **self._snapshot()})
        return self.samples


def build_frontend(config, recorder: Recorder):
    """A front-end of ``config.frontend`` kind with ``recorder`` hooked in.

    The async front-end hooks the recorder at *both* layers: the inner
    service observes solve-path ops (``match``/``update``) and the async
    adapter observes the client-perceived ``async`` latency (queueing +
    executor), so one run shows both distributions.
    """
    if config.frontend == "flat":
        return MatchingService(
            store_dir=config.store_dir,
            backend=config.backend,
            latency_hook=recorder,
        )
    if config.frontend == "sharded":
        return ShardedMatchingService(
            config.shards,
            store_dir=config.store_dir,
            backend=config.backend,
            chain=True,
            latency_hook=recorder,
        )
    if config.frontend == "async":
        inner = MatchingService(
            store_dir=config.store_dir,
            backend=config.backend,
            latency_hook=recorder,
        )
        return AsyncMatchingService(
            inner, max_concurrency=config.async_concurrency, latency_hook=recorder
        )
    raise InputError(
        f"unknown frontend {config.frontend!r}; expected one of {FRONTENDS}"
    )


def stats_of(frontend) -> dict:
    """A flat numeric snapshot of a front-end's service counters.

    Flat services expose ``stats.snapshot()``; sharded ones aggregate
    their workers (router counters like ``sharded_solves``/``hook_calls``
    are folded in additively beside the worker aggregate); the async
    adapter reports its wrapped service.  Non-numeric fields
    (``backend``, ``solved_by``) are dropped — the result merges across
    processes by plain addition.
    """
    if isinstance(frontend, AsyncMatchingService):
        frontend = frontend.service
    if isinstance(frontend, ShardedMatchingService):
        snap = frontend.stats_snapshot()
        out = {
            k: v
            for k, v in snap["aggregate"].items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        for key, value in snap.items():
            if key in ("aggregate", "per_shard", "spill", "shards"):
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[key] = out.get(key, 0) + value
        return out
    snap = frontend.stats.snapshot()
    return {
        k: v
        for k, v in snap.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def _issue(frontend, scenario: Scenario, config, rng: random.Random) -> str:
    """Issue one request synchronously; returns the request kind."""
    if config.mutate_mix > 0 and rng.random() < config.mutate_mix:
        scenario.mutate(rng)
        frontend.update_graph(scenario.corpus)
        return "mutate"
    pattern = scenario.sample_pattern(rng)
    if isinstance(frontend, ShardedMatchingService):
        frontend.match_sharded(
            pattern, scenario.corpus, scenario.similarity, scenario.xi,
            prefilter=config.prefilter,
        )
    else:
        frontend.match(
            pattern, scenario.corpus, scenario.similarity, scenario.xi,
            prefilter=config.prefilter,
        )
    return "match"


def run_driver(
    config,
    scenario: Scenario,
    frontend,
    worker_id: int,
    clock=time.monotonic,
    sleep=time.sleep,
) -> dict:
    """Run one driver's request loop to the end of the schedule.

    Returns ``{"requests", "errors", "mutations"}``.  Arrival pacing:
    each worker generates a thinned Poisson stream at
    ``rate_at(t) / workers``, so the superposed fleet stream is Poisson
    at the schedule's rate.  Long gaps are slept in ≤50 ms slices so a
    ramp's rising rate is re-sampled promptly.
    """
    schedule = config.schedule
    share = max(1, config.workers)
    bucket = (
        TokenBucket(config.max_rate / share, clock=clock, sleep=sleep)
        if config.max_rate
        else None
    )
    rng = random.Random((config.seed * 1_000_003 + worker_id) * 2 + 1)
    start = clock()
    requests = errors = mutations = 0
    while True:
        t = clock() - start
        if t >= schedule.total_seconds:
            break
        rate = schedule.rate_at(t) / share
        if rate <= 0:
            resume = schedule.next_active(t)
            if resume is None:
                break
            sleep(min(resume - t, 0.05))
            continue
        gap = rng.expovariate(rate)
        deadline = min(t + gap, schedule.total_seconds)
        while True:
            t = clock() - start
            if t >= deadline:
                break
            sleep(min(deadline - t, 0.05))
        if clock() - start >= schedule.total_seconds:
            break
        if bucket is not None:
            bucket.acquire()
        try:
            kind = _issue(frontend, scenario, config, rng)
            requests += 1
            if kind == "mutate":
                mutations += 1
        except Exception:
            errors += 1
    return {"requests": requests, "errors": errors, "mutations": mutations}


async def _issue_async(frontend: AsyncMatchingService, scenario, config, rng) -> str:
    if config.mutate_mix > 0 and rng.random() < config.mutate_mix:
        scenario.mutate(rng)
        await frontend.update_graph(scenario.corpus)
        return "mutate"
    pattern = scenario.sample_pattern(rng)
    await frontend.match(
        pattern, scenario.corpus, scenario.similarity, scenario.xi,
        prefilter=config.prefilter,
    )
    return "match"


async def _drive_async(config, scenario, frontend, worker_id: int) -> dict:
    """The asyncio variant: arrivals spawn tasks, completions overlap.

    Open-loop like the sync driver, but a slow request does not delay
    the next arrival — tasks run concurrently on the adapter's bounded
    thread pool, whose queue is where the ``"async"`` op's queueing
    latency comes from.
    """
    schedule = config.schedule
    share = max(1, config.workers)
    rng = random.Random((config.seed * 1_000_003 + worker_id) * 2 + 1)
    bucket = TokenBucket(config.max_rate / share) if config.max_rate else None
    loop = asyncio.get_running_loop()
    start = loop.time()
    counts = {"requests": 0, "errors": 0, "mutations": 0}
    tasks: set[asyncio.Task] = set()

    def _done(task: asyncio.Task) -> None:
        tasks.discard(task)
        if task.cancelled() or task.exception() is not None:
            counts["errors"] += 1
        else:
            counts["requests"] += 1
            if task.result() == "mutate":
                counts["mutations"] += 1

    while True:
        t = loop.time() - start
        if t >= schedule.total_seconds:
            break
        rate = schedule.rate_at(t) / share
        if rate <= 0:
            resume = schedule.next_active(t)
            if resume is None:
                break
            await asyncio.sleep(min(resume - t, 0.05))
            continue
        await asyncio.sleep(min(rng.expovariate(rate), schedule.total_seconds - t))
        if loop.time() - start >= schedule.total_seconds:
            break
        if bucket is not None and not bucket.try_acquire():
            continue  # over the cap: shed this arrival
        task = asyncio.ensure_future(_issue_async(frontend, scenario, config, rng))
        tasks.add(task)
        task.add_done_callback(_done)
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    return dict(counts)


def worker_main(config, worker_id: int, queue) -> None:
    """Process entry point: rebuild, drive, report, exit.

    The scenario is rebuilt from ``(spec, seed)`` so the corpus
    fingerprint matches the parent's warm store and every worker starts
    from disk hits, not cold prepares.  The payload put on ``queue`` is
    all plain dicts — safe across fork *and* spawn start methods.
    """
    scenario = Scenario(config.scenario_spec, seed=config.seed)
    recorder = Recorder()
    frontend = build_frontend(config, recorder)
    publisher = StatsPublisher(lambda: stats_of(frontend), config.stats_interval)
    publisher.start()
    try:
        if config.frontend == "async":
            counts = asyncio.run(_drive_async(config, scenario, frontend, worker_id))
            frontend.close()
        else:
            counts = run_driver(config, scenario, frontend, worker_id)
    finally:
        samples = publisher.stop()
    queue.put(
        {
            "worker": worker_id,
            **counts,
            "histograms": recorder.payloads(),
            "stats": stats_of(frontend),
            "samples": samples,
        }
    )
