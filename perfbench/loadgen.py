"""Request loops and latency statistics for the benchmark.

Two loop shapes:

* **closed loop** (:func:`closed_loop`, :func:`closed_loop_async` with
  several clients): a client sends its next request only after the
  previous one returned — a slow system receives less load.  Latency
  runs from send to return.
* **open loop** (:func:`open_loop`): requests
  are *due* on a fixed schedule whatever the system does.  Latency runs
  from the due time, not the actual send, so a stall is charged to every
  request queued behind it; how late the generator itself ran is kept
  as the send lag.

Every loop takes its clock (and the synchronous one its sleep) as
arguments so the tests can drive them with a fake clock.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Sample:
    """One request's timing and outcome."""

    index: int
    kind: str
    due: float
    sent: float
    done: float
    ok: bool = True
    answer: Any = None
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from due time (closed loop: send time) to completion."""
        return self.done - self.due

    @property
    def send_lag(self) -> float:
        """Seconds the generator sent this request after it was due."""
        return self.sent - self.due


@dataclass
class Phase:
    """Every sample of one measured phase plus its wall-clock span."""

    samples: list[Sample] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start


def arrival_offsets(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """A Poisson arrival schedule conditioned on its count.

    ``round(rate * seconds)`` arrivals placed uniformly at random in
    ``[0, seconds)`` and sorted — the arrival times of a Poisson process
    given how many arrived.  Fixing the count keeps the offered load, and
    so throughput, from varying with the seed.
    """
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def balanced_order(kinds: int, count: int, rng: random.Random) -> list[int]:
    """``count`` draws from ``range(kinds)``, each kind as often as any
    other give or take one: shuffled whole rounds of every kind."""
    out: list[int] = []
    while len(out) < count:
        round_ = list(range(kinds))
        rng.shuffle(round_)
        out.extend(round_)
    return out[:count]


def interner(key: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Keep one copy of each distinct answer, as told apart by ``key``.

    A closed loop repeats its requests and gets equal answers back;
    keeping every copy would make the harness's memory, and so the
    process's peak RSS, grow with the number of requests served.  Runs
    after the request's completion time is taken.
    """
    seen: dict = {}
    return lambda answer: seen.setdefault(key(answer), answer)


def closed_loop(
    issue: Callable[[int], Any],
    seconds: float,
    key: Callable[[Any], Any],
    min_requests: int = 1,
    clock: Callable[[], float] = time.perf_counter,
) -> Phase:
    """Call ``issue(i)`` back to back until ``seconds`` have elapsed.

    Stops at the first completion past the deadline once at least
    ``min_requests`` have completed.  An exception fails that request
    only.  Answers equal under ``key`` are stored once (:func:`interner`).
    """
    intern = interner(key)
    phase = Phase(start=clock())
    deadline = phase.start + seconds
    i = 0
    while True:
        sent = clock()
        try:
            answer = issue(i)
            sample = Sample(i, "match", sent, sent, clock(), answer=answer)
            sample.answer = intern(answer)
        except Exception as exc:  # a failed request is counted, not fatal
            sample = Sample(i, "match", sent, sent, clock(), ok=False, error=repr(exc))
        phase.samples.append(sample)
        i += 1
        if sample.done >= deadline and i >= min_requests:
            break
    phase.end = phase.samples[-1].done
    return phase


def open_loop(
    schedule: list[tuple[float, str]],
    issue: Callable[[int, str], Any],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Phase:
    """One synchronous client sending ``schedule`` (offset, kind) pairs.

    A request is sent at its due time or, when the previous request is
    still running, as soon as that returns; its latency still counts
    from the due time.
    """
    phase = Phase(start=clock())
    for i, (offset, kind) in enumerate(schedule):
        due = phase.start + offset
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        try:
            answer = issue(i, kind)
            sample = Sample(i, kind, due, sent, clock(), answer=answer)
        except Exception as exc:
            sample = Sample(i, kind, due, sent, clock(), ok=False, error=repr(exc))
        phase.samples.append(sample)
    phase.end = max((s.done for s in phase.samples), default=phase.start)
    return phase


async def closed_loop_async(
    issue,
    seconds: float,
    clients: int,
    key: Callable[[Any], Any],
    min_requests: int = 1,
    clock: Callable[[], float] = time.perf_counter,
) -> Phase:
    """``clients`` asyncio clients, each awaiting ``issue(i)`` back to
    back; request numbers are handed out in order across clients.

    ``issue(i)`` is a coroutine function.  No request starts after the
    deadline once at least ``min_requests`` have started; every started
    request is awaited.  Samples come back ordered by request number.
    Answers equal under ``key`` are stored once (:func:`interner`).
    """
    intern = interner(key)
    phase = Phase(start=clock())
    deadline = phase.start + seconds
    numbers = itertools.count()
    samples: list[Sample] = []

    async def client() -> None:
        while True:
            i = next(numbers)
            if i >= min_requests and clock() >= deadline:
                return
            sent = clock()
            try:
                sample = Sample(i, "match", sent, sent, 0.0, answer=await issue(i))
            except Exception as exc:
                sample = Sample(i, "match", sent, sent, 0.0, ok=False, error=repr(exc))
            sample.done = clock()
            if sample.ok:
                sample.answer = intern(sample.answer)
            samples.append(sample)

    await asyncio.gather(*(client() for _ in range(clients)))
    phase.samples = sorted(samples, key=lambda s: s.index)
    phase.end = max((s.done for s in samples), default=phase.start)
    return phase


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0–100) by the nearest-rank rule."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
