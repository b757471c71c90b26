"""AsyncMatchingService: concurrency equivalence and lifecycle.

The async front-end must be a *transparent* adapter: a gather of N
requests returns exactly what N sequential service calls return, the
owned thread pool really bounds in-flight solves (across every event
loop the adapter serves), and the wrapped service's statistics stay
consistent under async fan-out (they are taken as one lock-held
snapshot since the sharding refactor).
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro.core.aio import AsyncMatchingService
from repro.core.service import MatchingService
from repro.core.sharding import ShardedMatchingService
from repro.graph.digraph import DiGraph
from repro.similarity.labels import label_equality_matrix
from repro.utils.errors import InputError

XI = 0.5


def build_workload(sites: int = 2, site_nodes: int = 30, patterns: int = 10):
    rng = random.Random(17)
    data = DiGraph(name="async-data")
    for s in range(sites):
        base = s * site_nodes
        for i in range(site_nodes):
            data.add_node(base + i, label=f"L{rng.randrange(6)}")
        for _ in range(3 * site_nodes):
            a = base + rng.randrange(site_nodes)
            b = base + rng.randrange(site_nodes)
            if a != b:
                data.add_edge(a, b)
        for i in range(site_nodes - 1):
            data.add_edge(base + i, base + i + 1)
    nodes = list(data.nodes())
    pats = [
        data.subgraph(rng.sample(nodes, 7), name=f"p{i}") for i in range(patterns)
    ]
    mats = {p.name: label_equality_matrix(p, data) for p in pats}
    source = lambda pattern, _data: mats[pattern.name]
    return data, pats, source


def spy_inflight(service: MatchingService) -> dict:
    """Wrap ``service.match`` to track how many calls run at once; the
    returned dict's ``"peak"`` is the most seen so far."""
    inner = service.match
    state = {"now": 0, "peak": 0}
    gate = threading.Lock()

    def spying_match(*args, **kwargs):
        with gate:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        try:
            return inner(*args, **kwargs)
        finally:
            with gate:
                state["now"] -= 1

    service.match = spying_match  # type: ignore[method-assign]
    return state


class TestConcurrencyEquivalence:
    def test_match_many_equals_sequential(self):
        data, patterns, source = build_workload()
        reference = MatchingService().match_many(patterns, data, source, XI)

        async def run():
            async with AsyncMatchingService(max_concurrency=4) as service:
                reports = await service.match_many(patterns, data, source, XI)
                return reports, service.service.stats.snapshot()

        reports, snapshot = asyncio.run(run())
        assert [r.result.mapping for r in reports] == [
            r.result.mapping for r in reference
        ]
        assert [r.quality for r in reports] == [r.quality for r in reference]
        # One consistent stats cut: every async solve accounted, one
        # prepare despite the cold stampede (in-flight dedupe).
        assert snapshot["calls"] == len(patterns)
        assert snapshot["calls"] == sum(snapshot["solved_by"].values())
        assert snapshot["prepares"] == 1

    def test_single_match_and_options_flow_through(self):
        data, patterns, source = build_workload(patterns=1)
        reference = MatchingService().match(
            patterns[0], data, source, XI, injective=True, pick="arbitrary"
        )

        async def run():
            async with AsyncMatchingService() as service:
                return await service.match(
                    patterns[0], data, source, XI, injective=True, pick="arbitrary"
                )

        report = asyncio.run(run())
        assert report.result.mapping == reference.result.mapping
        assert report.result.injective is True

    def test_semaphore_bounds_inflight_solves(self):
        data, patterns, source = build_workload(patterns=12)
        bound = 3
        service = MatchingService()
        state = spy_inflight(service)

        async def run():
            async with AsyncMatchingService(service, max_concurrency=bound) as aio:
                await aio.match_many(patterns, data, source, XI)

        asyncio.run(run())
        assert 1 <= state["peak"] <= bound

    def test_one_bound_across_live_event_loops(self):
        """Loops running at once share the adapter's one pool: two
        concurrent bursts never hold more than ``max_concurrency``
        solves between them."""
        data, patterns, source = build_workload(patterns=8)
        bound = 2
        service = MatchingService()
        state = spy_inflight(service)
        aio = AsyncMatchingService(service, max_concurrency=bound)
        start = threading.Barrier(2)
        failures = []

        def burst():
            try:
                start.wait(5)
                asyncio.run(aio.match_many(patterns, data, source, XI))
            except Exception as exc:
                failures.append(exc)

        threads = [threading.Thread(target=burst) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            aio.close()
        assert not failures, failures
        assert not any(thread.is_alive() for thread in threads)
        assert service.stats.snapshot()["calls"] == 2 * len(patterns)
        assert 1 <= state["peak"] <= bound

    def test_sharded_passthrough(self):
        data, patterns, source = build_workload()
        sharded = ShardedMatchingService(2)
        reference = sharded.match_sharded(patterns[0], data, source, XI)

        async def run():
            async with AsyncMatchingService(sharded) as service:
                fanned = await service.match_sharded(patterns[0], data, source, XI)
                routed = await service.match(patterns[0], data, source, XI)
                return fanned, routed

        fanned, routed = asyncio.run(run())
        assert fanned.result.mapping == reference.result.mapping
        assert routed.result.mapping  # hash-routed whole-graph request

    def test_match_sharded_requires_sharded_service(self):
        data, patterns, source = build_workload(patterns=1)

        async def run():
            async with AsyncMatchingService() as service:
                await service.match_sharded(patterns[0], data, source, XI)

        with pytest.raises(InputError):
            asyncio.run(run())


class TestLifecycle:
    def test_service_survives_multiple_event_loops(self):
        data, patterns, source = build_workload(patterns=3)
        service = AsyncMatchingService(max_concurrency=2)
        try:
            first = asyncio.run(service.match_many(patterns, data, source, XI))
            second = asyncio.run(service.match_many(patterns, data, source, XI))
            assert [r.result.mapping for r in first] == [
                r.result.mapping for r in second
            ]
            snapshot = service.service.stats.snapshot()
            assert snapshot["calls"] == 2 * len(patterns)
            assert snapshot["prepares"] == 1  # cache survives loop turnover
        finally:
            service.close()

    def test_closed_service_rejects_requests(self):
        data, patterns, source = build_workload(patterns=1)
        service = AsyncMatchingService()
        service.close()
        service.close()  # idempotent

        async def run():
            await service.match(patterns[0], data, source, XI)

        with pytest.raises(InputError):
            asyncio.run(run())

    def test_validation(self):
        with pytest.raises(InputError):
            AsyncMatchingService(max_concurrency=0)
        assert "AsyncMatchingService" in repr(AsyncMatchingService())


class TestLockDiscipline:
    """Satellite audit of core/aio.py: repro-lint found no RL001/RL002
    violations (its lock blocks only check for close and submit to or
    drop the pool, and all stats flow through the inner service's stats
    lock).  These tests pin that clean bill of health behaviorally and
    statically."""

    def test_stats_never_tear_under_async_fanout(self):
        """Every snapshot taken while async fan-out is in flight keeps
        calls == sum(solved_by): the inner service bundles both under
        the stats lock, and nothing in aio.py bypasses it."""
        data, patterns, source = build_workload(patterns=6)
        torn = []
        stop = threading.Event()

        async def run():
            async with AsyncMatchingService(max_concurrency=4) as service:
                def watch():
                    while not stop.is_set():
                        snap = service.service.stats.snapshot()
                        if snap["calls"] != sum(snap["solved_by"].values()):
                            torn.append(snap)

                watcher = threading.Thread(target=watch)
                watcher.start()
                try:
                    for _ in range(5):
                        await service.match_many(patterns, data, source, XI)
                finally:
                    stop.set()
                    watcher.join(10)
                return service.service.stats.snapshot()

        snap = asyncio.run(run())
        assert not torn, torn[:3]
        assert snap["calls"] == 5 * len(patterns)
        assert snap["calls"] == sum(snap["solved_by"].values())

    def test_repro_lint_finds_no_lock_violations_in_aio_or_sharding(self):
        """Regression proof for the ISSUE-7 audit: RL001/RL002 report
        zero findings on core/aio.py and core/sharding.py (sharding's
        under-lock subgraph builds were fixed to the off-lock pattern)."""
        import repro.core.aio as aio_module
        import repro.core.sharding as sharding_module
        from repro.analysis import all_rules, run_analysis

        report = run_analysis(
            [aio_module.__file__, sharding_module.__file__],
            rules=all_rules(),
            select=["RL001", "RL002"],
        )
        assert report.findings == [], "\n".join(f.render() for f in report.findings)
        assert len(report.files) == 2


class TestCloseDrainsInflight:
    def test_close_waits_for_admitted_requests(self):
        """An admitted request must never hit a shut-down executor.

        The race this pins: a request passes the closed check, but
        ``close()`` runs before the actual executor submission.  Pre-fix,
        ``close()`` had nothing to wait on — it shut the pool down
        immediately and the delegated submit exploded with
        ``RuntimeError: cannot schedule new futures after shutdown``.
        Now the request holds the adapter's lock from the closed check
        through the submission, so ``close()`` cannot drop the pool in
        between, and its ``shutdown(wait=True)`` blocks until the
        submitted request completes.
        """
        data, patterns, source = build_workload(patterns=2)
        service = AsyncMatchingService(max_concurrency=2)
        close_started = threading.Event()
        close_done = threading.Event()

        def closer():
            close_started.set()
            service.close()
            close_done.set()

        async def run():
            loop = asyncio.get_running_loop()
            real = loop.run_in_executor
            fired = False

            def racing(executor, fn, *args):
                nonlocal fired
                if not fired:
                    fired = True
                    threading.Thread(target=closer, daemon=True).start()
                    assert close_started.wait(5)
                    # Give close() every chance to finish tearing the
                    # pool down.  It must NOT manage to: this request is
                    # already admitted, so the drain blocks.
                    assert not close_done.wait(0.3), (
                        "close() completed with a request admitted but "
                        "not yet submitted"
                    )
                return real(executor, fn, *args)

            loop.run_in_executor = racing  # instance patch; loop dies with run()
            return await service.match(patterns[0], data, source, XI)

        report = asyncio.run(run())
        assert report.result is not None
        # With the request finished, the drain releases and close lands.
        assert close_done.wait(5)

        async def rejected():
            await service.match(patterns[0], data, source, XI)

        with pytest.raises(InputError):
            asyncio.run(rejected())

    def test_failed_submission_does_not_wedge_close(self):
        """A submission that raises leaves nothing for ``close()`` to
        wait on.

        ``ThreadPoolExecutor.submit`` raises once interpreter shutdown
        has begun, or when no thread can be started.  The request must
        surface that error, and ``close()`` must still return.
        """
        data, patterns, source = build_workload(patterns=1)
        service = AsyncMatchingService(max_concurrency=2)

        def failing(executor, fn, *args):
            raise RuntimeError("cannot schedule new futures")

        async def run():
            asyncio.get_running_loop().run_in_executor = failing  # dies with run()
            await service.match(patterns[0], data, source, XI)

        with pytest.raises(RuntimeError, match="cannot schedule"):
            asyncio.run(run())
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        closer.join(5)
        assert not closer.is_alive(), "close() blocked after a failed submission"

        async def rejected():
            await service.match(patterns[0], data, source, XI)

        with pytest.raises(InputError):
            asyncio.run(rejected())

    def test_close_mid_burst_rejects_or_completes_never_breaks(self):
        """Every request of a burst interrupted by ``close()`` either
        completes normally or is rejected with InputError — no request
        may surface RuntimeError from the executor teardown."""
        data, patterns, source = build_workload(patterns=4)

        async def run():
            service = AsyncMatchingService(max_concurrency=2)

            async def one(pattern):
                try:
                    return await service.match(pattern, data, source, XI)
                except InputError:
                    return "rejected"

            tasks = [
                asyncio.ensure_future(one(p)) for p in (patterns * 4)[:12]
            ]
            await asyncio.sleep(0.005)  # let some requests get admitted
            closer = threading.Thread(target=service.close)
            closer.start()
            results = await asyncio.gather(*tasks)
            closer.join(10)
            assert not closer.is_alive()
            return results

        results = asyncio.run(run())
        completed = [r for r in results if r != "rejected"]
        for report in completed:
            assert report.result is not None
