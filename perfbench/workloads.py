"""The three benchmark workloads.

Each workload turns a seed into inputs (:meth:`generate`, off the
clock) — graphs from a fixed generator seed, the request stream from
the run's seed — sets the program up (:meth:`setup`, the ``setup_s`` metric),
drives its measured phase (:meth:`run`) and afterwards checks every
answer (:meth:`check`).  All of them call the program only through its
public API and pin their solver backends explicitly, so ``REPRO_BACKEND``
never changes what is measured.

``fig6-synthetic``
    The paper's Fig. 6(a) scalability cell, closed loop: every noisy
    copy matched by all four p-hom algorithms through one flat
    ``MatchingService(backend="python")``.  The grouped-label similarity
    is an opaque callable, so it is resolved per request and the gated
    prefilter stays bypassed; store, sharding and asyncio are idle.
``corpus-serve``
    Closed-loop traffic from two clients over 32 small site corpora whose
    working set exceeds the two workers' LRUs, through
    ``AsyncMatchingService`` over a corpus-routed
    ``ShardedMatchingService`` with one ``numpy`` and one ``mmap`` worker
    reopened on a warm store: tier lookups, decode and mapped hydration,
    routing, asyncio queueing and gated candidate rows.
``stream-churn``
    Open-loop reads beside writes on one large corpus: a fifth of the
    arrivals mutate the graph and call ``update_graph``, the rest call
    ``match_sharded`` on a two-shard ``python`` router with a chained
    store — plan evolution, per-shard delta evolution, delta-chain writes
    and cold shard prepares on the serving path.
"""

from __future__ import annotations

import asyncio
import bisect
import random
from dataclasses import dataclass, field

from repro.core.aio import AsyncMatchingService
from repro.core.service import MatchingService
from repro.core.sharding import ShardedMatchingService
from repro.datasets.synthetic import generate_workload
from repro.graph.closure import ReachabilityIndex
from repro.graph.fingerprint import graph_fingerprint
from repro.similarity.labels import label_equality_matrix
from repro.workload.scenario import Scenario, ScenarioSpec

import loadgen
import oracle
import spans


@dataclass
class Checked:
    """What the oracle concluded about one measured phase."""

    failures: list[str] = field(default_factory=list)
    #: Per-request answer keys in a deterministic order.
    answer_keys: list[str] = field(default_factory=list)
    qualities: list[float] = field(default_factory=list)


def _flat_counters(snapshot: dict) -> dict:
    """Numeric fields of a service or router stats snapshot, flattened."""
    out = {}
    for key, value in snapshot.items():
        if key == "aggregate":
            out.update(_flat_counters(value))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = out.get(key, 0) + value
    return out


class Workload:
    """Interface every workload implements (see the module docstring)."""

    name = ""
    why = ""
    #: Percentile reported as ``match_tail_ms`` (at least ten samples
    #: beyond it at the benchmark's run length).
    tail_percentile = 99
    #: Whether the traced run times each backend kernel call or only
    #: counts it.  Timing costs ~1 µs per call; on an open loop that
    #: overhead turns into queueing and distorts every share.
    time_kernels = False

    def describe(self) -> dict:
        raise NotImplementedError

    def generate(self, seed: int, seconds: float):
        raise NotImplementedError

    def input_fingerprints(self, inputs) -> list[str]:
        raise NotImplementedError

    def setup(self, inputs, store_dir: str):
        raise NotImplementedError

    def warm(self, state) -> None:
        raise NotImplementedError

    def run(self, state, seconds: float, tracer: "spans.Tracer | None" = None) -> loadgen.Phase:
        raise NotImplementedError

    def check(self, state, phase: loadgen.Phase) -> Checked:
        raise NotImplementedError

    def counters(self, state) -> dict:
        raise NotImplementedError

    def close(self, state) -> None:
        pass


def _traced_issue(tracer, issue):
    """Wrap a request callable in the benchmark's root request span."""
    if tracer is None:
        return issue

    def traced(i, *args):
        span, token = tracer.begin("bench.request", rid=i)
        try:
            return issue(i, *args)
        finally:
            tracer.finish(span, token)

    return traced


# ----------------------------------------------------------------------
# fig6-synthetic
# ----------------------------------------------------------------------
ALGORITHMS = (
    ("compMaxCard", "cardinality", False),
    ("compMaxCard_1-1", "cardinality", True),
    ("compMaxSim", "similarity", False),
    ("compMaxSim_1-1", "similarity", True),
)


@dataclass
class Fig6State:
    inputs: list
    trials: list
    service: MatchingService


class Fig6Synthetic(Workload):
    name = "fig6-synthetic"
    why = (
        "The paper's Fig. 6(a) scalability cell: engine, kernels, similarity "
        "resolve and workspace do the work; store, shards, asyncio and the "
        "prefilter do none"
    )
    tail_percentile = 99
    time_kernels = True

    # The cell is generated from one fixed seed and the run seed only
    # shuffles the request order: the engine work of one cell varies by
    # 27-36% (IQR over median of kernel calls) across generator seeds —
    # a few m=200 instances are far harder — which no regression bound
    # of at most 25% could absorb.
    def __init__(self, sizes=(50, 100, 150, 200), copies=4, noise=10.0, xi=0.75,
                 min_requests=1000, generator_seed=2010) -> None:
        self.sizes = tuple(sizes)
        self.copies = copies
        self.noise = noise
        self.xi = xi
        self.min_requests = min_requests
        self.generator_seed = generator_seed

    def describe(self) -> dict:
        return {
            "loop": "closed, 1 client, trial list shuffled by the seed, repeated",
            "min_requests": self.min_requests,
            "sizes_m": list(self.sizes),
            "noise_percent": self.noise,
            "copies_per_size": self.copies,
            "generator_seed": self.generator_seed,
            "xi": self.xi,
            "algorithms": [a[0] for a in ALGORITHMS],
            "front_end": "MatchingService(backend='python'), every copy resident",
            "similarity": "LabelGroupSimilarity.matrix_for as a callable source",
            "backends": ["python"],
        }

    def generate(self, seed: int, seconds: float):
        inputs = [
            generate_workload(m, self.noise, num_copies=self.copies,
                              seed=self.generator_seed)
            for m in self.sizes
        ]
        # LabelGroupSimilarity draws each label pair's score on first use;
        # drawing them here, in a fixed order, keeps mat() independent of
        # the request order.
        for wl in inputs:
            for copy in wl.copies:
                wl.label_similarity.matrix_for(wl.pattern, copy)
        trials = [
            (w, c, a)
            for w in range(len(inputs))
            for c in range(self.copies)
            for a in range(len(ALGORITHMS))
        ]
        random.Random(seed).shuffle(trials)
        return inputs, trials

    def input_fingerprints(self, inputs) -> list[str]:
        workloads, _ = inputs
        out = []
        for wl in workloads:
            out.append(graph_fingerprint(wl.pattern))
            out.extend(graph_fingerprint(copy) for copy in wl.copies)
        return out

    def setup(self, inputs, store_dir: str) -> Fig6State:
        workloads, trials = inputs
        service = MatchingService(
            max_prepared=len(workloads) * self.copies, backend="python"
        )
        for wl in workloads:
            for copy in wl.copies:
                service.prepared_for(copy)
        return Fig6State(workloads, trials, service)

    def _issue(self, state: Fig6State):
        def issue(i):
            w, c, a = state.trials[i % len(state.trials)]
            wl = state.inputs[w]
            _, metric, injective = ALGORITHMS[a]
            report = state.service.match(
                wl.pattern, wl.copies[c], wl.label_similarity.matrix_for, self.xi,
                metric=metric, injective=injective,
            )
            return report.result.mapping, report.quality

        return issue

    def warm(self, state: Fig6State) -> None:
        """One pass over every trial: fills the similarity memo and the
        backend row caches."""
        issue = self._issue(state)
        for i in range(len(state.trials)):
            issue(i)

    def run(self, state: Fig6State, seconds: float, tracer=None) -> loadgen.Phase:
        traced = _traced_issue(tracer, self._issue(state))
        return loadgen.closed_loop(
            traced, seconds, min_requests=self.min_requests,
            key=lambda answer: (frozenset(answer[0].items()), answer[1]),
        )

    def check(self, state: Fig6State, phase: loadgen.Phase) -> Checked:
        out = Checked()
        reach: dict[tuple[int, int], ReachabilityIndex] = {}
        verdicts: dict[tuple, oracle.Verdict] = {}
        first: dict[int, str] = {}
        for sample in phase.samples:
            trial = sample.index % len(state.trials)
            if not sample.ok:
                continue  # counted as an error by the harness
            mapping, quality = sample.answer
            key = oracle.answer_key(mapping, quality)
            first.setdefault(trial, key)
            w, c, a = state.trials[trial]
            if (trial, key) not in verdicts:
                wl = state.inputs[w]
                copy = wl.copies[c]
                if (w, c) not in reach:
                    reach[(w, c)] = ReachabilityIndex(copy)
                _, metric, injective = ALGORITHMS[a]
                verdicts[(trial, key)] = oracle.check_answer(
                    wl.pattern, copy, wl.label_similarity.matrix_for(wl.pattern, copy),
                    self.xi, mapping, quality, metric=metric, injective=injective,
                    reach=reach[(w, c)],
                )
            verdict = verdicts[(trial, key)]
            if not verdict.ok:
                out.failures.append(f"request {sample.index}: {verdict.reason}")
            out.qualities.append(quality)
        out.answer_keys = [first[t] for t in sorted(first)]
        return out

    def counters(self, state: Fig6State) -> dict:
        return _flat_counters(state.service.stats.snapshot())


# ----------------------------------------------------------------------
# corpus-serve
# ----------------------------------------------------------------------
def _zipf_cdf(count: int, exponent: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


@dataclass
class CorpusState:
    scenarios: list
    requests: list
    warmup: list
    router: ShardedMatchingService
    front: AsyncMatchingService


class CorpusServe(Workload):
    name = "corpus-serve"
    why = (
        "32 corpora over two 8-slot LRUs, so a quarter of requests hydrate: "
        "tier lookup, decode and mmap hydration, routing, asyncio queueing "
        "and gated rows"
    )
    # p99 (printed too) moved by 0.05 across ten seeds while the host was
    # quiet but by 0.30 through short slow spells on it, which reach the
    # slowest percent of requests first.
    tail_percentile = 95

    # A closed loop with one client per executor slot, not an open loop:
    # on a two-core host whose speed drifts, open-loop Poisson traffic
    # through two executor threads and the event loop turned a ~1.5x
    # slower spell into 1.6x the median and 2-3x the p95 (IQR over median
    # up to 0.9 across ten seeds), while the saturated closed loop moved
    # about in proportion.
    def __init__(self, graphs=32, sites=4, site_size=120, pattern_size=6,
                 patterns_per_site=2, clients=2, requests=2000, graph_zipf=1.0,
                 warmup_requests=200, generator_seed=2010) -> None:
        self.graphs = graphs
        self.spec = ScenarioSpec(
            sites=sites, site_size=site_size, pattern_size=pattern_size,
            patterns_per_site=patterns_per_site,
        )
        self.clients = clients
        self.requests = requests
        self.graph_zipf = graph_zipf
        self.warmup_requests = warmup_requests
        self.generator_seed = generator_seed

    def describe(self) -> dict:
        return {
            "loop": f"closed, {self.clients} clients, a list of {self.requests} "
                    "requests cycled until --seconds and at least once through",
            "graphs": self.graphs,
            "generator_seed": self.generator_seed,
            "scenario": {
                "sites": self.spec.sites, "site_size": self.spec.site_size,
                "pattern_size": self.spec.pattern_size,
                "patterns_per_graph": self.spec.sites * self.spec.patterns_per_site,
                "similarity": "LabelEqualitySimilarity (gated)",
            },
            "popularity": f"Zipf s={self.graph_zipf:g} over graphs, then the "
                          f"scenario's Zipf s={self.spec.zipf_exponent:g} over patterns",
            "front_end": f"AsyncMatchingService(max_concurrency={self.clients}) over "
                         "ShardedMatchingService(2, backends=['numpy','mmap']), "
                         "corpus routing, partitioned=True, prefilter='auto'",
            "store": "warmed in set-up, reopened by a fresh router",
            "lru_slots": "2 workers x 8",
            "warmup_requests": self.warmup_requests,
            "backends": ["numpy", "mmap"],
        }

    def _draw(self, scenarios, rng: random.Random, count: int, order, cdf) -> list:
        requests = []
        for _ in range(count):
            g = order[min(bisect.bisect_left(cdf, rng.random()), len(order) - 1)]
            pattern = scenarios[g].sample_pattern(rng)
            requests.append((g, scenarios[g].patterns.index(pattern)))
        return requests

    def generate(self, seed: int, seconds: float):
        scenarios = [
            Scenario(self.spec, seed=self.generator_seed * self.graphs + i)
            for i in range(self.graphs)
        ]
        rng = random.Random(seed)
        order = list(range(self.graphs))
        rng.shuffle(order)
        cdf = _zipf_cdf(self.graphs, self.graph_zipf)
        requests = self._draw(scenarios, rng, self.requests, order, cdf)
        warmup = self._draw(scenarios, rng, self.warmup_requests, order, cdf)
        return scenarios, requests, warmup

    def input_fingerprints(self, inputs) -> list[str]:
        scenarios = inputs[0]
        out = []
        for scenario in scenarios:
            out.append(graph_fingerprint(scenario.corpus))
            out.extend(graph_fingerprint(p) for p in scenario.patterns)
        return out

    def setup(self, inputs, store_dir: str):
        scenarios, requests, warmup = inputs
        backends = ["numpy", "mmap"]
        warm = ShardedMatchingService(2, store_dir=store_dir, backends=backends)
        for scenario in scenarios:
            warm.worker_for(scenario.corpus).prepared_for(scenario.corpus)
        router = ShardedMatchingService(2, store_dir=store_dir, backends=backends)
        front = AsyncMatchingService(router, max_concurrency=self.clients)
        return CorpusState(scenarios, requests, warmup, router, front)

    def _phase(self, state: CorpusState, requests, seconds: float, tracer) -> loadgen.Phase:
        async def issue(i):
            g, p = requests[i % len(requests)]
            scenario = state.scenarios[g]
            report = await state.front.match(
                scenario.patterns[p], scenario.corpus, scenario.similarity,
                scenario.xi, partitioned=True, prefilter="auto",
            )
            return g, p, report.result.mapping, report.quality

        if tracer is not None:
            inner = issue

            async def issue(i):  # noqa: F811 - the traced variant
                span, token = tracer.begin("bench.request", rid=i)
                try:
                    return await inner(i)
                finally:
                    tracer.finish(span, token)

        loop = asyncio.new_event_loop()
        if tracer is not None:
            spans.propagate_context(loop)
        try:
            return loop.run_until_complete(loadgen.closed_loop_async(
                issue, seconds, self.clients, min_requests=len(requests),
                key=lambda a: (a[0], a[1], frozenset(a[2].items()), a[3]),
            ))
        finally:
            loop.close()

    def warm(self, state: CorpusState) -> None:
        """One pass over a warm-up draw of its own: fills both LRUs."""
        self._phase(state, state.warmup, 0.0, None)

    def run(self, state: CorpusState, seconds: float, tracer=None) -> loadgen.Phase:
        return self._phase(state, state.requests, seconds, tracer)

    def check(self, state: CorpusState, phase: loadgen.Phase) -> Checked:
        out = Checked()
        reach: dict[int, ReachabilityIndex] = {}
        mats: dict[tuple[int, int], object] = {}
        verdicts: dict[tuple, oracle.Verdict] = {}
        first: dict[int, str] = {}
        for sample in phase.samples:
            if not sample.ok:
                continue  # counted as an error by the harness
            g, p, mapping, quality = sample.answer
            key = oracle.answer_key(mapping, quality)
            first.setdefault(sample.index % len(state.requests), key)
            if (g, p, key) not in verdicts:
                scenario = state.scenarios[g]
                if g not in reach:
                    reach[g] = ReachabilityIndex(scenario.corpus)
                if (g, p) not in mats:
                    mats[(g, p)] = label_equality_matrix(scenario.patterns[p], scenario.corpus)
                verdicts[(g, p, key)] = oracle.check_answer(
                    scenario.patterns[p], scenario.corpus, mats[(g, p)], scenario.xi,
                    mapping, quality, reach=reach[g],
                )
            verdict = verdicts[(g, p, key)]
            if not verdict.ok:
                out.failures.append(f"request {sample.index}: {verdict.reason}")
            out.qualities.append(quality)
        out.answer_keys = [first[slot] for slot in sorted(first)]
        return out

    def counters(self, state: CorpusState) -> dict:
        return _flat_counters(state.router.stats_snapshot())

    def close(self, state: CorpusState) -> None:
        state.front.close()


# ----------------------------------------------------------------------
# stream-churn
# ----------------------------------------------------------------------
@dataclass
class StreamState:
    seed: int
    scenario: Scenario
    schedule: list
    patterns: list
    mutation_rng: random.Random
    router: ShardedMatchingService
    version: int = 0


class StreamChurn(Workload):
    name = "stream-churn"
    why = (
        "Writes beside reads on one 4000-node corpus: plan evolve, per-shard "
        "delta evolution, chained store writes and cold shard re-prepares"
    )
    # About a fifth of the matches pay for a preceding write (shard view
    # rebuild, delta evolve, chain write) and the slowest ~5% a cold shard
    # prepare, whose count moves with the seed.  p85 sits inside the write
    # band.  Every tail percentile moves with which matches follow which
    # writes, so the rate is set for samples: over six seeds, 25 s each,
    # p85's IQR over median was 0.25 at 6 req/s (120 matches) and 0.19 at
    # 10 req/s (200 matches); 12 req/s added queueing and gained nothing.
    tail_percentile = 85

    # Every pattern is read equally often: under a Zipf law a seed's two
    # or three hot patterns would set the match median alone.
    def __init__(self, sites=16, site_size=250, pattern_size=8, patterns_per_site=4,
                 rate=10.0, update_share=0.2, generator_seed=2010) -> None:
        self.spec = ScenarioSpec(
            sites=sites, site_size=site_size, pattern_size=pattern_size,
            patterns_per_site=patterns_per_site,
        )
        self.rate = rate
        self.update_share = update_share
        self.generator_seed = generator_seed

    def describe(self) -> dict:
        return {
            "loop": f"open, Poisson at {self.rate:g} req/s (count fixed per run), "
                    f"one arrival per block of {round(1 / self.update_share)} "
                    "mutates + update_graph",
            "generator_seed": self.generator_seed,
            "scenario": {
                "sites": self.spec.sites, "site_size": self.spec.site_size,
                "nodes": self.spec.sites * self.spec.site_size,
                "pattern_size": self.spec.pattern_size,
                "patterns": self.spec.sites * self.spec.patterns_per_site,
                "popularity": "uniform (shuffled rounds of every pattern)",
                "similarity": "LabelEqualitySimilarity (gated)",
            },
            "front_end": "ShardedMatchingService(2, backend='python', chain=True) "
                         "on a chained store, match_sharded with prefilter='auto'",
            "backends": ["python"],
        }

    @staticmethod
    def _mutation_rng(seed: int) -> random.Random:
        return random.Random(seed * 7919 + 17)

    def generate(self, seed: int, seconds: float):
        scenario = Scenario(self.spec, seed=self.generator_seed)
        rng = random.Random(seed)
        offsets = loadgen.arrival_offsets(self.rate, seconds, rng)
        # One update at a random place in every block of 1/update_share
        # arrivals: the write share is exact in every stretch of the run.
        block = round(1 / self.update_share)
        updates = {
            start + rng.randrange(block)
            for start in range(0, len(offsets) - block + 1, block)
        }
        schedule = [
            (offset, "update" if i in updates else "match")
            for i, offset in enumerate(offsets)
        ]
        order = loadgen.balanced_order(len(scenario.patterns), len(schedule) - len(updates), rng)
        patterns = [None if kind == "update" else order.pop() for _, kind in schedule]
        return seed, scenario, schedule, patterns

    def input_fingerprints(self, inputs) -> list[str]:
        scenario = inputs[1]
        return [graph_fingerprint(scenario.corpus)] + [
            graph_fingerprint(p) for p in scenario.patterns
        ]

    def setup(self, inputs, store_dir: str) -> StreamState:
        seed, scenario, schedule, patterns = inputs
        router = ShardedMatchingService(
            2, store_dir=store_dir, backend="python", chain=True
        )
        plan = router.plan_for(scenario.corpus)
        for sid in plan.nonempty_shards():
            router.workers[sid].prepared_for(
                plan.shard_graph(sid), fingerprint=plan.fingerprint_for(sid)
            )
        return StreamState(
            seed, scenario, schedule, patterns, self._mutation_rng(seed), router
        )

    def warm(self, state: StreamState) -> None:
        """Every pattern read once; reads leave the graph unchanged."""
        scenario = state.scenario
        for pattern in scenario.patterns:
            state.router.match_sharded(
                pattern, scenario.corpus, scenario.similarity, scenario.xi,
                prefilter="auto",
            )

    def run(self, state: StreamState, seconds: float, tracer=None) -> loadgen.Phase:
        scenario = state.scenario

        def issue(i, kind):
            if kind == "update":
                op = scenario.mutate(state.mutation_rng)
                state.router.update_graph(scenario.corpus)
                state.version += 1
                return op
            p = state.patterns[i]
            report = state.router.match_sharded(
                scenario.patterns[p], scenario.corpus, scenario.similarity,
                scenario.xi, prefilter="auto",
            )
            return state.version, p, report.result.mapping, report.quality

        return loadgen.open_loop(state.schedule, _traced_issue(tracer, issue))

    def check(self, state: StreamState, phase: loadgen.Phase) -> Checked:
        """Replay the mutation sequence from the seed; check every answer
        against the graph version it was computed on."""
        out = Checked()
        replay = Scenario(self.spec, seed=self.generator_seed)
        rng = self._mutation_rng(state.seed)
        version = 0
        reach = None
        mats: dict[int, object] = {}
        verdicts: dict[tuple, oracle.Verdict] = {}
        for sample in phase.samples:
            if not sample.ok:
                out.answer_keys.append("error")
                # A failed update may or may not have mutated the graph;
                # later answers cannot be placed on a version.
                if sample.kind == "update":
                    out.failures.append(
                        f"request {sample.index}: replay stopped at a failed update"
                    )
                    break
                continue
            if sample.kind == "update":
                op = replay.mutate(rng)
                version += 1
                reach = None
                mats.clear()
                if op != sample.answer:
                    out.failures.append(
                        f"request {sample.index}: replayed mutation {op} "
                        f"differs from recorded {sample.answer}"
                    )
                out.answer_keys.append(repr(op))
                continue
            seen_version, p, mapping, quality = sample.answer
            key = oracle.answer_key(mapping, quality)
            out.answer_keys.append(key)
            if seen_version != version:
                out.failures.append(
                    f"request {sample.index}: answered on version {seen_version}, "
                    f"replay is at {version}"
                )
                continue
            if (version, p, key) not in verdicts:
                if reach is None:
                    reach = ReachabilityIndex(replay.corpus)
                if p not in mats:
                    mats[p] = label_equality_matrix(replay.patterns[p], replay.corpus)
                verdicts[(version, p, key)] = oracle.check_answer(
                    replay.patterns[p], replay.corpus, mats[p], replay.xi,
                    mapping, quality, reach=reach,
                )
            verdict = verdicts[(version, p, key)]
            if not verdict.ok:
                out.failures.append(f"request {sample.index}: {verdict.reason}")
            out.qualities.append(quality)
        return out

    def counters(self, state: StreamState) -> dict:
        return _flat_counters(state.router.stats_snapshot())


WORKLOADS = {w.name: w for w in (Fig6Synthetic(), CorpusServe(), StreamChurn())}
