"""Metric definitions and how each is computed from a measured phase.

End-to-end metrics come from the untraced phase.  Per-layer metrics come
from the traced phase: spans around each layer's public entry points
(:mod:`spans`) plus deltas of the program's own public stats snapshots.

Units: ``*_ms`` layer metrics are milliseconds **per request** of the
measured phase (so they add up to the traced latency), except
``service.tier_*_ms`` (mean per lookup in that tier) and
``prepared.setup_build_ms`` (total during set-up).  ``count/req``
metrics are per-request means; ``count`` metrics are totals over the
phase.
"""

from __future__ import annotations

import statistics

import loadgen
from spans import Span, decompose, self_times

#: The paper's match-decision quality threshold (Section 6): an answer
#: counts toward ``accuracy_pct`` when its quality reaches it.
ACCURACY_THRESHOLD = 0.75

# name, unit, better.  Their bounds live in BENCHMARK.json alone.
END_TO_END = [
    ("match_p50_ms", "ms", "lower"),
    ("match_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]

#: Printed, and summarised by ``compare.py``, but not gated: a gated
#: metric must exist on every workload and be steady across seeds.
#: Update latency exists on stream-churn only; accuracy is a fixed
#: property of each seed's request draw; throughput is the offered rate
#: on stream-churn and swings with the host's speed on the closed loops.
REPORTED = {
    "match_p99_ms": "ms",
    "throughput_rps": "req/s",
    "error_rate": "ratio",
    "accuracy_pct": "%",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
}

#: Layers a request's time is split into, in report order.
LAYERS = [
    "harness.send_lag",
    "harness.unattributed",
    "core.aio",
    "core.sharding",
    "core.service",
    "graph.fingerprint",
    "core.store",
    "core.backends.hydrate",
    "core.prepared",
    "core.incremental",
    "similarity",
    "core.prefilter",
    "core.workspace",
    "core.optimize",
    "core.api",
    "core.engine",
    "core.backends.kernels",
]

#: Span name → layer.  ``core.api`` is the algorithm dispatch
#: (``_solve_prepared`` and the compMaxCard/compMaxSim drivers it runs).
SPAN_LAYER = {
    "aio.match": "core.aio",
    "sharding.match": "core.sharding",
    "sharding.match_sharded": "core.sharding",
    "sharding.update_graph": "core.sharding",
    "sharding.plan_for": "core.sharding",
    "service.match": "core.service",
    "service.update_graph": "core.service",
    "service.prepared_for": "core.service",
    "fingerprint": "graph.fingerprint",
    "store.load": "core.store",
    "store.payload_region": "core.store",
    "store.save": "core.store",
    "store.save_delta": "core.store",
    "backends.open_payload": "core.backends.hydrate",
    "prepared.build": "core.prepared",
    "prepared.from_mapped": "core.prepared",
    "incremental.apply_delta": "core.incremental",
    "similarity.resolve": "similarity",
    "prefilter.gated_rows": "core.prefilter",
    "workspace.build": "core.workspace",
    "optimize.plan_components": "core.optimize",
    "optimize.solve_component": "core.optimize",
    "optimize.partitioned": "core.optimize",
    "api.solve": "core.api",
    "engine.comp_max_card": "core.engine",
    "engine.greedy_match": "core.engine",
}

TIERS = ("memory", "delta", "mmap", "decode", "build")
KERNEL_BACKENDS = ("python", "numpy", "mmap")

# name, unit, better
PER_LAYER = [
    ("aio.queue_wait_ms", "ms", "lower"),
    ("aio.self_ms", "ms", "lower"),
    ("sharding.route_self_ms", "ms", "lower"),
    ("sharding.plan_ms", "ms", "lower"),
    ("sharding.shards_replanned", "count", "lower"),
    ("sharding.shard_evolves", "count", "higher"),
    ("sharding.shard_prepares", "count", "lower"),
    ("sharding.evolve_ratio", "ratio", "higher"),
    ("sharding.fanout_components", "count", "lower"),
    ("sharding.spill_components", "count", "lower"),
    ("service.lookup_ms", "ms", "lower"),
    ("service.hit_ratio", "ratio", "higher"),
    *[(f"service.tier_{t}_n", "count", "higher" if t == "memory" else "lower") for t in TIERS],
    *[(f"service.tier_{t}_ms", "ms", "lower") for t in TIERS],
    ("service.evictions", "count", "lower"),
    ("fingerprint.calls", "count/req", "lower"),
    ("fingerprint.ms", "ms", "lower"),
    ("store.read_ms", "ms", "lower"),
    ("store.write_ms", "ms", "lower"),
    ("store.full_writes", "count", "lower"),
    ("store.chain_writes", "count", "higher"),
    ("store.bytes_written_per_update", "bytes", "lower"),
    ("backends.open_payload_ms", "ms", "lower"),
    ("backends.mapped_bytes", "bytes", "lower"),
    ("prepared.build_n", "count", "lower"),
    ("prepared.build_ms", "ms", "lower"),
    ("prepared.setup_build_n", "count", "lower"),
    ("prepared.setup_build_ms", "ms", "lower"),
    ("incremental.apply_delta_ms", "ms", "lower"),
    ("incremental.rows_recomputed", "count", "lower"),
    ("incremental.full_rebuilds", "count", "lower"),
    ("similarity.resolve_ms", "ms", "lower"),
    ("prefilter.rows_ms", "ms", "lower"),
    ("prefilter.bypasses", "count", "lower"),
    ("prefilter.pairs_pruned", "count", "higher"),
    ("prefilter.shards_skipped", "count", "higher"),
    ("workspace.build_ms", "ms", "lower"),
    ("workspace.candidate_pairs", "count/req", "lower"),
    ("optimize.plan_ms", "ms", "lower"),
    ("optimize.components", "count/req", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.frames", "count/req", "lower"),
    ("engine.rounds", "count/req", "lower"),
    *[(f"backends.{b}.kernel_calls", "count/req", "lower") for b in KERNEL_BACKENDS],
    *[(f"backends.{b}.kernel_ms", "ms", "lower") for b in KERNEL_BACKENDS],
    ("bench.traced_latency_ms", "ms", "lower"),
    ("bench.send_lag_p99_ms", "ms", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.unattributed_pct", "%", "lower"),
    *[(f"self.{layer}", "ms", "lower") for layer in LAYERS],
    *[(f"update_self.{layer}", "ms", "lower") for layer in LAYERS],
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS.update(REPORTED)


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def end_to_end(workload, phase: loadgen.Phase, checked, setup_times, rss_mb) -> tuple[dict, dict]:
    """``(metrics, report)``: the end-to-end metrics BENCHMARK.json gates, and every
    end-to-end figure with its sample count for the printed report.  With
    no ``setup_times`` (the traced run), ``setup_s`` is left out."""
    ok = [s for s in phase.samples if s.ok]
    matches = [s.latency * 1e3 for s in ok if s.kind == "match"]
    updates = [s.latency * 1e3 for s in ok if s.kind == "update"]
    accurate = sum(1 for q in checked.qualities if q >= ACCURACY_THRESHOLD)
    tail = workload.tail_percentile
    metrics = {
        "match_p50_ms": loadgen.percentile(matches, 50),
        "match_tail_ms": loadgen.percentile(matches, tail),
        "peak_rss_mb": rss_mb,
    }
    if setup_times:
        metrics["setup_s"] = statistics.median(setup_times)
    report = {
        "throughput_rps": (len(ok) / phase.wall, len(ok)),
        "match_p50_ms": (metrics["match_p50_ms"], len(matches)),
        f"match_p{tail}_ms": (metrics["match_tail_ms"], len(matches)),
    }
    if tail < 99 and len(matches) >= 1000:
        # p99 has ten samples beyond it but is not the gated tail.
        report["match_p99_ms"] = (loadgen.percentile(matches, 99), len(matches))
    report.update({
        "error_rate": (
            (len(phase.samples) - len(ok) + len(checked.failures)) / len(phase.samples),
            len(phase.samples),
        ),
        "accuracy_pct": (100.0 * accurate / max(1, len(checked.qualities)),
                         len(checked.qualities)),
        "peak_rss_mb": (rss_mb, 1),
    })
    if setup_times:
        report["setup_s"] = (metrics["setup_s"], len(setup_times))
    if updates:
        report["update_p50_ms"] = (loadgen.percentile(updates, 50), len(updates))
        report["update_p90_ms"] = (loadgen.percentile(updates, 90), len(updates))
    return metrics, report


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def _descendants(span: Span, children: dict[int, list[Span]]) -> list[Span]:
    out, stack = [], list(children.get(span.sid, ()))
    while stack:
        child = stack.pop()
        out.append(child)
        stack.extend(children.get(child.sid, ()))
    return out


def tier_of(span: Span, children: dict[int, list[Span]]) -> str:
    """Which rung served a ``prepared_for`` call, judged by the child
    spans that ran inside it (never by counters: calls overlap)."""
    names = {}
    for child in _descendants(span, children):
        ok = bool(child.info and child.info.get("ok"))
        names[child.name] = names.get(child.name, False) or ok
    if "prepared.build" in names:
        return "build"
    if "incremental.apply_delta" in names:
        return "delta"
    if names.get("prepared.from_mapped"):
        return "mmap"
    if names.get("store.load"):
        return "decode"
    return "memory"


def _sum(spans_, name: str) -> float:
    return sum(s.duration for s in spans_ if s.name == name)


def per_layer(all_spans: list[Span], phase: loadgen.Phase, before: dict, after: dict,
              untraced_match_mean_ms: float) -> tuple[dict, dict]:
    """``(metrics, profile)``: every per-layer metric, and the layer
    self-time shares of the traced match latency for the profile."""
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in set(after) | set(before)}
    by_rid: dict = {}
    setup_spans = []
    for span in all_spans:
        if span.rid == "setup":
            setup_spans.append(span)
        elif span.rid is not None:
            by_rid.setdefault(span.rid, []).append(span)
    samples = {s.index: s for s in phase.samples if s.ok}
    requests = max(1, len(samples))
    updates = sum(1 for s in samples.values() if s.kind == "update")
    served = [span for rid, group in by_rid.items() if rid in samples for span in group]
    children: dict[int, list[Span]] = {}
    for span in served:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    m: dict[str, float] = {name: 0.0 for name, *_ in PER_LAYER}

    # Self-time decomposition, separately for matches and updates.
    kinds = {"match": {}, "update": {}}
    counts = {"match": 0, "update": 0}
    traced_match = []
    for rid, group in by_rid.items():
        sample = samples.get(rid)
        if sample is None:
            continue
        root = next(s for s in group if s.name == "bench.request")
        layers, unattributed = decompose(
            group, root, lambda s: SPAN_LAYER.get(s.name, "harness.unattributed")
        )
        layers["harness.unattributed"] = layers.get("harness.unattributed", 0.0) + unattributed
        layers["harness.send_lag"] = root.start - sample.due
        layers["core.backends.kernels"] = layers.pop("kernels", 0.0)
        acc = kinds[sample.kind]
        for layer, seconds in layers.items():
            acc[layer] = acc.get(layer, 0.0) + seconds
        counts[sample.kind] += 1
        if sample.kind == "match":
            traced_match.append(root.end - sample.due)
    for kind, prefix in (("match", "self."), ("update", "update_self.")):
        for layer in LAYERS:
            m[prefix + layer] = 1e3 * kinds[kind].get(layer, 0.0) / max(1, counts[kind])

    traced_mean = 1e3 * statistics.mean(traced_match) if traced_match else 0.0
    m["bench.traced_latency_ms"] = traced_mean
    if untraced_match_mean_ms > 0:
        m["bench.trace_overhead_pct"] = 100.0 * (traced_mean / untraced_match_mean_ms - 1.0)
    if traced_mean > 0:
        m["bench.unattributed_pct"] = 100.0 * m["self.harness.unattributed"] / traced_mean
    lags = [s.send_lag * 1e3 for s in samples.values()]
    m["bench.send_lag_p99_ms"] = loadgen.percentile(lags, 99) if lags else 0.0

    def per_req(seconds: float) -> float:
        return 1e3 * seconds / requests

    own = {}
    for group in by_rid.values():
        own.update(self_times(group))

    # core.aio
    for span in served:
        if span.name == "aio.match":
            kids = children.get(span.sid, [])
            wait = (min(k.start for k in kids) - span.start) if kids else 0.0
            m["aio.queue_wait_ms"] += per_req(wait)
            m["aio.self_ms"] += per_req(own[span.sid] - wait)
    # core.sharding
    route = [s for s in served if s.name in
             ("sharding.match", "sharding.match_sharded", "sharding.update_graph")]
    m["sharding.route_self_ms"] = per_req(sum(own[s.sid] for s in route))
    m["sharding.plan_ms"] = per_req(_sum(served, "sharding.plan_for"))
    m["sharding.shards_replanned"] = delta.get("shards_replanned", 0)
    m["sharding.shard_evolves"] = delta.get("shard_evolves", 0)
    m["sharding.fanout_components"] = delta.get("fanout_components", 0)
    m["sharding.spill_components"] = delta.get("spill_components", 0)
    # core.service tiers
    lookups = [s for s in served if s.name == "service.prepared_for"]
    tier_n = {t: 0 for t in TIERS}
    tier_s = {t: 0.0 for t in TIERS}
    shard_prepares = 0
    parent_name = {s.sid: s.name for s in served}
    for span in lookups:
        tier = tier_of(span, children)
        tier_n[tier] += 1
        tier_s[tier] += span.duration
        # A cold prepare a sharded read paid for on the serving path.
        if tier == "build" and parent_name.get(span.parent) == "sharding.match_sharded":
            shard_prepares += 1
    for t in TIERS:
        m[f"service.tier_{t}_n"] = tier_n[t]
        m[f"service.tier_{t}_ms"] = 1e3 * tier_s[t] / tier_n[t] if tier_n[t] else 0.0
    m["service.lookup_ms"] = per_req(sum(own[s.sid] for s in lookups))
    m["service.hit_ratio"] = tier_n["memory"] / len(lookups) if lookups else 0.0
    m["service.evictions"] = delta.get("evictions", 0)
    m["sharding.shard_prepares"] = shard_prepares
    evolves = m["sharding.shard_evolves"]
    if evolves + shard_prepares:
        m["sharding.evolve_ratio"] = evolves / (evolves + shard_prepares)
    # graph.fingerprint
    m["fingerprint.calls"] = sum(1 for s in served if s.name == "fingerprint") / requests
    m["fingerprint.ms"] = per_req(_sum(served, "fingerprint"))
    # core.store
    m["store.read_ms"] = per_req(_sum(served, "store.load") + _sum(served, "store.payload_region"))
    m["store.write_ms"] = per_req(_sum(served, "store.save") + _sum(served, "store.save_delta"))
    full = [s for s in served if s.name == "store.save" and s.info]
    chained = [s for s in served if s.name == "store.save_delta" and s.info and s.info.get("ok")]
    m["store.full_writes"] = len(full)
    m["store.chain_writes"] = len(chained)
    written = sum(s.info.get("bytes", 0) for s in full + chained)
    m["store.bytes_written_per_update"] = written / updates if updates else 0.0
    # core.backends hydration
    m["backends.open_payload_ms"] = per_req(_sum(served, "backends.open_payload"))
    m["backends.mapped_bytes"] = delta.get("mapped_bytes", 0)
    # core.prepared
    builds = [s for s in served if s.name == "prepared.build"]
    m["prepared.build_n"] = len(builds)
    m["prepared.build_ms"] = per_req(sum(s.duration for s in builds))
    setup_builds = [s for s in setup_spans if s.name == "prepared.build"]
    m["prepared.setup_build_n"] = len(setup_builds)
    m["prepared.setup_build_ms"] = 1e3 * sum(s.duration for s in setup_builds)
    # core.incremental
    evolved = [s for s in served if s.name == "incremental.apply_delta"]
    m["incremental.apply_delta_ms"] = per_req(sum(s.duration for s in evolved))
    m["incremental.rows_recomputed"] = sum((s.info or {}).get("rows", 0) for s in evolved)
    m["incremental.full_rebuilds"] = sum(1 for s in evolved if (s.info or {}).get("full"))
    # similarity, prefilter
    m["similarity.resolve_ms"] = per_req(_sum(served, "similarity.resolve"))
    m["prefilter.rows_ms"] = per_req(delta.get("filter_seconds", 0.0))
    m["prefilter.bypasses"] = delta.get("filter_bypasses", 0)
    m["prefilter.pairs_pruned"] = delta.get("pairs_pruned", 0)
    m["prefilter.shards_skipped"] = delta.get("shards_skipped", 0)
    # core.workspace, core.optimize
    workspaces = [s for s in served if s.name == "workspace.build"]
    m["workspace.build_ms"] = per_req(sum(s.duration for s in workspaces))
    m["workspace.candidate_pairs"] = sum((s.info or {}).get("pairs", 0) for s in workspaces) / requests
    plans = [s for s in served if s.name == "optimize.plan_components"]
    m["optimize.plan_ms"] = per_req(sum(s.duration for s in plans))
    m["optimize.components"] = sum((s.info or {}).get("components", 0) for s in plans) / requests
    # core.engine and kernels
    engine = [s for s in served if SPAN_LAYER.get(s.name) == "core.engine"]
    m["engine.self_ms"] = per_req(sum(own[s.sid] for s in engine))
    m["engine.frames"] = sum(1 for s in served if s.name == "engine.greedy_match") / requests
    m["engine.rounds"] = sum(
        (s.info or {}).get("rounds", 0) for s in served if s.name == "engine.comp_max_card"
    ) / requests
    backend_of = {s.sid: (s.info or {}).get("backend") for s in served
                  if s.name == "engine.greedy_match"}
    parent_of = {s.sid: s.parent for s in served}
    for span in served:
        if not span.kernel_n:
            continue
        sid, backend = span.sid, None
        while sid is not None and backend is None:
            backend = backend_of.get(sid)
            sid = parent_of.get(sid)
        if backend in KERNEL_BACKENDS:
            m[f"backends.{backend}.kernel_calls"] += span.kernel_n / requests
            m[f"backends.{backend}.kernel_ms"] += per_req(span.kernel_s)

    shares = {
        layer: m["self." + layer] / traced_mean if traced_mean else 0.0 for layer in LAYERS
    }
    return m, {"traced_match_latency_ms": traced_mean, "self_share": shares}
