"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os

import pytest

import loadgen
import metrics
import oracle
import spans
import workloads
from repro.graph.digraph import DiGraph
from repro.similarity.labels import label_equality_matrix


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_next_request():
    clock = FakeClock()
    durations = {0: 5.0, 1: 0.1}

    def issue(i, kind):
        clock.now += durations[i]

    phase = loadgen.open_loop(
        [(0.0, "match"), (1.0, "match")], issue, clock=clock, sleep=clock.sleep
    )
    first, second = phase.samples
    assert first.latency == pytest.approx(5.0)
    # Due at 1.0, sent only at 5.0 when the stalled call returned.
    assert second.send_lag == pytest.approx(4.0)
    assert second.latency == pytest.approx(4.1)


def test_oracle_flags_tampered_mapping_and_misreported_quality():
    pattern, data = DiGraph(), DiGraph()
    for graph, (tail, mid, head) in ((pattern, "abc"), (data, "xyz")):
        for node in (tail, mid, head):
            graph.add_node(node, label="L")
        graph.add_edge(tail, mid)
        graph.add_edge(mid, head)
    mat = label_equality_matrix(pattern, data)
    good = {"a": "x", "b": "y", "c": "z"}
    assert oracle.check_answer(pattern, data, mat, 0.5, good, 1.0).ok
    tampered = {"a": "z", "b": "y", "c": "x"}  # no path z ~> y
    verdict = oracle.check_answer(pattern, data, mat, 0.5, tampered, 1.0)
    assert not verdict.ok and verdict.reason.startswith("edge")
    verdict = oracle.check_answer(pattern, data, mat, 0.5, good, 0.5)
    assert not verdict.ok and "quality" in verdict.reason
    shared = {"a": "x", "b": "x"}  # x lies on no cycle either
    verdict = oracle.check_answer(pattern, data, mat, 0.5, shared, 2 / 3, injective=True)
    assert not verdict.ok


SMALL = [
    workloads.Fig6Synthetic(sizes=(12, 20), copies=2, min_requests=1),
    workloads.CorpusServe(graphs=4, site_size=20, pattern_size=4, requests=40,
                          warmup_requests=10),
    workloads.StreamChurn(sites=3, site_size=30, pattern_size=4, rate=40.0),
]


def _run_once(workload, seed: int, tmp_path, tracer=None):
    inputs = workload.generate(seed, 0.5)
    fingerprints = workload.input_fingerprints(inputs)
    state = workload.setup(inputs, str(tmp_path / f"store-{seed}-{tracer is None}"))
    try:
        workload.warm(state)
        before = workload.counters(state)
        phase = workload.run(state, 0.5, tracer)
        after = workload.counters(state)
    finally:
        workload.close(state)
    return fingerprints, phase, workload.check(state, phase), before, after


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_same_seed_same_inputs_and_answers(workload, tmp_path):
    fp1, phase1, checked1, _, _ = _run_once(workload, 3, tmp_path / "a")
    fp2, phase2, checked2, _, _ = _run_once(workload, 3, tmp_path / "b")
    assert fp1 == fp2
    assert not checked1.failures and not checked2.failures
    assert all(s.ok for s in phase1.samples + phase2.samples)
    assert oracle.digest(checked1.answer_keys) == oracle.digest(checked2.answer_keys)
    fp3, *_ = _run_once(workload, 4, tmp_path / "c")
    assert fp3 == fp1  # the seed draws the requests, not the graphs


def test_self_times_subtract_children_and_kernels():
    def span(name, sid, parent, start, end, kernel=0.0):
        s = spans.Span(name, sid, parent, rid=1)
        s.start, s.end, s.kernel_s = start, end, kernel
        return s

    root = span("bench.request", 1, None, 0.0, 10.0)
    a = span("a", 2, root, 1.0, 4.0, kernel=1.0)
    b = span("b", 3, root, 3.0, 9.0)  # overlaps a on [3, 4]
    c = span("c", 4, b, 6.0, 8.0)
    own = spans.self_times([root, a, b, c])
    assert own[root.sid] == pytest.approx(10.0 - 8.0)  # union [1, 9]
    assert own[a.sid] == pytest.approx(3.0 - 1.0)
    assert own[b.sid] == pytest.approx(6.0 - 2.0)
    assert own[c.sid] == pytest.approx(2.0)
    layers, unattributed = spans.decompose(
        [root, a, b, c], root, lambda s: "x" if s.name == "a" else "y"
    )
    assert layers == {"x": pytest.approx(2.0), "y": pytest.approx(6.0),
                      "kernels": pytest.approx(1.0)}
    assert unattributed == pytest.approx(10.0 - sum(layers.values()))


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_layers_sum_to_traced_latency(workload, tmp_path):
    import instrument

    tracer = spans.Tracer()
    instrument.install(tracer, time_kernels=True)
    try:
        _, phase, checked, before, after = _run_once(workload, 5, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert not checked.failures
    layer, profile = metrics.per_layer(tracer.spans, phase, before, after, 1.0)
    assert set(layer) == {name for name, *_ in metrics.PER_LAYER}
    parts = sum(layer["self." + name] for name in metrics.LAYERS)
    assert parts == pytest.approx(layer["bench.traced_latency_ms"], rel=1e-9)
    assert sum(profile["self_share"].values()) == pytest.approx(1.0)
    assert layer["engine.frames"] > 0 or layer["optimize.components"] > 0


@pytest.mark.parametrize("parent,change,better,expected", [
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [7, 7.5, 7, 7.5, 7, 7.5, 7, 7.5, 7, 7.5],
     "lower", "improved"),
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [10.5] * 10, "lower", "unchanged"),
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [14, 14.5] * 5, "lower", "worse"),
    ([10, 20, 10, 20, 10, 20, 10, 20, 10, 20], [12, 15] * 5, "lower", "unresolved"),
    ([100, 101] * 5, [90, 91] * 5, "higher", "unchanged"),  # within the bound
    ([100, 101] * 5, [130, 131] * 5, "higher", "improved"),
])
def test_compare_verdicts(parent, change, better, expected):
    import compare

    assert compare.verdict(parent, change, better, 0.25) == expected


def test_benchmark_json_matches_the_metric_tables():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == (
        metrics.END_TO_END
    )
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER
    ]
