"""Solver-backend comparison: big-int reference vs vectorized numpy.

The headline measurement of the pluggable-backend refactor: the same
greedy engine run on the same workspaces, once with the
``PythonIntBackend`` (big-int masks, the paper-faithful reference) and
once with the ``numpy`` backend (uint64 block matrices + collapsed
degenerate chains).  Backends must be *bit-identical* — same σ, same
contradictory sets, same reports, same hydration of a stored payload —
and the numpy engine must be at least ``MIN_SPEEDUP``× faster on the
2000+-node shape (the ratio recorded in CHANGES.md).

``test_backend_equivalence`` is CI's smoke step: identity assertions
across 500- and 2400-node skeletons, no timing floor (shared runners
are too noisy for one).  ``test_backend_speedup`` carries the perf
assertion and emits ``BENCH_backends.json`` under ``--json PATH``.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

import pytest

from repro.core.api import match_prepared
from repro.core.backends import get_backend
from repro.core.engine import comp_max_card_engine
from repro.core.prepared import prepare_data_graph
from repro.core.store import PreparedIndexStore
from repro.core.workspace import MatchingWorkspace
from repro.graph.digraph import DiGraph
from repro.similarity.matrix import SimilarityMatrix

#: (data nodes, label alphabet, pattern nodes) — the 500 shape is the
#: quick identity check, the 2400 shape the timed serving-scale one.
SHAPES = ((500, 10, 60), (2400, 16, 150))
XI = 0.75
MIN_SPEEDUP = 2.0


@lru_cache(maxsize=None)
def _workload(data_nodes: int, labels: int, pattern_nodes: int):
    """A skeleton-scale labeled digraph, a pattern, and its similarity.

    Labels are drawn from a small alphabet so label equality yields the
    wide candidate masks a serving workload sees (every same-label data
    node is a candidate) — this is exactly the regime that exercises the
    mask representation: wide rows, long trims, popcount-heavy picks.
    """
    rng = random.Random(2031 + data_nodes)
    data = DiGraph(name=f"skeleton{data_nodes}")
    for i in range(data_nodes):
        data.add_node(i, label=f"L{rng.randrange(labels)}")
    for _ in range(3 * data_nodes):
        a = rng.randrange(data_nodes)
        b = rng.randrange(data_nodes)
        if a != b:
            data.add_edge(a, b)
    nodes = list(data.nodes())
    pattern = data.subgraph(rng.sample(nodes, pattern_nodes), name="pattern")
    by_label: dict[str, list[int]] = {}
    for u in nodes:
        by_label.setdefault(data.label(u), []).append(u)
    mat = SimilarityMatrix()
    for v in pattern.nodes():
        for u in by_label[data.label(v)]:
            mat.set(v, u, 1.0)
    prepared = prepare_data_graph(data)
    return data, pattern, mat, prepared


def _workspace(shape, backend_name: str) -> MatchingWorkspace:
    data, pattern, mat, prepared = _workload(*shape)
    return MatchingWorkspace(
        pattern, data, mat, XI, prepared=prepared, backend=backend_name
    )


def _solve_seconds(workspace: MatchingWorkspace):
    start = time.perf_counter()
    pairs, stats = comp_max_card_engine(workspace, workspace.initial_good())
    return pairs, stats, time.perf_counter() - start


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}")
def test_backend_equivalence(shape, tmp_path):
    """Bit-identical σ/reports and store hydration across backends."""
    data, pattern, mat, prepared = _workload(*shape)

    pairs_py, stats_py, _ = _solve_seconds(_workspace(shape, "python"))
    pairs_np, stats_np, _ = _solve_seconds(_workspace(shape, "numpy"))
    assert pairs_py == pairs_np
    assert stats_py["rounds"] == stats_np["rounds"]
    assert stats_py["pairs_removed"] == stats_np["pairs_removed"]

    # Full reports through the facade, per backend.
    report_py = match_prepared(pattern, prepared, mat, XI, backend="python")
    report_np = match_prepared(pattern, prepared, mat, XI, backend="numpy")
    assert report_py.matched == report_np.matched
    assert report_py.quality == report_np.quality
    assert report_py.result.mapping == report_np.result.mapping

    # One stored index hydrates into *both* backends bit-identically.
    store = PreparedIndexStore(tmp_path)
    store.save(prepared)
    restored = store.load(prepared.fingerprint, data)
    assert restored.from_mask == prepared.from_mask
    numpy_backend = get_backend("numpy")
    rows = restored.backend_rows(numpy_backend)
    rebuilt = [
        int.from_bytes(rows.from_rows[i].tobytes(), "little")
        for i in range(restored.num_nodes())
    ]
    assert rebuilt == prepared.from_mask
    via_restored = match_prepared(pattern, restored, mat, XI, backend="numpy")
    assert via_restored.result.mapping == report_py.result.mapping


@pytest.mark.parametrize("backend", ("python", "numpy"))
def test_engine_backend(benchmark, backend):
    """pytest-benchmark timing of one engine solve per backend (2400 nodes)."""
    workspace = _workspace(SHAPES[1], backend)
    pairs = benchmark.pedantic(
        lambda: comp_max_card_engine(workspace, workspace.initial_good())[0],
        rounds=1,
        iterations=1,
    )
    assert pairs


def test_backend_speedup(bench_json):
    """Numpy engine ≥ 2× faster than the big-int reference at 2400 nodes."""
    shape = SHAPES[1]
    ws_py = _workspace(shape, "python")
    ws_np = _workspace(shape, "numpy")
    ws_np.engine_context(ws_np.backend)  # hydrate rows outside the timing

    pairs_py, _, py_seconds = _solve_seconds(ws_py)
    # Best of two: the numpy side is fast enough for timer/cache jitter.
    np_seconds = float("inf")
    for _ in range(2):
        pairs_np, _, elapsed = _solve_seconds(ws_np)
        np_seconds = min(np_seconds, elapsed)

    assert pairs_py == pairs_np
    speedup = py_seconds / np_seconds if np_seconds > 0 else float("inf")
    print(
        f"\npython={py_seconds:.3f}s numpy={np_seconds:.3f}s "
        f"speedup={speedup:.1f}x on |V2|={shape[0]} |V1|={shape[2]}"
    )
    bench_json(
        "backends",
        {
            "data_nodes": shape[0],
            "pattern_nodes": shape[2],
            "xi": XI,
            "python_seconds": py_seconds,
            "numpy_seconds": np_seconds,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "pairs": len(pairs_py),
        },
    )
    assert speedup >= MIN_SPEEDUP
