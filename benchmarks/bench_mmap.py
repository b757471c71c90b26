"""Mapped store hydration's headline claims, measured and asserted.

Every store hit maps the file (``core/store.py``'s ``map_payload``), and
the ``"numpy"`` backend (``"mmap"`` is its alias; see
``core/backends/mmap_block.py``) views the mapped mask rows in place.
Three claims ride on that, and this module is their evidence.  Each
compares two hydrations that both solve on the numpy kernels:

* **decoded** — the benchmark decodes the stored file itself, the way a
  decoding store tier would (``bench_utils.decode_stored_index``: read +
  sha256 + payload parse + big-int decode), and a per-call
  ``backend="numpy"`` solve packs the uint64 rows from the big ints;
* **mapped** — a ``numpy`` service maps the file (a stat, a sidecar
  check, and an ``np.frombuffer`` view).

1. **O(1) cold start** — ``test_mmap_cold_start`` hydrates a warm-store
   index of a 2400-node skeleton to first-match readiness under a fresh
   service per hydration.  The decoded/mapped ratio must be
   ≥ ``MIN_COLD_SPEEDUP`` (5×).
2. **Bounded memory** — ``test_mmap_rss_bounded`` serves a corpus of
   prepared graphs *larger than the service LRU* from one warm store,
   once per hydration, in a fresh **subprocess** each (``ru_maxrss`` is
   a process-lifetime high-water mark, so honest comparison requires
   process isolation); the decoded child keeps its own ``RSS_LRU``-entry
   LRU of decoded indexes.  The mapped child's peak RSS must come in
   under the decoded child's: decoded payloads and packed rows are
   anonymous memory, mapped rows are evictable page cache.
3. **Bit-identical answers** — every hydration path above is checked
   against the ``python`` reference mapping; the CI smoke
   (``test_mmap_equivalence``) asserts σ/quality/report identity across
   every backend name on the facade.

``--json PATH`` writes the measurements to ``BENCH_mmap.json`` (with
``peak_rss_kb`` stamped by ``bench_utils``, like every artifact).
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from bench_utils import decode_stored_index
from repro.core.api import match_prepared
from repro.core.backends import BACKEND_NAMES, get_backend
from repro.core.prepared import PreparedDataGraph, prepare_data_graph
from repro.core.service import MatchingService
from repro.core.store import PreparedIndexStore
from repro.graph.digraph import DiGraph
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.io import dump_json
from repro.similarity.matrix import SimilarityMatrix

XI = 0.75
MIN_COLD_SPEEDUP = 5.0
#: Cold-start shape: |V2| ≥ 2000 per the acceptance bar.
COLD_NODES = 2400
#: RSS corpus: more graphs than the serving LRU holds (max_prepared=2).
#: The mask section grows ~n²/4 bytes, so 4000-node graphs give ~5 MB
#: indexes — decoded hydration has to dominate the interpreter baseline
#: for the RSS comparison to measure the backend, not the noise.
RSS_GRAPHS = 6
RSS_NODES = 4000
RSS_LRU = 2
RSS_ROUNDS = 2

#: The two hydrations compared; both solve with ``backend="numpy"``.
HYDRATIONS = ("decoded", "mapped")

#: Both measurements land in ONE ``BENCH_mmap.json``: each test merges
#: its section here and rewrites the artifact (tests run in file order,
#: so a full run's final file carries every section).
_ARTIFACT: dict = {}


def _emit(bench_json, section: str, payload: dict) -> None:
    _ARTIFACT[section] = payload
    bench_json("mmap", dict(_ARTIFACT))


def _skeleton(seed: int, nodes: int, labels: int = 12) -> DiGraph:
    rng = random.Random(seed)
    graph = DiGraph(name=f"skeleton{seed}")
    for i in range(nodes):
        graph.add_node(i, label=f"L{rng.randrange(labels)}")
    for _ in range(3 * nodes):
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        if a != b:
            graph.add_edge(a, b)
    return graph


def _pattern_and_matrix(graph: DiGraph, seed: int, pattern_nodes: int):
    """A small pattern + label-equality similarity — the solve must stay
    cheap so hydration, not solving, is what the measurements compare."""
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    pattern = graph.subgraph(rng.sample(nodes, pattern_nodes), name="pattern")
    by_label: dict[str, list] = {}
    for u in nodes:
        by_label.setdefault(graph.label(u), []).append(u)
    mat = SimilarityMatrix()
    for v in pattern.nodes():
        for u in by_label[graph.label(v)]:
            mat.set(v, u, 1.0)
    return pattern, mat


def _decoded(store_dir: str, graph: DiGraph) -> PreparedDataGraph:
    """``graph``'s stored index decoded in full (fingerprint included, as
    a service lookup computes it)."""
    return decode_stored_index(store_dir, graph, graph_fingerprint(graph))


def _hydrate_seconds(store_dir: str, hydration: str, graph: DiGraph) -> float:
    """Seconds from a cold start to first-match-ready numpy rows, warm
    store."""
    numpy_backend = get_backend("numpy")
    if hydration == "decoded":
        start = time.perf_counter()
        _decoded(store_dir, graph).backend_rows(numpy_backend)
        return time.perf_counter() - start
    service = MatchingService(max_prepared=RSS_LRU, store_dir=store_dir, backend="numpy")
    start = time.perf_counter()
    prepared = service.prepared_for(graph)
    prepared.backend_rows(numpy_backend)  # what the first solve needs
    elapsed = time.perf_counter() - start
    snapshot = service.stats.snapshot()
    assert snapshot["prepares"] == 0, "store was not warm"
    assert snapshot["disk_hits"] == 1 and snapshot["mapped_bytes"] > 0
    return elapsed


# ----------------------------------------------------------------------
# CI smoke: σ/report identity across every backend, mapped path included
# ----------------------------------------------------------------------
def test_mmap_equivalence(tmp_path):
    graph = _skeleton(11, 500)
    pattern, mat = _pattern_and_matrix(graph, 12, 40)
    prepared = prepare_data_graph(graph)
    store = PreparedIndexStore(tmp_path)
    store.save(prepared)

    # Facade identity on the in-memory index, all backends.
    reports = {
        name: match_prepared(pattern, prepared, mat, XI, backend=name)
        for name in BACKEND_NAMES
    }
    reference = reports["python"]
    for name, report in reports.items():
        assert report.matched == reference.matched, name
        assert report.quality == reference.quality, name
        assert report.result.mapping == reference.result.mapping, name

    # The *mapped* hydration path answers identically too.
    backend = get_backend("numpy")
    region = store.payload_region(prepared.fingerprint, verify="full")
    assert region is not None
    mapped = PreparedDataGraph.from_mapped(
        graph, backend.open_payload(region), fingerprint=prepared.fingerprint
    )
    assert list(mapped.from_mask) == list(prepared.from_mask)
    assert mapped.cycle_mask == prepared.cycle_mask
    via_mapped = match_prepared(pattern, mapped, mat, XI, backend="numpy")
    assert via_mapped.result.mapping == reference.result.mapping
    assert via_mapped.quality == reference.quality


# ----------------------------------------------------------------------
# Claim 1+3: O(1) cold start from the warm store, bit-identical
# ----------------------------------------------------------------------
def test_mmap_cold_start(tmp_path, bench_json):
    graph = _skeleton(21, COLD_NODES)
    pattern, mat = _pattern_and_matrix(graph, 22, 30)
    store = PreparedIndexStore(tmp_path)
    prepared = prepare_data_graph(graph)
    store.save(prepared)
    # The warm phase runs one full verification, leaving the sidecar a
    # restarted fleet's mapped opens key off (exactly what
    # ``index warm --backend numpy`` does).
    assert store.payload_region(prepared.fingerprint, verify="full") is not None

    seconds = {}
    for hydration in HYDRATIONS:
        best = float("inf")
        for _ in range(3):
            gc.collect()
            best = min(best, _hydrate_seconds(str(tmp_path), hydration, graph))
        seconds[hydration] = best
    speedup = (
        seconds["decoded"] / seconds["mapped"]
        if seconds["mapped"] > 0
        else float("inf")
    )
    print(
        f"\ncold hydration: decoded={seconds['decoded'] * 1e3:.2f}ms "
        f"mapped={seconds['mapped'] * 1e3:.2f}ms speedup={speedup:.1f}x "
        f"on |V2|={COLD_NODES}"
    )

    # Bit-identity of the first match served from each hydration.
    mappings = {}
    for name, service_backend in {"python": "python", "mapped": "numpy"}.items():
        service = MatchingService(
            max_prepared=RSS_LRU, store_dir=str(tmp_path), backend=service_backend
        )
        report = service.match(pattern, graph, mat, XI, backend=service_backend)
        mappings[name] = (report.matched, report.quality, report.result.mapping)
    report = match_prepared(
        pattern, _decoded(str(tmp_path), graph), mat, XI, backend="numpy"
    )
    mappings["decoded"] = (report.matched, report.quality, report.result.mapping)
    assert mappings["decoded"] == mappings["python"]
    assert mappings["mapped"] == mappings["python"]

    _emit(
        bench_json,
        "cold_start",
        {
            "data_nodes": COLD_NODES,
            "pattern_nodes": 30,
            "xi": XI,
            "decoded_seconds": seconds["decoded"],
            "mapped_seconds": seconds["mapped"],
            "speedup": speedup,
            "min_speedup": MIN_COLD_SPEEDUP,
            "identical_reports": True,
        },
    )
    assert speedup >= MIN_COLD_SPEEDUP


# ----------------------------------------------------------------------
# Claim 2: peak RSS serving a corpus larger than the LRU
# ----------------------------------------------------------------------
_CHILD = """\
import json, resource, sys
from collections import OrderedDict
from repro.core.api import match_prepared
from repro.core.service import MatchingService
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.io import load_json
from repro.similarity.labels import label_equality_matrix

config = json.loads(sys.argv[1])
if config["hydration"] == "mapped":
    service = MatchingService(
        max_prepared=config["lru"], store_dir=config["store_dir"], backend="numpy"
    )

    def solve(pattern, data, mat):
        return service.match(pattern, data, mat, config["xi"], backend="numpy")

    def stats():
        return service.stats.snapshot()
else:
    from bench_utils import decode_stored_index

    decoded = OrderedDict()  # fingerprint -> index, the last config["lru"] used
    loads = 0

    def solve(pattern, data, mat):
        global loads
        fingerprint = graph_fingerprint(data)
        prepared = decoded.pop(fingerprint, None)
        if prepared is None:
            prepared = decode_stored_index(config["store_dir"], data, fingerprint)
            loads += 1
        decoded[fingerprint] = prepared
        while len(decoded) > config["lru"]:
            decoded.popitem(last=False)
        return match_prepared(pattern, prepared, mat, config["xi"], backend="numpy")

    def stats():
        return {"loads": loads}
results = []
for _ in range(config["rounds"]):
    for data_path, pattern_path in config["corpus"]:
        data = load_json(data_path)
        pattern = load_json(pattern_path)
        mat = label_equality_matrix(pattern, data)
        report = solve(pattern, data, mat)
        results.append(
            [report.matched, report.quality, sorted(map(str, report.result.mapping.items()))]
        )
print(json.dumps({
    "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    "stats": stats(),
    "results": results,
}))
"""


def _serve_corpus_in_child(hydration: str, config: dict) -> dict:
    env = dict(os.environ)
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        (str(here.parent / "src"), str(here), env.get("PYTHONPATH", ""))
    )
    payload = json.dumps(dict(config, hydration=hydration))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, payload],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_mmap_rss_bounded(tmp_path, bench_json):
    store_dir = tmp_path / "store"
    store = PreparedIndexStore(store_dir)
    corpus = []
    for i in range(RSS_GRAPHS):
        graph = _skeleton(100 + i, RSS_NODES)
        pattern, _ = _pattern_and_matrix(graph, 200 + i, 20)
        prepared = prepare_data_graph(graph)
        store.save(prepared)
        # Seed the verification sidecar, as a warmed fleet would.
        assert store.payload_region(prepared.fingerprint, verify="full") is not None
        data_path = tmp_path / f"data{i}.json"
        pattern_path = tmp_path / f"pattern{i}.json"
        dump_json(graph, str(data_path))
        dump_json(pattern, str(pattern_path))
        corpus.append([str(data_path), str(pattern_path)])

    config = {
        "store_dir": str(store_dir),
        "corpus": corpus,
        "lru": RSS_LRU,
        "rounds": RSS_ROUNDS,
        "xi": XI,
    }
    children = {
        hydration: _serve_corpus_in_child(hydration, config)
        for hydration in HYDRATIONS
    }

    # Every round after the first re-loads evicted entries: the corpus
    # genuinely exceeds the LRU.
    reloads = RSS_GRAPHS + (RSS_GRAPHS - RSS_LRU)
    assert children["decoded"]["stats"]["loads"] >= reloads
    stats = children["mapped"]["stats"]
    assert stats["prepares"] == 0, stats  # the store was warm
    assert stats["disk_hits"] >= reloads
    assert stats["solved_by"] == {"numpy": len(children["mapped"]["results"])}
    assert stats["mapped_bytes"] > 0
    # Identical answers from both children, pattern by pattern.
    assert children["mapped"]["results"] == children["decoded"]["results"]

    peaks = {name: child["peak_rss_kb"] for name, child in children.items()}
    print(
        f"\npeak RSS over {RSS_GRAPHS}x{RSS_NODES}-node corpus (LRU={RSS_LRU}): "
        f"decoded={peaks['decoded']}KiB mapped={peaks['mapped']}KiB "
        f"saved={peaks['decoded'] - peaks['mapped']}KiB"
    )
    _emit(
        bench_json,
        "rss",
        {
            "corpus_graphs": RSS_GRAPHS,
            "graph_nodes": RSS_NODES,
            "lru_slots": RSS_LRU,
            "rounds": RSS_ROUNDS,
            "decoded_peak_rss_kb": peaks["decoded"],
            "mapped_peak_rss_kb": peaks["mapped"],
            "decoded_stats": children["decoded"]["stats"],
            "mapped_stats": children["mapped"]["stats"],
            "identical_results": True,
        },
    )
    assert peaks["mapped"] < peaks["decoded"], peaks
