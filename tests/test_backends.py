"""Solver-backend protocol: registry, equivalence, and plumbing tests.

The contract under test: every backend produces *bit-identical* output —
same σ, same contradictory sets (including order), same reports and
stats, same store payloads — across pick rules, the 1-1 constraint,
capacities, the partitioned/compressed/bounded paths, and degenerate
inputs.  Property-style: random instances drive both backends through
identical call sequences and the results are compared verbatim.
"""

from __future__ import annotations

import random

import pytest

from helpers import make_random_instance
from repro.core.api import match, match_prepared, validate_match_options
from repro.core.backends import (
    BACKEND_NAMES,
    MmapBlockBackend,
    PythonIntBackend,
    SolverBackend,
    get_backend,
)
from repro.core.backends.numpy_block import SMALL_CUTOFF, BlockMatchingList
from repro.core.bounded import comp_max_card_bounded
from repro.core.engine import comp_max_card_engine, greedy_match
from repro.core.optimize import comp_max_card_compressed, comp_max_card_partitioned
from repro.core.prepared import prepare_data_graph
from repro.core.service import MatchingService, MatchSession
from repro.core.sharding import ShardedMatchingService
from repro.core.store import PreparedIndexStore
from repro.core.workspace import MatchingWorkspace
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph
from repro.similarity.labels import label_equality_matrix
from repro.similarity.matrix import SimilarityMatrix
from repro.utils.errors import InputError

# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert get_backend().name == "python"
        assert get_backend(None) is get_backend("python")  # cached singleton

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert get_backend().name == "python"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend().name == "numpy"
        # Explicit arguments beat the environment.
        assert get_backend("python").name == "python"

    def test_instance_passthrough(self):
        backend = PythonIntBackend()
        assert get_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError, match="unknown solver backend"):
            get_backend("bitset9000")
        with pytest.raises(InputError):
            get_backend(42)

    def test_names_and_availability(self):
        assert BACKEND_NAMES == ("python", "numpy", "mmap")
        # numpy is a declared dependency: every accepted name constructs.
        for name in BACKEND_NAMES:
            assert isinstance(get_backend(name), SolverBackend)

    def test_validate_match_options_checks_backend(self):
        with pytest.raises(InputError, match="unknown solver backend"):
            validate_match_options("cardinality", 0.5, backend="nope")

    def test_numpy_backend_constructs(self):
        backend = get_backend("numpy")
        assert isinstance(backend, MmapBlockBackend)
        assert backend.name == "numpy"

    def test_mmap_is_the_numpy_backend(self, monkeypatch):
        assert get_backend("mmap") is get_backend("numpy")
        monkeypatch.setenv("REPRO_BACKEND", "mmap")
        assert get_backend() is get_backend("numpy")

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_numpy_service_maps_store_hits(self, tmp_path, backend):
        """Every backend's store hit is a mapped open."""
        data = random_digraph(40, 120, random.Random(3), name="stored")
        MatchingService(store_dir=str(tmp_path), backend="python").prepared_for(data)
        service = MatchingService(store_dir=str(tmp_path), backend=backend)
        prepared = service.prepared_for(data)
        snapshot = service.stats.snapshot()
        assert snapshot["mapped_bytes"] > 0
        assert snapshot["disk_hits"] == 1 and snapshot["prepares"] == 0
        assert prepared.mapped is not None

    def test_numpy_and_mmap_shard_workers_both_map(self, tmp_path):
        warm = ShardedMatchingService(2, store_dir=str(tmp_path), backend="python")
        graphs: dict[int, DiGraph] = {}
        for seed in range(64):
            graph = random_digraph(30, 90, random.Random(seed), name=f"g{seed}")
            graphs.setdefault(warm.workers.index(warm.worker_for(graph)), graph)
            if len(graphs) == 2:
                break
        assert len(graphs) == 2
        for graph in graphs.values():
            warm.worker_for(graph).prepared_for(graph)
        router = ShardedMatchingService(
            2, store_dir=str(tmp_path), backends=["numpy", "mmap"]
        )
        for shard, graph in graphs.items():
            worker = router.worker_for(graph)
            assert worker is router.workers[shard]
            assert worker.backend is get_backend("numpy")
            worker.prepared_for(graph)
            snapshot = worker.stats.snapshot()
            assert snapshot["disk_hits"] == 1 and snapshot["prepares"] == 0, shard
            assert snapshot["mapped_bytes"] > 0, shard

    def test_workspace_rejects_bad_backend(self):
        graph = DiGraph.from_edges([("a", "b")])
        with pytest.raises(InputError):
            MatchingWorkspace(
                graph, graph, label_equality_matrix(graph, graph), 0.5,
                backend="nope",
            )


# ----------------------------------------------------------------------
# Engine-level equivalence (raw greedy_match / comp_max_card_engine)
# ----------------------------------------------------------------------
def _random_workspaces(seed, n1=7, n2=12, **kwargs):
    graph1, graph2, mat = make_random_instance(seed, n1=n1, n2=n2, **kwargs)
    prepared = prepare_data_graph(graph2)
    return (
        MatchingWorkspace(graph1, graph2, mat, 0.4, prepared=prepared, backend="python"),
        MatchingWorkspace(graph1, graph2, mat, 0.4, prepared=prepared, backend="numpy"),
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("pick", ("similarity", "arbitrary"))
    def test_greedy_match_identical(self, seed, pick):
        ws_py, ws_np = _random_workspaces(seed)
        good = ws_py.initial_good()
        assert greedy_match(ws_py, dict(good), pick=pick) == greedy_match(
            ws_np, dict(good), pick=pick
        )

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("injective", (False, True))
    def test_engine_identical(self, seed, injective):
        ws_py, ws_np = _random_workspaces(seed, n1=8, n2=16)
        pairs_py, stats_py = comp_max_card_engine(
            ws_py, ws_py.initial_good(), injective=injective
        )
        pairs_np, stats_np = comp_max_card_engine(
            ws_np, ws_np.initial_good(), injective=injective
        )
        assert pairs_py == pairs_np
        assert stats_py["rounds"] == stats_np["rounds"]
        assert stats_py["pairs_removed"] == stats_np["pairs_removed"]
        assert stats_py["backend"] == "python"
        assert stats_np["backend"] == "numpy"

    @pytest.mark.parametrize("seed", range(6))
    def test_capacities_identical(self, seed):
        ws_py, ws_np = _random_workspaces(seed, n1=6, n2=10)
        capacities = {u: 1 + u % 3 for u in range(10)}
        result_py = comp_max_card_engine(
            ws_py, ws_py.initial_good(), injective=True, capacities=capacities
        )
        result_np = comp_max_card_engine(
            ws_np, ws_np.initial_good(), injective=True, capacities=capacities
        )
        assert result_py[0] == result_np[0]

    def test_seeded_masks_beyond_candidates(self):
        # Engine callers may seed candidates with no similarity row: the
        # preference scan comes up empty and falls to the lowest bit.
        ws_py, ws_np = _random_workspaces(3, n1=4, n2=8)
        seeded = {0: 0b10110, 1: 0b01001, 3: 0b10000}
        assert greedy_match(ws_py, dict(seeded)) == greedy_match(ws_np, dict(seeded))

    def test_per_call_backend_override(self):
        ws_py, _ = _random_workspaces(5)
        good = ws_py.initial_good()
        assert greedy_match(ws_py, dict(good), backend="numpy") == greedy_match(
            ws_py, dict(good), backend="python"
        )

    def test_wide_masks_cross_word_boundaries(self):
        # >64 and >128 data nodes force multi-word uint64 rows.  The
        # second pattern has more than SMALL_CUTOFF candidate-bearing
        # nodes, so the numpy side starts on the dense block kernels and
        # demotes their partitions into small lists on the way down.
        rng = random.Random(11)
        for n2, n1 in ((150, 12), (300, 70)):
            graph2 = random_digraph(n2, 3 * n2, rng, name="wide")
            graph1 = graph2.subgraph(rng.sample(list(graph2.nodes()), n1), name="p")
            mat = SimilarityMatrix()
            nodes2 = list(graph2.nodes())
            for v in graph1.nodes():
                for u in rng.sample(nodes2, 40):
                    mat.set(v, u, round(rng.uniform(0.4, 1.0), 3))
            prepared = prepare_data_graph(graph2)
            workspaces = {
                name: MatchingWorkspace(
                    graph1, graph2, mat, 0.4, prepared=prepared, backend=name
                )
                for name in ("python", "numpy")
            }
            ws_np = workspaces["numpy"]
            top = ws_np.backend.matching_list(
                ws_np.initial_good(), ws_np.engine_context(ws_np.backend)
            )
            assert isinstance(top, BlockMatchingList) == (n1 > SMALL_CUTOFF)
            for pick in ("similarity", "arbitrary"):
                for injective in (False, True):
                    results = {
                        name: comp_max_card_engine(
                            ws, ws.initial_good(), injective=injective, pick=pick
                        )[0]
                        for name, ws in workspaces.items()
                    }
                    assert results["python"] == results["numpy"], (n1, pick, injective)


# ----------------------------------------------------------------------
# Facade-level equivalence across every solve path
# ----------------------------------------------------------------------
class TestFacadeEquivalence:
    CONFIGS = (
        {},
        {"injective": True},
        {"partitioned": True},
        {"partitioned": True, "injective": True},
        {"metric": "similarity"},
        {"metric": "similarity", "injective": True},
        {"pick": "arbitrary"},
        {"symmetric": True},
    )

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "-".join(sorted(c)) or "plain")
    def test_match_prepared_identical(self, seed, config):
        graph1, graph2, mat = make_random_instance(seed, n1=6, n2=11)
        prepared = prepare_data_graph(graph2)
        report_py = match_prepared(graph1, prepared, mat, 0.4, backend="python", **config)
        for name in BACKEND_NAMES:
            if name == "python":
                continue
            report = match_prepared(graph1, prepared, mat, 0.4, backend=name, **config)
            assert report.matched == report_py.matched, name
            assert report.quality == report_py.quality, name
            assert report.result.mapping == report_py.result.mapping, name
            assert report.result.qual_card == report_py.result.qual_card, name
            assert report.result.qual_sim == report_py.result.qual_sim, name
            # Stats agree on everything but timing and the backend tag.
            for key, value in report_py.result.stats.items():
                if key in ("elapsed_seconds", "backend"):
                    continue
                assert report.result.stats[key] == value, (name, key)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("injective", (False, True))
    def test_compressed_identical(self, seed, injective):
        graph1, graph2, mat = make_random_instance(seed, n1=5, n2=12, density=0.35)
        result_py = comp_max_card_compressed(
            graph1, graph2, mat, 0.4, injective=injective, backend="python"
        )
        result_np = comp_max_card_compressed(
            graph1, graph2, mat, 0.4, injective=injective, backend="numpy"
        )
        assert result_py.mapping == result_np.mapping
        assert result_py.qual_card == result_np.qual_card

    @pytest.mark.parametrize("seed", range(6))
    def test_bounded_identical(self, seed):
        graph1, graph2, mat = make_random_instance(seed, n1=5, n2=10)
        result_py = comp_max_card_bounded(graph1, graph2, mat, 0.4, 2, backend="python")
        result_np = comp_max_card_bounded(graph1, graph2, mat, 0.4, 2, backend="numpy")
        assert result_py.mapping == result_np.mapping

    def test_partitioned_used_mask_interaction(self):
        # Sequential 1-1 components exclude consumed data nodes: the
        # seeded masks diverge from the workspace candidates on purpose.
        graph1, graph2, mat = make_random_instance(9, n1=10, n2=14, density=0.15)
        result_py = comp_max_card_partitioned(
            graph1, graph2, mat, 0.4, injective=True, backend="python"
        )
        result_np = comp_max_card_partitioned(
            graph1, graph2, mat, 0.4, injective=True, backend="numpy"
        )
        assert result_py.mapping == result_np.mapping
        assert result_py.stats["components"] == result_np.stats["components"]


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------
class TestDegenerateEquivalence:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_empty_pattern(self, backend):
        pattern = DiGraph(name="empty")
        data = DiGraph.from_edges([("x", "y")])
        report = match(
            pattern, data, label_equality_matrix(pattern, data), 0.5, backend=backend
        )
        assert report.matched is True  # qual_card of an empty pattern is 1.0
        assert report.result.mapping == {}

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_empty_data_graph(self, backend):
        pattern = DiGraph.from_edges([("a", "b")])
        data = DiGraph(name="void")
        report = match(
            pattern, data, label_equality_matrix(pattern, data), 0.5, backend=backend
        )
        assert report.matched is False
        assert report.result.mapping == {}

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_no_candidates(self, backend):
        pattern = DiGraph.from_edges([("a", "b")], labels={"a": "A", "b": "B"})
        data = DiGraph.from_edges([("x", "y")], labels={"x": "X", "y": "Y"})
        report = match(
            pattern, data, label_equality_matrix(pattern, data), 0.5, backend=backend
        )
        assert report.result.mapping == {}

    def test_self_loop_pattern_identical(self):
        pattern = DiGraph.from_edges([("a", "a"), ("a", "b")])
        data = DiGraph.from_edges([("x", "y"), ("y", "x"), ("x", "z")])
        mat = SimilarityMatrix.from_pairs(
            {("a", "x"): 1.0, ("a", "y"): 1.0, ("b", "z"): 1.0, ("b", "x"): 0.9}
        )
        report_py = match(pattern, data, mat, 0.5, backend="python")
        report_np = match(pattern, data, mat, 0.5, backend="numpy")
        assert report_py.result.mapping == report_np.result.mapping

    def test_single_node_graphs(self):
        pattern = DiGraph.from_edges([], name="one")
        pattern.add_node("a")
        data = DiGraph.from_edges([], name="uno")
        data.add_node("x")
        mat = SimilarityMatrix.from_pairs({("a", "x"): 1.0})
        for backend in BACKEND_NAMES:
            report = match(pattern, data, mat, 0.5, backend=backend)
            assert report.result.mapping == {"a": "x"}


# ----------------------------------------------------------------------
# Store payloads stay backend-neutral
# ----------------------------------------------------------------------
class TestPayloadNeutrality:
    def test_payload_round_trips_into_both_backends(self, tmp_path):
        rng = random.Random(21)
        data = random_digraph(90, 270, rng, name="stored")
        prepared = prepare_data_graph(data)
        payload = prepared.to_payload()
        store = PreparedIndexStore(tmp_path)
        store.save(prepared)
        restored = store.load(prepared.fingerprint, data)

        python_rows = restored.backend_rows(get_backend("python"))
        assert python_rows[0] is restored.from_mask  # shared by reference

        numpy_rows = restored.backend_rows(get_backend("numpy"))
        for i in range(restored.num_nodes()):
            assert (
                int.from_bytes(numpy_rows.from_rows[i].tobytes(), "little")
                == prepared.from_mask[i]
            )
            assert (
                int.from_bytes(numpy_rows.to_rows[i].tobytes(), "little")
                == prepared.to_mask[i]
            )
        # And the payload itself is independent of prior hydrations.
        assert restored.to_payload() == payload

    def test_backend_rows_cached_per_backend(self):
        data = DiGraph.from_edges([("x", "y"), ("y", "z")])
        prepared = prepare_data_graph(data)
        backend = get_backend("numpy")
        assert prepared.backend_rows(backend) is prepared.backend_rows(backend)

    def test_solves_identical_through_restored_payload(self, tmp_path):
        graph1, graph2, mat = make_random_instance(4, n1=6, n2=12)
        prepared = prepare_data_graph(graph2)
        store = PreparedIndexStore(tmp_path)
        store.save(prepared)
        restored = store.load(prepared.fingerprint, graph2)
        baseline = match_prepared(graph1, prepared, mat, 0.4, backend="python")
        for backend in BACKEND_NAMES:
            report = match_prepared(graph1, restored, mat, 0.4, backend=backend)
            assert report.result.mapping == baseline.result.mapping


# ----------------------------------------------------------------------
# Service / session plumbing and stats
# ----------------------------------------------------------------------
class TestServiceBackend:
    def _workload(self):
        rng = random.Random(8)
        data = random_digraph(60, 180, rng, name="served")
        patterns = [
            data.subgraph(rng.sample(list(data.nodes()), 5), name=f"p{i}")
            for i in range(4)
        ]
        return data, patterns

    def test_service_default_backend_recorded(self):
        data, patterns = self._workload()
        service = MatchingService(backend="numpy")
        assert service.backend.name == "numpy"
        assert service.stats.backend == "numpy"
        reports = service.match_many(patterns, data, label_equality_matrix, 0.75)
        assert len(reports) == len(patterns)
        snapshot = service.stats.snapshot()
        assert snapshot["backend"] == "numpy"
        assert snapshot["solved_by"] == {"numpy": len(patterns)}

    def test_per_call_override_audited(self):
        data, patterns = self._workload()
        service = MatchingService(backend="python")
        service.match(patterns[0], data, label_equality_matrix, 0.75)
        service.match(patterns[1], data, label_equality_matrix, 0.75, backend="numpy")
        assert service.stats.solved_by == {"python": 1, "numpy": 1}

    def test_service_results_identical_across_backends(self):
        data, patterns = self._workload()
        by_backend = {}
        for name in BACKEND_NAMES:
            service = MatchingService(backend=name)
            by_backend[name] = service.match_many(
                patterns, data, label_equality_matrix, 0.75
            )
        for report_py, report_np in zip(by_backend["python"], by_backend["numpy"]):
            assert report_py.result.mapping == report_np.result.mapping
            assert report_py.quality == report_np.quality

    def test_session_inherits_service_backend(self):
        data, patterns = self._workload()
        service = MatchingService(backend="numpy")
        session = service.session(data, label_equality_matrix, 0.75)
        assert session.backend.name == "numpy"
        session.match(patterns[0])
        assert service.stats.solved_by == {"numpy": 1}
        override = service.session(data, label_equality_matrix, 0.75, backend="python")
        assert override.backend.name == "python"

    def test_standalone_session_env_default(self, monkeypatch):
        data, patterns = self._workload()
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        session = MatchSession(prepare_data_graph(data), label_equality_matrix, 0.75)
        assert session.backend.name == "numpy"
        report = session.match(patterns[0])
        monkeypatch.setenv("REPRO_BACKEND", "python")
        baseline = MatchSession(
            prepare_data_graph(data), label_equality_matrix, 0.75
        ).match(patterns[0])
        assert report.result.mapping == baseline.result.mapping

    def test_bad_backend_fails_before_prepare(self):
        data, patterns = self._workload()
        service = MatchingService()
        with pytest.raises(InputError, match="unknown solver backend"):
            service.match(
                patterns[0], data, label_equality_matrix, 0.75, backend="typo"
            )
        assert service.stats.cache_misses == 0  # pre-flight: nothing prepared

    def test_workspace_backend_is_backend_instance(self):
        data, _ = self._workload()
        session = MatchSession(
            prepare_data_graph(data), label_equality_matrix, 0.75, backend="numpy"
        )
        pattern = data.subgraph(list(data.nodes())[:3], name="w")
        workspace = session.workspace(pattern)
        assert isinstance(workspace.backend, SolverBackend)
        assert workspace.backend.name == "numpy"
