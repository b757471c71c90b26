"""Unit tests for the DiGraph container."""

import pytest

from repro.graph.digraph import DiGraph
from repro.utils.errors import GraphError, InputError


class TestConstruction:
    def test_empty_graph(self):
        graph = DiGraph()
        assert graph.num_nodes() == 0
        assert graph.num_edges() == 0
        assert list(graph.nodes()) == []
        assert list(graph.edges()) == []

    def test_add_node_defaults(self):
        graph = DiGraph()
        graph.add_node("v")
        assert "v" in graph
        assert graph.label("v") == "v"  # L(v) = v convention
        assert graph.weight("v") == 1.0

    def test_add_node_with_label_and_weight(self):
        graph = DiGraph()
        graph.add_node("v", label="page", weight=2.5, url="http://x")
        assert graph.label("v") == "page"
        assert graph.weight("v") == 2.5
        assert graph.attrs("v")["url"] == "http://x"

    def test_add_node_twice_updates(self):
        graph = DiGraph()
        graph.add_node("v", label="old")
        graph.add_node("v", label="new", weight=3.0)
        assert graph.label("v") == "new"
        assert graph.weight("v") == 3.0
        assert graph.num_nodes() == 1

    def test_nonpositive_weight_rejected(self):
        graph = DiGraph()
        with pytest.raises(InputError):
            graph.add_node("v", weight=0.0)
        with pytest.raises(InputError):
            graph.add_node("u", weight=-1.0)

    def test_add_edge_creates_endpoints(self):
        graph = DiGraph()
        graph.add_edge("a", "b")
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")
        assert graph.num_nodes() == 2
        assert graph.num_edges() == 1

    def test_duplicate_edge_ignored(self):
        graph = DiGraph()
        graph.add_edge("a", "b")
        graph.add_edge("a", "b")
        assert graph.num_edges() == 1

    def test_self_loop(self):
        graph = DiGraph()
        graph.add_edge("a", "a")
        assert graph.has_self_loop("a")
        assert graph.num_edges() == 1
        assert graph.degree("a") == 2  # counts both directions

    def test_from_edges_with_labels_and_isolated(self):
        graph = DiGraph.from_edges(
            [("a", "b")], nodes=["c"], labels={"a": "X"}, name="g"
        )
        assert graph.num_nodes() == 3
        assert graph.label("a") == "X"
        assert graph.label("c") == "c"
        assert graph.name == "g"


class TestRemoval:
    def test_remove_edge(self):
        graph = DiGraph.from_edges([("a", "b"), ("b", "c")])
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert graph.num_edges() == 1

    def test_remove_missing_edge_raises(self):
        graph = DiGraph.from_edges([("a", "b")])
        with pytest.raises(GraphError):
            graph.remove_edge("b", "a")

    def test_remove_node_cleans_incident_edges(self):
        graph = DiGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        graph.remove_node("b")
        assert "b" not in graph
        assert graph.num_edges() == 1
        assert graph.has_edge("c", "a")

    def test_remove_node_with_self_loop(self):
        graph = DiGraph.from_edges([("a", "a"), ("a", "b")])
        graph.remove_node("a")
        assert graph.num_edges() == 0
        assert graph.num_nodes() == 1

    def test_remove_missing_node_raises(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.remove_node("ghost")

    def test_edge_count_consistent_after_removals(self):
        graph = DiGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")])
        graph.remove_node("c")
        assert graph.num_edges() == 1
        assert graph.num_edges() == sum(1 for _ in graph.edges())


class TestQueries:
    def test_successors_predecessors(self):
        graph = DiGraph.from_edges([("a", "b"), ("a", "c"), ("b", "c")])
        assert graph.successors("a") == {"b", "c"}
        assert graph.predecessors("c") == {"a", "b"}
        assert graph.predecessors("a") == set()

    def test_missing_node_queries_raise(self):
        graph = DiGraph()
        for call in (
            lambda: graph.successors("x"),
            lambda: graph.predecessors("x"),
            lambda: graph.label("x"),
            lambda: graph.weight("x"),
            lambda: graph.attrs("x"),
        ):
            with pytest.raises(GraphError):
                call()

    def test_degrees(self):
        graph = DiGraph.from_edges([("a", "b"), ("c", "b"), ("b", "d")])
        assert graph.in_degree("b") == 2
        assert graph.out_degree("b") == 1
        assert graph.degree("b") == 3

    def test_average_and_max_degree(self):
        graph = DiGraph.from_edges([("a", "b"), ("a", "c")])
        assert graph.average_degree() == pytest.approx(4 / 3)
        assert graph.max_degree() == 2
        assert DiGraph().average_degree() == 0.0
        assert DiGraph().max_degree() == 0

    def test_total_weight(self):
        graph = DiGraph()
        graph.add_node("a", weight=2.0)
        graph.add_node("b", weight=3.0)
        assert graph.total_weight() == pytest.approx(5.0)

    def test_len_iter_contains(self):
        graph = DiGraph.from_edges([("a", "b")])
        assert len(graph) == 2
        assert set(iter(graph)) == {"a", "b"}
        assert "a" in graph and "z" not in graph


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        graph = DiGraph.from_edges([("a", "b")])
        graph.add_node("a", label="L", weight=2.0, k="v")
        clone = graph.copy()
        clone.add_edge("b", "a")
        clone.attrs("a")["k"] = "changed"
        assert not graph.has_edge("b", "a")
        assert graph.attrs("a")["k"] == "v"
        assert clone.label("a") == "L"

    def test_subgraph_induced(self):
        graph = DiGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        sub = graph.subgraph(["a", "c"])
        assert set(sub.nodes()) == {"a", "c"}
        assert sub.has_edge("a", "c")
        assert sub.num_edges() == 1

    def test_subgraph_unknown_node_raises(self):
        graph = DiGraph.from_edges([("a", "b")])
        with pytest.raises(GraphError):
            graph.subgraph(["a", "ghost"])

    def test_subgraph_preserves_metadata(self):
        graph = DiGraph()
        graph.add_node("a", label="LA", weight=4.0, content=["x"])
        sub = graph.subgraph(["a"])
        assert sub.label("a") == "LA"
        assert sub.weight("a") == 4.0
        assert sub.attrs("a")["content"] == ["x"]

    def test_bulk_subgraph_equals_a_node_by_node_build(self):
        """The bulk build yields what add_node/add_edge calls would:
        order, labels, weights, attr copies, edges and the edge count
        (self-loops included), and a fresh, unobserved graph."""
        import random

        rng = random.Random(3)
        graph = DiGraph(name="g")
        for i in range(40):
            graph.add_node(i, label=f"L{i % 5}", weight=1.0 + i % 3, tag=[i])
        for _ in range(120):
            graph.add_edge(rng.randrange(40), rng.randrange(40))
        graph.remove_node(7)
        graph.add_node(7, label="again")  # re-added: moves to the end
        keep = rng.sample(list(graph.nodes()), 25)

        expected = DiGraph(name="slow")
        for node in graph.nodes():
            if node in keep:
                expected.add_node(
                    node, label=graph.label(node), weight=graph.weight(node),
                    **graph.attrs(node),
                )
        for tail, head in graph.edges():
            if tail in keep and head in keep:
                expected.add_edge(tail, head)

        sub = graph.subgraph(iter(keep), name="fast")
        assert sub.name == "fast"
        assert list(sub.nodes()) == list(expected.nodes())
        assert sub == expected
        assert sub.num_edges() == expected.num_edges()
        assert sorted(sub.edges()) == sorted(expected.edges())
        assert all(set(sub.predecessors(n)) == set(expected.predecessors(n))
                   for n in sub.nodes())
        for node in sub.nodes():
            assert sub.attrs(node) == graph.attrs(node)
            assert sub.attrs(node) is not graph.attrs(node)
        assert sub._delta_logs == [] and sub._fingerprint_cache is None

    def test_reversed(self):
        graph = DiGraph.from_edges([("a", "b"), ("b", "c")])
        rev = graph.reversed()
        assert rev.has_edge("b", "a")
        assert rev.has_edge("c", "b")
        assert rev.num_edges() == 2
        assert list(rev.nodes()) == list(graph.nodes())  # order preserved

    def test_equality_structural(self):
        g1 = DiGraph.from_edges([("a", "b")])
        g2 = DiGraph.from_edges([("a", "b")])
        assert g1 == g2
        g2.set_label("a", "other")
        assert g1 != g2

    def test_set_weight_validation(self):
        graph = DiGraph.from_edges([("a", "b")])
        graph.set_weight("a", 5.0)
        assert graph.weight("a") == 5.0
        with pytest.raises(InputError):
            graph.set_weight("a", -2.0)
        with pytest.raises(GraphError):
            graph.set_weight("ghost", 1.0)

    def test_repr_mentions_size(self):
        graph = DiGraph.from_edges([("a", "b")], name="g")
        assert "|V|=2" in repr(graph)
        assert "|E|=1" in repr(graph)
