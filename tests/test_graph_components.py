"""Tests for weakly connected components."""

import random

import networkx as nx

from repro.graph.components import is_weakly_connected, weakly_connected_components
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph
from repro.graph.io import to_networkx


def as_sets(graph):
    return {frozenset(c) for c in weakly_connected_components(graph)}


def test_single_component_ignores_direction():
    graph = DiGraph.from_edges([("a", "b"), ("c", "b")])
    assert as_sets(graph) == {frozenset({"a", "b", "c"})}
    assert is_weakly_connected(graph)


def test_disconnected_components():
    graph = DiGraph.from_edges([("a", "b"), ("x", "y")], nodes=["lonely"])
    assert as_sets(graph) == {
        frozenset({"a", "b"}),
        frozenset({"x", "y"}),
        frozenset({"lonely"}),
    }
    assert not is_weakly_connected(graph)


def test_empty_graph_is_connected():
    assert is_weakly_connected(DiGraph())
    assert weakly_connected_components(DiGraph()) == []


def test_matches_networkx_on_random_graphs():
    for seed in range(6):
        graph = gnp_digraph(30, 0.03, random.Random(seed))
        theirs = {frozenset(c) for c in nx.weakly_connected_components(to_networkx(graph))}
        assert as_sets(graph) == theirs


def test_appendix_b_partitioning_example():
    """Figure 10(a): removing node C leaves three disconnected components."""
    graph = DiGraph.from_edges(
        [
            ("A", "B"),
            ("A", "C"),
            ("C", "D"),
            ("C", "E"),
            ("D", "F"),
            ("E", "G"),
            ("F", "G"),
        ]
    )
    graph.remove_node("C")
    components = as_sets(graph)
    assert frozenset({"A", "B"}) in components
    # D-F-G-E remain weakly connected through F->G and E->G.
    assert frozenset({"D", "E", "F", "G"}) in components


def test_roots_restrict_the_walk_to_their_components():
    graph = DiGraph.from_edges(
        [("a", "b"), ("c", "b"), ("x", "y"), ("p", "q")], nodes=["lonely"]
    )
    found = weakly_connected_components(graph, roots=["b", "y", "a", "lonely"])
    # One entry per component, in first-seen root order.
    assert [set(c) for c in found] == [{"a", "b", "c"}, {"x", "y"}, {"lonely"}]
    assert weakly_connected_components(graph, roots=[]) == []
