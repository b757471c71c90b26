"""Weakly connected components of a directed graph.

The Appendix-B "Partitioning graph G1" optimization removes candidate-free
pattern nodes and then solves each *pairwise disconnected component* of the
remainder independently (Proposition 1 of the paper).  Pairwise
disconnectedness ignores edge direction, so the relevant notion is weak
connectivity.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable

from repro.graph.digraph import DiGraph

__all__ = ["weakly_connected_components", "is_weakly_connected"]

Node = Hashable


def weakly_connected_components(
    graph: DiGraph, roots: Iterable[Node] | None = None
) -> list[list[Node]]:
    """Partition the nodes into weakly connected components.

    Components are returned in first-seen order; within a component, nodes
    appear in BFS order from the first-seen member.  ``roots`` (nodes of
    ``graph``) restricts the walk to the components containing them, each
    returned once, so the cost is their total size rather than the graph's.
    """
    seen: set[Node] = set()
    components: list[list[Node]] = []
    for root in graph.nodes() if roots is None else roots:
        if root in seen:
            continue
        component: list[Node] = []
        queue: deque[Node] = deque([root])
        seen.add(root)
        while queue:
            node = queue.popleft()
            component.append(node)
            for other in graph.successors(node) | graph.predecessors(node):
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        components.append(component)
    return components


def is_weakly_connected(graph: DiGraph) -> bool:
    """True when the graph has at most one weakly connected component."""
    return len(weakly_connected_components(graph)) <= 1
