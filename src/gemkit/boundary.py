"""Boundary graph construction and boundary residue counts.

The boundary graph of a member of G_d lives on the boundary vertices;
two of them are joined by a color-j edge exactly when the parent joins
them by a path alternating colors j and d.  Each component is a regular
d-colored graph encoding one boundary component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import NO_EDGE, ColoredGraph, _from_maps, _renumbered, residues
from .errors import InternalInconsistencyError, NoBoundaryError


@dataclass(frozen=True)
class BoundaryGraph:
    """d-colored graph on the parent's boundary vertices.

    ``parent_vertex_map[i]`` is the parent vertex behind boundary vertex
    ``i``; ``component_map[i]`` assigns it to a boundary component, and
    components are indexed by least boundary vertex.
    """

    graph: ColoredGraph
    parent_vertex_map: tuple[int, ...]
    component_map: tuple[int, ...]

    @property
    def num_components(self) -> int:
        return max(self.component_map) + 1 if self.component_map else 0

    def component_subgraph(self, index: int) -> ColoredGraph:
        """One boundary component as a standalone connected colored graph."""
        verts = [i for i, k in enumerate(self.component_map) if k == index]
        if not verts:
            raise ValueError(f"no boundary component {index}")
        return _from_maps(self.graph.dimension,
                          _renumbered(self.graph.color_maps, verts))


def boundary_graph(graph: ColoredGraph) -> BoundaryGraph:
    """The boundary graph, built once per graph from the {j, d}-residue
    labels and kept in the graph's memo under a key no color bitmask
    takes."""
    bg = graph._memo.get("boundary")
    if bg is None:
        bg = graph._memo["boundary"] = _build_boundary_graph(graph)
    return bg


def _build_boundary_graph(graph: ColoredGraph) -> BoundaryGraph:
    d = graph.dimension
    boundary = graph.boundary_vertices()
    if not boundary:
        raise NoBoundaryError("graph is regular: empty boundary")
    maps = [[NO_EDGE] * len(boundary) for _ in range(d)]
    for j in range(d):
        # a boundary vertex ends the {j, d}-path through it, so the
        # boundary vertices of each {j, d}-residue come in one pair
        labels = residues(graph, {j, d}).labels
        first = {}
        for i, v in enumerate(boundary):
            k = first.pop(labels[v], None)
            if k is None:
                first[labels[v]] = i
            else:
                maps[j][k], maps[j][i] = i, k
        if first:
            raise InternalInconsistencyError(
                f"{len(first)} {{{j},{d}}}-residue(s) hold one boundary vertex")
    bgraph = _from_maps(d - 1, maps, require_connected=False)
    return BoundaryGraph(bgraph, boundary, residues(bgraph, range(d)).labels)


def boundary_g(graph: ColoredGraph, colors: Iterable[int]) -> int:
    """Number of components of the boundary graph restricted to a color
    subset of 0..d-1: the boundary graph has dimension d - 1, so
    ``residues`` refuses any other color."""
    return residues(boundary_graph(graph).graph, colors).count


def boundary_component_count(graph: ColoredGraph) -> int:
    """Number of boundary components; 0 for regular graphs."""
    if graph.is_regular:
        return 0
    return boundary_graph(graph).num_components

