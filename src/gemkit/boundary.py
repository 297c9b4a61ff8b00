"""Boundary graph construction and boundary residue counts.

The boundary graph of a member of G_d lives on the boundary vertices;
two of them are joined by a color-j edge exactly when the parent joins
them by a path alternating colors j and d: an edge capping along j,
paired here for the boundary graph and for capping alike.  Each
component is a regular d-colored graph encoding one boundary component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (NO_EDGE, ColoredGraph, _from_maps, _renumbered,
                   _residues_by_mask, residues)
from .errors import (InternalInconsistencyError, InvalidColorError,
                     NoBoundaryError)


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
    index = {v: i for i, v in enumerate(boundary)}
    maps = [[NO_EDGE] * len(boundary) for _ in range(d)]
    for j in range(d):
        # the capping edges along j join the boundary vertices j-adjacent here
        for u, v in _capping_edges(graph, j):
            maps[j][index[u]], maps[j][index[v]] = index[v], index[u]
    bgraph = _from_maps(d - 1, maps, require_connected=False)
    return BoundaryGraph(bgraph, boundary, residues(bgraph, range(d)).labels)


def _capping_edges(graph: ColoredGraph, color: int
                   ) -> tuple[tuple[int, int], ...]:
    """The edges capping the graph along ``color``, after checking the
    color and then that the graph has a boundary: the two boundary
    vertices of each {color, d}-residue that holds any, listed by the
    residue's least vertex.  Each such residue is a path whose ends are
    its boundary vertices, so a residue holding other than two is an
    inconsistency, and every boundary vertex is capped."""
    d = graph.dimension
    if not 0 <= color < d:
        raise InvalidColorError(f"singular color must lie in 0..{d - 1}")
    if graph.is_regular:
        raise NoBoundaryError("graph is regular: empty boundary")
    labels = _residues_by_mask(graph, 1 << color | 1 << d).labels
    ends = {}
    for v in graph.boundary_vertices():
        ends.setdefault(labels[v], []).append(v)
    for held in ends.values():
        if len(held) != 2:
            raise InternalInconsistencyError(
                f"the {{{color},{d}}}-residue of vertex {held[0]} holds "
                f"{len(held)} boundary vertices")
    return tuple(tuple(ends[k]) for k in sorted(ends))


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

