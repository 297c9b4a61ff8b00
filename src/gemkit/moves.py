"""Gem rewriting: dipole detection, cancellation, insertion, the
boundary-capping regularization, and greedy full contraction.

All rewrites return new graphs; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterator, Optional

from .boundary import _capping_edges
from .core import NO_EDGE, ColoredGraph, _from_maps, _renumbered, _root, _without
from .errors import (
    DisconnectedError,
    InternalInconsistencyError,
    NoBoundaryError,
    NoSuchEdgeError,
    NotADipoleError,
    NotRegularError,
)
from .invariants import euler_characteristic, genus_table


@dataclass(frozen=True, order=True)
class DipoleSite:
    """An edge whose endpoints lie in different components once its color
    is removed."""

    color: int
    vertices: tuple[int, int]


@dataclass(frozen=True)
class RegularizationRecord:
    """What regularize did: the singular color, the capping edges added
    before the swap, and the color transposition."""

    singular_color_choice: int
    added_edges: tuple[tuple[int, int], ...]
    color_swap: tuple[int, int]


def find_1_dipoles(graph: ColoredGraph) -> list[DipoleSite]:
    """All 1-dipoles, ordered by color then least vertex; on a gem with
    boundary, edges whose cancellation disconnects it are left out."""
    return list(_sites(graph))


def _sites(graph: ColoredGraph) -> Iterator[DipoleSite]:
    for j, row in enumerate(graph.color_maps):
        labels = _without(graph, j).labels
        for u, v in enumerate(row):
            if v > u and _is_1_dipole(graph, labels, u, v):
                yield DipoleSite(j, (u, v))


def _is_1_dipole(graph: ColoredGraph, labels, x: int, y: int) -> bool:
    """Whether the edge x-y is a 1-dipole, given the residue labels of the
    colors other than its own: its ends lie in different residues, and
    welding them leaves one component, as it always does on a regular gem
    (every color pairs all vertices of a residue, so no vertex cuts it)."""
    return labels[x] != labels[y] and (graph.is_regular
                                       or _stays_connected(graph, x, y))


def _stays_connected(graph: ColoredGraph, x: int, y: int) -> bool:
    """Whether welding x and y leaves one component, found by a search of
    the graph without the pair, along the welds, that stops once it has
    met every other neighbour of the pair; no graph is built.  Every
    component left holds such a neighbour."""
    maps = graph.color_maps
    ends = {row[v] for row in maps for v in (x, y)} - {x, y, NO_EDGE}
    if not ends:
        return False  # nothing is left
    seen = [False] * graph.num_vertices
    seen[x] = seen[y] = True
    start = min(ends)
    seen[start] = True
    stack, left = [start], len(ends) - 1
    while left and stack:
        u = stack.pop()
        for row in maps:
            w = row[u]
            if w == x:  # the weld to y's mate of this color, if any
                w = row[y]
            elif w == y:
                w = row[x]
            if w != NO_EDGE and not seen[w]:
                seen[w] = True
                left -= w in ends
                stack.append(w)
    return not left


def cancel_1_dipole(graph: ColoredGraph, site: DipoleSite) -> ColoredGraph:
    """Remove the dipole pair and weld the hanging same-colored edges."""
    (x, y), c = site.vertices, site.color
    if graph.mate(x, c) != y:
        raise NoSuchEdgeError(f"no color-{c} edge {site.vertices}")
    if not _is_1_dipole(graph, _without(graph, c).labels, x, y):
        raise NotADipoleError(f"color-{c} edge {site.vertices} is not a "
                              "1-dipole, or cancelling it disconnects the gem")
    return _weld(graph, x, y)


def _weld(graph: ColoredGraph, x: int, y: int) -> ColoredGraph:
    """The graph without x and y, welded as ``_weld_maps`` welds."""
    maps = [list(row) for row in graph.color_maps]
    _weld_maps(maps, x, y)
    kept = [v for v in range(graph.num_vertices) if v != x and v != y]
    return _from_maps(graph.dimension, _renumbered(maps, kept))


def _weld_maps(maps: list[list[int]], x: int, y: int) -> None:
    """Weld x and y in place: for every color whose mates at x and y are
    not each other, join those mates.  A color at only one of them loses
    its edge, and the far end becomes a boundary vertex.  The rows of x
    and y are left as they are."""
    for row in maps:
        a, b = row[x], row[y]
        if a != y:
            if a != NO_EDGE:
                row[a] = b
            if b != NO_EDGE:
                row[b] = a


def insert_1_dipole(graph: ColoredGraph, edge: tuple[int, int], color: int
                    ) -> tuple[ColoredGraph, DipoleSite, bool]:
    """Split along an existing edge of the given color: two new vertices
    joined by that color, spliced into the first endpoint's other edges
    so that cancelling the new pair restores the input exactly.

    A color missing at the first endpoint (only the final one can be)
    stays missing at both new vertices, so splitting at a boundary vertex
    grows the boundary by one pair.  Returns the new graph, the created
    site, and whether that site is a 1-dipole there, which it always is.

    The result is built once from the split maps, with no map check and
    no traversal, and ``is_regular`` and ``is_bipartite`` carry over: the
    split keeps every map an involution without fixed points, gives x and
    y exactly the colors u has, and turns each edge u-a of another color
    into the path u-x-y-a, so it keeps each component and the parity of
    every cycle.  Two inputs lie outside that argument and go through the
    checked build, which raises DisconnectedError: a graph of more than
    one component, built without the connectivity check (a boundary
    graph), and a split at d = 1 that leaves x no edge but the new one.
    """
    u, v = edge
    if graph.mate(u, color) != v:
        raise NoSuchEdgeError(f"no color-{color} edge ({u},{v})")
    n = graph.num_vertices
    x, y = n, n + 1
    maps, spliced = [], False
    for c, row in enumerate(graph.color_maps):
        a = row[u]
        if c == color:
            maps.append(row + (y, x))
        elif a == NO_EDGE:
            maps.append(row + (NO_EDGE, NO_EDGE))
        else:  # u-a becomes u-x and y-a
            row = [*row, u, a]
            row[u], row[a] = x, y
            maps.append(tuple(row))
            spliced = True
    # x meets u along every other color u has, so {x, u} is a whole residue
    # of the colors other than ``color`` and y lies outside it; welding x
    # and y gives back the connected input, so the site is a 1-dipole
    site = DipoleSite(color, (x, y))
    if not spliced or graph._memo.get("components", 1) != 1:
        return _from_maps(graph.dimension, maps), site, True
    return ColoredGraph(graph.dimension, n + 2, tuple(maps), graph.is_regular,
                        graph.is_bipartite), site, True


def cap_boundary(graph: ColoredGraph, color: int) -> tuple[ColoredGraph, tuple]:
    """Join the two boundary ends of every maximal {color, d}-path by a new
    final-color edge.  Returns the capped (regular) graph, with an empty
    memo, and the added edges, listed by the least vertex of the path they
    close; colors are not swapped."""
    d = graph.dimension
    final, added = _capped_final(graph, color)
    return _from_maps(d, graph.color_maps[:d] + (final,)), added


def _capped_final(graph: ColoredGraph, color: int
                  ) -> tuple[list[int], tuple[tuple[int, int], ...]]:
    """The final-color map of the graph capped along ``color`` and the
    added edges of ``_capping_edges``."""
    added = _capping_edges(graph, color)
    final = list(graph.color_maps[graph.dimension])
    for u, v in added:
        final[u], final[v] = v, u
    return final, added


def swap_colors(graph: ColoredGraph, a: int, b: int) -> ColoredGraph:
    maps = list(graph.color_maps)
    maps[a], maps[b] = maps[b], maps[a]
    return _from_maps(graph.dimension, maps)


def regularize(graph: ColoredGraph, singular_color: int
               ) -> tuple[ColoredGraph, RegularizationRecord]:
    """Cap the boundary and make the graph regular: every maximal
    {c, d}-path of the singular color c is capped and colors c and d are
    then transposed, so the result has d as its only singular color.

    The result is built once, from the input's checked maps and the new
    capped final-color map swapped into place, which alone is checked;
    it is ``swap_colors(cap_boundary(graph, c)[0], c, d)``, with no capped
    graph built.  Each added edge joins the ends of an odd-length path:
    connectivity and bipartiteness carry over."""
    if graph.is_regular:
        raise NoBoundaryError("graph is already regular")
    final, added = _capped_final(graph, singular_color)
    if any(w < 0 or w == v or final[w] != v for v, w in enumerate(final)):
        raise InternalInconsistencyError("capping gave no perfect matching")
    d, maps = graph.dimension, list(graph.color_maps)
    maps[singular_color], maps[d] = tuple(final), maps[singular_color]
    return ColoredGraph(d, graph.num_vertices, tuple(maps), True,
                        graph.is_bipartite), RegularizationRecord(
        singular_color_choice=singular_color, added_edges=added,
        color_swap=(singular_color, d))


def full_contraction(graph: ColoredGraph, verify: bool = True) -> ColoredGraph:
    """Greedily cancel 1-dipoles, non-final colors first, until none are
    left: each step cancels the first site ``find_1_dipoles`` would list.

    The steps run in one pass over one copy of the color maps, on the
    input's vertex numbers; the result is built once, at the end.  For
    each color j the pass keeps the input's residue labels of the colors
    other than j in a union-find, and stays exact because cancelling a
    site x-y of color c changes these residues in one way only.  For
    j != c, x and y lie in one residue of the colors other than j, where
    they are a 1-dipole, and a regular residue stays connected when one
    is cancelled: every two mates of x lie on a bicolored cycle through
    x, so the residue without x is connected, and likewise without y,
    and the welds join the two.  Every other such residue is untouched.
    For j = c, the same argument joins the residues of x and y into one,
    so their labels are united.  Labels only merge, so an edge that is
    not a site never becomes one, and only the welded edges are new
    candidates.  The pass keeps each color's candidates in a heap by least
    vertex and drops those that died or merged when they come to the top.
    Removing two vertices keeps the order of the rest, so the first site
    by (color, least vertex) is the one the step-by-step search finds.

    With ``verify`` the result must keep the input's Euler characteristic
    and genus table and hold no site.  A miss raises
    InternalInconsistencyError naming the first check that failed, in
    this order: the characteristic's two values, the first cyclic order
    whose genus moved with its two genera, or the first site left.  The
    input's invariants are read before the pass, so a dimension too high
    for either is refused before any step, and so is a graph of several
    components (a boundary graph, built without the check)."""
    if not graph.is_regular:
        raise NotRegularError("full contraction is defined for regular gems")
    components = graph._memo.get("components", 1)
    if components != 1:
        raise DisconnectedError(f"{components} connected components")
    if not verify:
        return _contract(graph)
    genera, chi = genus_table(graph), euler_characteristic(graph)
    out = _contract(graph)
    after, out_chi = genus_table(out).doubled, euler_characteristic(out)
    if out_chi != chi:
        raise InternalInconsistencyError(
            f"contraction moved the Euler characteristic: {chi} -> {out_chi}")
    if after != genera.doubled:
        k = next(k for k, pair in enumerate(zip(genera.doubled, after))
                 if pair[0] != pair[1])
        raise InternalInconsistencyError(
            f"contraction moved the genus at order "
            f"{genera.sweep.order(k).label()}: "
            f"{Fraction(genera.doubled[k], 2)} -> {Fraction(after[k], 2)}")
    site = next(_sites(out), None)
    if site is not None:
        raise InternalInconsistencyError(f"contraction left a 1-dipole: {site}")
    return out


def _contract(graph: ColoredGraph) -> ColoredGraph:
    """The one pass of ``full_contraction`` on a regular graph: every step
    kills two live vertices, so it ends within n/2 steps."""
    maps = [list(row) for row in graph.color_maps]
    labels = [_without(graph, j).labels for j in graph.colors]
    up = [list(range(max(lab) + 1)) for lab in labels]
    heaps = [[(u, v) for u, v in enumerate(row) if v > u and lab[u] != lab[v]]
             for row, lab in zip(maps, labels)]  # sorted by u, so heaps
    alive = [True] * graph.num_vertices
    while (site := _next_site(maps, labels, up, heaps, alive)) is not None:
        c, x, y = site
        _weld_maps(maps, x, y)
        for k, row in enumerate(maps):
            if k != c:  # the welded edge, read from the rows of x and y
                a, b = row[x], row[y]
                if _root(up[k], labels[k][a]) != _root(up[k], labels[k][b]):
                    heappush(heaps[k], (a, b) if a < b else (b, a))
        alive[x] = alive[y] = False
        up[c][_root(up[c], labels[c][x])] = _root(up[c], labels[c][y])
    if all(alive):  # a contracted input comes back with its memo
        return graph
    kept = [v for v in range(graph.num_vertices) if alive[v]]
    return _from_maps(graph.dimension, _renumbered(maps, kept))


def _next_site(maps, labels, up, heaps, alive) -> Optional[tuple[int, int, int]]:
    """The color and ends (x < y) of the first site by color and least
    vertex, or None; entries whose first end died, whose edge is gone or
    whose labels were united are dropped from the heaps on the way."""
    for c, heap in enumerate(heaps):
        row, lab, ups = maps[c], labels[c], up[c]
        while heap:
            x, y = heap[0]
            if (alive[x] and row[x] == y
                    and _root(ups, lab[x]) != _root(ups, lab[y])):
                return c, x, y
            heappop(heap)
    return None
