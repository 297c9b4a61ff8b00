"""Colored-graph data model and residue machinery.

A gem (graph-encoded manifold) of dimension d is a connected multigraph
whose edges carry colors 0..d, properly: no two edges of the same color
meet at a vertex.  Every vertex must meet every color below d; color-d
edges may be missing at some vertices (the boundary vertices).  Color d
is always the distinguished color, so membership in the class G_d is a
property of the data, not a convention argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    DisconnectedError,
    DuplicateColorError,
    InvalidColorError,
    LoopEdgeError,
    MissingColorError,
    PreconditionError,
    SamplingExhaustedError,
)

NO_EDGE = -1
# samples drawn before a random gem gives up on a connected one
_MAX_TRIES = 2000


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable properly edge-colored multigraph in G_d.

    ``color_maps[c][v]`` is the vertex matched to ``v`` by the color-c
    edge, or ``NO_EDGE`` if ``v`` has no color-c edge.  Construct through
    :func:`validate` (or :func:`ColoredGraph.from_edges`), never directly.
    """

    dimension: int
    num_vertices: int
    color_maps: tuple[tuple[int, ...], ...]
    is_regular: bool = field(compare=False)
    is_bipartite: bool = field(compare=False)
    # residue decompositions by color bitmask, the vertex classification,
    # the boundary graph, the genus table and the capping rows, filled on
    # first use, and the component count of a graph built without the
    # connectivity check; dropped with the graph
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    @property
    def colors(self) -> range:
        return range(self.dimension + 1)

    def mate(self, vertex: int, color: int) -> int:
        """Partner of ``vertex`` along its color edge, or NO_EDGE."""
        return self.color_maps[color][vertex]

    def has_color(self, vertex: int, color: int) -> bool:
        return self.color_maps[color][vertex] != NO_EDGE

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All edges as (u, v, color) with u < v, sorted by (color, u)."""
        for c in self.colors:
            row = self.color_maps[c]
            for u in range(self.num_vertices):
                v = row[u]
                if v > u:
                    yield (u, v, c)

    def boundary_vertices(self) -> tuple[int, ...]:
        return classify_vertices(self).boundary_vertices

    @staticmethod
    def from_edges(dimension: int,
                   num_vertices: int,
                   edges: Iterable[tuple[int, int, int]]) -> "ColoredGraph":
        return _build(dimension, num_vertices, edges)


def validate(dimension: int,
             num_vertices: int,
             edges: Iterable[tuple[int, int, int]]) -> ColoredGraph:
    """Validate a raw edge list as a member of G_d.

    Checks: no loops, proper coloring, every color below d present at
    every vertex, even vertex count, connectivity.
    """
    if dimension < 2:
        raise PreconditionError(f"dimension must be >= 2, got {dimension}")
    return _build(dimension, num_vertices, edges)


def _build(dimension, num_vertices, edges):
    """Turn an edge list into color maps in one loop that checks each edge
    and fills the maps.  A bad color, endpoint or loop is raised as soon
    as it is met.  A list too short to give every vertex every color below
    d is read for those faults alone, with no map allocated, and then
    refused.  The first repeated color, or the error of an item that
    cannot index the maps (a float), is kept and raised after the loop,
    so that every range fault ranks before it.  The maps filled are
    involutions without fixed points: only the graph checks are left."""
    d, n = dimension, num_vertices
    if d < 1:
        # dimension-1 graphs arise internally as boundaries of surface gems
        raise PreconditionError(f"dimension must be >= 1, got {d}")
    if n <= 0:
        raise PreconditionError("graph must have at least one vertex")
    edges = list(edges)
    # every color below d is a perfect matching
    short = d * n > 2 * len(edges)
    maps = None if short else [[NO_EDGE] * n for _ in range(d + 1)]
    fault = None
    for u, v, c in edges:
        if not (0 <= c <= d):
            raise InvalidColorError(f"color {c} outside 0..{d}")
        if not (0 <= u < n and 0 <= v < n):
            raise LoopEdgeError(
                f"edge ({u},{v},{c}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise LoopEdgeError(f"loop at vertex {u} with color {c}")
        if short or fault is not None:
            continue
        try:
            row = maps[c]
            if row[u] != NO_EDGE or row[v] != NO_EDGE:
                raise DuplicateColorError(
                    f"vertex {u if row[u] != NO_EDGE else v} meets two "
                    f"color-{c} edges")
            row[u] = v
            row[v] = u
        except (DuplicateColorError, TypeError) as exc:  # TypeError: a float
            fault = exc
    if short:
        raise MissingColorError(
            f"{len(edges)} edges cannot give {n} vertices "
            f"every color below {d}")
    if fault is not None:
        raise fault
    return _graph(d, maps)


def _from_maps(dimension, maps, require_connected=True) -> ColoredGraph:
    """The graph on one color map per color 0..dimension, after the checks
    every graph gets: each map an involution without fixed points, every
    color below d at every vertex and, unless waived, one component.
    Rewrites edit maps and build their result here.

    One pass checks every entry's range, fixed point and involution
    ``row[row[v]] == v``.  A loop or an entry out of range in any map is
    named before any map that is not an involution, as the edge path
    reports them before a repeated color: the first is raised at once,
    the first broken involution after the pass."""
    n = len(maps[0])
    broken = None
    for c, row in enumerate(maps):
        for v, w in enumerate(row):
            if w < 0:
                if w != NO_EDGE:
                    raise LoopEdgeError(f"color-{c} map sends vertex {v} to {w}")
            elif w >= n or w == v:
                raise LoopEdgeError(f"color-{c} map sends vertex {v} to {w}")
            elif row[w] != v and broken is None:
                broken = f"vertex {w} meets two color-{c} edges"
    if broken is not None:
        raise DuplicateColorError(broken)
    return _graph(dimension, maps, require_connected)


def _graph(d, maps, require_connected=True) -> ColoredGraph:
    """The graph on color maps already known to be involutions without
    fixed points, after the checks left: every color below d at every
    vertex and, unless waived, one component.  A count other than one,
    which only a waived check lets through, is kept in the memo under a
    key no color bitmask takes: a rewrite that keeps the count, and so
    skips the check on a connected input, reads it there."""
    n = len(maps[0])
    for c in range(d):
        if NO_EDGE in maps[c]:
            raise MissingColorError(
                f"vertex {maps[c].index(NO_EDGE)} has no color-{c} edge")
    # even: color 0 pairs all n vertices, and color d all but the boundary
    n_boundary = maps[d].count(NO_EDGE)
    # one traversal 2-colors the vertices and counts the components
    side = [NO_EDGE] * n
    count, bipartite = 0, True
    for start in range(n):
        if side[start] != NO_EDGE:
            continue
        count += 1
        side[start], stack = 0, [start]
        while stack:
            u = stack.pop()
            s = 1 - side[u]
            for row in maps:
                v = row[u]
                if v == NO_EDGE:
                    continue
                if side[v] == NO_EDGE:
                    side[v] = s
                    stack.append(v)
                elif side[v] != s:
                    bipartite = False
    if require_connected and count != 1:
        raise DisconnectedError(f"{count} connected components")
    graph = ColoredGraph(dimension=d, num_vertices=n,
                         color_maps=tuple(map(tuple, maps)),
                         is_regular=(n_boundary == 0), is_bipartite=bipartite)
    if count != 1:
        graph._memo["components"] = count
    return graph


def _renumbered(maps: Sequence[Sequence[int]], kept: Sequence[int]
                ) -> list[list[int]]:
    """The color maps on the ascending vertices ``kept``, numbered from 0
    in that order; an edge to a vertex not kept is dropped."""
    # relabel[NO_EDGE] is the last slot, so a missing edge stays missing
    relabel = [NO_EDGE] * (len(maps[0]) + 1)
    for i, v in enumerate(kept):
        relabel[v] = i
    return [[relabel[row[v]] for v in kept] for row in maps]


@dataclass(frozen=True)
class ResidueDecomposition:
    """Connected components of the subgraph keeping one color subset.

    ``labels[v]`` is the index of the component holding vertex ``v``,
    components being indexed by least vertex; the parallel ``regular``
    tuple flags components in which every vertex meets every color of
    the set, and ``least`` holds each component's least vertex.
    """

    color_set: tuple[int, ...]
    regular: tuple[bool, ...]
    labels: tuple[int, ...]

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Components as sorted vertex tuples, ordered by least vertex."""
        comps = [[] for _ in self.regular]
        for v, k in enumerate(self.labels):
            comps[k].append(v)
        return tuple(map(tuple, comps))

    @cached_property
    def least(self) -> tuple[int, ...]:
        """The least vertex of each component, in component order.  The
        kernels keep it as they number the components; a decomposition
        built through this constructor reads it off its labels on first
        use, where each label first occurs at its component's least
        vertex."""
        least = []
        for v, k in enumerate(self.labels):
            if k == len(least):
                least.append(v)
        return tuple(least)

    @property
    def count(self) -> int:
        return len(self.regular)

    @property
    def regular_count(self) -> int:
        return sum(self.regular)

    def component_of(self, vertex: int) -> int:
        if not 0 <= vertex < len(self.labels):
            raise ValueError(f"vertex {vertex} not in any component")
        return self.labels[vertex]

    @classmethod
    def _unchecked(cls, color_set: tuple[int, ...], regular: tuple[bool, ...],
                   labels: tuple[int, ...], least: tuple[int, ...]
                   ) -> "ResidueDecomposition":
        """A decomposition from the kernels with its kept least vertices,
        its fields filled in directly rather than through the frozen
        ``__init__``, which costs three times as much."""
        dec = object.__new__(cls)
        dec.__dict__.update(color_set=color_set, regular=regular, labels=labels,
                            least=least)
        return dec


def residues(graph: ColoredGraph, colors: Iterable[int]) -> ResidueDecomposition:
    """Decompose the graph into components of the given color subgraph.

    Each decomposition is computed once per graph and kept in the
    graph's memo."""
    return _residues_by_mask(graph, _color_mask(graph, colors))


def _without(graph: ColoredGraph, *colors: int) -> ResidueDecomposition:
    """``residues`` on every color of the graph except ``colors``."""
    full = (1 << graph.dimension + 1) - 1
    return _residues_by_mask(graph, full ^ _color_mask(graph, colors))


def _residues_by_mask(graph: ColoredGraph, mask: int) -> ResidueDecomposition:
    """``residues`` on a bitmask of colors already known to be in 0..d:
    a walk for at most two colors.  On more, a mask with a memoized
    one-component residue a color smaller is written as one component
    directly, its labels all 0, and any other is a merge onto a
    decomposed prefix."""
    dec = graph._memo.get(mask)
    if dec is None:
        if mask.bit_count() <= 2:
            dec = _walk(graph, mask)
        else:
            regular = _one_component_regular(graph, mask)
            dec = (_merge(graph, mask) if regular is None else
                   ResidueDecomposition._unchecked(
                       _colors_of(mask), (regular,), (0,) * graph.num_vertices,
                       (0,)))
        graph._memo[mask] = dec
    return dec


def _decompose(graph: ColoredGraph, mask: int) -> ResidueDecomposition:
    """The decomposition on a mask by a kernel, not memoized: a walk for
    at most two colors, else a merge onto a decomposed prefix."""
    return (_walk if mask.bit_count() <= 2 else _merge)(graph, mask)


def _one_component_regular(graph: ColoredGraph, mask: int) -> bool | None:
    """None unless a residue a color smaller than the mask is memoized as
    one component; then the mask's residue is one component too, as
    adding a color only merges components, and this is whether it is
    regular.  The component holds every vertex and each color below d
    meets every vertex, so it is irregular exactly when the mask holds d
    and the graph has a boundary."""
    memo = graph._memo
    for smaller in _one_smaller(mask):
        sub = memo.get(smaller)
        if sub is not None and sub.count == 1:
            return graph.is_regular or not mask >> graph.dimension & 1
    return None


@cache
def _colors_of(mask: int) -> tuple[int, ...]:
    """The colors of a bitmask, ascending; one tuple per mask, shared."""
    out = []
    while mask:  # one step per set bit, not per bit position
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


@cache
def _one_smaller(mask: int) -> tuple[int, ...]:
    """The bitmasks of one color fewer than a mask; one tuple per mask,
    shared."""
    return tuple(mask ^ 1 << c for c in _colors_of(mask))


def _walk(graph: ColoredGraph, mask: int) -> ResidueDecomposition:
    """Decomposition on at most two colors a, b (a = b for one color):
    every component is a vertex, an edge, an alternating cycle or an
    alternating path.  From
    each unlabelled vertex, the least of its component, follow a, b, a, ...
    back to the start; a walk that meets a missing edge is on a path, and
    the rest of the path lies the other way, along b, a, b, ..."""
    color_set = _colors_of(mask)
    n = graph.num_vertices
    if not color_set:
        every = tuple(range(n))
        return ResidueDecomposition._unchecked(color_set, (True,) * n,
                                               every, every)
    a, b = graph.color_maps[color_set[0]], graph.color_maps[color_set[-1]]
    labels = [NO_EDGE] * n
    regular, least = [], []
    for start in range(n):
        if labels[start] != NO_EDGE:
            continue
        k = labels[start] = len(regular)
        least.append(start)
        u = start
        while True:
            v = a[u]
            if v == NO_EDGE:
                break
            labels[v] = k
            u = b[v]
            if u == start or u == NO_EDGE:
                break
            labels[u] = k
        closed = v != NO_EDGE and u == start
        regular.append(closed)
        if closed:
            continue
        u = start
        while True:
            v = b[u]
            if v == NO_EDGE:
                break
            labels[v] = k
            u = a[v]
            if u == NO_EDGE:
                break
            labels[u] = k
    return ResidueDecomposition._unchecked(color_set, tuple(regular),
                                           tuple(labels), tuple(least))


def _merge(graph: ColoredGraph, mask: int) -> ResidueDecomposition:
    """Decomposition on three or more colors: the components of the mask
    without its top color when that one is memoized, as it is when colors
    are queried in ascending bitmask order, and else of its two lowest
    colors, a walk; united along the edges of each color above, where a
    missing edge makes its vertex's component irregular.  Union by least
    index keeps every component's parent pointer at or below its own
    index, so numbering the roots in index order numbers the united
    components by least vertex, as the given ones are, and a root's least
    vertex is its united component's."""
    color_set = _colors_of(mask)
    i = len(color_set) - 1
    prefix = mask ^ 1 << color_set[i]
    if prefix not in graph._memo:
        i, prefix = 2, 1 << color_set[0] | 1 << color_set[1]
    base = _residues_by_mask(graph, prefix)
    labels, whole, least = base.labels, list(base.regular), base.least
    up = list(range(len(whole)))
    united = False
    for top in color_set[i:]:
        for v, w in enumerate(graph.color_maps[top]):
            if w < v:  # each edge once, and every missing edge (NO_EDGE < 0)
                if w == NO_EDGE:
                    whole[labels[v]] = False
                    continue
                x, y = up[labels[v]], up[labels[w]]
                if x == y:
                    continue
                while up[x] != x:
                    up[x] = x = up[up[x]]
                while up[y] != y:
                    up[y] = y = up[up[y]]
                if x < y:
                    up[y] = x
                    united = True
                elif y < x:
                    up[x] = y
                    united = True
    if not united:  # the components stay as they are
        return ResidueDecomposition._unchecked(color_set, tuple(whole),
                                               labels, least)
    # up[k] becomes k's merged number: a root takes the next one, and any
    # other k its parent's, numbered already as the parent's index is lower
    regular, roots = [], []
    for k, r in enumerate(up):
        if r == k:
            up[k] = len(regular)
            regular.append(whole[k])
            roots.append(k)
        else:
            up[k] = m = up[r]
            if not whole[k]:
                regular[m] = False
    # one gather relabels every vertex: a graph has at least two, so the
    # getter returns a tuple
    return ResidueDecomposition._unchecked(
        color_set, tuple(regular), itemgetter(*labels)(up),
        tuple([least[k] for k in roots]))


def _root(up: list[int], k: int) -> int:
    """The representative of k in the union-find ``up``, halving the path
    on the way."""
    while up[k] != k:
        up[k] = k = up[up[k]]
    return k


def _joined_count(dec: ResidueDecomposition, added) -> int:
    """The component count of a residue once the vertex pairs ``added``
    are joined as well: its count less the unions the pairs make over its
    labels, counted with no labels built."""
    labels, up = dec.labels, list(range(dec.count))
    count = dec.count
    for u, v in added:
        x, y = labels[u], labels[v]
        while up[x] != x:  # each root found as ``_root`` does, inline
            up[x] = x = up[up[x]]
        while up[y] != y:
            up[y] = y = up[up[y]]
        if x != y:
            up[x] = y
            count -= 1
    return count


def count_g(graph: ColoredGraph, colors: Iterable[int]) -> tuple[int, int]:
    """(g, g_dot): total and regular component counts of the residue."""
    return _count(graph, _color_mask(graph, colors))


def _count(graph: ColoredGraph, mask: int) -> tuple[int, int]:
    """(g, g_dot) on a bitmask of colors already known to be in 0..d.

    On a memo miss, a mask with a memoized one-component residue a color
    smaller is counted as one component, with no decomposition made or
    kept."""
    memo = graph._memo
    dec = memo.get(mask)
    if dec is None:
        regular = _one_component_regular(graph, mask)
        if regular is not None:
            return 1, 1 if regular else 0
        dec = memo[mask] = _decompose(graph, mask)
    return dec.count, dec.regular_count


def _color_mask(graph: ColoredGraph, colors: Iterable[int]) -> int:
    mask = 0
    for c in colors:
        if not (0 <= c <= graph.dimension):
            raise InvalidColorError(f"color {c} outside 0..{graph.dimension}")
        mask |= 1 << c
    return mask


@dataclass(frozen=True)
class VertexClassification:
    """Boundary/internal split of the vertex set.

    2*p_bar boundary vertices (degree d, no final-color edge) and
    2*p_dot internal vertices (degree d+1).
    """

    boundary_vertices: tuple[int, ...]
    internal_vertices: tuple[int, ...]
    p_bar: int
    p_dot: int

    @property
    def p(self) -> int:
        return self.p_bar + self.p_dot


def classify_vertices(graph: ColoredGraph) -> VertexClassification:
    """The boundary/internal split, made once per graph and kept in the
    graph's memo under a key no color bitmask takes."""
    cls = graph._memo.get("vertices")
    if cls is None:
        boundary, internal = [], []
        for v, w in enumerate(graph.color_maps[graph.dimension]):
            (boundary if w == NO_EDGE else internal).append(v)
        cls = graph._memo["vertices"] = VertexClassification(
            tuple(boundary), tuple(internal),
            len(boundary) // 2, len(internal) // 2)
    return cls


def is_contracted(graph: ColoredGraph) -> dict[int, bool]:
    """For each color c, whether the graph minus color c stays connected."""
    return {c: _without(graph, c).count == 1 for c in graph.colors}


def is_crystallization(graph: ColoredGraph, h: int) -> bool:
    """Minimal-residue test: one final-color-free component and h
    components when any other single color is removed.  Regular graphs
    with h == 0 use the contracted test."""
    if h < 0:
        raise PreconditionError(f"h must be non-negative, got {h}")
    d = graph.dimension
    if graph.is_regular and h == 0:
        return all(is_contracted(graph).values())
    if _without(graph, d).count != 1:
        return False
    return all(_without(graph, c).count == h for c in range(d))


def order_two_gem(d: int) -> ColoredGraph:
    """The smallest d-dimensional sphere gem: two vertices, all colors."""
    return validate(d, 2, [(0, 1, c) for c in range(d + 1)])


def ball_gem(d: int) -> ColoredGraph:
    """The order-two gem minus its final-color edge: the d-ball."""
    return validate(d, 2, [(0, 1, c) for c in range(d)])


def random_gem(d: int, p: int, seed: int) -> ColoredGraph:
    """Random connected regular gem: one uniform perfect matching per
    color on 2p vertices, rejection-sampled until connected.

    Deterministic for a fixed seed.  No manifold guarantee.
    """
    if p < 1:
        raise PreconditionError(f"p must be >= 1, got {p}")
    return _sample(d, p, p, random.Random(seed))


def random_boundary_gem(d: int, p: int, p_dot: int, seed: int) -> ColoredGraph:
    """Random connected member of G_d with boundary: perfect matchings on
    colors below d and a partial final-color matching covering 2*p_dot
    vertices.  Requires 0 <= p_dot < p."""
    if p < 1:
        raise PreconditionError(f"p must be >= 1, got {p}")
    if not (0 <= p_dot < p):
        raise PreconditionError("need 0 <= p_dot < p for a boundary gem")
    return _sample(d, p, p_dot, random.Random(seed))


def _sample(d, p, p_dot, rng):
    n = 2 * p
    for _ in range(_MAX_TRIES):
        edges = []
        for c in range(d):
            perm = list(range(n))
            rng.shuffle(perm)
            edges.extend((perm[k], perm[k + 1], c) for k in range(0, n, 2))
        perm = list(range(n))
        rng.shuffle(perm)
        edges.extend((perm[k], perm[k + 1], d) for k in range(0, 2 * p_dot, 2))
        try:
            return validate(d, n, edges)
        except DisconnectedError:
            continue
    raise SamplingExhaustedError(
        f"no connected sample in {_MAX_TRIES} tries (d={d}, p={p}, p_dot={p_dot})")
