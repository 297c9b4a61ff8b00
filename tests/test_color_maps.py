"""Rewrites edit color maps and build their result through the one map
constructor.  Corrupted maps raise the error class that ``validate``
raises on the edges the maps name, every rewrite's output equals the
graph its own edge list validates to, and hostile gem documents exit
cleanly from the CLI."""

import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from gemkit import boundary_graph, order_two_gem, validate
from gemkit.cli import main
from gemkit.core import NO_EDGE, ColoredGraph, _from_maps
from gemkit.errors import (
    DisconnectedError,
    DuplicateColorError,
    GemError,
    LoopEdgeError,
    MissingColorError,
)
from gemkit.moves import (
    cancel_1_dipole,
    cap_boundary,
    find_1_dipoles,
    insert_1_dipole,
    regularize,
    swap_colors,
)

from test_residue_memo import sample_gem


def named_edges(maps):
    """The edges a set of color maps names, each unordered pair once."""
    return sorted({(min(v, w), max(v, w), c) for c, row in enumerate(maps)
                   for v, w in enumerate(row) if w != NO_EDGE})


def raised(build, *args):
    with pytest.raises(GemError) as info:
        build(*args)
    return type(info.value)


def corrupt(graph, kind, rng):
    """Color maps of the graph with one fault of the given kind."""
    d, n = graph.dimension, graph.num_vertices
    maps = [list(row) for row in graph.color_maps]
    c = rng.randrange(d)
    a = rng.randrange(n)
    if kind == "non-involution":
        # a's color-c edge is pointed at a vertex of another color-c edge
        x = rng.choice([v for v in range(n) if v not in (a, maps[c][a])])
        maps[c][a] = x
    elif kind == "fixed point":
        maps[rng.randrange(d + 1)][a] = a
    elif kind == "endpoint":
        maps[c][a] = rng.choice([n, n + 5, -2])
    elif kind == "missing color":
        maps[c][maps[c][a]] = maps[c][a] = NO_EDGE
    elif kind == "odd boundary":
        # the last vertex goes and its partners lose an edge: an odd
        # boundary forces an odd vertex count, so a color below d is
        # missing too
        maps = [[NO_EDGE if w == n - 1 else w for w in row[:-1]]
                for row in maps]
        assert maps[d].count(NO_EDGE) % 2
    elif kind == "disconnected":
        other = order_two_gem(d) if rng.random() < 0.5 else graph
        maps = [row + [w + n if w != NO_EDGE else w for w in extra]
                for row, extra in zip(maps, other.color_maps)]
    return maps


EXPECTED = {
    "non-involution": DuplicateColorError,
    "fixed point": LoopEdgeError,
    "endpoint": LoopEdgeError,
    "missing color": MissingColorError,
    "odd boundary": MissingColorError,
    "disconnected": DisconnectedError,
}


class TestMapConstructor:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2 ** 20),
           st.booleans(), st.sampled_from(sorted(EXPECTED)),
           st.randoms(use_true_random=False))
    def test_corrupted_maps_raise_like_validate(self, d, p, seed,
                                                with_boundary, kind, rng):
        g = sample_gem(d, p, seed, with_boundary)
        maps = corrupt(g, kind, rng)
        n = len(maps[0])
        assert raised(_from_maps, d, maps) is EXPECTED[kind]
        # the endpoint fault names no edge the maps can list
        if kind != "endpoint":
            assert raised(validate, d, n, named_edges(maps)) is EXPECTED[kind]


def assert_revalidates(graph):
    """The graph equals the one its own edge list validates to, and its
    flags agree with that graph's and with a search of its own."""
    edges = list(graph.edges())
    build = validate if graph.dimension >= 2 else ColoredGraph.from_edges
    again = build(graph.dimension, graph.num_vertices, edges)
    assert again == graph
    assert (again.is_regular, again.is_bipartite) == (graph.is_regular,
                                                      graph.is_bipartite)
    assert graph.is_regular == (not graph.boundary_vertices())
    assert graph.is_bipartite == bipartite_oracle(graph.num_vertices, edges)


def bipartite_oracle(num_vertices, edges):
    """Bipartite iff no edge joins two vertices at even distance."""
    (comp,) = bf.bfs_components(num_vertices, edges)
    side = {comp[0]: 0}
    frontier = [comp[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for a, b, _ in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in side:
                        side[y] = 1 - side[u]
                        nxt.append(y)
        frontier = nxt
    return all(side[a] != side[b] for a, b, _ in edges)


class TestRewritesRevalidate:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans(), st.randoms(use_true_random=False))
    # boundary gems with a site whose cancellation would disconnect the gem
    @example(2, 5, 1048576, True, random.Random(0))
    @example(2, 3, 49, True, random.Random(0))
    def test_every_rewrite_output_validates(self, d, p, seed, with_boundary,
                                            rng):
        g = sample_gem(d, p, seed, with_boundary)
        u = rng.randrange(g.num_vertices)
        color = rng.randrange(d)
        grown, site, genuine = insert_1_dipole(g, (u, g.mate(u, color)), color)
        outputs = [grown]
        if genuine:
            outputs.append(cancel_1_dipole(grown, site))
            assert outputs[-1] == g
        outputs += [cancel_1_dipole(g, s) for s in find_1_dipoles(g)[:3]]
        top = d + 1 if g.is_regular else d
        outputs.append(swap_colors(g, rng.randrange(top), rng.randrange(top)))
        if not g.is_regular:
            bg = boundary_graph(g)
            outputs.append(cap_boundary(g, color)[0])
            outputs.append(regularize(g, singular_color=color)[0])
            outputs += [bg.component_subgraph(k)
                        for k in range(bg.num_components)]
            if bg.num_components == 1:
                outputs.append(bg.graph)
            else:
                with pytest.raises(DisconnectedError,
                                   match=f"^{bg.num_components} connected"):
                    ColoredGraph.from_edges(d - 1, bg.graph.num_vertices,
                                            list(bg.graph.edges()))
        for out in outputs:
            assert_revalidates(out)


# ---------------------------------------------------------------------------
# hostile gem documents

HUGE = st.sampled_from([10 ** 6, 10 ** 12, 2 ** 63, -(2 ** 63), 10 ** 30])
SMALL = st.integers(-2, 9)
INTS = st.one_of(SMALL, SMALL, HUGE)
JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                 st.text(max_size=3), st.lists(SMALL, max_size=4),
                 st.dictionaries(st.text(max_size=2), SMALL, max_size=2))
VALUES = st.one_of(INTS, JUNK)
EDGE = st.one_of(st.lists(INTS, min_size=3, max_size=3),
                 st.lists(VALUES, max_size=4), VALUES)

RANDOM_DOCS = st.fixed_dictionaries(
    {"dimension": st.one_of(st.integers(1, 5), VALUES),
     "vertices": st.one_of(st.integers(1, 8), VALUES),
     "edges": st.one_of(st.lists(EDGE, max_size=14), VALUES)},
    optional={"name": VALUES, "metadata": VALUES})


@st.composite
def mutated_gem_docs(draw):
    """A small valid gem's document with a few faults: a changed endpoint
    or color, a loop, a dropped or repeated edge, a disjoint copy, or a
    changed count."""
    d, p = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    g = sample_gem(d, p, draw(st.integers(0, 2 ** 16)), draw(st.booleans()))
    n = g.num_vertices
    edges = [list(e) for e in g.edges()]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(edges) - 1))
        kind = draw(st.sampled_from(["endpoint", "color", "loop", "drop",
                                     "repeat", "copy", "vertices",
                                     "dimension"]))
        if kind == "endpoint":
            edges[k][draw(st.integers(0, 1))] = draw(st.one_of(SMALL, HUGE))
        elif kind == "color":
            edges[k][2] = draw(st.one_of(SMALL, HUGE))
        elif kind == "loop":
            edges[k][1] = edges[k][0]
        elif kind == "drop" and len(edges) > 1:
            edges.pop(k)
        elif kind == "repeat":
            edges.append(list(edges[k]))
        elif kind == "copy":
            edges += [[u + n, v + n, c] for u, v, c in g.edges()]
            n *= 2
        elif kind == "vertices":
            n = draw(st.one_of(SMALL, HUGE))
        elif kind == "dimension":
            d = draw(st.integers(-1, 6))
    return {"dimension": d, "vertices": n, "edges": edges}


DOCUMENTS = st.one_of(
    RANDOM_DOCS.map(json.dumps), mutated_gem_docs().map(json.dumps),
    st.lists(VALUES, max_size=3).map(json.dumps), st.text(max_size=20))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(DOCUMENTS)
def test_hostile_documents_exit_cleanly(tmp_path, capsys, text):
    path = tmp_path / "doc.gem"
    path.write_text(text, encoding="utf-8")
    for command in ("validate", "info"):
        code = main(["--json", command, str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (command, text, err)
        assert "internal error" not in err and "Traceback" not in err
