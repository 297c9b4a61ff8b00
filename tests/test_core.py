import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from gemkit import (
    ball_gem,
    classify_vertices,
    count_g,
    is_contracted,
    is_crystallization,
    order_two_gem,
    random_boundary_gem,
    random_gem,
    residues,
    validate,
)
from gemkit import core, errors
from gemkit.core import NO_EDGE, ColoredGraph, _colors_of, _from_maps, _without
from gemkit.errors import (
    DisconnectedError,
    DuplicateColorError,
    InvalidColorError,
    LoopEdgeError,
    MissingColorError,
    PreconditionError,
)
from gemkit.moves import insert_1_dipole

from test_residue_memo import sample_gem


def swap_join_graph():
    """Two order-two sphere gems with their final-color edges swapped."""
    edges = [(0, 1, c) for c in range(4)] + [(2, 3, c) for c in range(4)]
    edges += [(0, 2, 4), (1, 3, 4)]
    return validate(4, 4, edges)


class TestValidate:
    def test_s4_2(self, s4):
        assert s4.is_regular and s4.is_bipartite
        assert s4.num_vertices == 2

    def test_b4_2(self, b4):
        assert not b4.is_regular
        assert b4.boundary_vertices() == (0, 1)

    def test_duplicate_color(self):
        edges = [(0, 1, c) for c in range(5)] + [(0, 1, 0)]
        with pytest.raises(DuplicateColorError):
            validate(4, 2, edges)

    def test_loop(self):
        with pytest.raises(LoopEdgeError):
            validate(4, 2, [(0, 0, 0)])

    def test_missing_color(self):
        with pytest.raises(MissingColorError):
            validate(4, 2, [(0, 1, c) for c in range(3)])

    @pytest.mark.parametrize("dimension, vertices", [(4, 10 ** 12),
                                                     (10 ** 12, 2)])
    def test_too_few_edges_rejected_before_allocation(self, dimension,
                                                      vertices):
        with pytest.raises(MissingColorError):
            validate(dimension, vertices, [(0, 1, 0)])

    def test_out_of_range_vertex(self):
        with pytest.raises(LoopEdgeError):
            validate(4, 2, [(0, 5, 0)])

    def test_bad_color(self):
        with pytest.raises(InvalidColorError):
            validate(4, 2, [(0, 1, 7)])

    def test_disconnected(self):
        edges = [(0, 1, c) for c in range(5)] + [(2, 3, c) for c in range(5)]
        with pytest.raises(DisconnectedError):
            validate(4, 4, edges)

    def test_edge_order_irrelevant(self, s4):
        edges = list(s4.edges())
        assert validate(4, 2, edges[::-1]) == s4


def outcome(build, *args):
    """What a build gives: the graph with its flags, or the class and
    message of what it raised."""
    try:
        g = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return g, g.is_regular, g.is_bipartite


def reference_from_maps(d, maps):
    """The map constructor with its map checks taken from the brute-force
    list of every fault."""
    fault = bf.map_fault(maps)
    if fault is not None:
        name, message = fault
        raise getattr(errors, name)(message)
    return core._graph(d, maps)


def kept_build(d, n, edges):
    """The edge path through the brute-force two loops of ``edge_maps``."""
    try:
        maps = bf.edge_maps(d, n, list(edges))
    except bf.EdgeFault as fault:
        name, message = fault.args
        raise getattr(errors, name)(message) from None
    return reference_from_maps(d, maps)


MAP_FAULTS = ("fixed point", "minus two", "n", "broken involution")
EDGE_FAULTS = ("bad color", "endpoint", "loop", "repeated color",
               "two-element edge", "bool item", "float item", "short list")


def corrupt_maps(maps, kind, rng):
    n = len(maps[0])
    row, v = rng.choice(maps), rng.randrange(n)
    if kind == "fixed point":
        row[v] = v
    elif kind == "minus two":
        row[v] = -2
    elif kind == "n":
        row[v] = n
    else:  # v's edge pointed elsewhere, or dropped
        row[v] = rng.choice([w for w in range(n) if w not in (v, row[v])]
                            or [NO_EDGE])


def corrupt_edges(edges, d, n, kind, rng):
    k = rng.randrange(len(edges))
    u, v, c = (*edges[k], 0)[:3]  # an edge cut to two items before is padded
    if kind == "bad color":
        edges[k] = (u, v, rng.choice([-1, d + 1, d + 7]))
    elif kind == "endpoint":
        edges[k] = (u, rng.choice([-2, -1, n, n + 3]), c)
    elif kind == "loop":
        edges[k] = (u, u, c)
    elif kind == "repeated color":
        edges.append((u, rng.choice([w for w in range(n) if w != u]), c))
    elif kind == "two-element edge":
        edges[k] = (u, v)
    elif kind == "bool item":
        edges[k] = (u, v, True)
    elif kind == "float item":
        edges[k] = (float(u), v, c)
    else:  # too few edges to give every vertex every color below d
        del edges[rng.randrange(1, d * n // 2):]


class TestOnePassChecks:
    """The one-pass map check raises the class and message of the first
    fault in the brute-force list of every fault, and the one-loop edge
    check those of the brute-force two loops, and both build equal graphs
    on valid input."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans(), st.lists(st.sampled_from(MAP_FAULTS), max_size=3),
           st.randoms(use_true_random=False))
    def test_maps_raise_like_the_brute_force_check(self, d, p, seed, with_boundary,
                                             faults, rng):
        g = sample_gem(d, p, seed, with_boundary)
        maps = [list(row) for row in g.color_maps]
        for kind in faults:
            corrupt_maps(maps, kind, rng)
        got = outcome(_from_maps, d, maps)
        assert got == outcome(reference_from_maps, d, maps)
        if not isinstance(got[0], ColoredGraph):  # faults may cancel out
            assert got[0] in (LoopEdgeError, DuplicateColorError,
                              MissingColorError, DisconnectedError)
        if not faults:
            assert got == (g, g.is_regular, g.is_bipartite)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans(), st.lists(st.sampled_from(EDGE_FAULTS), max_size=3),
           st.randoms(use_true_random=False))
    def test_edges_raise_like_the_kept_loops(self, d, p, seed, with_boundary,
                                             faults, rng):
        g = sample_gem(d, p, seed, with_boundary)
        n = g.num_vertices
        edges = list(g.edges())
        rng.shuffle(edges)
        for kind in faults:
            corrupt_edges(edges, d, n, kind, rng)
        got = outcome(validate, d, n, iter(edges))
        assert got == outcome(kept_build, d, n, edges)
        assert got == outcome(ColoredGraph.from_edges, d, n, edges)
        if not faults:
            assert got == (g, g.is_regular, g.is_bipartite)

    @pytest.mark.parametrize("faults, error, message", [
        # a loop in a later map is named before a broken involution
        ({(0, 1): 2, (3, 2): 2}, LoopEdgeError,
         "color-3 map sends vertex 2 to 2"),
        ({(0, 1): 2, (2, 3): -2}, LoopEdgeError,
         "color-2 map sends vertex 3 to -2"),
        ({(1, 3): 4, (0, 1): 3}, LoopEdgeError,
         "color-1 map sends vertex 3 to 4"),
        # the first broken involution, by color then vertex
        ({(2, 0): 2, (0, 1): 2}, DuplicateColorError,
         "vertex 1 meets two color-0 edges"),
    ])
    def test_map_fault_precedence(self, faults, error, message):
        maps = [list(row) for row in swap_join_graph().color_maps]
        for (c, v), w in faults.items():
            maps[c][v] = w
        with pytest.raises(error) as info:
            _from_maps(4, maps)
        assert str(info.value) == message

    @pytest.mark.parametrize("edges, error", [
        # a bad color is named before the short list
        ([(0, 1, 0), (0, 1, 9)], InvalidColorError),
        ([(0, 1, 0), (2, 2, 1)], LoopEdgeError),
        ([(0, 1, 0)], MissingColorError),
    ])
    def test_short_list_precedence(self, edges, error):
        with pytest.raises(error) as info:
            validate(4, 10 ** 12, edges)
        assert outcome(kept_build, 4, 10 ** 12, edges) == (error,
                                                           str(info.value))

    @pytest.mark.parametrize("edges, error, message", [
        # a float item and a repeated color are kept until every edge is
        # read, so a range fault after them comes first
        ([(0.0, 1, 0), (0, 1, 1), (1, 1, 2), (0, 1, 3)], LoopEdgeError,
         "loop at vertex 1 with color 2"),
        ([(0, 1, 0), (0, 1, 1.0), (0, 1, 9), (0, 1, 3)], InvalidColorError,
         "color 9 outside 0..4"),
        ([(0, 1, 0), (0, 1, 0), (0, 7, 1), (0, 1, 3)], LoopEdgeError,
         "edge (0,7,1) has an endpoint outside 0..1"),
        # a short list is named before a repeated color, and by its length
        ([(0, 1, 0), (0, 1, 0), (0, 1, 1)], MissingColorError,
         "3 edges cannot give 2 vertices every color below 4"),
        ([(0, 1, c) for c in range(3)], MissingColorError,
         "3 edges cannot give 2 vertices every color below 4"),
    ])
    def test_deferred_fault_precedence(self, edges, error, message):
        with pytest.raises(error) as info:
            validate(4, 2, edges)
        assert str(info.value) == message
        assert outcome(kept_build, 4, 2, edges) == (error, message)

    def test_float_vertex_takes_the_exception_path(self):
        edges = [(0.0, 1, c) for c in range(5)]
        got = outcome(ColoredGraph.from_edges, 4, 2, edges)
        assert got[0] is TypeError
        assert got == outcome(kept_build, 4, 2, edges)


class TestResidues:
    def test_s4_pair(self, s4):
        dec = residues(s4, {0, 1})
        assert dec.count == 1 and dec.regular == (True,)

    def test_b4_mixed_pair(self, b4):
        dec = residues(b4, {0, 4})
        assert dec.count == 1 and dec.regular == (False,)
        assert count_g(b4, {0, 4}) == (1, 0)

    def test_s4_four_colors(self, s4):
        assert residues(s4, {0, 1, 3, 4}).count == 1

    def test_invalid_color(self, s4):
        with pytest.raises(InvalidColorError):
            residues(s4, {0, 9})

    def test_empty_set_isolates(self, s4):
        assert residues(s4, set()).count == 2

    @pytest.mark.parametrize("colors,expected", [
        ({0, 1}, (1, 1)),
        ({3, 4}, (1, 0)),
        ({2, 3}, (1, 1)),
    ])
    def test_count_g_b4(self, b4, colors, expected):
        assert count_g(b4, colors) == expected

    def test_count_g_s4_all_pairs(self, s4):
        for i in range(5):
            for j in range(i + 1, 5):
                assert count_g(s4, {i, j}) == (1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans(), st.data())
    def test_without_is_the_complement(self, d, p, seed, with_boundary, data):
        g = (random_boundary_gem(d, p, seed % p, seed=seed) if with_boundary
             and p > 1 else random_gem(d, p, seed=seed))
        left_out = data.draw(st.sets(st.integers(0, d)))
        dec = _without(g, *left_out)
        assert dec == residues(g, set(g.colors) - left_out)
        assert dec.color_set == tuple(c for c in g.colors if c not in left_out)

    @pytest.mark.parametrize("color", [-1, 5])
    def test_without_refuses_a_color_outside(self, s4, color):
        with pytest.raises(InvalidColorError):
            _without(s4, 0, color)
        assert s4._memo == {}


class TestColorsOf:
    @staticmethod
    def per_bit(mask):
        return tuple(c for c in range(mask.bit_length()) if mask >> c & 1)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.integers(0, 2 ** 5001),
        st.sets(st.integers(0, 5000), max_size=20).map(
            lambda cs: sum(1 << c for c in cs))))
    def test_same_as_per_bit(self, mask):
        assert _colors_of(mask) == self.per_bit(mask)

    def test_top_bits(self):
        for mask in (0, 1, 2 ** 5000, 2 ** 5001 - 1, 2 ** 5000 | 1):
            assert _colors_of(mask) == self.per_bit(mask)


class TestClassify:
    def test_s4(self, s4):
        cls = classify_vertices(s4)
        assert (cls.p_bar, cls.p_dot) == (0, 1)

    def test_b4(self, b4):
        cls = classify_vertices(b4)
        assert (cls.p_bar, cls.p_dot) == (1, 0)
        assert cls.boundary_vertices == (0, 1)

    def test_after_dipole_insert(self, s4):
        bigger, _, _ = insert_1_dipole(s4, (0, 1), 0)
        cls = classify_vertices(bigger)
        assert (cls.p_bar, cls.p_dot) == (0, 2)


class TestContractedCrystallization:
    def test_s4_contracted(self, s4):
        assert all(is_contracted(s4).values())

    def test_swap_join_not_contracted_at_final(self):
        flags = is_contracted(swap_join_graph())
        assert flags == {0: True, 1: True, 2: True, 3: True, 4: False}

    def test_b4_contracted(self, b4):
        assert all(is_contracted(b4).values())

    def test_crystallization(self, s4, b4):
        assert is_crystallization(b4, h=1)
        assert is_crystallization(s4, h=0)
        assert not is_crystallization(swap_join_graph(), h=0)

    def test_negative_h(self, s4):
        with pytest.raises(PreconditionError):
            is_crystallization(s4, h=-1)


class TestRandomGems:
    def test_order_two_forced(self):
        assert random_gem(4, 1, seed=0) == order_two_gem(4)

    def test_deterministic(self):
        assert random_gem(2, 3, seed=42) == random_gem(2, 3, seed=42)

    def test_p_zero_rejected(self):
        with pytest.raises(PreconditionError):
            random_gem(4, 0, seed=1)

    def test_boundary_gem_shape(self):
        g = random_boundary_gem(4, 5, 2, seed=7)
        assert not g.is_regular
        assert len(g.boundary_vertices()) == 6

    def test_boundary_gem_bad_split(self):
        with pytest.raises(PreconditionError):
            random_boundary_gem(4, 3, 3, seed=7)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 6), st.integers(0, 2 ** 20))
    def test_random_gem_validates(self, d, p, seed):
        g = random_gem(d, p, seed=seed)
        assert g.is_regular and g.num_vertices == 2 * p

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 20))
    def test_random_boundary_gem_validates(self, p, seed):
        g = random_boundary_gem(4, p, p - 1, seed=seed)
        assert not g.is_regular


class TestStructuralProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 20))
    def test_pair_counts_dominate_regular(self, p, seed):
        g = random_boundary_gem(4, p, max(0, p - 2), seed=seed)
        boundary = set(g.boundary_vertices())
        for i in range(5):
            for j in range(i + 1, 5):
                dec = residues(g, {i, j})
                assert dec.count >= dec.regular_count >= 0
                for comp, reg in zip(dec.components, dec.regular):
                    if not reg:
                        assert any(v in boundary for v in comp)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 20))
    def test_edge_counts_per_color(self, p, seed):
        g = random_boundary_gem(4, p, max(0, p - 2), seed=seed)
        cls = classify_vertices(g)
        per_color = {c: 0 for c in g.colors}
        for _, _, c in g.edges():
            per_color[c] += 1
        assert all(per_color[c] == cls.p for c in range(4))
        assert per_color[4] == cls.p_dot

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2 ** 20))
    def test_components_match_bruteforce(self, p, seed):
        g = random_gem(4, p, seed=seed)
        edges = list(g.edges())
        for colors in [{0, 1}, {2, 4}, {0, 1, 2}, {1, 2, 3, 4}]:
            assert residues(g, colors).count == bf.count_components(
                g.num_vertices, edges, colors)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 20))
    def test_bipartite_even_cycles(self, p, seed):
        g = random_boundary_gem(4, p, max(0, p - 1), seed=seed)
        if not g.is_bipartite:
            return
        for i in range(5):
            for j in range(i + 1, 5):
                dec = residues(g, {i, j})
                for comp, reg in zip(dec.components, dec.regular):
                    if reg:
                        assert len(comp) % 2 == 0
