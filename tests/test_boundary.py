import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemkit import (
    ball_gem,
    boundary_component_count,
    boundary_g,
    boundary_graph,
    classify_vertices,
    order_two_gem,
    random_boundary_gem,
    regular_genus,
    residues,
)
from gemkit.errors import InvalidColorError, NoBoundaryError
from gemkit.moves import insert_1_dipole

import bruteforce as bf
from corpus import k33_graph, pseudo_shell_graph


class TestBoundaryGraph:
    def test_b4(self, b4):
        bg = boundary_graph(b4)
        assert bg.graph.num_vertices == 2
        assert sorted(bg.graph.edges()) == [(0, 1, c) for c in range(4)]
        assert bg.num_components == 1
        assert bg.parent_vertex_map == (0, 1)

    def test_internal_insertion_leaves_boundary_alone(self, shell):
        # splitting at an internal vertex cannot touch the boundary traces
        internal = set(range(shell.num_vertices)) - set(shell.boundary_vertices())
        u, v, c = next(e for e in shell.edges() if e[0] in internal)
        bigger, _, genuine = insert_1_dipole(shell, (u, v), c)
        assert genuine
        assert boundary_graph(bigger).graph == boundary_graph(shell).graph

    def test_boundary_insertion_grows_sphere_boundary(self, b4):
        # splitting at a boundary vertex enlarges the boundary gem but the
        # encoded boundary manifold stays a sphere
        bigger, _, genuine = insert_1_dipole(b4, (0, 1), 2)
        assert genuine
        bg = boundary_graph(bigger)
        assert bg.num_components == 1
        assert bg.graph.num_vertices == 4
        assert regular_genus(bg.component_subgraph(0))[0] == 0

    def test_regular_rejected(self, s4):
        with pytest.raises(NoBoundaryError):
            boundary_graph(s4)

    def test_deterministic(self, pseudo_shell):
        a, b = boundary_graph(pseudo_shell), boundary_graph(pseudo_shell)
        assert a.graph == b.graph and a.component_map == b.component_map

    def test_component_subgraph(self, pseudo_shell):
        bg = boundary_graph(pseudo_shell)
        assert bg.num_components == 2
        for k in range(2):
            comp = bg.component_subgraph(k)
            assert comp.is_regular and comp.num_vertices == 2

    @pytest.mark.parametrize("gem", ["pseudo_shell", "shell"])
    def test_component_subgraph_is_its_component_renumbered(self, gem,
                                                            request):
        bg = boundary_graph(request.getfixturevalue(gem))
        edges = list(bg.graph.edges())
        for k in range(bg.num_components):
            verts = [v for v, m in enumerate(bg.component_map) if m == k]
            index = {v: i for i, v in enumerate(verts)}
            assert list(bg.component_subgraph(k).edges()) == sorted(
                ((index[u], index[v], c) for u, v, c in edges if u in index),
                key=lambda e: (e[2], e[0]))

    @pytest.mark.parametrize("index", [2, -1])
    def test_component_subgraph_out_of_range(self, pseudo_shell, index):
        with pytest.raises(ValueError, match=f"^no boundary component {index}$"):
            boundary_graph(pseudo_shell).component_subgraph(index)


class TestBoundaryG:
    @pytest.mark.parametrize("colors,expected", [
        ({0, 3}, 1), ({0, 1, 2}, 1), ({0}, 1),
    ])
    def test_b4(self, b4, colors, expected):
        assert boundary_g(b4, colors) == expected

    def test_final_color_rejected(self, b4):
        with pytest.raises(InvalidColorError):
            boundary_g(b4, {0, 4})

    def test_negative_color_rejected(self, b4):
        with pytest.raises(InvalidColorError):
            boundary_g(b4, {-1, 0})

    def test_no_boundary(self, s4):
        with pytest.raises(NoBoundaryError):
            boundary_g(s4, {0, 1})


class TestComponentCount:
    def test_values(self, s4, b4, pseudo_shell, shell):
        assert boundary_component_count(b4) == 1
        assert boundary_component_count(s4) == 0
        assert boundary_component_count(pseudo_shell) == 2
        assert boundary_component_count(shell) == 2


class TestSphericity:
    """Genus 0 certifies a sphere; a positive genus leaves it open."""

    def test_b4_boundary_is_sphere(self, b4):
        bg = boundary_graph(b4)
        assert regular_genus(bg.component_subgraph(0))[0] == 0

    def test_torus_unknown(self):
        assert regular_genus(k33_graph())[0] != 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_order_two_sphere(self, d):
        assert regular_genus(order_two_gem(d))[0] == 0


class TestBoundaryProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 10), st.integers(0, 2 ** 20))
    def test_matches_walk_oracle(self, d, p, seed):
        g = random_boundary_gem(d, p, seed % p, seed=seed)
        bg = boundary_graph(g)
        n, edges = bf.boundary_edges(d, g.num_vertices, list(g.edges()))
        assert bg.graph.num_vertices == n
        assert sorted(bg.graph.edges()) == sorted(edges)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2 ** 20))
    def test_boundary_edges_per_color(self, p, seed):
        g = random_boundary_gem(4, p, max(0, p - 3), seed=seed)
        bg = boundary_graph(g)
        p_bar = classify_vertices(g).p_bar
        per_color = {c: 0 for c in range(4)}
        for _, _, c in bg.graph.edges():
            per_color[c] += 1
        assert all(per_color[c] == p_bar for c in range(4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2 ** 20))
    def test_boundary_graph_regular_and_loop_free(self, p, seed):
        g = random_boundary_gem(4, p, max(0, p - 3), seed=seed)
        bg = boundary_graph(g)
        assert bg.graph.is_regular
        assert all(u != v for u, v, _ in bg.graph.edges())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2 ** 20))
    def test_pairwise_identity_on_spherical_triples(self, p, seed):
        """For each color triple whose boundary residue components are all
        sphere gems, the pairwise counts satisfy
        sum = p_bar + 2 * (triple count), hence 2 + p_bar when the triple
        residue is connected."""
        g = random_boundary_gem(4, p, max(0, p - 3), seed=seed)
        bg = boundary_graph(g).graph
        p_bar = bg.num_vertices // 2
        from itertools import combinations
        for tri in combinations(range(4), 3):
            dec = residues(bg, tri)
            spherical = True
            for comp in dec.components:
                pair_sum = _pairwise_in_component(bg, comp, tri)
                if pair_sum - len(comp) // 2 != 2:
                    spherical = False
            if not spherical:
                continue
            total = sum(residues(bg, pair).count
                        for pair in combinations(tri, 2))
            assert total == p_bar + 2 * dec.count
            if dec.count == 1:
                assert total == 2 + p_bar


def _pairwise_in_component(graph, comp, tri):
    comp_set = set(comp)
    total = 0
    from itertools import combinations
    for pair in combinations(tri, 2):
        seen = set()
        for v in comp:
            if v in seen:
                continue
            total += 1
            stack = [v]
            seen.add(v)
            while stack:
                w = stack.pop()
                for c in pair:
                    m = graph.mate(w, c)
                    if m in comp_set and m not in seen:
                        seen.add(m)
                        stack.append(m)
    return total
