import random
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemkit import (
    abelianization_rank,
    ball_gem,
    boundary_component_count,
    boundary_graph,
    check_bound_on_gem,
    euler_characteristic,
    f_vector,
    order_two_gem,
    presentation,
    random_boundary_gem,
    random_gem,
    rank_bounds,
    residues,
    rho_table,
    validate,
)
from gemkit.errors import (
    DisconnectedError,
    GemError,
    InternalInconsistencyError,
    InvalidColorError,
    NoBoundaryError,
    NoSuchEdgeError,
    NotADipoleError,
    NotRegularError,
    TooManyOrdersError,
)
from gemkit.gemio import read_gem, write_gem
from gemkit.moves import (
    DipoleSite,
    RegularizationRecord,
    cancel_1_dipole,
    cap_boundary,
    find_1_dipoles,
    full_contraction,
    insert_1_dipole,
    regularize,
    swap_colors,
)

import gemkit.boundary as boundary
import gemkit.checks as checks
import gemkit.core as core
import gemkit.moves as moves
from gemkit.core import NO_EDGE, ColoredGraph

import bruteforce as bf
from corpus import grow_by_insertions, shell_gem

GEMS = Path(__file__).resolve().parent.parent / "gems"


def random_edge(graph, rng):
    edges = list(graph.edges())
    return edges[rng.randrange(len(edges))]


def cancelled_components(graph, site):
    """Components left by cancelling a site, counted on the edge list: the
    pair's other edges are dropped, and welded where both ends have one."""
    x, y = site.vertices
    kept = [(u, v, c) for u, v, c in graph.edges() if not {u, v} & {x, y}]
    welds = [(graph.mate(x, c), graph.mate(y, c), c) for c in graph.colors
             if c != site.color and graph.has_color(x, c) and graph.has_color(y, c)]
    comps = bf.bfs_components(graph.num_vertices, kept + welds)
    return len(comps) - 2  # x and y are left isolated


class TestFindDipoles:
    def test_order_two_empty(self, s4, b4):
        assert find_1_dipoles(s4) == []
        assert find_1_dipoles(b4) == []

    def test_inserted_edge_reported_with_mate(self, s4):
        bigger, site, genuine = insert_1_dipole(s4, (0, 1), 3)
        assert genuine
        found = find_1_dipoles(bigger)
        assert site in found
        assert found == [DipoleSite(3, (0, 1)), DipoleSite(3, (2, 3))]

    def test_deterministic_order(self):
        g = grow_by_insertions(order_two_gem(4), 4, random.Random(3))
        assert find_1_dipoles(g) == find_1_dipoles(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2 ** 20))
    @example(2, 5, 1048576)  # site (2, 8) of color 0 would disconnect
    @example(2, 3, 49)  # site (1, 4) of color 0 would disconnect
    def test_listed_sites_cancel_on_boundary_gems(self, d, p, seed):
        """A residue-separated edge is listed exactly when cancelling it
        keeps the gem connected; an unlisted one is refused by name."""
        g = random_boundary_gem(d, p, seed % p, seed=seed)
        listed = find_1_dipoles(g)
        for j in g.colors:
            labels = residues(g, set(g.colors) - {j}).labels
            for u in range(g.num_vertices):
                v = g.mate(u, j)
                if v < u or labels[u] == labels[v]:
                    continue
                site = DipoleSite(j, (u, v))
                assert (site in listed) == (cancelled_components(g, site) == 1)
                if site in listed:
                    cancel_1_dipole(g, site)
                else:
                    with pytest.raises(NotADipoleError,
                                       match=re.escape(f"color-{j} edge {site.vertices}")):
                        cancel_1_dipole(g, site)


def separated_sites(graph):
    """Every edge joining two residue components of the other colors."""
    out = []
    for j in graph.colors:
        labels = residues(graph, set(graph.colors) - {j}).labels
        out += [DipoleSite(j, (u, v)) for u, v, c in graph.edges()
                if c == j and labels[u] != labels[v]]
    return out


def cancels(graph, site):
    try:
        moves._weld(graph, *site.vertices)
    except DisconnectedError:
        return False
    return True


class TestBoundarySiteSearch:
    """On a gem with boundary a listed site is one whose cancellation is
    connected, found by a search of the graph without building it."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 7), st.integers(0, 2 ** 20))
    @example(2, 5, 1048576)
    @example(2, 3, 49)
    def test_listed_exactly_when_cancellation_is_connected(self, d, p, seed):
        g = random_boundary_gem(d, p, seed % p, seed=seed)
        want = [s for s in separated_sites(g) if cancels(g, s)]
        assert find_1_dipoles(g) == want

    def test_pair_that_is_the_whole_graph(self):
        # a dimension-1 boundary graph: the cancellation would leave nothing
        g = ColoredGraph.from_edges(1, 2, [(0, 1, 0)])
        assert separated_sites(g) == [DipoleSite(0, (0, 1))]
        assert not cancels(g, DipoleSite(0, (0, 1)))
        assert find_1_dipoles(g) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_listing_builds_no_graph(self, seed):
        g = grow_by_insertions(shell_gem(), 12, random.Random(seed))
        builds = []
        real = moves._from_maps

        def counting(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moves, "_from_maps", counting)
            sites = find_1_dipoles(g)
        assert sites and not builds


def sample_gem(d, p, seed, with_boundary):
    if with_boundary and p > 1:
        return random_boundary_gem(d, p, seed % p, seed=seed)
    return random_gem(d, p, seed=seed)


class TestOneRule:
    """A 1-dipole is an edge whose ends lie in different residues of the
    other colors and whose weld leaves one component; cancelling it is the
    weld, and every other edge is refused by name."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 7), st.integers(0, 2 ** 20),
           st.booleans())
    @example(2, 5, 1048576, True)
    @example(2, 1, 0, False)  # two vertices: every edge is refused
    def test_cancel_is_the_oracle_weld_of_listed_sites(self, d, p, seed,
                                                       with_boundary):
        g = sample_gem(d, p, seed, with_boundary)
        n, edges = g.num_vertices, list(g.edges())
        listed = find_1_dipoles(g)
        assert listed == sorted(listed)
        for u, v, c in edges:
            site = DipoleSite(c, (u, v))
            other = set(g.colors) - {c}
            apart = not any({u, v} <= set(comp)
                            for comp in bf.bfs_components(n, edges, other))
            welded = bf.weld(d, n, edges, u, v)
            connected = n > 2 and len(bf.bfs_components(n - 2, welded)) == 1
            assert (site in listed) == (apart and connected)
            if site in listed:
                out = cancel_1_dipole(g, site)
                assert (out.dimension, out.num_vertices) == (d, n - 2)
                assert list(out.edges()) == welded
            else:
                with pytest.raises(NotADipoleError, match=re.escape(
                        f"color-{c} edge {(u, v)} is not a 1-dipole")):
                    cancel_1_dipole(g, site)
        for c in g.colors:
            v = next(w for w in range(1, n) if g.mate(0, c) != w) if n > 2 else None
            if v is None:
                continue
            with pytest.raises(NoSuchEdgeError, match=re.escape(
                    f"no color-{c} edge {(0, v)}")):
                cancel_1_dipole(g, DipoleSite(c, (0, v)))


class TestCancel:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_graph_build_per_boundary_cancellation(self, seed):
        """On a gem with boundary the connectivity test and the result
        are the same cancelled graph, built once."""
        import gemkit.moves as moves

        g = grow_by_insertions(shell_gem(), 6, random.Random(seed))
        sites = find_1_dipoles(g)
        assert not g.is_regular and sites
        builds = []
        real = moves._from_maps

        def counting(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moves, "_from_maps", counting)
            for site in sites:
                builds.clear()
                cancel_1_dipole(g, site)
                assert len(builds) == 1

    def test_insert_then_cancel_is_identity(self, s4):
        bigger, site, _ = insert_1_dipole(s4, (0, 1), 0)
        assert cancel_1_dipole(bigger, site) == s4

    def test_not_a_dipole(self, s4):
        with pytest.raises(NotADipoleError):
            cancel_1_dipole(s4, DipoleSite(0, (0, 1)))

    def test_no_such_edge(self, s4):
        bigger, _, _ = insert_1_dipole(s4, (0, 1), 0)
        with pytest.raises(NoSuchEdgeError):
            cancel_1_dipole(bigger, DipoleSite(2, (0, 3)))

    def test_swap_join_final_color_dipole(self):
        edges = [(0, 1, c) for c in range(4)] + [(2, 3, c) for c in range(4)]
        edges += [(0, 2, 4), (1, 3, 4)]
        g = validate(4, 4, edges)
        sites = find_1_dipoles(g)
        assert sites == [DipoleSite(4, (0, 2)), DipoleSite(4, (1, 3))]
        assert cancel_1_dipole(g, sites[0]) == order_two_gem(4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2 ** 20), st.integers(0, 10 ** 6))
    def test_f_vector_law_on_regular_gems(self, p, seed, pick):
        g = random_gem(4, p, seed=seed)
        rng = random.Random(pick)
        u, v, c = random_edge(g, rng)
        bigger, site, genuine = insert_1_dipole(g, (u, v), c)
        assert genuine
        delta = tuple(b - a for b, a in zip(f_vector(bigger), f_vector(g)))
        assert delta == (1, 4, 6, 5, 2)
        assert euler_characteristic(bigger) == euler_characteristic(g)
        assert rho_table(bigger) == rho_table(g)
        assert cancel_1_dipole(bigger, site) == g

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2 ** 20), st.integers(0, 10 ** 6))
    def test_insert_preserves_rho_on_boundary_gems(self, p, seed, pick):
        g = random_boundary_gem(4, p, max(0, p - 2), seed=seed)
        rng = random.Random(pick)
        u, v, c = random_edge(g, rng)
        bigger, site, genuine = insert_1_dipole(g, (u, v), c)
        assert genuine
        assert rho_table(bigger) == rho_table(g)
        assert cancel_1_dipole(bigger, site) == g


class TestInsert:
    def test_split_s4_shape(self, s4):
        bigger, site, genuine = insert_1_dipole(s4, (0, 1), 0)
        assert bigger.num_vertices == 4 and bigger.is_regular
        assert f_vector(bigger)[4] == 4
        assert genuine and site == DipoleSite(0, (2, 3))

    def test_no_such_edge(self, b4):
        with pytest.raises(NoSuchEdgeError):
            insert_1_dipole(b4, (0, 1), 4)

    def test_boundary_split_keeps_rho(self, b4):
        bigger, _, genuine = insert_1_dipole(b4, (0, 1), 1)
        assert genuine
        assert set(rho_table(bigger).values()) == set(rho_table(b4).values())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 7), st.integers(0, 2 ** 20),
           st.booleans(), st.integers(0, 10 ** 6))
    def test_flag_is_the_residue_test(self, d, p, seed, with_boundary, pick):
        if with_boundary and p > 1:
            g = random_boundary_gem(d, p, seed % p, seed=seed)
        else:
            g = random_gem(d, p, seed=seed)
        rng = random.Random(pick)
        for color in g.colors:
            ends = [u for u in range(g.num_vertices) if g.has_color(u, color)]
            if not ends:
                continue
            u = rng.choice(ends)
            bigger, site, genuine = insert_1_dipole(g, (u, g.mate(u, color)), color)
            x, y = site.vertices
            labels = residues(bigger, set(bigger.colors) - {color}).labels
            assert genuine == (labels[x] != labels[y])


class TestInsertBuild:
    """``insert_1_dipole`` builds its result once, from the split maps,
    with no map check and no traversal; a graph of several components and
    a split that isolates the new pair go through the checked build."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 8), st.integers(0, 2 ** 20),
           st.sampled_from(["regular", "boundary", "grown ball",
                            "grown sphere"]),
           st.integers(0, 10 ** 6))
    @example(3, 4, 7, "regular", 0)
    @example(4, 5, 3, "boundary", 1)
    @example(2, 3, 11, "grown ball", 2)
    def test_matches_the_checked_build(self, d, p, seed, kind, pick):
        # a grown ball or sphere is bipartite; a random gem seldom is
        if kind == "regular":
            g = random_gem(d, p, seed=seed)
        elif kind == "boundary":
            g = random_boundary_gem(d, p + 1, seed % (p + 1), seed=seed)
        else:
            base = ball_gem(d) if kind == "grown ball" else order_two_gem(d)
            g = grow_by_insertions(base, p, random.Random(seed))
        rng = random.Random(pick)
        starts = [rng.randrange(g.num_vertices) for _ in range(3)]
        starts += g.boundary_vertices()[:2]
        for u in starts:
            for color in g.colors:
                if not g.has_color(u, color):
                    continue
                out, site, genuine = insert_1_dipole(
                    g, (u, g.mate(u, color)), color)
                want = core._from_maps(d, [list(r) for r in out.color_maps])
                assert out == want and out._memo == {}
                assert (out.is_regular, out.is_bipartite) == (
                    want.is_regular, want.is_bipartite)
                assert genuine and site == DipoleSite(
                    color, (g.num_vertices, g.num_vertices + 1))

    def test_boundary_graph_of_two_components_is_refused(self):
        boundary = boundary_graph(read_gem(GEMS / "shell.gem"))
        bg = boundary.graph
        assert boundary.num_components == 2
        for color in bg.colors:
            with pytest.raises(DisconnectedError,
                               match="^2 connected components$"):
                insert_1_dipole(bg, (0, bg.mate(0, color)), color)

    def test_split_that_isolates_the_pair_is_refused(self):
        # at d = 1 the only other color of a boundary vertex is missing,
        # so the new pair meets nothing but itself
        arc = ColoredGraph.from_edges(1, 2, [(0, 1, 0)])
        with pytest.raises(DisconnectedError,
                           match="^2 connected components$"):
            insert_1_dipole(arc, (0, 1), 0)
        # with an edge of the other color at u, the split is built directly
        loop = ColoredGraph.from_edges(1, 2, [(0, 1, 0), (0, 1, 1)])
        for color in loop.colors:
            out, _, _ = insert_1_dipole(loop, (0, 1), color)
            want = core._from_maps(1, [list(r) for r in out.color_maps])
            assert out == want and (out.is_regular, out.is_bipartite) == (
                want.is_regular, want.is_bipartite)

    def test_growth_builds_no_checked_graph(self):
        g = order_two_gem(4)
        calls = Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            for module, name in ((core, "_from_maps"), (moves, "_from_maps"),
                                 (core, "_graph")):
                mp.setattr(module, name, counted(name, getattr(module, name)))
            g = grow_by_insertions(g, 50, random.Random(1))
        assert g.num_vertices == 102 and calls == {}


class TestRegularize:
    def test_b4_capping_gives_order_two_sphere(self, b4, s4):
        out, record = regularize(b4, singular_color=0)
        assert out == s4
        assert record.added_edges == ((0, 1),)
        assert record.color_swap == (0, 4)

    def test_lemma_counts_on_capped_graph(self, b4):
        capped, added = cap_boundary(b4, 0)
        assert added == ((0, 1),)
        assert residues(capped, {1, 4}).count == 1  # 0 regular + 1 boundary cycle

    def test_chi_increase_example(self, b4):
        out, _ = regularize(b4, singular_color=2)
        assert f_vector(b4) == (5, 10, 10, 6, 2)
        assert f_vector(out) == (5, 10, 10, 5, 2)
        assert euler_characteristic(out) - euler_characteristic(b4) == 1

    def test_regular_input_rejected(self, s4):
        with pytest.raises(NoBoundaryError):
            regularize(s4, singular_color=0)

    def test_final_color_rejected(self, b4):
        with pytest.raises(InvalidColorError):
            regularize(b4, singular_color=4)

    def test_error_order(self, s4, b4):
        # regularize rejects a regular gem first, cap_boundary a bad color
        for color in (0, 4, -1):
            with pytest.raises(NoBoundaryError,
                               match="^graph is already regular$"):
                regularize(s4, singular_color=color)
        for color in (4, -1):
            with pytest.raises(InvalidColorError,
                               match=r"^singular color must lie in 0\.\.3$"):
                regularize(b4, singular_color=color)
        with pytest.raises(InvalidColorError):
            cap_boundary(s4, 4)
        with pytest.raises(NoBoundaryError):
            cap_boundary(s4, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 9), st.integers(0, 2 ** 20),
           st.booleans())
    def test_one_build_matches_cap_then_swap(self, d, p, seed, grown):
        # a grown ball is bipartite; a random boundary gem seldom is
        g = (grow_by_insertions(ball_gem(d), p, random.Random(seed)) if grown
             else random_boundary_gem(d, p, seed % p, seed=seed))
        assert g.is_bipartite or not grown
        n, edges = g.num_vertices, list(g.edges())

        def refused(*args, **kwargs):
            raise AssertionError("regularize checked the input's maps again")

        for c in range(d):
            # the result is built from the input's maps, with no map check
            # and no traversal for connectivity or bipartiteness
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(moves, "_from_maps", refused)
                mp.setattr(core, "_graph", refused)
                out, record = regularize(g, singular_color=c)
            assert out._memo == {}
            capped, added = cap_boundary(g, c)
            oracle_added = bf.capping_edges(d, n, edges, c)
            by_oracle = validate(d, n, edges + [(u, v, d) for u, v in oracle_added])
            for want in (swap_colors(capped, c, d), swap_colors(by_oracle, c, d)):
                assert out == want
                assert (out.is_regular, out.is_bipartite) == (
                    want.is_regular, want.is_bipartite)
            assert record == RegularizationRecord(c, added, (c, d))
            assert list(added) == oracle_added

    @pytest.mark.parametrize("fault", ["involution", "fixed point", "no edge"])
    def test_capped_map_is_checked(self, fault):
        g = random_boundary_gem(4, 6, 2, seed=5)
        real = moves._capped_final

        def broken(graph, color):
            final, added = real(graph, color)
            a = final[0]
            b = next(v for v in range(1, len(final)) if v != a)
            final[0] = {"involution": b, "fixed point": 0,
                        "no edge": NO_EDGE}[fault]
            if fault == "no edge":
                final[a] = NO_EDGE
            return final, added

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moves, "_capped_final", broken)
            with pytest.raises(InternalInconsistencyError,
                               match="^capping gave no perfect matching$"):
                regularize(g, singular_color=1)

    READERS = ("regularize", "capping rows", "boundary graph")

    @staticmethod
    def raise_on_joined_ends(reader, joined):
        """Relabel the {1, 4}-residues of a boundary gem so that the
        residue of its least boundary vertex also holds the ``joined``
        boundary vertices, read through ``boundary._residues_by_mask``,
        and require ``reader`` to raise naming that residue."""
        g = random_boundary_gem(4, 6, 2, seed=5)
        c, d = 1, 4
        real = boundary._residues_by_mask
        dec = core._residues_by_mask(g, 1 << c | 1 << d)
        b = g.boundary_vertices()
        labels = list(dec.labels)
        moved = joined(labels, b)
        for v in moved:
            labels[v] = labels[b[0]]

        def relabelled(graph, mask):
            if graph is g and mask == 1 << c | 1 << d:
                return core.ResidueDecomposition(dec.color_set, dec.regular,
                                                 tuple(labels))
            return real(graph, mask)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(boundary, "_residues_by_mask", relabelled)
            with pytest.raises(InternalInconsistencyError,
                               match=rf"^the \{{1,4\}}-residue of vertex {b[0]} "
                                     rf"holds {2 + len(moved)} boundary "
                                     "vertices$"):
                if reader == "regularize":
                    regularize(g, singular_color=c)
                elif reader == "capping rows":
                    checks._capping_rows(g)
                else:
                    boundary_graph(g)

    @pytest.mark.parametrize("reader", READERS)
    def test_three_boundary_ends_in_one_residue_raise(self, reader):
        """``_capping_edges`` pairs the boundary vertices of each {c, d}-
        residue; labels that put a third boundary vertex in one residue
        are an inconsistency for every reader, not a capping edge."""
        self.raise_on_joined_ends(reader, lambda labels, b: [
            next(v for v in b if labels[v] != labels[b[0]])])

    @pytest.mark.parametrize("reader", READERS)
    def test_four_boundary_ends_in_one_residue_raise(self, reader):
        """Labels that join two paths into one residue of four boundary
        vertices are refused too, not paired two by two."""
        def other_path(labels, b):
            k = next(labels[v] for v in b if labels[v] != labels[b[0]])
            return [v for v in b if labels[v] == k]
        self.raise_on_joined_ends(reader, other_path)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 20), st.integers(0, 3))
    def test_caps_like_cap_boundary(self, p, seed, c):
        g = random_boundary_gem(4, p, max(0, p - 2), seed=seed)
        out, record = regularize(g, singular_color=c)
        capped, added = cap_boundary(g, c)
        assert out == swap_colors(capped, c, 4)
        assert record == RegularizationRecord(c, added, (c, 4))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 10), st.integers(0, 2 ** 20),
           st.integers(0, 4))
    def test_capping_order_is_least_path_vertex(self, d, p, seed, c):
        g = random_boundary_gem(d, p, seed % p, seed=seed)
        c %= d
        _, added = cap_boundary(g, c)
        dec = residues(g, {c, d})
        least = [dec.components[dec.component_of(u)][0] for u, _ in added]
        assert least == sorted(least)
        assert all(dec.component_of(u) == dec.component_of(v) and u < v
                   for u, v in added)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 11), st.integers(0, 2 ** 20),
           st.integers(0, 5))
    def test_capping_matches_walk_oracle(self, d, p, seed, c):
        g = random_boundary_gem(d, p, seed % p, seed=seed)
        c %= d
        _, added = cap_boundary(g, c)
        assert list(added) == bf.capping_edges(d, g.num_vertices,
                                               list(g.edges()), c)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 20), st.integers(0, 3))
    def test_capping_makes_regular(self, p, seed, c):
        g = random_boundary_gem(4, p, max(0, p - 2), seed=seed)
        capped, added = cap_boundary(g, c)
        assert capped.is_regular
        assert capped.num_vertices == g.num_vertices
        assert len(added) * 2 == len(g.boundary_vertices())


class TestSwapColors:
    def test_involution(self, b4):
        g = grow_by_insertions(ball_gem(4), 3, random.Random(9))
        assert swap_colors(swap_colors(g, 1, 3), 1, 3) == g

    def test_f_vector_invariant(self):
        g = random_gem(4, 4, seed=11)
        assert f_vector(swap_colors(g, 0, 2)) == f_vector(g)


class TestFullContraction:
    def test_collapse_to_order_two(self, s4):
        g = grow_by_insertions(s4, 3, random.Random(21))
        assert full_contraction(g) == s4

    def test_idempotent(self, s4):
        g = grow_by_insertions(s4, 4, random.Random(22))
        once = full_contraction(g)
        assert full_contraction(once) == once

    def test_five_complex_vertices_after_pipeline(self, regularized_b4):
        # the contracted regular image of a connected-boundary gem has a
        # five-vertex complex: one residue per removed color
        assert f_vector(regularized_b4)[0] == 5

    def test_boundary_rejected(self, b4):
        with pytest.raises(NotRegularError):
            full_contraction(b4)

    @pytest.mark.parametrize("verify", [True, False])
    def test_several_components_refused_before_any_step(self, monkeypatch,
                                                        verify):
        """A regular graph of two components, contracted already (the
        shell's boundary graph) or holding sites (two copies of a grown
        3-sphere gem), is refused from its memo's component count before
        any invariant is read or any step taken."""
        def refused(*args):
            raise AssertionError("reached")

        contracted = boundary_graph(read_gem(GEMS / "shell.gem")).graph
        one = grow_by_insertions(order_two_gem(3), 3, random.Random(1))
        n = one.num_vertices
        twice = core._from_maps(3, [[*row, *(v + n for v in row)]
                                    for row in one.color_maps],
                                require_connected=False)
        assert (contracted.num_vertices, len(find_1_dipoles(contracted))) == (4, 0)
        assert (twice.num_vertices, len(find_1_dipoles(twice))) == (16, 12)
        for name in ("_contract", "genus_table", "euler_characteristic"):
            monkeypatch.setattr(moves, name, refused)
        for g in (contracted, twice):
            with pytest.raises(DisconnectedError,
                               match="^2 connected components$"):
                full_contraction(g, verify=verify)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 20))
    def test_contraction_of_grown_sphere_gems(self, seed):
        rng = random.Random(seed)
        g = grow_by_insertions(order_two_gem(4), rng.randint(1, 6), rng)
        contracted = full_contraction(g)
        assert contracted == order_two_gem(4)

    def test_verify_flag_checks_invariants(self):
        g = grow_by_insertions(order_two_gem(4), 5, random.Random(1))
        assert full_contraction(g, verify=True) == order_two_gem(4)

    def test_input_invariants_are_read_before_the_pass(self, monkeypatch):
        """A dimension with too many cyclic orders is refused by the
        input's genus table, before the pass or any f-vector; unverified,
        the pass runs."""
        def refused(*args):
            raise AssertionError("reached")

        g = grow_by_insertions(order_two_gem(10), 1, random.Random(1))
        with monkeypatch.context() as mp:
            mp.setattr(moves, "_contract", refused)
            mp.setattr(moves, "euler_characteristic", refused)
            with pytest.raises(TooManyOrdersError):
                full_contraction(g)
        assert full_contraction(g, verify=False) == order_two_gem(10)

    def test_large_gems_match_the_step_by_step_loop(self, tmp_path):
        """The 2002-vertex grown S⁴ gem and the 610-vertex grown shell,
        capped on color 0: each grown gem is the checked build of its own
        maps, ``gemkit contract`` in a fresh process gives the step-by-step
        loop's gem, and the grown S⁴'s rank bounds are the Tietze oracle's."""
        grown = grow_by_insertions(order_two_gem(4), 1000, random.Random(1))
        shell = grow_by_insertions(read_gem(GEMS / "shell.gem"), 300,
                                   random.Random(2))
        assert (grown.num_vertices, shell.num_vertices) == (2002, 610)
        # insertion builds each gem from its maps unchecked: the checked
        # build of the same maps must give the same graph and flags
        for name, g in (("grown2002", grown), ("shell", shell)):
            want = core._from_maps(g.dimension, [list(row) for row in g.color_maps])
            assert (g, g.is_regular, g.is_bipartite) == (
                want, want.is_regular, want.is_bipartite), \
                f"{name}: differs from the checked build"
        write_gem(grown, tmp_path / "grown2002.gem")
        write_gem(regularize(shell, singular_color=0)[0], tmp_path / "shell.gem")
        for name in ("grown2002", "shell"):
            source = tmp_path / f"{name}.gem"
            target = tmp_path / f"{name}-contracted.gem"
            # the timeout only guards against a hang; it is not a speed gate
            done = subprocess.run([sys.executable, "-m", "gemkit.cli", "--json",
                                   "contract", str(source), "-o", str(target)],
                                  capture_output=True, text=True, timeout=300,
                                  cwd=GEMS.parent)
            assert done.returncode == 0, f"{name}: contract exit code " \
                f"{done.returncode}\n{done.stderr}"
            g = read_gem(source)
            while (site := first_site(g)) is not None:
                g = cancel_1_dipole(g, site)
            assert read_gem(target) == g, f"{name}: differs from step by step"
        # one-letter relators name all 389..414 generators of each pair,
        # more than the 200-pass budget: the Tietze loop runs, not the
        # short-circuit, and its upper bound matches the sequential oracle
        g = read_gem(tmp_path / "grown2002.gem")
        for i, j in combinations(g.colors, 2):
            pres = presentation(g, i, j)
            got = rank_bounds(pres)  # before the oracle reads the words
            want = (0, bf.tietze_simplify(pres.num_generators, pres.relators)[0])
            assert got == want, f"pair {i},{j}: rank bounds"


def first_site(graph):
    """The first site ``find_1_dipoles`` lists, or None; colors past it
    are not decomposed."""
    return next(moves._sites(graph), None)


def inner_first(graph):
    """The site full contraction cancels, chosen from the whole list."""
    sites = find_1_dipoles(graph)
    inner = [s for s in sites if s.color < graph.dimension]
    return inner[0] if inner else (sites[0] if sites else None)


class TestFirstSite:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.integers(0, 12))
    def test_matches_inner_first_choice(self, d, p, seed, inserts):
        rng = random.Random(seed)
        for g in (random_gem(d, p, seed=seed),
                  grow_by_insertions(order_two_gem(d), inserts, rng)):
            assert first_site(g) == inner_first(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 7), st.integers(0, 2 ** 20),
           st.integers(0, 8))
    @example(2, 5, 1048576, 0)  # separated edges before the first listed
    def test_first_listed_on_boundary_gems(self, d, p, seed, inserts):
        rng = random.Random(seed)
        for g in (random_boundary_gem(d, p, seed % p, seed=seed),
                  grow_by_insertions(ball_gem(d), inserts, rng)):
            sites = find_1_dipoles(g)
            assert first_site(g) == (sites[0] if sites else None)

    def test_none_without_sites(self, s4):
        assert first_site(s4) is None
        assert first_site(full_contraction(random_gem(4, 3, seed=0))) is None

    def test_only_final_color_sites(self, s4):
        g, site, _ = insert_1_dipole(s4, (0, 1), 4)
        assert {s.color for s in find_1_dipoles(g)} == {4}
        assert first_site(g) == DipoleSite(4, (0, 1)) == inner_first(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_along_shell_contractions(self, seed):
        """Contracting a capped shell gem ends on final-color sites only."""
        g = grow_by_insertions(shell_gem(), 8, random.Random(seed))
        g, _ = regularize(g, singular_color=seed % 4)
        final_only = 0
        while (site := first_site(g)) is not None:
            assert site == inner_first(g)
            final_only += site.color == g.dimension
            g = cancel_1_dipole(g, site)
        assert inner_first(g) is None and final_only


def oracle_miss(graph, result):
    """What the verified contraction must raise when its pass turns
    ``graph`` into ``result``, from the oracle's readings: a moved Euler
    characteristic, else the first cyclic order whose genus moved, else
    the first 1-dipole left; None when the oracle accepts the result."""
    d = graph.dimension
    n, edges = graph.num_vertices, list(graph.edges())
    m, out_edges = result.num_vertices, list(result.edges())
    chi, out_chi = (bf.euler_characteristic(d, n, edges),
                    bf.euler_characteristic(d, m, out_edges))
    if chi != out_chi:
        return f"contraction moved the Euler characteristic: {chi} -> {out_chi}"
    for eps in bf.cyclic_classes(d):
        rho, out_rho = (bf.rho_closed(d, n, edges, eps),
                        bf.rho_closed(d, m, out_edges, eps))
        if rho != out_rho:
            return (f"contraction moved the genus at order "
                    f"{','.join(map(str, eps))}: {rho} -> {out_rho}")
    site = bf.first_1_dipole(d, m, out_edges)
    return None if site is None else (
        f"contraction left a 1-dipole: "
        f"DipoleSite(color={site[0]}, vertices=({site[1]}, {site[2]}))")


class TestVerifyPass:
    """A contraction pass whose result moved an invariant or kept a site
    fails the end check, which names what moved or the site left."""

    def run_with(self, monkeypatch, g, result):
        monkeypatch.setattr(moves, "_contract", lambda graph: result)
        assert full_contraction(g, verify=False) is result
        with pytest.raises(InternalInconsistencyError) as err:
            full_contraction(g)
        return str(err.value)

    def test_euler_characteristic_change(self, monkeypatch):
        # contracted gems with one genus table, the second one's Euler
        # characteristic one more: only the characteristic tells them apart
        start = full_contraction(random_gem(4, 3, seed=42))
        other = full_contraction(random_gem(4, 4, seed=48))
        g = grow_by_insertions(start, 3, random.Random(4))
        assert rho_table(other) == rho_table(g)
        chi = euler_characteristic(g)
        assert euler_characteristic(other) == chi + 1
        assert first_site(other) is None
        message = self.run_with(monkeypatch, g, other)
        assert message == oracle_miss(g, other) == (
            f"contraction moved the Euler characteristic: {chi} -> {chi + 1}")

    def test_genus_table_change(self, monkeypatch):
        g = grow_by_insertions(order_two_gem(4), 3, random.Random(4))
        other = random_gem(4, 2, seed=0)
        assert euler_characteristic(other) == 2
        assert rho_table(other) != rho_table(order_two_gem(4))
        assert first_site(other) is None
        message = self.run_with(monkeypatch, g, other)
        assert message == oracle_miss(g, other)
        assert message.startswith("contraction moved the genus at order ")

    def test_site_left(self, monkeypatch):
        """A pass that returns its input keeps both invariants, and the
        end check names the input's first site."""
        g = grow_by_insertions(order_two_gem(4), 3, random.Random(4))
        message = self.run_with(monkeypatch, g, g)
        assert message == oracle_miss(g, g) == (
            f"contraction left a 1-dipole: {first_site(g)}")


def contraction_gem(kind, d, inserts, seed):
    """A regular gem to contract: the order-two gem of dimension d grown by
    insertions, or a random boundary gem, a grown ball gem of dimension d
    or a grown shell gem, regularized on a seeded singular color."""
    rng = random.Random(seed)
    if kind == "grown":
        return grow_by_insertions(order_two_gem(d), inserts, rng)
    if kind == "random":
        p = rng.randint(2, 6)
        g = random_boundary_gem(d, p, rng.randrange(p), seed=seed)
    else:
        g = grow_by_insertions(ball_gem(d) if kind == "ball" else shell_gem(),
                               inserts, rng)
    return regularize(g, singular_color=rng.randrange(g.dimension))[0]


class TestEndCheck:
    """The verified contraction compares the invariants at its ends and
    checks that no site is left, and raises on the first that fails."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["grown", "random", "ball", "shell"]),
           st.integers(2, 6), st.integers(1, 8), st.integers(0, 2 ** 20))
    def test_same_output_as_stepwise(self, kind, d, inserts, seed):
        g = contraction_gem(kind, d, inserts, seed)
        out = full_contraction(g)
        assert out == full_contraction(g, verify=False)
        n, edges, message = bf.contraction_stepwise(
            g.dimension, g.num_vertices, list(g.edges()))
        assert message is None
        assert (out.num_vertices, list(out.edges())) == (n, edges)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["grown", "ball", "shell"]), st.integers(1, 8),
           st.integers(0, 2 ** 20), st.integers(0, 30),
           st.sampled_from(["input", "skip", "random", "swap"]))
    @example("grown", 1, 1, 0, "random")  # the Euler characteristic moves
    @example("ball", 1, 2, 0, "swap")  # the genus moves, first at order 2
    @example("grown", 1, 0, 0, "input")  # both keep, and a site is left
    def test_faulty_pass_fails_the_end_check(self, kind, inserts, seed, k,
                                             fault):
        """A pass that returns a wrong graph: its input, the graph after
        only its first k steps, a random gem, or the right graph with two
        colors swapped.  The contraction raises exactly when the oracle
        finds a moved invariant or a 1-dipole left in it, and names the
        first of these the oracle finds."""
        g = contraction_gem(kind, 4, inserts, seed)
        right = full_contraction(g)
        if fault == "random":
            wrong = random_gem(4, 1 + seed % 5, seed=seed)
        elif fault == "swap":
            wrong = swap_colors(right, 0, 1 + seed % 4)
        else:
            wrong = g
            steps = (g.num_vertices - right.num_vertices) // 2
            for _ in range(k % steps if fault == "skip" and steps else 0):
                wrong = cancel_1_dipole(wrong, first_site(wrong))
        want = oracle_miss(g, wrong)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moves, "_contract", lambda graph: wrong)
            if want is None:
                assert full_contraction(g) is wrong
            else:
                with pytest.raises(InternalInconsistencyError) as err:
                    full_contraction(g)
                assert str(err.value) == want

    @pytest.mark.parametrize("verify", [True, False])
    def test_cancel_returning_its_input_raises(self, monkeypatch, verify):
        """A pass and a cancel that each return their input: the end check
        names the site left without calling the cancel.  Unverified, the
        input comes back and the cancel is not called either."""
        g = grow_by_insertions(order_two_gem(4), 3, random.Random(4))
        site, calls = first_site(g), []

        def stuck(graph, s):
            calls.append(s)
            return graph

        monkeypatch.setattr(moves, "_contract", lambda graph: graph)
        monkeypatch.setattr(moves, "cancel_1_dipole", stuck)
        if verify:
            with pytest.raises(InternalInconsistencyError, match=re.escape(
                    f"contraction left a 1-dipole: {site}")):
                full_contraction(g)
        else:
            assert full_contraction(g, verify=False) is g
        assert calls == []


def stepwise(graph):
    """The step-by-step contraction the one pass replaces: cancel
    the first site until none is left.  The graph, or its error's class."""
    try:
        for _ in range(graph.num_vertices // 2 + 1):
            site = first_site(graph)
            if site is None:
                return graph
            graph = cancel_1_dipole(graph, site)
    except GemError as err:
        return type(err)
    raise AssertionError("the step-by-step contraction did not end")


class TestOnePass:
    """The one pass cancels what the step-by-step loop cancels, and its
    work does not grow with the order."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["grown", "random", "ball", "shell"]),
           st.integers(2, 6), st.integers(1, 30), st.integers(0, 2 ** 20))
    @example("grown", 4, 200, 1)  # 402 vertices: the gem the CI step grows
    def test_same_as_stepwise_loop(self, kind, d, inserts, seed):
        g = contraction_gem(kind, d, inserts, seed)
        try:
            out = full_contraction(g, verify=False)
        except GemError as err:
            out = type(err)
        assert out == stepwise(g)

    def test_work_does_not_grow_with_the_order(self):
        """A verified contraction builds one graph and cancels through no
        ``cancel_1_dipole``; it decomposes as many residues at 402
        vertices as at 102."""
        def work(g):
            calls = Counter()

            def counted(real, name):
                def count(*args, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)
                return count

            with pytest.MonkeyPatch.context() as mp:
                for module, name in ((core, "_walk"), (core, "_merge"),
                                     (moves, "_from_maps"),
                                     (moves, "cancel_1_dipole")):
                    mp.setattr(module, name, counted(getattr(module, name), name))
                assert full_contraction(g).num_vertices == 2
            return calls

        small, large = (work(grow_by_insertions(order_two_gem(4), k,
                                                random.Random(1)))
                        for k in (50, 200))
        assert small == large
        assert small["_from_maps"] == 1 and small["cancel_1_dipole"] == 0
        assert small["_walk"] and small["_merge"]


class TestShellPipeline:
    def test_shell_regularization_chi_law(self, shell):
        assert boundary_component_count(shell) == 2
        for c in range(4):
            out, _ = regularize(shell, singular_color=c)
            assert euler_characteristic(out) - euler_characteristic(shell) == 2


# 4-colored gems of closed 3-manifolds on 8 vertices, written out as
# random_gem(3, 4, seed=1408) and seed=1754 draw them: S¹×S² (bipartite)
# and its non-bipartite twin S¹ ×~ S²
S1_X_S2 = ((0, 2, 1), (0, 2, 3), (0, 3, 2), (0, 5, 0), (1, 3, 1), (1, 4, 0),
           (1, 4, 2), (1, 5, 3), (2, 6, 2), (2, 7, 0), (3, 6, 0), (3, 6, 3),
           (4, 6, 1), (4, 7, 3), (5, 7, 1), (5, 7, 2))
S1_TWISTED_S2 = ((0, 1, 3), (0, 3, 1), (0, 3, 2), (0, 4, 0), (1, 6, 1),
                 (1, 7, 0), (1, 7, 2), (2, 4, 2), (2, 6, 0), (2, 6, 3),
                 (2, 7, 1), (3, 5, 0), (3, 7, 3), (4, 5, 1), (4, 5, 3),
                 (5, 6, 2))
THREE_MANIFOLDS = pytest.mark.parametrize(
    "edges, bipartite", [(S1_X_S2, True), (S1_TWISTED_S2, False)],
    ids=["S1xS2", "S1-twisted-S2"])


def double(edges, n=8):
    """Two copies of an n-vertex 4-colored gem of a closed 3-manifold N,
    each vertex joined to its copy by color 4: a regular gem of the
    suspension of N, whose two {0..3}-residues are the links N of the two
    cone points."""
    return ColoredGraph.from_edges(4, 2 * n, [
        *edges, *((u + n, v + n, c) for u, v, c in edges),
        *((v, v + n, 4) for v in range(n))])


class TestDoubles:
    """The doubles of S¹×S² and S¹ ×~ S², regular gems of M̂ for
    M = N × I with (χ, m, h, m̂) = (0, 1, 2, 0): the input on which the
    contraction cancels a color-4 site between the two singular links."""

    @THREE_MANIFOLDS
    def test_the_three_manifold(self, edges, bipartite):
        """Every 3-residue of N is a 2-sphere, so N is a closed
        3-manifold, and each color pair presents a group of H₁ = Z."""
        n3 = ColoredGraph.from_edges(3, 8, edges)
        assert (n3.is_regular, n3.is_bipartite) == (True, bipartite)
        for c in n3.colors:
            rest = sorted(set(n3.colors) - {c})
            for comp in residues(n3, rest).components:
                index = {v: k for k, v in enumerate(comp)}
                inner = [(index[u], index[v], rest.index(k))
                         for u, v, k in edges if k in rest and u in index]
                assert bf.euler_characteristic(2, len(comp), inner) == 2
        for i, j in combinations(n3.colors, 2):
            assert abelianization_rank(presentation(n3, i, j)) == (1, [])

    @THREE_MANIFOLDS
    def test_double_meets_its_bound(self, edges, bipartite):
        g = double(edges)
        assert (g.num_vertices, g.is_regular, g.is_bipartite) == (16, True,
                                                                  bipartite)
        assert len(residues(g, range(4)).components) == 2
        report = check_bound_on_gem(g, 0, 1, 2, 0)
        assert report.genus_bound == 3 and report.ok

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
    @THREE_MANIFOLDS
    def test_contraction_keeps_both_links(self, edges, bipartite):
        """Cancelling a color-4 site whose two {0..3}-residues are both
        links N joins them into one link N # N: today the contraction
        ends on 14 vertices and one {0..3}-residue."""
        out = full_contraction(double(edges))
        assert len(residues(out, range(4)).components) == 2
