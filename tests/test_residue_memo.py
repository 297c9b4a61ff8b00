"""The per-graph residue memo: memoized decompositions, built by walks
and merges along the color lattice in any query order, agree with an
uncached search and the brute-force oracle, rewrites (capping too) start
from an empty memo, and a full invariant report decomposes each color
subset of each graph once, builds no capped graph, and builds the
boundary graph, the capping rows and the vertex classification once, and
the genus table once per gem across all its readers.
Counts read through ``count_g`` take a residue with a connected one a
color smaller as one component, undecomposed."""

import sys
import threading
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from gemkit import boundary, checks, core, invariants, moves
from gemkit.boundary import boundary_graph
from gemkit.checks import check_regularization_identities
from gemkit.core import (ball_gem, count_g, order_two_gem, random_boundary_gem,
                         random_gem, residues)
from gemkit.invariants import (f_vector, genus_table, invariant_report,
                               rho_table)
from gemkit.moves import (
    cancel_1_dipole,
    cap_boundary,
    find_1_dipoles,
    insert_1_dipole,
    regularize,
    swap_colors,
)


def sample_gem(d, p, seed, with_boundary):
    if with_boundary and p > 1:
        return random_boundary_gem(d, p, seed % p, seed=seed)
    return random_gem(d, p, seed=seed)


def bfs_decompose(graph, mask):
    """Uncached decomposition on the colors of a bitmask, kept as an
    oracle: one search per component labels it, and flags it irregular
    on meeting a missing edge."""
    color_set = tuple(c for c in graph.colors if mask >> c & 1)
    rows = [graph.color_maps[c] for c in color_set]
    labels = [core.NO_EDGE] * graph.num_vertices
    regular = []
    for start in range(graph.num_vertices):
        if labels[start] == core.NO_EDGE:
            k = labels[start] = len(regular)
            whole, queue = True, [start]
            for u in queue:
                for row in rows:
                    v = row[u]
                    if v == core.NO_EDGE:
                        whole = False
                    elif labels[v] == core.NO_EDGE:
                        labels[v] = k
                        queue.append(v)
            regular.append(whole)
    return core.ResidueDecomposition(color_set, tuple(regular), tuple(labels))


class TestMemoizedResidues:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans(), st.randoms(use_true_random=False))
    def test_matches_uncached_and_bruteforce(self, d, p, seed, with_boundary,
                                             rng):
        g = sample_gem(d, p, seed, with_boundary)
        edges = list(g.edges())
        masks = list(range(2 ** (d + 1)))
        rng.shuffle(masks)
        for mask in masks + masks:  # the second pass reads the memo
            colors = {c for c in g.colors if mask >> c & 1}
            dec = residues(g, colors)
            assert dec == bfs_decompose(g, mask)
            assert list(dec.components) == bf.bfs_components(
                g.num_vertices, edges, colors)
            assert dec.regular_count == bf.count_regular_components(
                g.num_vertices, edges, colors)
            assert len(dec.labels) == g.num_vertices
            for k, comp in enumerate(dec.components):
                assert all(dec.component_of(v) == k for v in comp)
        assert len(g._memo) == len(masks)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2 ** 20))
    def test_boundary_graph_built_once(self, d, p, seed):
        g = random_boundary_gem(d, p, seed % p, seed=seed)
        bg = boundary_graph(g)
        assert boundary_graph(g) is bg
        assert bg.component_map == residues(bg.graph, range(d)).labels


def sort_based_search(graph, mask):
    """The earlier decomposition, kept as an oracle: sorted component
    tuples from the search, then a pass over every row for missing edges.
    Returns (components, regular flags, labels)."""
    rows = [graph.color_maps[c] for c in graph.colors if mask >> c & 1]
    labels = [core.NO_EDGE] * graph.num_vertices
    comps = []
    for start in range(graph.num_vertices):
        if labels[start] == core.NO_EDGE:
            k = labels[start] = len(comps)
            comp, stack = [start], [start]
            while stack:
                u = stack.pop()
                for row in rows:
                    v = row[u]
                    if v != core.NO_EDGE and labels[v] == core.NO_EDGE:
                        labels[v] = k
                        comp.append(v)
                        stack.append(v)
            comps.append(tuple(sorted(comp)))
    irregular = {labels[v] for row in rows
                 for v in range(graph.num_vertices) if row[v] == core.NO_EDGE}
    flags = tuple(k not in irregular for k in range(len(comps)))
    return tuple(comps), flags, tuple(labels)


class TestLabelsFirstSearch:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 8), st.integers(0, 2 ** 20),
           st.booleans())
    def test_every_mask_matches_oracles(self, d, p, seed, with_boundary):
        g = sample_gem(d, p, seed, with_boundary)
        edges = list(g.edges())
        for mask in range(2 ** (d + 1)):
            colors = {c for c in g.colors if mask >> c & 1}
            dec = residues(g, colors)
            assert dec == bfs_decompose(g, mask)
            comps = bf.bfs_components(g.num_vertices, edges, colors)
            met = {v: set() for v in range(g.num_vertices)}
            for u, v, c in edges:
                if c in colors:
                    met[u].add(c)
                    met[v].add(c)
            labels = [None] * g.num_vertices
            for k, comp in enumerate(comps):
                for v in comp:
                    labels[v] = k
            assert dec.components is dec.components
            assert list(dec.components) == comps
            assert dec.labels == tuple(labels)
            assert dec.regular == tuple(all(met[v] == colors for v in comp)
                                        for comp in comps)
            assert dec.count == len(comps)
            assert (dec.components, dec.regular, dec.labels) == \
                sort_based_search(g, mask)


class TestRewritesStartEmpty:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2 ** 20))
    def test_new_graphs_have_empty_memo(self, d, p, seed):
        g = random_boundary_gem(d, p, seed % p, seed=seed)
        f_vector(g)
        boundary_graph(g)
        assert g._memo
        u = seed % g.num_vertices
        grown, site, genuine = insert_1_dipole(g, (u, g.mate(u, 0)), 0)
        # insertion tests the new site on the new vertices' own edges
        assert genuine and grown._memo == {}
        f_vector(grown)
        rewrites = [cancel_1_dipole(grown, site), swap_colors(g, 0, d - 1),
                    cap_boundary(g, seed % d)[0]]
        assert all(out._memo == {} for out in rewrites)


def least_by_scan(labels):
    """The least vertex of each component: where its label first occurs."""
    least = []
    for v, k in enumerate(labels):
        if k == len(least):
            least.append(v)
    return tuple(least)


def assert_least(graph, dec):
    comps = bf.bfs_components(graph.num_vertices, list(graph.edges()),
                              set(dec.color_set))
    assert dec.least == least_by_scan(dec.labels) == tuple(
        comp[0] for comp in comps)


class TestLeastVertices:
    """``least`` holds each component's least vertex, kept by the walk and
    the merge as they number the components, and read off the labels on
    first use by a decomposition built through the public constructor."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2 ** 20),
           st.booleans())
    def test_kept_by_the_kernels(self, d, p, seed, with_boundary):
        g = sample_gem(d, p, seed, with_boundary)
        scans = []
        prop = core.ResidueDecomposition.__dict__["least"]
        real = prop.func
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prop, "func", lambda dec: scans.append(dec) or real(dec))
            invariant_report(g)
            graphs = [g] if g.is_regular else [g, boundary_graph(g).graph]
            for graph in graphs:
                decs = [dec for m, dec in graph._memo.items()
                        if isinstance(m, int)]
                assert decs
                for dec in decs:
                    assert_least(graph, dec)
        assert scans == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans(), st.integers(0, 2 ** 6 - 1))
    def test_read_off_the_labels_when_built_directly(self, d, p, seed,
                                                     with_boundary, mask):
        g = sample_gem(d, p, seed, with_boundary)
        dec = bfs_decompose(g, mask % 2 ** (d + 1))
        assert "least" not in dec.__dict__
        assert_least(g, dec)


class TestLatticeOrder:
    """Every query order reaches the same decompositions, on fresh,
    capped and cancelled graphs: a merge starts from its colors without
    the top one when that set is memoized, and else from the walk on the
    two lowest, and unites along one color or several."""

    @staticmethod
    def check_every_mask(g, rng):
        edges = list(g.edges())
        masks = list(range(2 ** (g.dimension + 1)))
        rng.shuffle(masks)
        for mask in masks:
            colors = {c for c in g.colors if mask >> c & 1}
            dec = residues(g, colors)
            want = bfs_decompose(g, mask)
            assert dec.labels == want.labels
            assert dec.regular == want.regular
            assert dec.color_set == want.color_set == tuple(sorted(colors))
            assert dec.components == want.components
            assert list(dec.components) == bf.bfs_components(
                g.num_vertices, edges, colors)
            assert dec.regular_count == bf.count_regular_components(
                g.num_vertices, edges, colors)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 7), st.integers(0, 2 ** 20),
           st.booleans(), st.randoms(use_true_random=False))
    def test_any_order_on_fresh_capped_and_cancelled(self, d, p, seed,
                                                     with_boundary, rng):
        g = sample_gem(d, p, seed, with_boundary)
        b = random_boundary_gem(d, p, seed % p, seed=seed)
        capped, _ = cap_boundary(b, seed % d)
        u, c = rng.randrange(g.num_vertices), rng.randrange(d)
        grown, _, _ = insert_1_dipole(g, (u, g.mate(u, c)), c)
        cancelled = cancel_1_dipole(grown, rng.choice(find_1_dipoles(grown)))
        for graph in (g, capped, cancelled):
            self.check_every_mask(graph, rng)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_merge_base(self, monkeypatch, d):
        """A merge reads the decomposition of its mask without the top
        color when that one is memoized, and else the two lowest colors'."""
        g = random_boundary_gem(d, 6, 2, seed=d)
        full = (1 << d + 1) - 1
        read = []
        real = core._residues_by_mask

        def reading(graph, mask):
            read.append(mask)
            return real(graph, mask)

        monkeypatch.setattr(core, "_residues_by_mask", reading)
        core._merge(g, full)
        assert read == [0b11]
        residues(g, range(d))
        read.clear()
        core._merge(g, full)
        assert read == [full ^ 1 << d]

    @pytest.mark.parametrize("seed", range(6))
    def test_paths_walked_from_their_middle(self, seed):
        g = random_boundary_gem(4, 12, 5, seed=seed)
        d, mid = g.dimension, 0
        for c in range(d):
            dec = residues(g, {c, d})
            assert dec == bfs_decompose(g, 1 << c | 1 << d)
            for comp, whole in zip(dec.components, dec.regular):
                # a path's least vertex has both edges when it is no end
                mid += not whole and g.has_color(comp[0], d)
        assert mid


class TestWorkCount:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariant_report_decomposes_each_subset_once(self, monkeypatch,
                                                          seed):
        graph = random_boundary_gem(4, 40, 20, seed=seed)
        decomposed, built = [], []
        real_build = boundary._build_boundary_graph

        def counting(kernel):
            def run(g, mask):
                decomposed.append((g, mask))  # keeps g alive, so ids stay unique
                return kernel(g, mask)
            return run

        def counting_build(g):
            built.append(g)
            return real_build(g)

        capping, triples, caps, builds = [], [], [], []
        real_rows = checks._build_capping_rows
        real_triple = checks._spherical_triple
        real_cap = moves.cap_boundary

        def counting_rows(g):
            capping.append(g)
            return real_rows(g)

        def counting_triple(bgraph, triple):
            triples.append(triple)
            return real_triple(bgraph, triple)

        def counting_cap(g, color):
            caps.append(color)
            return real_cap(g, color)

        def counting_from_maps(real):
            def run(dimension, maps, **kwargs):
                builds.append(dimension)
                return real(dimension, maps, **kwargs)
            return run

        classified = []
        real_classification = core.VertexClassification

        def counting_classification(*fields):
            classified.append(fields)
            return real_classification(*fields)

        monkeypatch.setattr(core, "VertexClassification",
                            counting_classification)
        monkeypatch.setattr(core, "_walk", counting(core._walk))
        monkeypatch.setattr(core, "_merge", counting(core._merge))
        monkeypatch.setattr(boundary, "_build_boundary_graph", counting_build)
        monkeypatch.setattr(checks, "_build_capping_rows", counting_rows)
        monkeypatch.setattr(checks, "_spherical_triple", counting_triple)
        monkeypatch.setattr(moves, "cap_boundary", counting_cap)
        for module in (core, moves, boundary):
            monkeypatch.setattr(module, "_from_maps",
                                counting_from_maps(module._from_maps))
        invariant_report(graph)
        keys = [(id(g), mask) for g, mask in decomposed]
        assert len(keys) == len(set(keys))
        assert len(keys) <= 250
        assert len(built) == 1 and built[0] is graph
        # the capping checks read the input's counts: no capped graph is
        # built, and the one graph built is the boundary graph
        assert caps == [] and builds == [graph.dimension - 1]
        assert {id(g) for g, _ in decomposed} == {
            id(graph), id(boundary_graph(graph).graph)}
        assert capping == [graph]
        assert len(triples) <= comb(graph.dimension, 3)
        # the vertices are classified once, and the boundary read from it
        assert len(classified) == 1
        assert graph.boundary_vertices() is classified[0][0]

    @staticmethod
    def count_capping_builds(monkeypatch):
        built = []
        real_rows = checks._build_capping_rows

        def counting_rows(g):
            built.append(g)
            return real_rows(g)

        monkeypatch.setattr(checks, "_build_capping_rows", counting_rows)
        return built

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_capping_rows_built_once_per_gem(self, monkeypatch, seed):
        """The report's flag builds the rows of every singular color, and
        each capping report after it reads them."""
        built = self.count_capping_builds(monkeypatch)
        graph = random_boundary_gem(4, 12, 5, seed=seed)
        invariant_report(graph)
        assert built == [graph]
        rows = graph._memo["capping"]
        for c in range(4):
            check_regularization_identities(graph, c)
        assert built == [graph] and graph._memo["capping"] is rows

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_color_builds_every_row(self, monkeypatch, d):
        built = self.count_capping_builds(monkeypatch)
        graph = random_boundary_gem(d, 6, 2, seed=d)
        check_regularization_identities(graph, d - 1)
        assert built == [graph]
        rows = graph._memo["capping"]
        assert len(rows) == d
        for c in range(d):
            check_regularization_identities(graph, c)
        assert built == [graph] and graph._memo["capping"] is rows

    def test_one_genus_table_per_gem(self, monkeypatch):
        """The report, every color's capping report, the pairing check, a
        verified contraction and the bound check on its output share one
        genus table per gem, kept in its memo; no reader changes the kept
        list, which equals a fresh copy's table."""
        sums = []
        real_row = invariants._doubled_row

        def counting_row(sweep, row, base, bipartite):
            sums.append(sweep.dimension)
            return real_row(sweep, row, base, bipartite)

        # the capping rows sum their capped rows through checks' own name
        monkeypatch.setattr(invariants, "_doubled_row", counting_row)
        bounded = random_boundary_gem(4, 12, 5, seed=1)
        invariant_report(bounded)
        for c in range(4):
            check_regularization_identities(bounded, c)
        regular = random_gem(4, 5, seed=5)
        checks.check_omega_pairing(regular)
        out = moves.full_contraction(regular, verify=True)
        assert out.num_vertices < regular.num_vertices
        checks.check_bound_on_gem(out, 2, 0, 1, 0)
        gems = (bounded, regular, out)
        assert len(sums) == len(gems)
        for g in gems:
            table = g._memo["genus"]
            assert genus_table(g) is table
            fresh = core.validate(g.dimension, g.num_vertices, list(g.edges()))
            assert table == genus_table(fresh)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_rows_keep_only_what_their_color_changes(self, d):
        """Each kept row holds the capped gem's twice genus at every order
        and one shift per pair of colors next to d: no per-order tuple."""
        graph = random_boundary_gem(d, 3, 1, seed=d)
        rows = checks._capping_rows(graph)
        sweep = genus_table(graph).sweep
        ends = set(zip(sweep.flat[::d], sweep.flat[d - 1::d]))
        assert len(rows) == d
        for row in rows:
            assert len(row.doubled_capped) == sweep.count
            assert all(type(value) is int for value in row.doubled_capped)
            assert set(row.shifts) == ends
            assert not [value for value in row if isinstance(value, list)
                        and value is not row.doubled_capped]

    @staticmethod
    def count_pairings(monkeypatch):
        paired = []
        real = boundary._capping_edges

        def counting(graph, color):
            paired.append(color)
            return real(graph, color)

        for module in (boundary, moves):
            monkeypatch.setattr(module, "_capping_edges", counting)
        return paired

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_pair_no_color_again(self, monkeypatch, seed):
        """The boundary graph pairs the ends of each color once, and the
        capping rows read its maps with no pairing of their own."""
        paired = self.count_pairings(monkeypatch)
        graph = random_boundary_gem(4, 12, 5, seed=seed)
        boundary_graph(graph)
        assert paired == [0, 1, 2, 3]
        checks._capping_rows(graph)
        assert paired == [0, 1, 2, 3]
        invariant_report(random_boundary_gem(4, 12, 5, seed=seed))
        assert paired == [0, 1, 2, 3] * 2

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_rows_cap_with_the_edges_of_regularize(self, d):
        for seed in range(3):
            graph = random_boundary_gem(d, 5, 2, seed=seed)
            rows = checks._capping_rows(graph)
            for c in range(d):
                fresh = random_boundary_gem(d, 5, 2, seed=seed)
                assert set(rows[c].added) == set(
                    regularize(fresh, c)[1].added_edges)

    def test_capping_builds_no_boundary_graph(self, monkeypatch):
        paired = self.count_pairings(monkeypatch)
        graph = random_boundary_gem(4, 12, 5, seed=3)
        regularize(graph, 1)
        cap_boundary(graph, 2)
        assert "boundary" not in graph._memo and paired == [1, 2]

    def test_one_sweep_per_gem_past_the_kept_sweeps(self, monkeypatch):
        """With no sweep kept above d = 3, the capping reports of all four
        colors of a d = 4 gem read their orders from the one sweep the
        rows were summed on."""
        built = []
        real_build = invariants._build_sweep

        def counting_build(d):
            built.append(d)
            return real_build(d)

        monkeypatch.setattr(invariants, "_SWEEP_CACHE_MAX_D", 3)
        monkeypatch.setattr(invariants, "_sweeps", {})
        monkeypatch.setattr(invariants, "_build_sweep", counting_build)
        graph = random_boundary_gem(4, 6, 2, seed=5)
        for c in range(4):
            check_regularization_identities(graph, c)
        assert built == [4]


class TestSmallMasks:
    """``f_vector`` counts residues on no color and on one color without
    decomposing them, nor one with a connected residue a color smaller;
    ``residues`` still walks and merges them, to the same counts."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 7), st.integers(0, 2 ** 20),
           st.booleans())
    def test_f_vector_skips_small_masks(self, d, p, seed, with_boundary):
        g = sample_gem(d, p, seed, with_boundary)
        edges = list(g.edges())
        fv = f_vector(g)
        assert fv == bf.f_vector(d, g.num_vertices, edges)
        masks = {m for m in g._memo if isinstance(m, int)}

        def connected(mask):
            colors = {c for c in g.colors if mask >> c & 1}
            return bf.count_components(g.num_vertices, edges, colors) == 1

        assert masks == {
            m for m in range(2 ** (d + 1) - 1) if m.bit_count() >= 2
            and not any(connected(m ^ 1 << c) for c in g.colors if m >> c & 1)}
        assert fv[d] == residues(g, []).count == g.num_vertices
        assert fv[d - 1] == sum(residues(g, {c}).count for c in g.colors)
        for mask in range(2 ** (d + 1)):
            assert residues(g, {c for c in g.colors if mask >> c & 1}) == \
                bfs_decompose(g, mask)


class TestCountClosure:
    """``count_g``, and ``checks._triple_counts`` through it, count a
    residue as one component, with no decomposition made or kept, when a
    residue on a color fewer is memoized as one component; the counts
    equal the oracle's whatever the memo holds."""

    @staticmethod
    def oracle(g, edges, colors):
        return (bf.count_components(g.num_vertices, edges, colors),
                bf.count_regular_components(g.num_vertices, edges, colors))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 7), st.integers(0, 2 ** 20),
           st.booleans(), st.sampled_from(["empty", "genera", "report"]),
           st.randoms(use_true_random=False))
    def test_counts_match_bruteforce(self, d, p, seed, with_boundary, start,
                                     rng):
        g = sample_gem(d, p, seed, with_boundary)
        if start == "genera":
            genus_table(g)
        elif start == "report":
            invariant_report(g)
        edges = list(g.edges())
        if d >= 4:  # the triples of colors 0..4
            assert checks._triple_counts(g) == {
                tri: bf.count_components(g.num_vertices, edges, set(tri))
                for tri in checks._TRIPLES}
        masks = list(range(2 ** (d + 1)))
        rng.shuffle(masks)
        # ascending, every mask a color smaller is queried first
        for mask in sorted(masks) + masks:
            colors = {c for c in g.colors if mask >> c & 1}
            assert count_g(g, colors) == self.oracle(g, edges, colors)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 7), st.integers(0, 2 ** 20),
           st.booleans())
    def test_report_keeps_no_needless_merge(self, d, p, seed, with_boundary):
        """No residue of three or more colors is kept beside one on a color
        fewer kept as one component, whose count already gives its own."""
        g = sample_gem(d, p, seed, with_boundary)
        invariant_report(g)
        memo = {m: dec for m, dec in g._memo.items() if isinstance(m, int)}
        assert not [m for m in memo if m.bit_count() >= 3
                    and any(m ^ 1 << c in memo and memo[m ^ 1 << c].count == 1
                            for c in core._colors_of(m))]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_component_counted_without_a_kernel(self, monkeypatch, d):
        def kernel(graph, mask):
            raise AssertionError(f"decomposed mask {mask}")

        for g in (order_two_gem(d), ball_gem(d)):
            edges = list(g.edges())
            residues(g, {0, 1})
            residues(g, {0, d})
            memo = dict(g._memo)
            with monkeypatch.context() as mp:
                mp.setattr(core, "_walk", kernel)
                mp.setattr(core, "_merge", kernel)
                for colors in ({0, 1}, {0, 1, 2}, {0, 1, d}, {0, 2, d}):
                    # one component, irregular on the ball exactly with d
                    assert count_g(g, colors) == self.oracle(g, edges, colors)
                    assert count_g(g, colors) == (
                        1, int(g.is_regular or d not in colors))
            assert g._memo == memo


class TestOneComponentWrite:
    """A mask of three colors or more with a memoized one-component
    residue a color smaller is written as one component with no merge,
    equal to the kernels' decomposition and the search's; its component
    is irregular exactly when the mask holds d on a gem with boundary."""

    @staticmethod
    def decompose_ascending(g, monkeypatch):
        """Decompose every mask in ascending order, each mask of three
        colors or more with a one-component residue a color smaller under
        a merge that raises; the number of such masks."""
        def merge(graph, mask):
            raise AssertionError(f"merged mask {mask}")

        d, written = g.dimension, 0
        for mask in range(2 ** (d + 1)):
            if mask.bit_count() < 3 or not any(
                    g._memo[mask ^ 1 << c].count == 1
                    for c in core._colors_of(mask)):
                core._residues_by_mask(g, mask)
                continue
            with monkeypatch.context() as mp:
                mp.setattr(core, "_merge", merge)
                dec = core._residues_by_mask(g, mask)
            written += 1
            assert dec == core._decompose(g, mask) == bfs_decompose(g, mask)
            assert dec.least == core._decompose(g, mask).least == (0,)
            assert dec.regular == (g.is_regular or not mask >> d & 1,)
        return written

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 7), st.integers(0, 2 ** 20),
           st.booleans())
    def test_matches_the_kernels_and_the_search(self, d, p, seed,
                                                with_boundary):
        with pytest.MonkeyPatch.context() as mp:
            self.decompose_ascending(sample_gem(d, p, seed, with_boundary), mp)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_two_vertex_gems(self, monkeypatch, d):
        # a color below d is the one component, so every mask of three
        # colors or more is written
        for g in (order_two_gem(d), ball_gem(d)):
            assert self.decompose_ascending(g, monkeypatch) == sum(
                comb(d + 1, k) for k in range(3, d + 2))


def test_concurrent_readers_share_one_graph():
    """Threads reading one graph race on its memo; every write stores the
    value any other thread would compute, so all see the serial answers."""
    def answers(g):
        return (f_vector(g), rho_table(g), boundary_graph(g).component_map,
                [checks.check_regularization_identities(g, c).to_jsonable()
                 for c in range(g.dimension)])

    expected = answers(random_boundary_gem(4, 24, 10, seed=11))
    shared = random_boundary_gem(4, 24, 10, seed=11)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: results.append(answers(shared)))
                   for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert results == [expected] * len(workers)
