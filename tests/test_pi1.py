import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemkit import (
    GroupPresentation,
    abelianization_rank,
    ball_gem,
    order_two_gem,
    presentation,
    random_boundary_gem,
    random_gem,
    rank_bounds,
    tietze_simplify,
    validate,
)
from gemkit import pi1
from gemkit.boundary import boundary_graph
from gemkit.errors import InvalidColorPairError, PreconditionError
from gemkit.gemio import read_gem
from gemkit.moves import insert_1_dipole, regularize
from gemkit.pi1 import _smith_diagonal

import bruteforce as bf
from corpus import grow_by_insertions, k33_graph, manifold_boundary_corpus
from test_cli import GEMS


def make_pres(gens, relators):
    return GroupPresentation(num_generators=gens,
                             cycle_relators=tuple(tuple(w) for w in relators),
                             tree_relators=())


class TestPresentation:
    def test_s4_trivial(self, s4):
        pres = presentation(s4, 0, 1)
        assert pres.num_generators == 1
        simplified = tietze_simplify(pres)
        assert simplified.num_generators == 0 and not simplified.relators

    def test_k33_torus_group(self, k33):
        pres = presentation(k33, 0, 1)
        assert pres.num_generators == 3
        assert pres.cycle_relators == ((1, -2, 3, -1, 2, -3),)
        assert pres.tree_relators == ((1,),)
        assert abelianization_rank(pres) == (2, [])
        simplified = tietze_simplify(pres)
        assert simplified.num_generators == 2
        assert simplified.cycle_relators == ((-1, 2, 1, -2),)

    def test_regularized_b4_trivial(self, regularized_b4):
        pres = presentation(regularized_b4, 0, 1)
        assert tietze_simplify(pres).num_generators == 0

    def test_bad_pair(self, s4):
        with pytest.raises(InvalidColorPairError):
            presentation(s4, 2, 2)
        with pytest.raises(InvalidColorPairError):
            presentation(s4, 0, 9)

    def test_singular_color_tags(self, regularized_b4):
        inner = presentation(regularized_b4, 0, 1, singular_colors={4})
        assert inner.compact_manifold_reading is True
        assert inner.singular_manifold_reading is False
        with_final = presentation(regularized_b4, 0, 4, singular_colors={4})
        assert with_final.compact_manifold_reading is False
        assert with_final.singular_manifold_reading is True

    @pytest.mark.parametrize("tags", [(None, None), (True, False)])
    def test_unchecked_is_like_the_constructor(self, k33, tags):
        built = presentation(k33, 0, 1, singular_colors={2} if tags[0] else None)
        assert type(built) is GroupPresentation
        same = GroupPresentation(3, built.cycle_relators, ((1,),), (0, 1), *tags)
        assert built == same and hash(built) == hash(same)
        assert vars(built) == vars(same)
        assert replace(built, num_generators=4) == replace(same, num_generators=4)
        assert replace(built, tree_relators=()).relators == built.cycle_relators
        assert built != replace(same, color_pair=(0, 2))

    def test_pretty_format_stable(self, k33):
        pres = presentation(k33, 0, 1)
        assert pres.pretty() == (
            "generators: g0, g1, g2\n"
            "relators:\n"
            "  g0 g1^-1 g2 g0^-1 g1 g2^-1\n"
            "  g0")

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 20))
    def test_all_pairs_agree_on_closed_manifold_gems(self, seed):
        """Every color pair reads the group of the same closed manifold.
        (Pseudomanifold gems are excluded: there the pairs legitimately
        present different groups.)"""
        rng = random.Random(seed)
        for seed_gem in (order_two_gem(4), k33_graph()):
            g = grow_by_insertions(seed_gem, rng.randint(0, 4), rng)
            values = {
                (lambda ab: (ab[0], tuple(ab[1])))(
                    abelianization_rank(presentation(g, i, j)))
                for i, j in combinations(range(g.dimension + 1), 2)}
            assert len(values) == 1


class TestLetters:
    """A presentation's letters are ±1..num_generators and its generator
    count is not negative, checked when it is built; ``presentation``
    builds its own past the check."""

    @pytest.mark.parametrize("gens,cycles,tree", [
        (1, ((1,), (5,)), ()),
        (1, ((1,), (0,)), ()),
        (2, ((1, -3),), ()),
        (2, (), ((2,), (-3,))),
        (-1, (), ()),
    ])
    def test_readers_meet_one_error_at_construction(self, gens, cycles, tree):
        readers = (rank_bounds, lambda pres: tietze_simplify(pres, 0),
                   abelianization_rank)
        messages = set()
        for reader in readers:
            with pytest.raises(PreconditionError) as exc:
                reader(GroupPresentation(gens, cycles, tree))
            assert exc.traceback[-1].name == "__post_init__"
            messages.add(str(exc.value))
        assert len(messages) == 1

    def test_replace_is_checked(self):
        pres = make_pres(2, [(1, -2), (2,)])
        assert rank_bounds(pres) == (0, 0)
        with pytest.raises(PreconditionError):
            replace(pres, num_generators=1)

    def test_presentations_of_gems_pass_the_check(self):
        g = random_boundary_gem(4, 6, 2, seed=5)
        for i, j in combinations(range(5), 2):
            pres = presentation(g, i, j)
            assert replace(pres) == pres  # built again, through the check


class TestSpanningForest:
    """The tree relators are the generators Kruskal's walk keeps, found
    by an oracle that shares no union-find with the package."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans())
    def test_matches_kruskal_oracle(self, d, p, seed, with_boundary):
        if with_boundary:
            g = random_boundary_gem(d, p + 1, seed % (p + 1), seed=seed)
        else:
            g = random_gem(d, p, seed=seed)
        edges = list(g.edges())
        for i, j in combinations(g.colors, 2):
            assert presentation(g, i, j).tree_relators == bf.tree_generators(
                d, g.num_vertices, edges, i, j)


class TestTietze:
    def test_kill_single_generator(self):
        assert tietze_simplify(make_pres(1, [(1,)])).num_generators == 0

    def test_empty_relators_dropped(self):
        out = tietze_simplify(make_pres(2, [(), (1, -1)]))
        assert out.num_generators == 2 and out.relators == ()

    def test_idempotent_on_examples(self, k33):
        pres = presentation(k33, 0, 1)
        once = tietze_simplify(pres)
        assert tietze_simplify(once) == once

    def test_substitution(self):
        # <a, b | a b, a> reduces to the trivial group
        out = tietze_simplify(make_pres(2, [(1, 2), (1,)]))
        assert out.num_generators == 0 and not out.relators

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 20))
    def test_abelianization_invariant_under_tietze(self, p, seed):
        g = random_gem(4, p, seed=seed)
        pres = presentation(g, 0, 2)
        assert abelianization_rank(tietze_simplify(pres)) == abelianization_rank(pres)


PASSES = (0, 1, 3, 200)


def check_against_oracle(pres):
    """Every pass budget gives the sequential loop's result.  Each pass
    eliminates one generator, so a run that eliminated fewer than its
    budget settled, and is a fixed point; any other run used every pass,
    and no more."""
    for max_passes in PASSES:
        out = tietze_simplify(pres, max_passes)
        want = bf.tietze_simplify(pres.num_generators, pres.relators, max_passes)
        assert (out.num_generators, list(out.relators)) == want
        eliminated = pres.num_generators - out.num_generators
        if eliminated < max_passes:
            assert tietze_simplify(out) == out
        else:
            assert eliminated == max_passes


@st.composite
def unit_rich_presentations(draw):
    """Random relator lists holding two or more one-letter relators."""
    gens = draw(st.integers(2, 7))
    letter = st.integers(1, gens).flatmap(lambda g: st.sampled_from([g, -g]))
    units = draw(st.lists(letter.map(lambda t: (t,)), min_size=2, max_size=gens))
    words = draw(st.lists(st.lists(letter, max_size=9).map(tuple), max_size=6))
    order = draw(st.permutations(units + words))
    return make_pres(gens, order)


# deleting both one-letter generators at once, then reducing, would leave
# no generator; one at a time leaves one
PINNED = make_pres(4, [(1,), (2,), (3, 4, 3, -2, -3, -1, -2, -1, 2),
                       (-4, -1, -3, 1, -4), (4, -2, 2, 1, -3, 2, -2, -1)])


@st.composite
def unit_killed_presentations(draw):
    """A one-letter relator for every generator, of either sign, random
    longer words, all shuffled, and a pass budget of 0, n - 1, n or 200."""
    gens = draw(st.integers(1, 7))
    letter = st.integers(1, gens).flatmap(lambda g: st.sampled_from([g, -g]))
    units = [(draw(st.sampled_from([g, -g])),) for g in range(1, gens + 1)]
    units += draw(st.lists(letter.map(lambda t: (t,)), max_size=3))
    words = draw(st.lists(st.lists(letter, min_size=2, max_size=9).map(tuple),
                          max_size=6))
    order = draw(st.permutations(units + words))
    return make_pres(gens, order), draw(st.sampled_from([0, gens - 1, gens, 200]))


@st.composite
def short_word_presentations(draw):
    """Many one- and two-letter relators, a few longer words, shuffled and
    split between the two relator tuples, and a pass budget of 200, n or
    n - 1."""
    gens = draw(st.integers(1, 9))
    letter = st.integers(1, gens).flatmap(lambda g: st.sampled_from([g, -g]))
    words = draw(st.lists(letter.map(lambda t: (t,)), min_size=1,
                          max_size=gens))
    words += draw(st.lists(st.tuples(letter, letter), max_size=2 * gens))
    words += draw(st.lists(st.lists(letter, min_size=3, max_size=8).map(tuple),
                           max_size=3))
    words = draw(st.permutations(words))
    cut = draw(st.integers(0, len(words)))
    pres = GroupPresentation(gens, tuple(words[:cut]), tuple(words[cut:]))
    return pres, draw(st.sampled_from([200, gens, gens - 1]))


class TestTietzeOracle:
    """The one-letter passes and the set of words give the sequential
    loop's output pass for pass."""

    @settings(max_examples=300, deadline=None)
    @given(unit_killed_presentations())
    def test_units_killing_every_generator(self, drawn):
        """The short-circuit to the trivial presentation, and the loop
        when the budget is short of it, give the sequential loop's
        result."""
        pres, max_passes = drawn
        out = tietze_simplify(pres, max_passes)
        want = bf.tietze_simplify(pres.num_generators, pres.relators, max_passes)
        assert (out.num_generators, list(out.relators)) == want
        assert out.tree_relators == ()

    @settings(max_examples=400, deadline=None)
    @given(short_word_presentations())
    def test_two_letter_closure_is_the_loop(self, drawn):
        """Where two-letter relators join every generator to a one-letter
        one within the budget, the sequential loop deletes every
        generator, and the one-letter passes give exactly the trivial
        presentation."""
        pres, max_passes = drawn
        if not word_test(pres, max_passes):
            return
        gens = pres.num_generators
        assert bf.tietze_simplify(gens, pres.relators, max_passes)[0] == 0
        out = tietze_simplify(pres, max_passes)
        trivial = GroupPresentation(0, (), ())
        assert (out, repr(out)) == (trivial, repr(trivial))

    @pytest.mark.parametrize("gens, survivors", [(200, 0), (201, 1)])
    def test_unit_budget_edge(self, gens, survivors):
        """200 passes delete 200 generators named by one-letter relators;
        with one generator more, the loop runs and leaves the last one."""
        pres = make_pres(gens, [(g,) for g in range(1, gens + 1)]
                         + [tuple(range(1, gens + 1)), (gens, -1, gens)])
        out = tietze_simplify(pres)
        want = bf.tietze_simplify(gens, pres.relators)
        assert (out.num_generators, list(out.relators)) == want
        assert out.num_generators == survivors

    def test_pinned_example(self):
        pres = PINNED
        out = tietze_simplify(pres)
        assert out.num_generators == 1
        assert out.relators == ((1, 1), (-1, -1, -1))
        assert rank_bounds(pres) == (0, 1)
        check_against_oracle(pres)

    @settings(max_examples=300, deadline=None)
    @given(unit_rich_presentations())
    def test_random_words(self, pres):
        check_against_oracle(pres)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans())
    def test_every_pair_of_gems(self, d, p, seed, with_boundary):
        if with_boundary:
            g = random_boundary_gem(d, p + 1, seed % (p + 1), seed=seed)
        else:
            g = random_gem(d, p, seed=seed)
        for i, j in combinations(g.colors, 2):
            check_against_oracle(presentation(g, i, j))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 20))
    def test_every_pair_of_grown_manifold_gems(self, d, seed):
        rng = random.Random(seed)
        g = grow_by_insertions(order_two_gem(d), rng.randint(0, 12), rng)
        for i, j in combinations(g.colors, 2):
            check_against_oracle(presentation(g, i, j))


class TestAbelianization:
    def test_trivial(self):
        assert abelianization_rank(make_pres(0, [])) == (0, [])

    def test_free_group(self):
        assert abelianization_rank(make_pres(2, [])) == (2, [])

    def test_torsion(self):
        assert abelianization_rank(make_pres(1, [(1, 1)])) == (0, [2])

    def test_mixed(self):
        # <x, y | x^2>: Z + Z/2
        assert abelianization_rank(make_pres(2, [(1, 1)])) == (1, [2])

    def test_divisor_chain(self):
        # relators 2x, 2y in Z^2: Z/2 + Z/2
        assert abelianization_rank(make_pres(2, [(1, 1), (2, 2)])) == (0, [2, 2])

    def test_cyclic_collapse(self):
        # <x, y | 2x, 3y> has cyclic abelianization of order 6
        assert abelianization_rank(make_pres(2, [(1, 1), (2, 2, 2)])) == (0, [6])


@st.composite
def integer_matrices(draw):
    """Integer matrices with 0..5 rows and 0..5 columns and entries in
    -30..30, some rows and columns set to zero."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    m = [draw(st.lists(st.integers(-30, 30), min_size=cols, max_size=cols))
         for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, 4), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 4), max_size=3))
    return [[0 if r in zero_rows or c in zero_cols else x for c, x in enumerate(row)]
            for r, row in enumerate(m)]


class TestSmithOracle:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_matches_determinantal_divisors(self, m):
        assert _smith_diagonal(m) == bf.smith_diagonal(m)

    def test_oracle_on_known_forms(self):
        assert bf.smith_diagonal([]) == [] and bf.smith_diagonal([[], []]) == []
        assert bf.smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
        assert bf.smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]


def full_matrix_rank(pres):
    """Free rank and divisors from the Smith form of the whole exponent-sum
    matrix, with no relator split off."""
    gens = pres.num_generators
    matrix = []
    for word in pres.relators:
        row = [0] * gens
        for t in word:
            row[abs(t) - 1] += 1 if t > 0 else -1
        matrix.append(row)
    diag = _smith_diagonal(matrix) if gens else []
    return gens - len(diag), [e for e in diag if e > 1]


@st.composite
def unit_heavy_presentations(draw):
    """Relator lists with repeated and negative one-letter relators, empty
    words, words summing to zero and generators no relator mentions."""
    gens = draw(st.integers(0, 6))
    if gens == 0:
        words = st.lists(st.just(()), max_size=3)
        return GroupPresentation(0, draw(words), draw(words))
    letter = st.integers(1, gens).flatmap(lambda g: st.sampled_from([g, -g]))
    unit = letter.map(lambda t: (t,))
    word = st.one_of(unit, st.just(()), letter.map(lambda t: (t, -t)),
                     st.lists(letter, max_size=7).map(tuple))
    return GroupPresentation(gens, tuple(draw(st.lists(word, max_size=8))),
                             tuple(draw(st.lists(unit, max_size=gens + 1))))


class TestUnitRowSplit:
    @settings(max_examples=300, deadline=None)
    @given(unit_heavy_presentations())
    def test_matches_full_smith_form(self, pres):
        assert abelianization_rank(pres) == full_matrix_rank(pres)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2 ** 20))
    def test_matches_full_smith_form_on_gems(self, p, seed):
        g = random_gem(4, p, seed=seed)
        for i, j in combinations(g.colors, 2):
            pres = presentation(g, i, j)
            assert abelianization_rank(pres) == full_matrix_rank(pres)


def full_reading(pres):
    """Both ends computed in full: the Smith form, and the oracle's
    sequential Tietze loop."""
    free_rank, divisors = abelianization_rank(pres)
    return (free_rank + len(divisors),
            bf.tietze_simplify(pres.num_generators, pres.relators)[0])


@pytest.fixture
def smith_calls(monkeypatch):
    import gemkit.pi1 as pi1

    calls = []
    real = pi1.abelianization_rank

    def counting(pres):
        calls.append(pres)
        return real(pres)

    monkeypatch.setattr(pi1, "abelianization_rank", counting)
    return calls


class TestRankBounds:
    def test_torus(self, k33):
        assert rank_bounds(presentation(k33, 0, 1)) == (2, 2)

    @pytest.mark.parametrize("name", ["s4", "regularized_b4"])
    def test_trivial_groups_run_no_smith_form(self, name, request, smith_calls):
        g = request.getfixturevalue(name)
        for i, j in combinations(g.colors, 2):
            assert rank_bounds(presentation(g, i, j)) == (0, 0)
        assert smith_calls == []

    def test_nontrivial_groups_run_one_smith_form(self, k33, smith_calls):
        pairs = list(combinations(k33.colors, 2))
        assert [rank_bounds(presentation(k33, i, j)) for i, j in pairs] == \
            [(2, 2)] * len(pairs)
        assert len(smith_calls) == len(pairs)
        assert rank_bounds(PINNED) == (0, 1)
        assert len(smith_calls) == len(pairs) + 1

    @settings(max_examples=200, deadline=None)
    @given(unit_rich_presentations())
    def test_matches_full_reading_on_random_words(self, pres):
        assert rank_bounds(pres) == full_reading(pres)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 20), st.booleans())
    def test_matches_full_reading_on_grown_manifold_gems(self, d, seed, torus):
        rng = random.Random(seed)
        base = k33_graph() if torus and d == 2 else order_two_gem(d)
        g = grow_by_insertions(base, rng.randint(0, 12), rng)
        for i, j in combinations(g.colors, 2):
            pres = presentation(g, i, j)
            assert rank_bounds(pres) == full_reading(pres)

    def test_trivial(self, s4):
        assert rank_bounds(presentation(s4, 0, 1)) == (0, 0)

    @pytest.mark.parametrize("gens, want", [(200, (0, 0)), (201, (0, 1))])
    def test_unit_relators_at_the_pass_budget(self, gens, want, smith_calls):
        # one-letter relators name every generator; the trivial test holds
        # only while the 200-pass budget has a pass for each
        pres = make_pres(gens, [(g,) for g in range(gens, 0, -1)])
        assert rank_bounds(pres) == want
        assert want[1] == tietze_simplify(pres).num_generators
        assert len(smith_calls) == (gens > 200)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 5), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans())
    def test_matches_slow_path_on_gems(self, d, p, seed, regularized):
        """On every pair of a random regular gem, or of a random boundary
        gem regularized along a random color: the Smith form's generator
        rank and the simplified presentation's generator count, read
        without the short-cuts of ``rank_bounds``."""
        if regularized:
            g = random_boundary_gem(d, p + 1, seed % (p + 1), seed=seed)
            g = regularize(g, singular_color=seed % d)[0]
        else:
            g = random_gem(d, p, seed=seed)
        for i, j in combinations(g.colors, 2):
            pres = presentation(g, i, j)
            free_rank, divisors = abelianization_rank(pres)
            slow = (free_rank + len(divisors),
                    tietze_simplify(pres).num_generators)
            assert rank_bounds(pres) == slow

    def test_z_plus_torsion(self):
        assert rank_bounds(make_pres(2, [(1, 1)])) == (2, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 20))
    def test_lower_at_most_upper(self, p, seed):
        g = random_gem(4, p, seed=seed)
        lower, upper = rank_bounds(presentation(g, 1, 3))
        assert 0 <= lower <= upper


class TestDipoleInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 20), st.integers(0, 10 ** 6))
    def test_insertion_preserves_abelianization(self, p, seed, pick):
        g = random_gem(4, p, seed=seed)
        rng = random.Random(pick)
        edges = list(g.edges())
        u, v, c = edges[rng.randrange(len(edges))]
        bigger, _, _ = insert_1_dipole(g, (u, v), c)
        for pair in [(0, 1), (2, 4)]:
            assert abelianization_rank(presentation(bigger, *pair)) == \
                abelianization_rank(presentation(g, *pair))

    def test_k33_growth_keeps_torus_group(self, k33):
        g = grow_by_insertions(k33, 4, random.Random(12))
        assert abelianization_rank(presentation(g, 0, 1)) == (2, [])
        assert rank_bounds(presentation(g, 0, 1))[0] == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 20), st.integers(0, 10 ** 6))
    def test_insertion_on_boundary_gems(self, p, seed, pick):
        from gemkit import random_boundary_gem
        g = random_boundary_gem(4, p, max(0, p - 2), seed=seed)
        rng = random.Random(pick)
        edges = list(g.edges())
        u, v, c = edges[rng.randrange(len(edges))]
        bigger, _, genuine = insert_1_dipole(g, (u, v), c)
        assert genuine
        for pair in [(0, 1), (1, 3)]:
            assert abelianization_rank(presentation(bigger, *pair)) == \
                abelianization_rank(presentation(g, *pair))


def eager(graph, i, j, singular_colors=None):
    """The presentation on {i, j} built by the constructor from words
    computed at once."""
    lazy = presentation(graph, i, j, singular_colors)
    return GroupPresentation(lazy.num_generators, *pi1._words(graph, i, j),
                             lazy.color_pair, lazy.compact_manifold_reading,
                             lazy.singular_manifold_reading)


def random_member(d, p, seed, with_boundary):
    if with_boundary:
        return random_boundary_gem(d, p + 1, seed % (p + 1), seed=seed)
    return random_gem(d, p, seed=seed)


# ways to read a presentation, each the first read of a lazy one
READS = {
    "fields": lambda p: (p.num_generators, p.cycle_relators,
                         p.tree_relators, p.color_pair,
                         p.compact_manifold_reading,
                         p.singular_manifold_reading),
    "tree first": lambda p: (p.tree_relators, p.cycle_relators),
    "relators": lambda p: p.relators,
    "hash": hash,
    "repr": repr,
    "str": str,
    "pretty": lambda p: p.pretty(),
    "replace": lambda p: replace(p, num_generators=p.num_generators + 1),
    "tietze": tietze_simplify,
    "abelianization": abelianization_rank,
    "rank bounds": rank_bounds,
}


class TestLazyWords:
    """A presentation from ``presentation`` builds its words when they are
    first read, and is then the one the constructor builds."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans(), st.sampled_from(sorted(READS)), st.booleans())
    def test_equals_the_eager_build(self, d, p, seed, with_boundary, first,
                                    tagged):
        g = random_member(d, p, seed, with_boundary)
        singular = {d} if tagged else None
        for i, j in combinations(g.colors, 2):
            lazy = presentation(g, i, j, singular)
            want = eager(g, i, j, singular)
            assert READS[first](lazy) == READS[first](want)
            for read in READS.values():
                assert read(lazy) == read(want)
            assert lazy == want and want == lazy and replace(lazy) == want
            assert vars(lazy) == vars(want)

    def test_the_graph_is_let_go(self, k33):
        pres = presentation(k33, 0, 1)
        assert vars(pres)["_graph"] is k33
        assert pres.tree_relators == ((1,),)
        assert "_graph" not in vars(pres)
        assert vars(pres) == vars(eager(k33, 0, 1))

    def test_other_names_are_missing(self, k33):
        pres = presentation(k33, 0, 1)
        with pytest.raises(AttributeError, match="no attribute 'relator'"):
            pres.relator
        assert "_graph" in vars(pres)  # nothing built by a missing name
        built = eager(k33, 0, 1)
        with pytest.raises(AttributeError, match="no attribute '_graph'"):
            built._graph


def word_test(pres, max_passes):
    """The oracle's two-letter closure on the built words."""
    return bf.trivial_by_words(pres.num_generators, pres.relators, max_passes)


def check_count_test(graph):
    """The graph test and the word test agree on every pair of the graph,
    at the default budget and at budgets one short of the generator count
    and equal to it; returns how many pairs the words cover."""
    covered = 0
    for i, j in combinations(graph.colors, 2):
        gens = presentation(graph, i, j).num_generators
        for budget in (200, gens - 1, gens):
            pres = presentation(graph, i, j)
            assert pi1._trivial(pres, budget) == word_test(pres, budget), \
                (i, j, budget)
        covered += word_test(presentation(graph, i, j), gens)
    return covered


class TestCountTest:
    """``_trivial`` on a presentation whose words are not built reads
    g(Γ_îĵ) = g(Γ_î) + g(Γ_ĵ) − c off the residue counts, and decides as
    the one-letter relators do."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans())
    def test_matches_the_word_test(self, d, p, seed, with_boundary):
        g = random_member(d, p, seed, with_boundary)
        check_count_test(g)
        if with_boundary:
            check_count_test(boundary_graph(g).graph)
            check_count_test(regularize(g, singular_color=seed % d)[0])

    def test_boundary_graphs_of_several_components(self):
        """On the boundary graphs with two or more components of the
        criterion-6 corpus, the count subtracts their number."""
        several = covered = 0
        for g in manifold_boundary_corpus(1000, seed=6006):
            check_count_test(g)
            bg = boundary_graph(g)
            if bg.num_components > 1:
                several += 1
                covered += check_count_test(bg.graph)
        assert several >= 100 and covered >= 100

    def test_built_words_go_to_the_passes(self, s4):
        """A presentation with no graph, one whose words were read or one
        the constructor built, is not decided by ``_trivial``; the passes
        reach the trivial presentation the graph test returns."""
        for i, j in combinations(s4.colors, 2):
            pres = presentation(s4, i, j)
            assert pi1._trivial(pres, 200)
            short = tietze_simplify(pres)
            assert short.num_generators == 0 and pres.relators
            built = eager(s4, i, j)
            assert not pi1._trivial(pres, 200)
            assert not pi1._trivial(built, 200)
            for out in (tietze_simplify(pres), tietze_simplify(built)):
                assert (out, repr(out)) == (short, repr(short))

    def test_covered_past_the_budget_goes_to_tietze(self):
        """The 2002-vertex S⁴ gem: the counts cover the 389..414 generators
        of every pair, more than the 200 passes delete, so the Tietze loop
        runs and reads an upper bound near 200."""
        g = grow_by_insertions(order_two_gem(4), 1000, random.Random(1))
        uppers = []
        for i, j in combinations(g.colors, 2):
            pres = presentation(g, i, j)
            assert pres.num_generators > 200
            assert pi1._trivial(pres, pres.num_generators)
            assert not pi1._trivial(pres, 200)
            assert not pi1._trivial(pres, pres.num_generators - 1)
            uppers.append(rank_bounds(pres))
        assert uppers == [(0, u) for u in (196, 214, 199, 192, 211,
                                           196, 189, 214, 207, 192)]


def test_regularize_and_rank_brackets_match_the_oracles():
    """On 200 seeded boundary gems of d = 2..6, half of them grown balls
    (bipartite), the other half random: each capped gem is the oracle's,
    the graph test decides as the word test, and at d = 4 the rank
    brackets are the oracle's Smith rank and sequential Tietze count."""
    rng = random.Random(577)
    bipartite = nontrivial = by_units = decided = 0
    for k in range(200):
        d, p = 2 + k % 5, rng.randint(2, 10)
        seed = rng.randrange(2 ** 32)
        # a grown ball is bipartite; a random boundary gem seldom is
        g = (grow_by_insertions(ball_gem(d), p, random.Random(seed)) if k % 2
             else random_boundary_gem(d, p, rng.randrange(p), seed=seed))
        bipartite += g.is_bipartite
        n, edges = g.num_vertices, list(g.edges())
        for c in range(d):
            out, _ = regularize(g, singular_color=c)
            swap = {c: d, d: c}
            capped = [(u, v, swap.get(col, col)) for u, v, col in edges] + [
                (u, v, c) for u, v in bf.capping_edges(d, n, edges, c)]
            want = validate(d, n, capped)
            assert (out, out.is_regular, out.is_bipartite) == (
                want, want.is_regular, want.is_bipartite), \
                f"gem {k} (d = {d}), color {c}: regularize differs from the oracle"
            for i, j in combinations(out.colors, 2):
                where = f"gem {k}, color {c}, pair {i},{j}"
                # the graph test decides before any word is read, the
                # oracle's word test once the words are built
                pres = presentation(out, i, j)
                counted = pi1._trivial(pres, 200)
                got = rank_bounds(pres) if d == 4 else None
                relators = pres.relators
                gens = pres.num_generators
                by_units += gens <= 200 and {
                    abs(w[0]) for w in relators if len(w) == 1
                }.issuperset(range(1, gens + 1))
                decided += counted
                assert counted == bf.trivial_by_words(gens, relators, 200), \
                    f"{where}: the graph test reads {counted}, the word test does not"
                if d != 4:
                    continue
                # the exponent-sum rows; repeated and zero rows span nothing more
                matrix = {tuple(sum((t > 0) - (t < 0) for t in w if abs(t) == x)
                                for x in range(1, gens + 1)) for w in relators}
                diag = bf.smith_diagonal(sorted(matrix - {(0,) * gens}))
                lower = gens - len(diag) + sum(e > 1 for e in diag)
                upper = bf.tietze_simplify(gens, relators)[0]
                nontrivial += upper > 0
                assert got == (lower, upper), f"{where}: rank bounds"
    # the sweep's reach: bipartite gems, d = 4 groups the Tietze loop does
    # not kill, and pairs (of 10600) the one-letter relators decide alone
    # and once two-letter relators join their generators
    assert (bipartite, nontrivial, by_units, decided) == (114, 46, 9929, 10324)


@pytest.fixture
def word_builds(monkeypatch):
    """The (graph, i, j) of each relator-word build."""
    builds = []
    real = pi1._words

    def counting(graph, i, j):
        builds.append((graph, i, j))
        return real(graph, i, j)

    monkeypatch.setattr(pi1, "_words", counting)
    return builds


class TestWordBuilds:
    def test_trivial_pairs_build_no_words(self, word_builds, monkeypatch):
        """On 20 grown balls and 20 grown copies of ``gems/shell.gem``,
        regularized at color 0 as the benchmark's contraction reads them:
        the words decide every pair trivial, and ``rank_bounds`` reads
        (0, 0) with no word built.  The count identity decides 366 of the
        400 pairs, and the twin scan, which unites twins with one
        ``_joined_count``, the other 34."""
        twin_scans = []
        real = pi1._joined_count

        def counting(dec, added):
            twin_scans.append(added)
            return real(dec, added)

        monkeypatch.setattr(pi1, "_joined_count", counting)
        rng = random.Random(34)
        trivial = 0
        for start in (ball_gem(4), read_gem(GEMS / "shell.gem")):
            for _ in range(20):
                g = grow_by_insertions(start, rng.randint(10, 50), rng)
                g = regularize(g, singular_color=0)[0]
                for i, j in combinations(g.colors, 2):
                    trivial += word_test(presentation(g, i, j), 200)
                    del word_builds[:]
                    assert rank_bounds(presentation(g, i, j)) == (0, 0), (i, j)
                    assert word_builds == [], (i, j)
        by_twins = len(twin_scans)
        assert (trivial, trivial - by_twins, by_twins) == (400, 366, 34)

    @pytest.mark.parametrize("read", ["tietze", "abelianization", "pretty",
                                      "eq", "hash", "rank bounds"])
    def test_each_read_builds_once(self, k33, word_builds, read):
        """On a group the counts do not decide, each read builds the words
        once, and a second read builds nothing."""
        same = eager(k33, 0, 1)
        assert word_builds == [(k33, 0, 1)]
        do = (lambda p: p == same) if read == "eq" else READS[read]
        pres = presentation(k33, 0, 1)
        do(pres)
        do(pres)
        assert word_builds == [(k33, 0, 1)] * 2
