"""Acceptance suite: one test per criterion, one PASS line each.

Corpora: random corpora are arbitrary connected members of the graph
class in dimension four (no manifold structure assumed); the identity
suites that are theorems of pure combinatorics (component-count
identities, adjacent genus transfer, the universal half-integer
transfer, degree pairing, dipole laws) run on those unconditionally.
The statements that are theorems about manifolds (the nonadjacent
paper-form transfer, the capping Euler law, the dimension-four vertex
relation) carry their exact combinatorial hypotheses: the paper form is
asserted whenever its spherical-residue hypothesis holds on the random
corpus, and the manifold-only laws run on corpora grown from certified
manifold seeds by dipole insertion, which preserves the encoded space.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from gemkit import (
    abelianization_rank,
    ball_gem,
    boundary_component_count,
    boundary_graph,
    check_bound_on_gem,
    check_dehn_sommerville,
    check_omega_pairing,
    check_regularization_identities,
    check_semisimple,
    classify_vertices,
    count_g,
    euler_characteristic,
    f_vector,
    gem_complexity_relation,
    gurau_degree,
    order_two_gem,
    presentation,
    regular_genus,
    residues,
    rho_table,
    tietze_simplify,
    validate,
)
from gemkit.moves import (
    cancel_1_dipole,
    cap_boundary,
    full_contraction,
    insert_1_dipole,
    regularize,
)

from corpus import (
    k33_graph,
    manifold_boundary_corpus,
    random_boundary_corpus,
    random_regular_corpus,
    sphere_gem_corpus,
)
from manifold_cert import certify_compact_4_manifold
from test_cli import GEMS, run_cli


@pytest.fixture(scope="module")
def boundary_corpus():
    return random_boundary_corpus(1000, seed=2024, max_order=24)


@pytest.fixture(scope="module")
def regular_corpus():
    return random_regular_corpus(1000, seed=4048, max_order=24)


@pytest.fixture(scope="module")
def gem_corpus():
    return sphere_gem_corpus(500, seed=509)


@pytest.fixture(scope="module")
def manifold_corpus():
    return manifold_boundary_corpus(1000, seed=6006)


def report(line):
    print(f"\n{line}")


def test_criterion_1_oracle_gems():
    """Exact invariants of the three reference gems, under one second."""
    start = time.time()
    s4, b4, k33 = order_two_gem(4), ball_gem(4), k33_graph()

    table = rho_table(s4)
    assert len(table) == 12 and set(table.values()) == {Fraction(0)}
    assert gurau_degree(s4) == 0
    assert f_vector(s4) == (5, 10, 10, 5, 2)
    assert euler_characteristic(s4) == 2
    assert tietze_simplify(presentation(s4, 0, 1)).num_generators == 0

    bg = boundary_graph(b4)
    assert bg.graph.num_vertices == 2
    assert sorted(bg.graph.edges()) == [(0, 1, c) for c in range(4)]
    assert bg.num_components == 1
    assert set(rho_table(b4).values()) == {Fraction(0)}
    assert f_vector(b4) == (5, 10, 10, 6, 2)
    assert euler_characteristic(b4) == 1

    assert regular_genus(k33)[0] == 1
    assert euler_characteristic(k33) == 0
    assert abelianization_rank(presentation(k33, 0, 1)) == (2, [])

    elapsed = time.time() - start
    assert elapsed < 1.0
    report(f"ACCEPTANCE 1 PASS: oracle gems exact in {elapsed:.3f}s")


def test_criterion_2_lemma_identity_suite(boundary_corpus):
    """Capping component identities on 1000 random boundary members and
    every singular-color choice, exactly, within the time budget."""
    start = time.time()
    assert len(boundary_corpus) >= 1000
    assert all(g.num_vertices <= 24 for g in boundary_corpus)
    checked = 0
    for g in boundary_corpus:
        bg = boundary_graph(g)
        p_bar = classify_vertices(g).p_bar
        for c in range(4):
            capped, _ = cap_boundary(g, c)
            for i in range(4):
                if i == c:
                    continue
                lhs = residues(capped, {i, 4}).count
                rhs = count_g(g, {i, 4})[1] + residues(bg.graph, {i, c}).count
                assert lhs == rhs, (g, c, i)
            lhs = residues(capped, {c, 4}).count
            g_cd, gdot_cd = count_g(g, {c, 4})
            assert lhs == g_cd == gdot_cd + p_bar, (g, c)
            checked += 1
    elapsed = time.time() - start
    assert elapsed <= 60.0
    report(f"ACCEPTANCE 2 PASS: component identities exact on {checked} "
           f"cappings in {elapsed:.1f}s")


def test_criterion_3_transfer_suite(boundary_corpus):
    """Genus transfer on the connected-boundary subcorpus: the adjacent
    case and the universal form exactly everywhere; the nonadjacent paper
    form exactly on every permutation where its spherical-residue
    hypothesis holds (it is equivalent to that hypothesis)."""
    start = time.time()
    members = [g for g in boundary_corpus if boundary_component_count(g) == 1]
    assert len(members) >= 500
    adjacent = universal = paper_applicable = inapplicable = 0
    for g in members:
        for c in range(4):
            rep = check_regularization_identities(g, c)
            assert rep.lemma_ok
            for case in rep.to_jsonable()["transfer"]:
                assert case["universal_ok"], (g, c, case)
                universal += 1
                if case["case"] == "adjacent":
                    assert case["rho_capped"] == case["rho_input"], (g, c, case)
                    adjacent += 1
                elif case["paper_applicable"]:
                    assert case["paper_ok"], (g, c, case)
                    paper_applicable += 1
                else:
                    inapplicable += 1
    assert adjacent and paper_applicable and universal
    elapsed = time.time() - start
    report(f"ACCEPTANCE 3 PASS: transfer exact on {len(members)} h=1 members "
           f"({adjacent} adjacent, {paper_applicable} paper-form, "
           f"{inapplicable} outside the sphere hypothesis, "
           f"{universal} universal) in {elapsed:.1f}s")


def test_criterion_4_omega_pairing_suite(regular_corpus):
    """Order/partner genus sums constant and six times them the degree,
    exactly, on 1000 random regular graphs."""
    start = time.time()
    assert len(regular_corpus) >= 1000
    for g in regular_corpus:
        rep = check_omega_pairing(g)
        assert rep.sum_constant and rep.factor_ok, g
    elapsed = time.time() - start
    report(f"ACCEPTANCE 4 PASS: degree pairing exact on {len(regular_corpus)} "
           f"regular graphs in {elapsed:.1f}s")


def test_criterion_5_dipole_suite(gem_corpus):
    """500 insert/cancel round trips on regular sphere gems: the f-vector
    law, Euler and genus invariance, abelianization invariance, and exact
    round-trip recovery."""
    start = time.time()
    assert len(gem_corpus) >= 500
    rng = random.Random(99)
    for g in gem_corpus:
        edges = list(g.edges())
        u, v, c = edges[rng.randrange(len(edges))]
        bigger, site, genuine = insert_1_dipole(g, (u, v), c)
        assert genuine
        delta = tuple(b - a for b, a in zip(f_vector(bigger), f_vector(g)))
        assert delta == (1, 4, 6, 5, 2), (g, site)
        assert euler_characteristic(bigger) == euler_characteristic(g)
        assert rho_table(bigger) == rho_table(g)
        assert abelianization_rank(presentation(bigger, 0, 1)) == \
            abelianization_rank(presentation(g, 0, 1))
        assert cancel_1_dipole(bigger, site) == g
    elapsed = time.time() - start
    report(f"ACCEPTANCE 5 PASS: {len(gem_corpus)} round trips with exact "
           f"dipole laws in {elapsed:.1f}s")


def test_criterion_6_regularization_chi_law(manifold_corpus, boundary_corpus):
    """Capping raises the Euler characteristic by exactly the number of
    boundary components on every gem grown from certified manifold seeds
    (the law presumes the encoded space is a manifold; arbitrary random
    members violate it, which is reported, not asserted)."""
    start = time.time()
    assert len(manifold_corpus) >= 1000
    assert certify_compact_4_manifold(ball_gem(4))
    from corpus import shell_gem
    assert certify_compact_4_manifold(shell_gem())
    for g in manifold_corpus:
        h = boundary_component_count(g)
        assert h >= 1
        chi = euler_characteristic(g)
        for c in range(4):
            capped, _ = cap_boundary(g, c)
            assert euler_characteristic(capped) - chi == h, (g, c)
    holds = total = 0
    for g in boundary_corpus[:200]:
        h = boundary_component_count(g)
        chi = euler_characteristic(g)
        for c in range(4):
            capped, _ = cap_boundary(g, c)
            holds += euler_characteristic(capped) - chi == h
            total += 1
    elapsed = time.time() - start
    report(f"ACCEPTANCE 6 PASS: chi law exact on {len(manifold_corpus)} "
           f"manifold gems (h up to "
           f"{max(boundary_component_count(g) for g in manifold_corpus)}); "
           f"random members satisfy it in {holds}/{total} cappings, "
           f"as expected for non-manifolds; {elapsed:.1f}s")


def test_criterion_7_equality_pipeline():
    """The ball-gem pipeline attains both lower bounds with equality and
    is semi-simple with all twelve weak witnesses."""
    start = time.time()
    b4 = ball_gem(4)
    regularized, record = regularize(b4, singular_color=0)
    contracted = full_contraction(regularized)
    bound = check_bound_on_gem(contracted, chi_m=1, m=0, h=1, m_hat=0)
    assert bound.genus_bound == 0 and bound.gdegree_bound == 0
    assert bound.genus_ok and bound.gdegree_ok
    assert bound.genus_equality and bound.gdegree_equality
    assert set(bound.slack.values()) == {Fraction(0)}

    semis = check_semisimple(contracted, m=0, m_hat=0, h=1)
    assert semis.semi_simple
    assert len(semis.weak_semi_simple) == 12

    complexity = gem_complexity_relation(contracted, chi_m=1,
                                         claimed_minimal=True)
    assert complexity.relation_value == 0
    assert complexity.omega == 0 and complexity.matches
    elapsed = time.time() - start
    report(f"ACCEPTANCE 7 PASS: equality case attained end to end in "
           f"{elapsed:.3f}s")


def test_criterion_8_dehn_sommerville(gem_corpus):
    """The dimension-four vertex relation on the order-two sphere gem and
    on every dipole-corpus gem after full contraction (all of which have
    connected single-color-removed residues)."""
    start = time.time()
    s4 = order_two_gem(4)
    rep = check_dehn_sommerville(s4)
    assert rep.ok and rep.lhs == 2 and rep.rhs == 6 * 2 + 2 * 10 - 30
    checked = 0
    for g in gem_corpus:
        contracted = full_contraction(g, verify=False)
        all_colors = set(contracted.colors)
        if not all(residues(contracted, all_colors - {c}).count == 1
                   for c in range(4)):
            continue
        assert check_dehn_sommerville(contracted).ok, g
        checked += 1
    assert checked == len(gem_corpus)  # contraction connects every residue
    elapsed = time.time() - start
    report(f"ACCEPTANCE 8 PASS: vertex relation exact on the sphere gem and "
           f"{checked} contracted corpus gems in {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical machine output across repeated runs under different
    hash seeds (the CLI is single-process; hash randomization is the
    schedule-like source of nondeterminism it could have)."""
    start = time.time()
    store = tmp_path / "store.jsonl"
    for name in ("s4_2", "b4_2", "k33"):
        run_cli("catalog", "add", str(store), str(GEMS / f"{name}.gem"),
                "--name", name)
    battery = [
        ("--json", "validate", str(GEMS / "s4_2.gem")),
        ("--json", "info", str(GEMS / "shell_h2.gem")),
        ("--json", "genus", str(GEMS / "k33.gem"), "--all-perms"),
        ("--json", "gdegree", str(GEMS / "s4_2.gem")),
        ("--json", "fvector", str(GEMS / "b4_2.gem")),
        ("--json", "euler", str(GEMS / "b4_2.gem")),
        ("--json", "pi1", str(GEMS / "k33.gem"), "--pair", "0,1", "--simplify"),
        ("--json", "check", str(GEMS / "b4_2.gem"), "--suite", "lemma"),
        ("--json", "check", str(GEMS / "b4_2.gem"), "--suite", "corollary"),
        ("--json", "check", str(GEMS / "s4_2.gem"), "--suite", "omega"),
        ("--json", "check", str(GEMS / "s4_2.gem"), "--suite", "dipole"),
        ("--json", "check", str(GEMS / "s4_2.gem"), "--suite", "dehn"),
        ("--json", "bound", str(GEMS / "b4_2_regularized.gem"),
         "--chi", "1", "--m", "0", "--mhat", "0", "--h", "1", "--semisimple"),
        ("--json", "catalog", "scan", str(store), "--where", "rho_min=0"),
    ]
    for argv in battery:
        code1, out1, _ = run_cli(*argv, hashseed="17")
        code2, out2, _ = run_cli(*argv, hashseed="424242")
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
        json.loads(out1)
    elapsed = time.time() - start
    report(f"ACCEPTANCE 9 PASS: {len(battery)} commands byte-identical "
           f"across runs in {elapsed:.1f}s")
