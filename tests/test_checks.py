import contextlib
import io
import itertools
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gemkit import (
    CyclicPermutation,
    ball_gem,
    check_bound_on_gem,
    check_dehn_sommerville,
    check_omega_pairing,
    check_regularization_identities,
    check_semisimple,
    enumerate_cyclic_permutations,
    gem_complexity_relation,
    lower_bound_thm,
    order_two_gem,
    partner_permutation,
    random_boundary_gem,
    random_gem,
    residues,
    rho_table,
    validate,
)
from gemkit import checks
from gemkit.cli import main
from gemkit.errors import (
    DimensionError,
    DisconnectedError,
    GemError,
    InvalidColorError,
    NoBoundaryError,
    NotRegularError,
    PreconditionError,
    ResidueShapeError,
)
from gemkit.gemio import _canonical, read_gem, write_gem
from gemkit.invariants import (euler_characteristic, genus_table,
                               invariant_report)
from gemkit.moves import (cap_boundary, full_contraction, insert_1_dipole,
                          regularize)

import bruteforce as bf
from corpus import grow_by_insertions, k33_graph, shell_apart_corpus


# the slow capping tests fail on their first failing example: shrinking
# one of their gems reruns every color's oracle, for minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def torus_block_graph():
    """Contracted regular 5-colored graph whose {0,1,2}-residue is the
    torus gem: a pseudomanifold violating the sphere-link hypothesis."""
    edges = [(j, 3 + (j + i) % 3, i) for i in range(3) for j in range(3)]
    edges += [(0, 3, 3), (1, 4, 3), (2, 5, 3)]
    edges += [(0, 4, 4), (1, 5, 4), (2, 3, 4)]
    return validate(4, 6, edges)


class TestRegularizationIdentities:
    def test_b4_all_colors(self, b4):
        for c in range(4):
            report = check_regularization_identities(b4, c)
            assert report.ok and report.lemma_ok and report.transfer_ok
            assert report.h == 1 and report.chi_law_ok

    def test_b4_lemma_values(self, b4):
        report = check_regularization_identities(b4, 0)
        assert report.lemma_mixed[1] == (1, 1)  # 0 regular cycles + 1 boundary cycle
        assert report.lemma_singular == (1, 1, 1)

    def test_b4_nonadjacent_example(self, b4):
        # c = 2 with order (0,2,1,3,4): nonadjacent case with both boundary
        # counts equal to one, so the capped genus stays zero
        report = check_regularization_identities(b4, 2)
        case = {t["eps"]: t for t in report.to_jsonable()["transfer"]}["0,2,1,3,4"]
        assert case["case"] == "nonadjacent" and case["paper_applicable"]
        assert case["rho_input"] == case["paper_rhs"] == case["rho_capped"] == "0"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2 ** 20), st.integers(0, 3))
    def test_lemma_universal(self, p, seed, c):
        g = random_boundary_gem(4, p, max(0, p - 3), seed=seed)
        assert check_regularization_identities(g, c).lemma_ok

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 20), st.integers(0, 3))
    def test_transfer_universal_parts(self, p, seed, c):
        g = random_boundary_gem(4, p, max(0, p - 3), seed=seed)
        report = check_regularization_identities(g, c)
        for case in report.to_jsonable()["transfer"]:
            assert case["universal_ok"]
            if case["case"] == "adjacent":
                assert case["rho_capped"] == case["rho_input"]
            elif case["paper_applicable"]:
                assert case["paper_ok"]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 7), st.integers(0, 2 ** 20),
           st.integers(0, 3))
    def test_transfer_reads_the_per_order_genus(self, p, p_dot, seed, c):
        # the report's genus values are those of the per-order formulas
        # of the brute-force oracles, case by case in canonical order
        g = random_boundary_gem(4, p, p_dot % p, seed=seed)
        capped, _ = cap_boundary(g, c)
        transfer = check_regularization_identities(g, c).to_jsonable()["transfer"]
        orders = enumerate_cyclic_permutations(4)
        n, edges = g.num_vertices, list(g.edges())
        capped_edges = list(capped.edges())
        assert [case["eps"] for case in transfer] == [eps.label() for eps in orders]
        assert [(case["rho_input"], case["rho_capped"]) for case in transfer] == [
            (str(bf.rho_boundary(4, n, edges, eps.order)),
             str(bf.rho_closed(4, n, capped_edges, eps.order))) for eps in orders]

    @pytest.mark.parametrize("moved", ["universal", "paper"])
    def test_transfer_flags_read_their_own_prediction(self, moved):
        """A row whose universal or paper shift is one too high fails that
        form alone at every order it applies to, and writes its
        prediction half a genus above the capped genus."""
        g = random_boundary_gem(4, 6, 2, seed=3)
        c = 0
        rows = list(checks._capping_rows(g))
        step = {"universal": (1, 0), "paper": (0, 1)}[moved]
        rows[c] = rows[c]._replace(shifts={
            pair: (adjacent, universal + step[0],
                   None if paper is None else paper + step[1])
            for pair, (adjacent, universal, paper) in rows[c].shifts.items()})
        g._memo["capping"] = tuple(rows)
        transfer = check_regularization_identities(g, c).to_jsonable()["transfer"]
        assert any(case["paper_applicable"] for case in transfer)
        half = Fraction(1, 2)
        for case in transfer:
            assert case["universal_ok"] is (moved == "paper")
            assert case["paper_ok"] is (None if not case["paper_applicable"]
                                        else moved == "universal")
            rhs = case[f"{moved}_rhs"]
            if rhs is not None:
                assert Fraction(rhs) == Fraction(case["rho_capped"]) + half


class TestCappingRecord:
    """The capping checks of every singular color are built in one pass
    per graph; every color's report equals the slow path that rebuilds
    everything, before and after the memo is filled."""

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(st.integers(3, 5), st.integers(2, 7), st.integers(0, 2 ** 20),
           st.booleans(), st.randoms(use_true_random=False))
    def test_every_color_matches_the_slow_path(self, d, p, seed, report_first,
                                               rng):
        g = random_boundary_gem(d, p, seed % p, seed=seed)
        edges = list(g.edges())
        expected = {c: bf.regularization_identities(d, g.num_vertices, edges, c)
                    for c in range(d)}
        if report_first:
            invariant_report(g)
        for _ in range(2):
            colors = list(range(d))
            rng.shuffle(colors)
            for c in colors:
                report = check_regularization_identities(g, c)
                assert report.to_jsonable() == expected[c]
            invariant_report(g)

    def test_bad_color_memoizes_nothing(self, s4):
        g = random_boundary_gem(4, 6, 2, seed=3)
        for c in (-1, 4, 9):
            with pytest.raises(InvalidColorError):
                check_regularization_identities(g, c)
        assert g._memo == {}
        with pytest.raises(NoBoundaryError):
            check_regularization_identities(s4, 0)
        assert "capping" not in s4._memo


def bipartite_boundary_gem(d, p, p_dot, rng):
    """A random connected bipartite gem with boundary: every color below d
    matches the first p vertices to the last p, and color d joins p_dot
    of those pairs."""
    for _ in range(200):
        edges = []
        for c in range(d):
            perm = rng.sample(range(p, 2 * p), p)
            edges += [(a, perm[a], c) for a in range(p)]
        perm = rng.sample(range(p, 2 * p), p)
        edges += [(a, perm[a], d) for a in rng.sample(range(p), p_dot)]
        try:
            return validate(d, 2 * p, edges)
        except DisconnectedError:
            continue
    raise AssertionError("no connected sample")


def slow_capping_form(g, c, report):
    """The report's JSON form with every value of the capped gem read
    from a capped graph: ``cap_boundary``, then ``residues``,
    ``genus_table`` and ``euler_characteristic`` on it; every flag
    compared anew."""
    d = g.dimension
    capped, _ = cap_boundary(g, c)
    out = report.to_jsonable()
    lemma_mixed = {key: [residues(capped, (int(key), d)).count, rhs]
                   for key, (_, rhs) in out["lemma_mixed"].items()}
    lemma_singular = [residues(capped, (c, d)).count] + out["lemma_singular"][1:]
    lemma_ok = (all(lhs == rhs for lhs, rhs in lemma_mixed.values())
                and len(set(lemma_singular)) == 1)
    transfer = []
    for case, doubled in zip(out["transfer"], genus_table(capped).doubled):
        rho = Fraction(doubled, 2)
        paper = case["paper_rhs"]
        transfer.append({**case, "rho_capped": str(rho),
                         "universal_ok": rho == Fraction(case["universal_rhs"]),
                         "paper_ok": None if paper is None else rho == Fraction(paper)})
    transfer_ok = all(t["universal_ok"] and t["paper_ok"] is not False
                      for t in transfer)
    chi_delta = euler_characteristic(capped) - euler_characteristic(g)
    return {**out, "lemma_mixed": lemma_mixed, "lemma_singular": lemma_singular,
            "lemma_ok": lemma_ok, "transfer": transfer, "transfer_ok": transfer_ok,
            "chi_delta": chi_delta, "chi_law_ok": chi_delta == out["h"],
            "ok": lemma_ok and transfer_ok}


class TestCountPath:
    """The capping checks read the capped gem's counts off the input's,
    joined along the capping edges; every report equals the one read from
    a capped graph and the brute-force oracle, and the catalog flag equals
    the reports' ``ok``."""

    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans())
    def test_reports_match_the_capped_graph(self, d, p, seed, bipartite):
        rng = random.Random(seed)
        if d == 6:
            p = min(p, 3)  # the oracle's 360 orders
        if bipartite:
            g = bipartite_boundary_gem(d, p, rng.randrange(p), rng)
        else:
            g = random_boundary_gem(d, max(p, 2), seed % max(p, 2), seed=seed)
        edges = list(g.edges())
        for c in range(d):
            report = check_regularization_identities(g, c)
            assert report.to_jsonable() == slow_capping_form(g, c, report)
            assert report.to_jsonable() == bf.regularization_identities(
                d, g.num_vertices, edges, c)
            assert checks._capping_rows(g)[c].ok == report.ok
            assert cap_boundary(g, c)[0].is_bipartite == g.is_bipartite

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans())
    def test_payload_is_the_canonical_decoded_form(self, d, p, seed, bipartite):
        """``--json check`` splices each color's transfer text; the
        payload is, byte for byte, one canonical encoding of the decoded
        reports."""
        rng = random.Random(seed)
        if bipartite:
            g = bipartite_boundary_gem(d, p, rng.randrange(p), rng)
        else:
            g = random_boundary_gem(d, max(p, 2), seed % max(p, 2), seed=seed)
        reports = {str(c): check_regularization_identities(g, c).to_jsonable()
                   for c in range(d)}
        with tempfile.TemporaryDirectory() as tmp:
            gem = str(Path(tmp) / "g.gem")
            write_gem(g, gem)
            for suite, flag in (("lemma", "lemma_ok"), ("corollary", "transfer_ok")):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["--json", "check", gem, "--suite", suite])
                ok = all(r[flag] for r in reports.values())
                assert out.getvalue() == _canonical(
                    {"by_color": reports, "command": "check", "ok": ok,
                     "suite": suite}) + "\n"
                assert code == (0 if ok else 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(5))
    def test_least_capped_genus_is_the_regularized_min_rho(self, d, seed):
        """Regularizing swaps c and d after capping, which only permutes
        the cyclic orders: min rho of ``regularize(g, c)`` is half the
        least capped value in row c."""
        g = random_boundary_gem(d, 6, seed % 6, seed=seed)
        for c, row in enumerate(checks._capping_rows(g)):
            regular, _ = regularize(g, c)
            assert min(genus_table(regular).doubled) == min(row.doubled_capped)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2 ** 20), st.booleans())
    def test_catalog_flag_is_every_report_ok(self, p, seed, bipartite):
        rng = random.Random(seed)
        if bipartite:
            g = bipartite_boundary_gem(4, p, rng.randrange(p), rng)
        else:
            g = random_boundary_gem(4, p, seed % p, seed=seed)
        flag = invariant_report(g).bound_checks["capping_identities"]
        assert flag is True
        assert all(check_regularization_identities(g, c).ok for c in range(4))

    def test_cli_matches_the_oracle_on_seeded_gems(self, tmp_path, capsys):
        """``check --suite lemma`` and the catalog flag on 200 seeded d = 4
        boundary gems of p 4..48, each checked by a fresh ``main`` call."""

        def run(*argv):
            code = main(["--json", *argv])
            return code, json.loads(capsys.readouterr().out)

        rng = random.Random(577)
        gem, store = str(tmp_path / "capping.gem"), str(tmp_path / "capping.jsonl")
        for k in range(200):
            p = rng.randint(4, 48)
            g = random_boundary_gem(4, p, rng.randrange(p), seed=rng.randrange(2 ** 32))
            write_gem(g, gem)
            edges = list(g.edges())
            want = {str(c): bf.regularization_identities(4, g.num_vertices, edges, c)
                    for c in range(4)}
            code, check = run("check", gem, "--suite", "lemma")
            _, added = run("catalog", "add", store, gem)
            flag = added["record"]["bound_checks"]["capping_identities"]
            lemma_ok = all(r["lemma_ok"] for r in want.values())
            where = f"gem {k} (p = {p})"
            assert check["by_color"] == want, \
                f"{where}: check --suite lemma differs from the oracle"
            assert code == (0 if lemma_ok else 1), f"{where}: exit code {code}"
            assert flag == all(r["ok"] for r in want.values()), \
                f"{where}: the catalog flag differs from the oracle"


class TestOmegaPairing:
    def test_s4(self, s4):
        report = check_omega_pairing(s4)
        assert report.ok and report.omega == 0

    def test_partner_is_involution(self):
        for eps in [CyclicPermutation((0, 1, 2, 3, 4)),
                    CyclicPermutation((0, 3, 1, 2, 4))]:
            mate = partner_permutation(eps)
            assert mate != eps
            assert partner_permutation(mate) == eps

    def test_wrong_dimension(self, k33):
        with pytest.raises(DimensionError):
            check_omega_pairing(k33)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_partner_needs_dimension_four(self, d):
        with pytest.raises(DimensionError):
            partner_permutation(CyclicPermutation(tuple(range(d + 1))))

    def test_boundary_rejected(self, b4):
        with pytest.raises(NotRegularError):
            check_omega_pairing(b4)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2 ** 20))
    def test_random_regular(self, p, seed):
        report = check_omega_pairing(random_gem(4, p, seed=seed))
        assert report.sum_constant and report.factor_ok


class TestLowerBounds:
    def test_values(self):
        assert lower_bound_thm(1, 0, 1, 0) == (0, 0)
        assert lower_bound_thm(0, 1, 1, 1) == (3, 36)

    def test_h_zero_rejected(self):
        with pytest.raises(PreconditionError):
            lower_bound_thm(2, 0, 0, 0)

    def test_negative_rank_rejected(self):
        with pytest.raises(PreconditionError):
            lower_bound_thm(1, -1, 1, 0)

    def test_equality_case(self, regularized_b4):
        report = check_bound_on_gem(regularized_b4, 1, 0, 1, 0)
        assert report.ok
        assert report.genus_equality and report.gdegree_equality
        assert report.slack_consistent
        assert set(report.slack.values()) == {Fraction(0)}

    def test_invariant_under_dipoles(self, regularized_b4):
        g = grow_by_insertions(regularized_b4, 4, random.Random(17))
        g = full_contraction(g)
        report = check_bound_on_gem(g, 1, 0, 1, 0)
        assert report.genus_equality and report.gdegree_equality

    def test_wrong_rank_reported_not_raised(self, regularized_b4):
        report = check_bound_on_gem(regularized_b4, 1, 0, 1, 5)
        assert not report.ok and not report.genus_ok
        # the excess-count decomposition is insensitive to the claimed
        # ranks (they cancel); it cross-checks chi and h instead
        assert report.slack_consistent

    def test_wrong_chi_breaks_slack_decomposition(self, regularized_b4):
        report = check_bound_on_gem(regularized_b4, 3, 0, 1, 0)
        assert not report.slack_consistent

    def test_boundary_rejected(self, b4):
        with pytest.raises(NotRegularError):
            check_bound_on_gem(b4, 1, 0, 1, 0)


class TestSemisimple:
    def test_skip_one_table_is_the_triples_of_each_order(self):
        table = checks._skip_one_table()
        assert table == tuple(tuple(checks._skip_one_triples(eps))
                              for eps in enumerate_cyclic_permutations(4))
        assert len(table) == 12 and checks._skip_one_table() is table

    def test_equality_case(self, regularized_b4):
        report = check_semisimple(regularized_b4, m=0, m_hat=0, h=1)
        assert report.semi_simple
        assert len(report.weak_semi_simple) == 12

    def test_wrong_m_not_semisimple(self, regularized_b4):
        report = check_semisimple(regularized_b4, m=1, m_hat=0, h=1)
        assert not report.semi_simple
        assert not report.weak_semi_simple

    def test_semisimple_implies_weak_everywhere(self, s4):
        report = check_semisimple(s4, m=0, m_hat=0, h=1)
        if report.semi_simple:
            assert len(report.weak_semi_simple) == 12

    def test_residue_shape_precondition(self):
        edges = [(0, 1, c) for c in range(4)] + [(2, 3, c) for c in range(4)]
        edges += [(0, 2, 4), (1, 3, 4)]
        g = validate(4, 4, edges)  # graph minus color 4 has two components
        with pytest.raises(ResidueShapeError):
            check_semisimple(g, m=0, m_hat=0, h=1)

    @pytest.mark.parametrize("m, m_hat", [(-1, 0), (0, -3), (-2, -2)])
    def test_negative_ranks_refused(self, s4, b4, m, m_hat):
        """Negative group ranks are refused as ``lower_bound_thm`` refuses
        them, after the dimension and regularity checks and before the
        residue shape is read."""
        for call in (lambda: check_semisimple(s4, m, m_hat, 1),
                     lambda: check_semisimple(s4, m, m_hat, 5),
                     lambda: lower_bound_thm(2, m, 1, m_hat)):
            with pytest.raises(PreconditionError) as exc:
                call()
            assert str(exc.value) == "group ranks must be non-negative"
        with pytest.raises(DimensionError):
            check_semisimple(order_two_gem(3), m, m_hat, 1)
        with pytest.raises(NotRegularError):
            check_semisimple(b4, m, m_hat, 1)


def oracle_triple_table(graph, m, m_hat):
    """From the definition, by brute-force component counts: each triple's
    count and least count (m + 1 with color 4, m_hat plus the components
    without color 4 inside 0..3), and the cyclic orders whose five
    skip-one triples all have their least counts."""
    n, edges = graph.num_vertices, list(graph.edges())
    k = bf.count_components(n, edges, {0, 1, 2, 3})
    counts, least = {}, {}
    for tri in itertools.combinations(range(5), 3):
        counts[tri] = bf.count_components(n, edges, set(tri))
        least[tri] = m + 1 if 4 in tri else m_hat + k
    witnesses = []
    for o in bf.cyclic_classes(4):
        skip_one = [tuple(sorted((o[i], o[(i + 2) % 5], o[(i + 4) % 5])))
                    for i in range(5)]
        if all(counts[tri] == least[tri] for tri in skip_one):
            witnesses.append(o)
    return k, counts, least, witnesses


SHELL_APART = shell_apart_corpus()


class TestLeastCounts:
    """A triple inside 0..3 has least count m_hat plus the number of
    components without color 4; the bound's slack splits into the excesses
    over those counts."""

    def test_slack_splits_with_singular_vertices_apart(self):
        # (chi, m, h, m_hat) = (0, 0, 2, 0): the bound is 0, so the slack
        # at an order is its genus
        for g in SHELL_APART:
            k = residues(g, range(4)).count
            assert 2 <= k
            counts = checks._triple_counts(g)
            rho = rho_table(g)

            def splits(least):
                return [rho[eps] == sum(counts[tri] - least[tri]
                                        for tri in checks._skip_one_triples(eps))
                        for eps in rho]

            assert all(splits(checks._least_counts(0, 0, k)))
            # the base m_hat + 1 holds only with one component without 4
            assert not any(splits(checks._least_counts(0, 0, 1)))
            report = check_bound_on_gem(g, 0, 0, 2, 0)
            assert report.ok and report.slack_consistent

    def check_against_oracle(self, g, m, m_hat):
        k, counts, least, witnesses = oracle_triple_table(g, m, m_hat)
        connected = all(bf.count_components(g.num_vertices, list(g.edges()),
                                            set(range(5)) - {c}) == 1
                        for c in range(4))
        if connected:
            report = check_semisimple(g, m, m_hat, k)
            assert report.triple_counts == counts
            assert report.semi_simple == (counts == least)
            assert [eps.order for eps in report.weak_semi_simple] == witnesses
            assert report.expected_inner == m_hat + k
            assert report.expected_with_final == m + 1
        else:
            with pytest.raises(ResidueShapeError):
                check_semisimple(g, m, m_hat, k)
        contracted = full_contraction(g, verify=False)
        _, counts, least, _ = oracle_triple_table(contracted, m, m_hat)
        report = check_bound_on_gem(g, 1, m, 1, m_hat)
        assert report.t_table == {tri: counts[tri] - least[tri] for tri in counts}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2 ** 20), st.booleans(),
           st.integers(0, 2), st.integers(0, 2))
    def test_random_regular_matches_oracle(self, p, seed, contract, m, m_hat):
        g = random_gem(4, p, seed=seed)
        if contract:
            g = full_contraction(g, verify=False)
        self.check_against_oracle(g, m, m_hat)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(SHELL_APART), st.integers(0, 2), st.integers(0, 2))
    def test_shell_corpus_matches_oracle(self, g, m, m_hat):
        self.check_against_oracle(g, m, m_hat)

    def test_equality_cases_are_semisimple(self, regularized_b4, s4):
        for g in (regularized_b4, s4):
            self.check_against_oracle(g, 0, 0)
            assert check_semisimple(g, 0, 0, 1).semi_simple


FOUR_DIMENSIONAL_CHECKS = {
    "omega_pairing": check_omega_pairing,
    "bound": lambda g: check_bound_on_gem(g, 1, 0, 1, 0),
    "semisimple": lambda g: check_semisimple(g, 0, 0, 1),
    "dehn_sommerville": check_dehn_sommerville,
}


@pytest.mark.parametrize("name", sorted(FOUR_DIMENSIONAL_CHECKS))
def test_dimension_four_preconditions(name):
    check = FOUR_DIMENSIONAL_CHECKS[name]
    with pytest.raises(DimensionError):
        check(order_two_gem(3))
    with pytest.raises(NotRegularError):
        check(ball_gem(4))


class TestDehnSommerville:
    def test_s4(self, s4):
        report = check_dehn_sommerville(s4)
        assert report.ok and report.lhs == 2 and report.rhs == 12 + 20 - 30

    def test_restored_after_contraction(self, s4):
        g = grow_by_insertions(s4, 5, random.Random(8))
        report = check_dehn_sommerville(full_contraction(g))
        assert report.ok

    def test_regularized_pipeline(self, regularized_b4):
        assert check_dehn_sommerville(regularized_b4).ok

    def test_torus_block_violates(self):
        # contracted but not a singular manifold: an edge link is a torus,
        # so the relation must fail rather than be forced
        report = check_dehn_sommerville(torus_block_graph())
        assert not report.ok

    def test_precondition(self):
        # joined along color 0, so removing color 0 disconnects the graph
        edges = [(0, 1, c) for c in range(1, 5)] + [(2, 3, c) for c in range(1, 5)]
        edges += [(0, 2, 0), (1, 3, 0)]
        g = validate(4, 4, edges)
        with pytest.raises(PreconditionError):
            check_dehn_sommerville(g)


class TestReportFlags:
    """The report reads its omega-pairing and Dehn-Sommerville flags off
    the integers it holds; the two checks are their reference."""

    @staticmethod
    def assert_flags_match(g):
        flags = invariant_report(g).bound_checks
        try:
            dehn = check_dehn_sommerville(g).ok
        except PreconditionError:
            dehn = None
        assert flags["omega_pairing"] == check_omega_pairing(g).ok
        assert flags["dehn_sommerville"] == dehn

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2 ** 20), st.integers(0, 6),
           st.booleans())
    def test_random_regular(self, p, seed, inserts, contract):
        # contraction makes every outcome: holds, fails, or a residue on
        # four colors is disconnected and the check refuses the gem
        g = grow_by_insertions(random_gem(4, p, seed=seed), inserts,
                               random.Random(seed))
        self.assert_flags_match(full_contraction(g) if contract else g)

    def test_fixed_cases(self, s4, regularized_b4):
        disconnected = validate(4, 4, [(0, 1, c) for c in range(1, 5)]
                                + [(2, 3, c) for c in range(1, 5)]
                                + [(0, 2, 0), (1, 3, 0)])
        flags = [invariant_report(g).bound_checks["dehn_sommerville"]
                 for g in (s4, regularized_b4, torus_block_graph(), disconnected)]
        assert flags == [True, True, False, None]
        for g in (s4, regularized_b4, torus_block_graph(), disconnected):
            self.assert_flags_match(g)


class TestComplexityRelation:
    def test_equality(self, regularized_b4):
        report = gem_complexity_relation(regularized_b4, 1, claimed_minimal=True)
        assert report.matches and report.ok
        assert report.relation_value == 0 and report.omega == 0

    def test_non_minimal_witness(self, regularized_b4):
        g = grow_by_insertions(regularized_b4, 1, random.Random(4))
        report = gem_complexity_relation(g, 1)
        assert not report.matches and report.relation_value == 6
        assert report.omega == 0
        assert "non-minimal" in report.note

    def test_closed_manifold_mismatch_noted(self, s4):
        report = gem_complexity_relation(s4, 2)
        assert not report.matches and report.relation_value == 6


GOLDEN = Path(__file__).resolve().parent / "golden"
GEMS = Path(__file__).resolve().parent.parent / "gems"


def bundled_report_forms() -> dict:
    """``to_jsonable()`` of the complexity and semi-simplicity reports on
    every bundled gem (regularized on color 0 when it has boundary), on a
    copy grown by three dipole insertions and on that copy contracted;
    a report that raises is recorded by its error's class name."""
    out = {}
    for k, path in enumerate(sorted(GEMS.glob("*.gem"))):
        g = read_gem(path)
        if not g.is_regular:
            g, _ = regularize(g, singular_color=0)
        grown = grow_by_insertions(g, 3, random.Random(k))
        for label, x in (("gem", g), ("grown", grown),
                         ("contracted", full_contraction(grown, verify=False))):
            entry = {"complexity": [
                gem_complexity_relation(x, chi, claimed).to_jsonable()
                for chi in (0, 1, 2) for claimed in (False, True)]}
            if x.dimension == 4:
                h = residues(x, range(4)).count
                entry["semisimple"] = []
                for m in (0, 1):
                    try:
                        entry["semisimple"].append(
                            check_semisimple(x, m, 0, h).to_jsonable())
                    except GemError as exc:
                        entry["semisimple"].append(type(exc).__name__)
            out[f"{path.stem}/{label}"] = entry
    return out


def test_report_forms_match_golden():
    text = json.dumps(bundled_report_forms(), sort_keys=True, indent=1) + "\n"
    assert text == (GOLDEN / "reports_bundled.json").read_text()
