import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from gemkit import (
    CyclicPermutation,
    ball_gem,
    count_g,
    enumerate_cyclic_permutations,
    euler_characteristic,
    f_vector,
    gurau_degree,
    invariant_report,
    order_two_gem,
    random_boundary_gem,
    random_gem,
    regular_genus,
    residues,
    rho_table,
    validate,
)
from gemkit.errors import (NonIntegralGenusError, NotRegularError,
                           TooManyOrdersError)
from gemkit.moves import insert_1_dipole, regularize


def disc_gem_d2():
    """Order-two 3-colored graph missing its final color: the 2-disk."""
    return validate(2, 2, [(0, 1, 0), (0, 1, 1)])


class TestCyclicPermutations:
    @pytest.mark.parametrize("d,count", [(2, 1), (3, 3), (4, 12), (5, 60)])
    def test_class_count(self, d, count):
        assert len(enumerate_cyclic_permutations(d)) == count

    def test_d2_is_identity(self):
        assert enumerate_cyclic_permutations(2) == [CyclicPermutation((0, 1, 2))]

    def test_canonicalization_collapses_rotations_and_reflections(self):
        base = (0, 3, 1, 2, 4)
        eps = CyclicPermutation(base)
        for k in range(5):
            rotated = base[k:] + base[:k]
            assert CyclicPermutation.canonical(rotated) == eps
            assert CyclicPermutation.canonical(rotated[::-1]) == eps

    def test_bad_forms_rejected(self):
        with pytest.raises(ValueError):
            CyclicPermutation((3, 1, 2, 0, 4))  # reflection is canonical
        with pytest.raises(ValueError):
            CyclicPermutation((0, 1, 4, 2, 3))  # final color not last
        with pytest.raises(ValueError):
            CyclicPermutation((0, 0, 1, 2, 4))


class TestFVector:
    def test_oracle_gems(self, s4, b4, k33):
        assert f_vector(s4) == (5, 10, 10, 5, 2)
        assert euler_characteristic(s4) == 2
        assert f_vector(b4) == (5, 10, 10, 6, 2)
        assert euler_characteristic(b4) == 1
        assert f_vector(k33) == (3, 9, 6)
        assert euler_characteristic(k33) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(2, 8), st.integers(0, 2 ** 20),
           st.booleans())
    def test_matches_bruteforce(self, d, p, seed, boundary):
        g = _gem(d, p, max(0, p - 2), seed, boundary)
        assert f_vector(g) == bf.f_vector(d, g.num_vertices, list(g.edges()))


    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 4), st.integers(0, 3),
           st.integers(0, 2 ** 20), st.booleans(), st.booleans())
    def test_pass_counts_every_pair_and_triple(self, d, p, p_dot, seed,
                                               boundary, warm):
        """Given a dict, the f-vector pass stores (g, g_dot) of every color
        pair and triple but d = 2's full one, equal to ``count_g`` on a
        fresh copy of the gem and to the brute-force counts.  A warm gem
        has its pairs decomposed first, as ``invariant_report`` has."""
        import gemkit.invariants as inv

        g = _gem(d, p, p_dot, seed, boundary)
        n, edges = g.num_vertices, list(g.edges())
        if warm:
            inv.genus_table(g)
        counts = {}
        assert inv._f_vector(g, counts) == bf.f_vector(d, n, edges)
        sets = [colors for size in (2, 3)
                for colors in combinations(range(d + 1), size) if size <= d]
        assert sorted(counts) == sorted(inv._mask_of(colors) for colors in sets)
        fresh = validate(d, n, edges)
        for colors in sets:
            want = (bf.count_components(n, edges, set(colors)),
                    bf.count_regular_components(n, edges, set(colors)))
            assert counts[inv._mask_of(colors)] == count_g(fresh, colors) == want


class TestGenusTableJson:
    """``GenusTable.json`` quotes each doubled value v as the text of
    Fraction(v, 2), in the canonical encoding of the label -> text dict."""

    @staticmethod
    def fraction_text(sweep, doubled):
        return json.dumps({eps.label(): str(Fraction(v, 2))
                           for eps, v in zip(sweep.orders, doubled)},
                          sort_keys=True, separators=(",", ":"))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_equals_the_fraction_texts(self, d, data):
        import gemkit.invariants as inv

        sweep = inv._sweep(d)
        doubled = data.draw(st.lists(st.integers(-9, 9) | st.integers(),
                                     min_size=sweep.count, max_size=sweep.count))
        assert inv.GenusTable(sweep, doubled).json() == self.fraction_text(
            sweep, doubled)

    @pytest.mark.parametrize("d", [3, 4, 6, 7])
    def test_negative_zero_and_odd_values(self, d):
        import gemkit.invariants as inv

        sweep = inv._sweep(d)
        doubled = [k % 7 - 3 for k in range(sweep.count)]  # -3..3
        assert inv.GenusTable(sweep, doubled).json() == self.fraction_text(
            sweep, doubled)

    @pytest.mark.parametrize("value", [-3, -2, 0, 1, 4])
    def test_one_order_sweep(self, value):
        import gemkit.invariants as inv

        sweep = inv._sweep(2)
        assert sweep.count == 1
        assert inv.GenusTable(sweep, [value]).json() == self.fraction_text(
            sweep, [value])


class TestRho:
    def test_s4_all_zero(self, s4):
        assert set(rho_table(s4).values()) == {Fraction(0)}

    def test_k33_torus(self, k33):
        assert rho_table(k33) == {CyclicPermutation((0, 1, 2)): 1}

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_order_two_zero(self, d):
        g = order_two_gem(d)
        assert all(v == 0 for v in rho_table(g).values())

    def test_b4_boundary_zero(self, b4):
        assert set(rho_table(b4).values()) == {Fraction(0)}

    def test_b4_with_dipole_still_zero(self, b4):
        bigger, _, _ = insert_1_dipole(b4, (0, 1), 1)
        assert set(rho_table(bigger).values()) == {Fraction(0)}

    def test_disc_gem(self):
        assert rho_table(disc_gem_d2()) == {CyclicPermutation((0, 1, 2)): 0}

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2 ** 20))
    def test_closed_matches_bruteforce(self, p, seed):
        g = random_gem(4, p, seed=seed)
        edges = list(g.edges())
        for eps, value in rho_table(g).items():
            assert value == bf.rho_closed(4, g.num_vertices, edges, eps.order)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2 ** 20))
    def test_boundary_matches_bruteforce(self, p, seed):
        g = random_boundary_gem(4, p, max(0, p - 2), seed=seed)
        edges = list(g.edges())
        for eps, value in rho_table(g).items():
            assert value == bf.rho_boundary(4, g.num_vertices, edges, eps.order)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2 ** 20))
    def test_bipartite_integrality_never_trips(self, p, seed):
        g = random_gem(4, p, seed=seed)
        for value in rho_table(g).values():
            if g.is_bipartite:
                assert value.denominator == 1
            else:
                assert value.denominator in (1, 2)


class TestGenusAndDegree:
    def test_s4(self, s4):
        best, argmin = regular_genus(s4)
        assert best == 0 and len(argmin) == 12
        assert gurau_degree(s4) == 0

    def test_k33(self, k33):
        assert regular_genus(k33)[0] == 1
        assert gurau_degree(k33) == 1

    def test_b4(self, b4):
        assert regular_genus(b4)[0] == 0

    def test_regularized_b4(self, regularized_b4):
        assert gurau_degree(regularized_b4) == 0

    def test_degree_needs_regular(self, b4):
        with pytest.raises(NotRegularError):
            gurau_degree(b4)

    def test_surface_genus_equals_genus(self, k33):
        # dimension-2 sanity: the torus gem has genus one, spheres zero
        assert regular_genus(k33)[0] == 1
        assert regular_genus(order_two_gem(2))[0] == 0


class TestInvariantReport:
    def test_consistency(self, s4, b4):
        for g in (s4, b4):
            rep = invariant_report(g)
            assert rep.rho_min == min(rep.rho_by_perm.values())
            if g.is_regular:
                assert rep.omega_g == sum(rep.rho_by_perm.values(), Fraction(0))
            else:
                assert rep.omega_g is None
            assert rep.chi == euler_characteristic(g)
            assert rep.p == rep.p_bar + rep.p_dot

    def test_jsonable_deterministic(self, b4):
        import json
        a = json.dumps(invariant_report(b4).to_jsonable(), sort_keys=True)
        b = json.dumps(invariant_report(b4).to_jsonable(), sort_keys=True)
        assert a == b


def _gem(d, p, p_dot, seed, boundary):
    """A random regular gem, or one with boundary when p allows it."""
    if boundary and p > 1:
        return random_boundary_gem(d, p, p_dot % p, seed=seed)
    return random_gem(d, p, seed=seed)


GEMS_D2_TO_6 = st.builds(
    _gem, st.integers(2, 6), st.integers(1, 4), st.integers(0, 3),
    st.integers(0, 2 ** 20), st.booleans())


def _matched_01_gem(n, boundary):
    """A bipartite d = 4 gem on n vertices whose colors 0 and 1 match the
    same pairs {2i, 2i + 1}, so its {0, 1} residue has n/2 components.
    Colors 0 and 2 close one Hamiltonian cycle; colors 3 and 4 match even
    vertices to odd ones at random, color 4 on half the pairs with
    boundary."""
    rng = random.Random(0)
    edges = [(2 * i, 2 * i + 1, c) for i in range(n // 2) for c in (0, 1)]
    edges += [(2 * i + 1, (2 * i + 2) % n, 2) for i in range(n // 2)]
    for c in (3, 4):
        odd = list(range(1, n, 2))
        rng.shuffle(odd)
        pairs = list(zip(range(0, n, 2), odd))
        if c == 4 and boundary:
            pairs = pairs[:n // 4]
        edges += [(u, v, c) for u, v in pairs]
    return validate(4, n, edges)


def _oracle_table(g) -> dict[tuple[int, ...], Fraction]:
    """The brute-force genus of every canonical order, by its tuple."""
    d, n, edges = g.dimension, g.num_vertices, list(g.edges())
    oracle = bf.rho_closed if g.is_regular else bf.rho_boundary
    return {eps: oracle(d, n, edges, eps) for eps in bf.cyclic_classes(d)}


class TestPairTable:
    """``rho_table`` reads each order's genus from the pair counts; the
    per-order formulas of the brute-force oracles are its reference."""

    @settings(max_examples=60, deadline=None)
    @given(GEMS_D2_TO_6)
    def test_equals_per_order_formulas(self, g):
        # every order, in canonical order
        expected = list(_oracle_table(g).items())
        assert [(eps.order, value)
                for eps, value in rho_table(g).items()] == expected

    @settings(max_examples=40, deadline=None)
    @given(GEMS_D2_TO_6, st.lists(st.integers(0, 10 ** 6), min_size=1,
                                  max_size=3))
    def test_sampled_orders_match_bruteforce(self, g, picks):
        d, n, edges = g.dimension, g.num_vertices, list(g.edges())
        oracle = bf.rho_closed if g.is_regular else bf.rho_boundary
        table = rho_table(g)
        orders = bf.cyclic_classes(d)
        for k in picks:
            eps = orders[k % len(orders)]
            assert table[CyclicPermutation(eps)] == oracle(d, n, edges, eps)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2 ** 20))
    def test_degree_closed_form(self, d, p, seed):
        # every color pair is consecutive in (d-1)! of the d!/2 orders
        g = random_gem(d, p, seed=seed)
        pair_sum = sum(residues(g, pair).count
                       for pair in combinations(range(d + 1), 2))
        omega = (Fraction(factorial(d), 2) * (1 + Fraction((d - 1) * p, 2))
                 - Fraction(factorial(d - 1), 2) * pair_sum)
        assert gurau_degree(g) == omega

    @settings(max_examples=30, deadline=None)
    @given(GEMS_D2_TO_6)
    def test_report_aggregates(self, g):
        rep = invariant_report(g)
        assert rep.rho_by_perm == rho_table(g)
        assert rep.rho_min == min(rep.rho_by_perm.values())
        if g.is_regular:
            assert rep.omega_g == sum(rep.rho_by_perm.values(), Fraction(0))
            assert rep.omega_g == gurau_degree(g)

    @settings(max_examples=30, deadline=None)
    @given(st.builds(_gem, st.integers(2, 7), st.integers(1, 3),
                     st.integers(0, 2), st.integers(0, 2 ** 20), st.booleans()))
    def test_report_json_equals_per_order_formulas(self, g):
        rep = invariant_report(g)
        assert rep.to_jsonable()["rho"] == {
            ",".join(map(str, eps)): str(value)
            for eps, value in _oracle_table(g).items()}
        assert rep.rho_by_perm == rho_table(g)

    @settings(max_examples=40, deadline=None)
    @given(st.builds(_gem, st.integers(2, 8), st.integers(1, 3),
                     st.integers(0, 2), st.integers(0, 2 ** 20), st.booleans()))
    def test_rho_text_is_the_canonical_encoding(self, g):
        rep = invariant_report(g)
        assert rep._json_fields()["rho"] == json.dumps(
            rep.to_jsonable()["rho"], sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_orders_sorted_and_canonical(self, d):
        orders = enumerate_cyclic_permutations(d)
        assert [eps.order for eps in orders] == bf.cyclic_classes(d)
        assert orders == sorted(orders)
        # the checked constructor accepts every one of them
        assert [CyclicPermutation(eps.order) for eps in orders] == orders
        assert [eps.label() for eps in orders] == [
            ",".join(map(str, eps)) for eps in bf.cyclic_classes(d)]

    def test_enumeration_is_a_fresh_list(self):
        first = enumerate_cyclic_permutations(4)
        first.clear()
        assert len(enumerate_cyclic_permutations(4)) == 12

    @pytest.mark.parametrize("n", [508, 510])
    @pytest.mark.parametrize("boundary", [False, True])
    def test_counts_either_side_of_the_lane_guard(self, n, boundary):
        # g_01 = n/2 is 254 at 508 vertices, summed in packed lanes, and
        # 255 at 510, too large for a byte, summed order by order
        g = _matched_01_gem(n, boundary)
        assert residues(g, (0, 1)).count == n // 2
        assert not g.is_regular if boundary else g.is_regular
        assert g.is_bipartite
        assert [(eps.order, value) for eps, value in rho_table(g).items()] \
            == list(_oracle_table(g).items())

    def test_bipartite_check_names_the_first_order(self, monkeypatch, s4):
        # one extra {0, 1} component makes every order with 0 and 1
        # adjacent half-integral on a bipartite gem; the check stops at
        # the first of them, both where the sums are packed (the
        # order-two gem) and where they are taken order by order (510
        # vertices, 256 {0, 1} components)
        import gemkit.invariants as inv

        real = inv._residues_by_mask

        class Shifted:
            def __init__(self, dec):
                self.count = dec.count + 1

        def shifted(graph, mask):
            dec = real(graph, mask)
            return Shifted(dec) if mask == 0b11 else dec

        first = CyclicPermutation((0, 1, 2, 3, 4))
        gems = [s4, _matched_01_gem(510, False)]
        genera = [rho_table(g)[first] for g in gems]
        monkeypatch.setattr(inv, "_residues_by_mask", shifted)
        for g, genus in zip(gems, genera):
            # a fresh copy: the gem's own memo keeps its unpatched table
            fresh = validate(g.dimension, g.num_vertices, list(g.edges()))
            with pytest.raises(NonIntegralGenusError) as exc:
                rho_table(fresh)
            assert str(exc.value) == (
                f"bipartite graph produced genus {genus - Fraction(1, 2)} "
                f"at {first.order}")

    def test_sweeps_above_the_cap_are_not_kept(self, monkeypatch):
        import gc
        import tracemalloc

        import gemkit.invariants as inv

        monkeypatch.setattr(inv, "_SWEEP_CACHE_MAX_D", 4)
        monkeypatch.setattr(inv, "_sweeps", {})
        invariant_report(random_boundary_gem(5, 3, 1, seed=3)).to_jsonable()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # the graph, and with it its memo, is gone before measuring
            invariant_report(random_boundary_gem(5, 3, 1, seed=4)).to_jsonable()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 5 not in inv._sweeps
        assert grown < 4_000  # a kept d=5 sweep and its pieces take 7 KB
        rho_table(order_two_gem(4))
        assert list(inv._sweeps) == [4]

    def test_concurrent_first_use_of_a_dimension(self, monkeypatch):
        # threads race to build and keep the d=5 sweep and its orders;
        # every write stores what any other thread would compute
        import sys
        import threading

        import gemkit.invariants as inv

        expected = invariant_report(
            random_boundary_gem(5, 4, 1, seed=2)).to_jsonable()
        monkeypatch.setattr(inv, "_sweeps", {})
        results = []

        def work():
            g = random_boundary_gem(5, 4, 1, seed=2)
            results.append(invariant_report(g).to_jsonable())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert results == [expected] * len(workers)


def _reference_sweep(d):
    """The sweep built one order object at a time, as the flat bytes'
    reference: its pairs, flat bytes, orders and lane columns."""
    pairs = tuple(combinations(range(d + 1), 2))
    index = {}
    for k, (a, b) in enumerate(pairs):
        index[a, b] = index[b, a] = k
    orders, reads = [], bytearray()
    for perm in permutations(range(d)):
        if perm[0] < perm[-1]:
            order = perm + (d,)
            orders.append(CyclicPermutation(order))
            reads.extend(index[pair] for pair in zip(order, order[1:] + order[:1]))
            reads.append(len(pairs) + index[perm[0], perm[-1]])
    columns = []
    for k in range(d + 2):
        lanes = bytearray([255]) * (2 * len(orders))
        lanes[::2] = reads[k::d + 2]
        columns.append(bytes(lanes))
    flat = bytes(c for eps in orders for c in eps.order[:d])
    return pairs, flat, tuple(orders), tuple(columns)


class TestSweepBytes:
    """The sweep is built from flat bytes by translation and big-integer
    adds; the object-per-order builder is its reference."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_equals_the_object_per_order_builder(self, d):
        import gemkit.invariants as inv

        pairs, flat, orders, columns = _reference_sweep(d)
        sweep = inv._build_sweep(d)
        assert sweep.pairs == pairs
        assert sweep.flat == flat
        assert sweep.columns == columns
        assert sweep.count == len(orders) == factorial(d) // 2
        assert [sweep.order(k) for k in range(sweep.count)] == list(orders)
        assert sweep.orders == orders

    def test_orders_are_built_on_first_read_and_kept(self):
        import gemkit.invariants as inv

        sweep = inv._sweep(5)
        assert sweep is inv._sweep(5)
        assert sweep.orders is sweep.orders
        assert sweep.pieces is sweep.pieces


def _per_order_doubled(sweep, row, base):
    """Base less the row entries each order reads, one order at a time:
    its d+1 consecutive pairs and the boundary count of its two colors
    next to d."""
    d, n_pairs = sweep.dimension, len(sweep.pairs)
    index = {}
    for k, (a, b) in enumerate(sweep.pairs):
        index[a, b] = index[b, a] = k
    out = []
    for eps in enumerate_cyclic_permutations(d):
        o = eps.order
        reads = [index[pair] for pair in zip(o, o[1:] + o[:1])]
        reads.append(n_pairs + index[o[0], o[d - 1]])
        out.append(base - sum(row[k] for k in reads))
    return out


class TestDoubledRow:
    """``_doubled_row`` reads the packed lanes as signed 16-bit values when
    every count has a byte and 0 < base < 0x8000, and sums order by order
    otherwise; both answer as the sum each order reads, taken on its own."""

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 7), top=st.sampled_from([0, 1, 254, 255, 600]),
           base=st.sampled_from([1, 2, 0x7FFE, 0x7FFF, 0x8000, 0x8001, 0, -1,
                                 -0x8000, -0x8001]) | st.integers(-2 ** 20, 2 ** 20),
           bipartite=st.booleans(), data=st.data())
    def test_equals_the_per_order_sum(self, d, top, base, bipartite, data):
        import gemkit.invariants as inv

        sweep = inv._sweep(d)
        row = data.draw(st.lists(st.integers(0, top), min_size=2 * len(sweep.pairs),
                                 max_size=2 * len(sweep.pairs)))
        expected = _per_order_doubled(sweep, row, base)
        odd = [k for k, value in enumerate(expected) if value % 2]
        if bipartite and odd:
            with pytest.raises(NonIntegralGenusError) as exc:
                inv._doubled_row(sweep, row, base, bipartite)
            assert str(exc.value) == (
                f"bipartite graph produced genus {Fraction(expected[odd[0]], 2)} "
                f"at {sweep.order(odd[0]).order}")
        else:
            assert inv._doubled_row(sweep, row, base, bipartite) == expected

    @pytest.mark.parametrize("d", [2, 5, 7])
    @pytest.mark.parametrize("base", [1, 0x7FFF, 0x8000])
    @pytest.mark.parametrize("fill", [0, 254])
    def test_bounds_of_the_lanes(self, d, base, fill):
        # all-zero rows put 0x8000 + base in every lane, the most a lane
        # can hold; all-254 rows give the largest lane sums
        import gemkit.invariants as inv

        sweep = inv._sweep(d)
        row = [fill] * (2 * len(sweep.pairs))
        assert inv._doubled_row(sweep, row, base, False) == _per_order_doubled(
            sweep, row, base)


class TestOrderLimit:
    def test_above_the_limit_raises_before_building(self, monkeypatch):
        import gemkit.invariants as inv

        def no_build(d):
            raise AssertionError("built a sweep above the limit")

        monkeypatch.setattr(inv, "_build_sweep", no_build)
        with pytest.raises(TooManyOrdersError) as exc:
            invariant_report(order_two_gem(10))
        assert str(exc.value) == (
            "dimension 10 has 1814400 cyclic orders, above the limit of "
            "181440")

    @pytest.mark.parametrize("limit,ok", [(59, False), (60, True)])
    def test_limit_is_checked_on_every_call(self, monkeypatch, limit, ok):
        import gemkit.invariants as inv

        kept = inv._sweep(5)
        monkeypatch.setattr(inv, "_MAX_ORDERS", limit)
        if ok:
            assert inv._sweep(5) is kept
            assert len(enumerate_cyclic_permutations(5)) == 60
        else:  # a kept sweep is refused too
            with pytest.raises(TooManyOrdersError):
                enumerate_cyclic_permutations(5)
