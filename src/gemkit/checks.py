"""Mechanical verification of the transfer identities and lower bounds.

Checkers never raise on a mathematical failure; they return report
objects whose ``ok`` flags drive the CLI exit codes.  Precondition
violations (wrong dimension, wrong residue shape) do raise.

The capping identities are stated for the capped graph before the final
color transposition; regularize returns the transposed graph, so the
checkers read the counts of the untransposed capped graph, from the
input's counts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import sub
from typing import Iterator, NamedTuple, Optional

from .boundary import boundary_graph
from .core import (ColoredGraph, _joined_count, _residues_by_mask,
                   classify_vertices, count_g, residues)
from .errors import (
    DimensionError,
    InvalidColorError,
    NoBoundaryError,
    NotRegularError,
    PreconditionError,
    ResidueShapeError,
)
from .invariants import (
    CyclicPermutation,
    GenusTable,
    _doubled_row,
    _sweep,
    enumerate_cyclic_permutations,
    euler_characteristic,
    genus_table,
    gurau_degree,
)
from .moves import full_contraction


# ---------------------------------------------------------------------------
# report encoding


def _key(key) -> str:
    if isinstance(key, tuple):
        return "".join(map(str, key))
    return str(_jsonable(key))


def _jsonable(value):
    """The JSON form of a report value: a Fraction as text, an order by
    its label, a sequence as a list, a dict in sorted key order with text
    keys (a color tuple as its digits) and a report as its own form."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, CyclicPermutation):
        return value.label()
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {_key(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, _Report):
        return value.to_jsonable()
    return value


class _Report:
    """A check report: its JSON form holds every field, then ``ok`` when
    the report defines it."""

    def to_jsonable(self) -> dict:
        out = {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}
        if hasattr(type(self), "ok"):
            out["ok"] = self.ok
        return out


# ---------------------------------------------------------------------------
# capping identities


@dataclass(frozen=True)
class TransferCase(_Report):
    eps: CyclicPermutation
    adjacent: bool                 # chosen color cyclically adjacent to d
    rho_input: Fraction
    rho_capped: Fraction
    paper_rhs: Optional[Fraction]  # None when the paper form does not apply
    paper_applicable: bool
    paper_ok: Optional[bool]
    universal_rhs: Fraction
    universal_ok: bool

    def to_jsonable(self) -> dict:
        out = super().to_jsonable()
        out["case"] = "adjacent" if out.pop("adjacent") else "nonadjacent"
        return out


class _CappingRows(NamedTuple):
    """The capping checks of one boundary gem for one singular color c, in
    integers and without a capped graph.  ``added`` are the capping edges;
    ``lemma_mixed[i]`` is the capped count on {i, d} and its prediction,
    and ``lemma_singular`` the capped and input counts on {c, d} and their
    prediction.  ``doubled_capped`` is twice the capped gem's genus at each
    order, and ``shifts`` holds per pair of colors next to d whether c is
    one of them and what the universal and (None where inapplicable) paper
    forms add to twice the input's genus."""

    added: tuple[tuple[int, int], ...]
    lemma_mixed: dict[int, tuple[int, int]]
    lemma_singular: tuple[int, int, int]
    lemma_ok: bool
    doubled_capped: list[int]
    shifts: dict[tuple[int, int], tuple[bool, int, Optional[int]]]
    transfer_ok: bool

    @property
    def ok(self) -> bool:
        """The component counts and the genus transfer hold; the chi law
        is not part of it."""
        return self.lemma_ok and self.transfer_ok


@dataclass(frozen=True)
class RegularizationIdentityReport(_Report):
    singular_color: int
    h: int
    p_bar: int
    lemma_mixed: dict[int, tuple[int, int]]   # i -> (capped g_id, predicted)
    lemma_singular: tuple[int, int, int]      # (capped g_cd, input g_cd, predicted)
    lemma_ok: bool
    transfer: tuple[TransferCase, ...]
    transfer_ok: bool
    chi_delta: int
    chi_law_ok: bool

    ok = _CappingRows.ok


def _spherical_triple(bgraph: ColoredGraph, triple: frozenset[int]) -> bool:
    """True when every component of the boundary residue on the triple is
    a 2-sphere gem (surface Euler characteristic 2): its bicolored cycles
    outnumber half its vertices by two."""
    dec = residues(bgraph, triple)
    labels = dec.labels
    twice = [0] * dec.count  # twice the excess, per component
    for k in labels:
        twice[k] -= 1
    for pair in combinations(sorted(triple), 2):
        for v in residues(bgraph, pair).least:
            twice[labels[v]] += 2
    return all(t == 4 for t in twice)


def _capping_rows(graph: ColoredGraph) -> tuple[_CappingRows, ...]:
    """A boundary gem's capping rows, one per singular color 0..d-1, built
    once per graph and kept in its memo under a key no color mask takes."""
    capping = graph._memo.get("capping")
    if capping is None:
        capping = graph._memo["capping"] = tuple(_build_capping_rows(graph))
    return capping


def _build_capping_rows(graph: ColoredGraph) -> Iterator[_CappingRows]:
    """The capping checks of a boundary gem, one singular color after the
    other, from inputs read once.

    The capped gem keeps the input's residues without color d, and one
    with d is the input's joined along the capping edges, so every count
    is the input's count, less its unions.  The capped gem's genus table
    is summed from its pair-count row; capping joins the ends of
    odd-length paths, so it is bipartite exactly when the input is.
    Counts are keyed by color bitmask: ``counts`` holds the boundary
    graph's on one and two colors below d, ``triples`` its count on three
    when every component there is a 2-sphere gem and None otherwise.  The
    capping edges along c are the boundary graph's color-c edges, read on
    the input's vertices, so no color is paired again."""
    d = graph.dimension
    # the genus table first: its order limit refuses before any other work
    sweep, doubled = genus_table(graph)
    bg = boundary_graph(graph)
    bgraph, parent = bg.graph, bg.parent_vertex_map
    p_bar = classify_vertices(graph).p_bar
    # each color of the boundary graph matches its 2 p_bar vertices
    counts = {1 << a | 1 << b: p_bar if a == b else
              _residues_by_mask(bgraph, 1 << a | 1 << b).count
              for a in range(d) for b in range(a, d)}
    triples = {}
    for tri in combinations(range(d), 3):
        mask = 1 << tri[0] | 1 << tri[1] | 1 << tri[2]
        triples[mask] = (_residues_by_mask(bgraph, mask).count
                         if _spherical_triple(bgraph, frozenset(tri)) else None)
    mixed = [count_g(graph, (i, d)) for i in range(d)]  # (g, g_dot) on {i, d}
    # capping keeps every residue without color d, and a regular capped gem
    # reads no boundary counts: the pairs {i, d} are filled in per color
    capped_row = [0 if b == d else _residues_by_mask(graph, 1 << a | 1 << b).count
                  for a, b in sweep.pairs] + [0] * len(sweep.pairs)
    slots = [k for k, (_, b) in enumerate(sweep.pairs) if b == d]
    ends = list(zip(sweep.flat[::d], sweep.flat[d - 1::d]))  # colors next to d
    pairs = set(ends)
    base = 2 + (d - 1) * (graph.num_vertices // 2)
    for c in range(d):
        added = tuple((parent[i], parent[k])
                      for i, k in enumerate(bgraph.color_maps[c]) if i < k)
        capped = [_joined_count(_residues_by_mask(graph, 1 << i | 1 << d), added)
                  for i in range(d)]

        lemma_mixed = {i: (capped[i], mixed[i][1] + counts[1 << i | 1 << c])
                       for i in range(d) if i != c}
        g_cd, gdot_cd = mixed[c]
        lemma_singular = (capped[c], g_cd, gdot_cd + p_bar)
        lemma_ok = (all(lhs == rhs for lhs, rhs in lemma_mixed.values())
                    and capped[c] == g_cd == gdot_cd + p_bar)

        row = list(capped_row)
        for k, count in zip(slots, capped):
            row[k] = count
        doubled_capped = _doubled_row(sweep, row, base, graph.is_bipartite)
        # by the two colors next to d, as ``_CappingRows.shifts`` holds them
        shifts = {}
        for e0, e_last in pairs:
            dg_ends = counts[1 << e0 | 1 << e_last]
            universal = (p_bar + dg_ends - counts[1 << e0 | 1 << c]
                         - counts[1 << e_last | 1 << c])
            if c == e0 or c == e_last:
                shifts[e0, e_last] = True, universal, 0
            else:
                dg_triple = triples[1 << e0 | 1 << e_last | 1 << c]
                shifts[e0, e_last] = False, universal, (
                    None if dg_triple is None else 2 * (dg_ends - dg_triple))
        # what capping adds to twice the genus, once per distinct ends
        transfer_ok = all(
            delta == shifts[pair][1] and shifts[pair][2] in (None, delta)
            for pair, delta in set(zip(ends, map(sub, doubled_capped, doubled))))
        yield _CappingRows(added, lemma_mixed, lemma_singular, lemma_ok,
                           doubled_capped, shifts, transfer_ok)


def _chi_delta(graph: ColoredGraph, added) -> int:
    """The Euler characteristic of the capped gem less the input's, from
    the counts: ``f_vector`` counts a residue on a color set with sign
    (-1)^(d - size), and capping lowers only the counts of color sets with
    d, each by the unions the capping edges make."""
    d = graph.dimension
    delta = 0
    for mask in range(1 << d, (1 << d + 1) - 1):  # with d, all colors but one
        dec = _residues_by_mask(graph, mask)
        delta += (-1) ** (d - mask.bit_count()) * (_joined_count(dec, added)
                                                   - dec.count)
    return delta


def check_regularization_identities(graph: ColoredGraph, singular_color: int
                                    ) -> RegularizationIdentityReport:
    """Verify the capping component-count identities and the genus
    transfer on one boundary gem for one choice of singular color.

    The component identities and the adjacent transfer case are purely
    combinatorial and asserted unconditionally.  The nonadjacent paper
    form additionally needs every involved tricolored boundary residue to
    be a union of sphere gems; when that fails the case is recorded as
    inapplicable and only the universal half-integer transfer is checked.

    The rows of every color are built on the first call and kept in the
    graph's memo beside its genus table, whose sweep gives the report's
    orders; the capped gem's counts are read from the input's (no capped
    graph is built), and genus values are compared as twice-genus
    integers.
    """
    d = graph.dimension
    c = singular_color
    if graph.is_regular:  # before the genus table the rows read first
        raise NoBoundaryError("graph is regular: empty boundary")
    if not 0 <= c < d:
        raise InvalidColorError(f"singular color must lie in 0..{d - 1}")
    row = _capping_rows(graph)[c]
    sweep, doubled = genus_table(graph)
    # each order's shifts, by the two colors next to d
    shifts = list(map(row.shifts.__getitem__,
                      zip(sweep.flat[::d], sweep.flat[d - 1::d])))
    universal = [value + shift[1] for value, shift in zip(doubled, shifts)]
    paper = [None if shift[2] is None else value + shift[2]
             for value, shift in zip(doubled, shifts)]
    halves = {value: None if value is None else Fraction(value, 2)
              for value in {*doubled, *row.doubled_capped, *universal, *paper}}
    cases = tuple(
        TransferCase(
            eps=eps, adjacent=shift[0], rho_input=halves[doubled_in],
            rho_capped=halves[doubled_cap], paper_rhs=halves[paper_in],
            paper_applicable=paper_in is not None,
            paper_ok=None if paper_in is None else doubled_cap == paper_in,
            universal_rhs=halves[universal_in],
            universal_ok=doubled_cap == universal_in)
        for eps, shift, doubled_in, doubled_cap, universal_in, paper_in in zip(
            sweep.orders, shifts, doubled, row.doubled_capped, universal, paper))

    chi_delta = _chi_delta(graph, row.added)
    h = boundary_graph(graph).num_components
    return RegularizationIdentityReport(
        singular_color=c,
        h=h,
        p_bar=classify_vertices(graph).p_bar,
        lemma_mixed=row.lemma_mixed,
        lemma_singular=row.lemma_singular,
        lemma_ok=row.lemma_ok,
        transfer=cases,
        transfer_ok=row.transfer_ok,
        chi_delta=chi_delta,
        chi_law_ok=chi_delta == h,
    )


# ---------------------------------------------------------------------------
# dimension four: shared preconditions and triple rules, G-degree pairing


def _require_regular_4(graph: ColoredGraph, what: str) -> None:
    if graph.dimension != 4:
        raise DimensionError(f"{what} is specific to dimension 4")
    if not graph.is_regular:
        raise NotRegularError(f"{what} needs a regular gem")


def _require_connected_below_4(graph: ColoredGraph, error: type) -> None:
    """Raise ``error`` unless the graph minus any color below 4 is
    connected."""
    for c in range(4):
        if count_g(graph, (k for k in range(5) if k != c))[0] != 1:
            raise error(f"graph minus color {c} is not connected")


_TRIPLES = tuple(combinations(range(5), 3))


def _triple_counts(graph: ColoredGraph) -> dict[tuple[int, ...], int]:
    return {tri: count_g(graph, tri)[0] for tri in _TRIPLES}


def _least_counts(m: int, m_hat: int, k: int) -> dict[tuple[int, ...], int]:
    """The least residue count of each color triple on a gem of a manifold
    with group ranks m and m_hat and k components without color 4: m + 1
    for a triple with color 4, m_hat + k for a triple inside 0..3."""
    return {tri: m + 1 if 4 in tri else m_hat + k for tri in _TRIPLES}


def _skip_one_triples(eps: CyclicPermutation) -> list[tuple[int, ...]]:
    """The five sorted color triples {e_i, e_i+2, e_i+4} of a cyclic
    order of 0..4, for i = 0..4."""
    o = eps.order
    return [tuple(sorted((o[i], o[(i + 2) % 5], o[(i + 4) % 5])))
            for i in range(5)]


@cache
def _skip_one_table() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The skip-one triples of each d = 4 order, in sweep order."""
    return tuple(tuple(_skip_one_triples(eps)) for eps in _sweep(4).orders)


@dataclass(frozen=True)
class OmegaPairingReport(_Report):
    omega: Fraction
    pair_sums: dict[CyclicPermutation, Fraction]
    sum_constant: bool
    factor_ok: bool

    @property
    def ok(self) -> bool:
        return self.sum_constant and self.factor_ok


def partner_permutation(eps: CyclicPermutation) -> CyclicPermutation:
    """The complementary cyclic order pairing the remaining color pairs:
    (e1, e3, e0, e2, 4) for (e0, e1, e2, e3, 4)."""
    if eps.dimension != 4:
        raise DimensionError("partner orders are specific to dimension 4")
    o = eps.order
    return CyclicPermutation.canonical((o[1], o[3], o[0], o[2], o[4]))


@cache
def _partner_indices() -> tuple[int, ...]:
    """The sweep index of each d = 4 order's partner, in sweep order."""
    orders = _sweep(4).orders
    index = {eps.order: k for k, eps in enumerate(orders)}
    return tuple(index[partner_permutation(eps).order] for eps in orders)


def check_omega_pairing(graph: ColoredGraph) -> OmegaPairingReport:
    """For 5-colored regular graphs: each order and its partner cover all
    ten color pairs, so their genus sum is order-independent and six
    times it is the G-degree.  The sums are taken of twice-genus
    integers."""
    _require_regular_4(graph, "the G-degree pairing")
    sweep, doubled = genus_table(graph)
    omega = sum(doubled)
    sums = [doubled[k] + doubled[j] for k, j in enumerate(_partner_indices())]
    values = set(sums)
    return OmegaPairingReport(
        omega=Fraction(omega, 2),
        pair_sums=GenusTable(sweep, sums).by_order(),
        sum_constant=len(values) == 1,
        factor_ok=all(omega == 6 * s for s in values),
    )


def _omega_pairing_ok(doubled: list[int]) -> bool:
    """``check_omega_pairing(graph).ok`` on a regular d = 4 gem, read off
    its twice-genus row."""
    sums = {doubled[k] + doubled[j] for k, j in enumerate(_partner_indices())}
    return len(sums) == 1 and sum(doubled) == 6 * sums.pop()


# ---------------------------------------------------------------------------
# lower bounds


def _require_ranks(m: int, m_hat: int) -> None:
    if m < 0 or m_hat < 0:
        raise PreconditionError("group ranks must be non-negative")


def lower_bound_thm(chi_m: int, m: int, h: int, m_hat: int) -> tuple[int, int]:
    """Lower bounds for the weighted genus and weighted G-degree of a
    compact 4-manifold from its Euler characteristic, fundamental-group
    ranks, and boundary component count."""
    if h < 1:
        raise PreconditionError(
            f"bound is stated for at least one boundary component, got h={h}")
    _require_ranks(m, m_hat)
    genus_bound = 2 * chi_m + 3 * m + 2 * h - 4 + 2 * m_hat
    return genus_bound, 12 * genus_bound


@dataclass(frozen=True)
class BoundReport(_Report):
    genus_bound: int
    gdegree_bound: int
    omega: Fraction
    slack: dict[CyclicPermutation, Fraction]
    genus_ok: bool
    gdegree_ok: bool
    genus_equality: bool
    gdegree_equality: bool
    t_table: dict[tuple[int, ...], int]
    slack_consistent: bool

    @property
    def ok(self) -> bool:
        return self.genus_ok and self.gdegree_ok


def check_bound_on_gem(graph: ColoredGraph, chi_m: int, m: int, h: int,
                       m_hat: int) -> BoundReport:
    """Check the genus and G-degree lower bounds on one regular gem whose
    represented manifold the caller describes by (chi, m, h, m_hat).

    Slack per cyclic order is the margin over the genus bound; on a gem
    consistent with the description it decomposes into the contracted
    graph's excess triple-residue counts, which is reported as a
    consistency flag rather than asserted.
    """
    _require_regular_4(graph, "the bound checker")
    genus_bound, gdegree_bound = lower_bound_thm(chi_m, m, h, m_hat)
    sweep, doubled = genus_table(graph)
    twice_omega = sum(doubled)
    twice_slack = [value - 2 * genus_bound for value in doubled]

    contracted = full_contraction(graph, verify=False)
    least = _least_counts(m, m_hat, count_g(contracted, range(4))[0])
    t_table = {tri: count - least[tri]
               for tri, count in _triple_counts(contracted).items()}
    consistent = all(
        s == 2 * sum(t_table[tri] for tri in triples)
        for triples, s in zip(_skip_one_table(), twice_slack))
    return BoundReport(
        genus_bound=genus_bound,
        gdegree_bound=gdegree_bound,
        omega=Fraction(twice_omega, 2),
        slack=GenusTable(sweep, twice_slack).by_order(),
        genus_ok=min(twice_slack) >= 0,
        gdegree_ok=twice_omega >= 2 * gdegree_bound,
        genus_equality=min(twice_slack) == 0,
        gdegree_equality=twice_omega == 2 * gdegree_bound,
        t_table=t_table,
        slack_consistent=consistent,
    )


# ---------------------------------------------------------------------------
# semi-simplicity


@dataclass(frozen=True)
class SemisimpleReport(_Report):
    semi_simple: bool
    weak_semi_simple: tuple[CyclicPermutation, ...]
    triple_counts: dict[tuple[int, ...], int]
    expected_inner: int        # for triples inside 0..3
    expected_with_final: int   # for triples containing color 4


def check_semisimple(graph: ColoredGraph, m: int, m_hat: int, h: int
                     ) -> SemisimpleReport:
    """Classify a regular 5-colored gem as semi-simple (all triple
    residues minimal) and list the cyclic orders witnessing weak
    semi-simplicity."""
    _require_regular_4(graph, "semi-simplicity")
    _require_ranks(m, m_hat)
    k = count_g(graph, range(4))[0]
    if k != h:
        raise ResidueShapeError(
            f"expected {h} components without color 4, got {k}")
    _require_connected_below_4(graph, ResidueShapeError)
    counts = _triple_counts(graph)
    least = _least_counts(m, m_hat, k)
    witnesses = tuple(
        eps for eps, triples in zip(enumerate_cyclic_permutations(4),
                                   _skip_one_table())
        if all(counts[tri] == least[tri] for tri in triples))
    # the least counts inside 0..3 and with color 4
    return SemisimpleReport(counts == least, witnesses, counts,
                            least[0, 1, 2], least[0, 1, 4])


# ---------------------------------------------------------------------------
# Dehn-Sommerville and gem complexity


@dataclass(frozen=True)
class DehnSommervilleReport(_Report):
    lhs: int
    rhs: int
    chi: int
    triple_sum: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def check_dehn_sommerville(graph: ColoredGraph) -> DehnSommervilleReport:
    """Vertex count against the dimension-four relation: twice the vertex
    pairs equal six times chi plus twice the triple-residue total minus
    thirty.  Holds on contracted gems of singular 4-manifolds."""
    _require_regular_4(graph, "the Dehn-Sommerville relation")
    _require_connected_below_4(graph, PreconditionError)
    chi = euler_characteristic(graph)
    triple_sum = sum(_triple_counts(graph).values())
    return DehnSommervilleReport(
        lhs=graph.num_vertices,
        rhs=6 * chi + 2 * triple_sum - 30,
        chi=chi,
        triple_sum=triple_sum,
    )


def _dehn_sommerville_ok(graph: ColoredGraph, fv: tuple[int, ...], chi: int,
                         triple_sum: int) -> Optional[bool]:
    """``check_dehn_sommerville(graph).ok`` on a regular d = 4 gem, from
    its f-vector, chi and triple-residue total, or None where the check
    raises for its precondition.  fv[0] sums the five residues on four
    colors, each at least one component, so at 5 each is connected."""
    if fv[0] != 5:
        try:
            _require_connected_below_4(graph, PreconditionError)
        except PreconditionError:
            return None
    return graph.num_vertices == 6 * chi + 2 * triple_sum - 30


@dataclass(frozen=True)
class ComplexityReport(_Report):
    relation_value: int
    omega: Fraction
    matches: bool
    claimed_minimal: bool
    note: str

    @property
    def ok(self) -> bool:
        return self.matches or not self.claimed_minimal


def gem_complexity_relation(graph: ColoredGraph, chi_m: int,
                            claimed_minimal: bool = False) -> ComplexityReport:
    """Compare six times (chi - 1 + p - 1) with the gem's G-degree; the
    two agree exactly on a minimum-order regular gem of a compact bounded
    manifold, which the artifact cannot certify on its own."""
    if not graph.is_regular:
        raise NotRegularError("gem-complexity relation needs a regular gem")
    p = graph.num_vertices // 2
    value = 6 * (chi_m - 1 + (p - 1))
    omega = gurau_degree(graph)
    matches = omega == value
    if matches:
        note = "relation attained"
    elif claimed_minimal:
        note = "claimed minimal but relation fails: claim inconsistent"
    else:
        note = ("relation not attained: gem is a non-minimal witness or the "
                "manifold data describes a closed manifold")
    return ComplexityReport(value, omega, matches, claimed_minimal, note)
