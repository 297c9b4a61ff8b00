"""Numeric invariants: f-vectors, Euler characteristic, genus, G-degree.

Genus values are exact rationals with denominator at most 2; bipartite
graphs must come out integral and a half-integral value there raises,
since it would mean the input was not what it claimed to be.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Optional

from .boundary import boundary_g, boundary_graph
from .core import ColoredGraph, classify_vertices, count_g, residues
from .errors import NoBoundaryError, NonIntegralGenusError, NotRegularError


@dataclass(frozen=True, order=True)
class CyclicPermutation:
    """Canonical cyclic order of the colors 0..d.

    The representative ends with d and starts below its next-to-last
    entry, which picks one member per rotation/reflection class; there
    are d!/2 classes.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        d = len(self.order) - 1
        if sorted(self.order) != list(range(d + 1)):
            raise ValueError(f"not a permutation of 0..{d}: {self.order}")
        if self.order[d] != d or self.order[0] > self.order[d - 1]:
            raise ValueError(f"not in canonical form: {self.order}")

    @property
    def dimension(self) -> int:
        return len(self.order) - 1

    def consecutive_pairs(self) -> list[tuple[int, int]]:
        """The d+1 cyclically consecutive color pairs."""
        o = self.order
        return [(o[i], o[(i + 1) % len(o)]) for i in range(len(o))]

    def label(self) -> str:
        return ",".join(str(c) for c in self.order)

    @staticmethod
    def canonical(seq: Iterable[int]) -> "CyclicPermutation":
        """Canonicalize any cyclic order of 0..d (rotation + reflection)."""
        seq = tuple(seq)
        d = len(seq) - 1
        k = seq.index(d)
        rot = seq[k + 1:] + seq[:k]  # the d non-final colors, in cyclic order
        if rot[0] > rot[-1]:
            rot = rot[::-1]
        return CyclicPermutation(rot + (d,))


def enumerate_cyclic_permutations(d: int) -> list[CyclicPermutation]:
    """All d!/2 canonical cyclic permutations of 0..d, sorted."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    out = [CyclicPermutation(perm + (d,))
           for perm in permutations(range(d)) if perm[0] < perm[-1]]
    return sorted(out)


def f_vector(graph: ColoredGraph) -> tuple[int, ...]:
    """Simplex counts of the associated cell complex: the number of
    h-simplices labeled by a color set B equals the component count of
    the residue on the complementary colors."""
    d = graph.dimension
    all_colors = set(graph.colors)
    fv = []
    for h in range(d + 1):
        total = 0
        for labels in combinations(sorted(all_colors), h + 1):
            total += residues(graph, all_colors - set(labels)).count
        fv.append(total)
    return tuple(fv)


def euler_characteristic(graph: ColoredGraph) -> int:
    return sum((-1) ** h * n for h, n in enumerate(f_vector(graph)))


def _as_genus(double_value: int, bipartite: bool, eps) -> Fraction:
    rho = Fraction(double_value, 2)
    if bipartite and rho.denominator != 1:
        raise NonIntegralGenusError(
            f"bipartite graph produced genus {rho} at {eps.order}")
    return rho


def rho_closed(graph: ColoredGraph, eps: CyclicPermutation) -> Fraction:
    """Genus of the regular embedding surface for one cyclic color order
    (regular graphs)."""
    if not graph.is_regular:
        raise NotRegularError("closed genus formula needs a regular graph")
    d = graph.dimension
    p = graph.num_vertices // 2
    total = sum(residues(graph, pair).count for pair in eps.consecutive_pairs())
    return _as_genus(2 - total - (1 - d) * p, graph.is_bipartite, eps)


def rho_boundary(graph: ColoredGraph, eps: CyclicPermutation) -> Fraction:
    """Boundary version of the genus formula: regular bicolored components
    only, vertex-class weights, plus the count of boundary cycles in the
    two colors cyclically adjacent to d."""
    if graph.is_regular:
        raise NoBoundaryError("boundary genus formula needs a boundary graph")
    d = graph.dimension
    cls = classify_vertices(graph)
    total = sum(residues(graph, pair).regular_count
                for pair in eps.consecutive_pairs())
    dg = boundary_g(graph, {eps.order[0], eps.order[d - 1]})
    val = total + (1 - d) * cls.p_dot + (2 - d) * cls.p_bar + dg
    return _as_genus(2 - val, graph.is_bipartite, eps)


def rho(graph: ColoredGraph, eps: CyclicPermutation) -> Fraction:
    return rho_closed(graph, eps) if graph.is_regular else rho_boundary(graph, eps)


def rho_table(graph: ColoredGraph) -> dict[CyclicPermutation, Fraction]:
    return {eps: rho(graph, eps)
            for eps in enumerate_cyclic_permutations(graph.dimension)}


def regular_genus(graph: ColoredGraph) -> tuple[Fraction, list[CyclicPermutation]]:
    """Minimum genus over all cyclic orders, with the argmin list in
    canonical order."""
    table = rho_table(graph)
    best = min(table.values())
    return best, [eps for eps in sorted(table) if table[eps] == best]


def gurau_degree(graph: ColoredGraph) -> Fraction:
    """Sum of the genus values over all d!/2 cyclic orders."""
    if not graph.is_regular:
        raise NotRegularError("G-degree is defined for regular graphs")
    return sum(rho_table(graph).values(), Fraction(0))


@dataclass(frozen=True)
class InvariantReport:
    """Bundle of per-gem invariants for reports and catalog records.

    ``bound_checks`` holds the parameter-free identity checks that apply
    to the gem (None where a check's hypotheses do not).
    """

    dimension: int
    num_vertices: int
    p: int
    p_bar: int
    p_dot: int
    is_regular: bool
    is_bipartite: bool
    boundary_components: int
    g_pairs: dict[tuple[int, ...], tuple[int, int]]
    g_triples: dict[tuple[int, ...], tuple[int, int]]
    f_vector: tuple[int, ...]
    chi: int
    rho_by_perm: dict[CyclicPermutation, Fraction]
    rho_min: Fraction
    omega_g: Optional[Fraction]
    bound_checks: dict[str, Optional[bool]]

    def to_jsonable(self) -> dict:
        return {
            "dimension": self.dimension,
            "vertices": self.num_vertices,
            "p": self.p,
            "p_bar": self.p_bar,
            "p_dot": self.p_dot,
            "regular": self.is_regular,
            "bipartite": self.is_bipartite,
            "boundary_components": self.boundary_components,
            "g_pairs": {"".join(map(str, k)): list(v)
                        for k, v in sorted(self.g_pairs.items())},
            "g_triples": {"".join(map(str, k)): list(v)
                          for k, v in sorted(self.g_triples.items())},
            "f_vector": list(self.f_vector),
            "chi": self.chi,
            "rho": {eps.label(): str(val)
                    for eps, val in sorted(self.rho_by_perm.items())},
            "rho_min": str(self.rho_min),
            "omega_g": None if self.omega_g is None else str(self.omega_g),
            "bound_checks": dict(sorted(self.bound_checks.items())),
        }


def _parameter_free_checks(graph: ColoredGraph) -> dict[str, Optional[bool]]:
    from . import checks
    from .errors import GemError

    out: dict[str, Optional[bool]] = {
        "omega_pairing": None,
        "capping_identities": None,
        "dehn_sommerville": None,
    }
    if graph.dimension != 4:
        return out
    if graph.is_regular:
        out["omega_pairing"] = checks.check_omega_pairing(graph).ok
        try:
            out["dehn_sommerville"] = checks.check_dehn_sommerville(graph).ok
        except GemError:
            pass
    else:
        out["capping_identities"] = all(
            checks.check_regularization_identities(graph, c).ok
            for c in range(4))
    return out


def invariant_report(graph: ColoredGraph) -> InvariantReport:
    from .boundary import boundary_component_count

    cls = classify_vertices(graph)
    pairs = {pair: count_g(graph, pair) for pair in combinations(graph.colors, 2)}
    triples = {tri: count_g(graph, tri) for tri in combinations(graph.colors, 3)}
    fv = f_vector(graph)
    table = rho_table(graph)
    return InvariantReport(
        dimension=graph.dimension,
        num_vertices=graph.num_vertices,
        p=cls.p,
        p_bar=cls.p_bar,
        p_dot=cls.p_dot,
        is_regular=graph.is_regular,
        is_bipartite=graph.is_bipartite,
        boundary_components=boundary_component_count(graph),
        g_pairs=pairs,
        g_triples=triples,
        f_vector=fv,
        chi=sum((-1) ** h * n for h, n in enumerate(fv)),
        rho_by_perm=table,
        rho_min=min(table.values()),
        omega_g=sum(table.values(), Fraction(0)) if graph.is_regular else None,
        bound_checks=_parameter_free_checks(graph),
    )
