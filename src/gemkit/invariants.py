"""Numeric invariants: f-vectors, Euler characteristic, genus, G-degree.

Genus values are exact rationals with denominator at most 2; bipartite
graphs must come out integral and a half-integral value there raises,
since it would mean the input was not what it claimed to be.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, permutations
from operator import add
from typing import Iterable, NamedTuple, Optional

from .boundary import boundary_component_count, boundary_g
from .core import (NO_EDGE, ColoredGraph, _colors_of, _residues_by_mask,
                   classify_vertices, count_g, residues)
from .errors import GemError, NonIntegralGenusError, NotRegularError


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

    def label(self) -> str:
        # an order from a sweep carries the sweep's label on the instance
        return self.__dict__.get("_label") or ",".join(map(str, self.order))

    @classmethod
    def _unchecked(cls, order: tuple[int, ...]) -> "CyclicPermutation":
        """A representative already known to be canonical, without the
        checks of ``__post_init__``."""
        eps = object.__new__(cls)
        object.__setattr__(eps, "order", order)
        return eps

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


class _Sweep(NamedTuple):
    """The d!/2 canonical orders of one dimension, sorted, with their
    labels, and the positions they read in a pair-count row: a count per
    color pair of 0..d in ``pairs`` order, then a boundary count per
    pair.  An order reads its d+1 consecutive pairs and the boundary
    count of the two colors next to d.

    ``columns[k]`` holds every order's k-th position as a 16-bit lane,
    little-endian: the position in the low byte, the pad ``_PAD`` in the
    high one.  So one translation of a column turns positions into
    counts, and adding the columns as integers sums every order at once.
    """

    pairs: tuple[tuple[int, int], ...]
    orders: tuple[CyclicPermutation, ...]
    labels: tuple[str, ...]
    columns: tuple[bytes, ...]


# the pad of a lane's high byte; row positions stay below it up to d = 15
_PAD = 255

# Sweeps up to this dimension are kept for the life of the process
# (labels included, 0.86 MiB at d=7 and 7.0 MiB at d=8 by tracemalloc);
# a d=9 sweep would keep 65 MiB, so larger ones are rebuilt on each call.
_SWEEP_CACHE_MAX_D = 8
_sweeps: dict[int, _Sweep] = {}


def _sweep(d: int) -> _Sweep:
    sweep = _sweeps.get(d)
    if sweep is None:
        sweep = _build_sweep(d)
        if d <= _SWEEP_CACHE_MAX_D:
            _sweeps[d] = sweep
    return sweep


def _build_sweep(d: int) -> _Sweep:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    pairs = tuple(combinations(range(d + 1), 2))
    index = {}
    for k, (a, b) in enumerate(pairs):
        index[a, b] = index[b, a] = k
    n_pairs = len(pairs)
    orders, labels = [], []
    reads = bytearray()  # the d+2 positions of each order, one after another
    # permutations() yields lexicographic order, so the representatives
    # (first color below the one before d, then d) come out sorted
    for perm in permutations(range(d)):
        if perm[0] < perm[-1]:
            order = perm + (d,)
            eps = CyclicPermutation._unchecked(order)
            # set past the frozen __setattr__, for label() to read
            eps.__dict__["_label"] = text = ",".join(map(str, order))
            orders.append(eps)
            labels.append(text)
            reads.extend(map(index.__getitem__,
                             zip(order, order[1:] + order[:1])))
            reads.append(n_pairs + index[perm[0], perm[-1]])
    columns = []
    lanes = bytearray([_PAD]) * (2 * len(orders))
    for k in range(d + 2):
        lanes[::2] = reads[k::d + 2]
        columns.append(bytes(lanes))
    return _Sweep(pairs, tuple(orders), tuple(labels), tuple(columns))


def enumerate_cyclic_permutations(d: int) -> list[CyclicPermutation]:
    """All d!/2 canonical cyclic permutations of 0..d, sorted."""
    return list(_sweep(d).orders)


@cache
def _one_smaller(mask: int) -> tuple[int, ...]:
    """The bitmasks of one color fewer than a mask; one tuple per mask,
    shared."""
    return tuple(mask ^ 1 << c for c in _colors_of(mask))


def f_vector(graph: ColoredGraph) -> tuple[int, ...]:
    """Simplex counts of the associated cell complex: the number of
    h-simplices labeled by a color set B equals the component count of
    the residue on the complementary colors.

    A residue on no color has a component per vertex, and one on a
    single color a component per edge and per vertex the color misses.
    Adding a color to a residue only merges its components, so a residue
    is connected when one on a color fewer is; only the other complements
    of two or more colors are decomposed."""
    d, n = graph.dimension, graph.num_vertices
    full = (1 << d + 1) - 1
    fv = [0] * (d + 1)
    fv[d] = n
    connected = set()  # the masks whose residue is one component
    for c, row in enumerate(graph.color_maps):
        count = (n + row.count(NO_EDGE)) // 2
        fv[d - 1] += count
        if count == 1:
            connected.add(1 << c)
    # the complement of every B of at most d - 1 colors, as a bitmask, in
    # ascending order: a mask is decomposed only when the mask without
    # its top color is disconnected, and so decomposed before it, so
    # every merge unites along one color
    for mask in range(3, full):
        if mask & mask - 1:
            if connected.isdisjoint(_one_smaller(mask)):
                count = _residues_by_mask(graph, mask).count
            else:
                count = 1
            if count == 1:
                connected.add(mask)
            fv[(full ^ mask).bit_count() - 1] += count
    return tuple(fv)


def euler_characteristic(graph: ColoredGraph) -> int:
    return sum((-1) ** h * n for h, n in enumerate(f_vector(graph)))


def _doubled_genera(graph: ColoredGraph) -> tuple[_Sweep, list[int]]:
    """The sweep of the graph's dimension and twice the genus for each of
    its orders, read from the graph's pair table.

    At an order, 2 - 2·rho sums the counts of its d+1 consecutive pairs
    and (1 - d)·p; with boundary, regular components only, (1 - d)·p_dot
    + (2 - d)·p_bar and the boundary graph's count on the two colors next
    to d.  So all pair counts are read once and each order sums its own.
    """
    d = graph.dimension
    sweep = _sweep(d)
    pairs = sweep.pairs
    if graph.is_regular:
        counts = [residues(graph, pair).count for pair in pairs]
        ends = [0] * len(pairs)
        base = 2 + (d - 1) * (graph.num_vertices // 2)
    else:
        cls = classify_vertices(graph)
        counts = [residues(graph, pair).regular_count for pair in pairs]
        ends = [boundary_g(graph, pair) if pair[1] < d else 0
                for pair in pairs]
        base = 2 + (d - 1) * cls.p_dot + (d - 2) * cls.p_bar
    row = counts + ends
    n = len(sweep.orders)
    # on a bipartite graph the orders are walked for an odd value
    walk = graph.is_bipartite
    if max(row) < _PAD:
        # a lane's sum is at most (d+2)·254 < 2**16, so no lane carries
        # into the next one; the pad reads 0
        table = bytes(row).ljust(256, b"\0")
        packed = sum(int.from_bytes(column.translate(table), "little")
                     for column in sweep.columns)
        sums = array("H", packed.to_bytes(2 * n, "little"))
        if sys.byteorder == "big":
            sums.byteswap()
        if walk:  # only when some lane's low bit differs from base's
            ones = int.from_bytes(b"\1\0" * n, "little")
            walk = packed & ones != (ones if base & 1 else 0)
    else:
        # a count of 255 or more has no byte: sum each order on its own
        sums = [0] * n
        for column in sweep.columns:
            sums = list(map(add, sums, map(row.__getitem__, column[::2])))
    doubled = [base - s for s in sums]
    if walk:
        for eps, value in zip(sweep.orders, doubled):
            if value % 2:
                raise NonIntegralGenusError(
                    f"bipartite graph produced genus {Fraction(value, 2)} "
                    f"at {eps.order}")
    return sweep, doubled


def _genus_table(sweep: _Sweep, doubled: list[int]
                 ) -> dict[CyclicPermutation, Fraction]:
    halves = {value: Fraction(value, 2) for value in set(doubled)}
    return dict(zip(sweep.orders, map(halves.__getitem__, doubled)))


def rho_table(graph: ColoredGraph) -> dict[CyclicPermutation, Fraction]:
    """Genus of the regular embedding for every cyclic order, keyed in
    canonical (sorted) order: ``rho_table(graph)[eps]`` is the genus at
    eps."""
    return _genus_table(*_doubled_genera(graph))


def regular_genus(graph: ColoredGraph) -> tuple[Fraction, list[CyclicPermutation]]:
    """Minimum genus over all cyclic orders, with the argmin list in
    canonical order."""
    sweep, doubled = _doubled_genera(graph)
    best = min(doubled)
    return Fraction(best, 2), [eps for eps, value in zip(sweep.orders, doubled)
                               if value == best]


def gurau_degree(graph: ColoredGraph) -> Fraction:
    """Sum of the genus values over all d!/2 cyclic orders."""
    if not graph.is_regular:
        raise NotRegularError("G-degree is defined for regular graphs")
    return Fraction(sum(_doubled_genera(graph)[1]), 2)


@dataclass(frozen=True)
class InvariantReport:
    """Bundle of per-gem invariants for reports and catalog records.

    ``bound_checks`` holds the parameter-free identity checks that apply
    to the gem (None where a check's hypotheses do not).  ``rho_by_perm``
    is built on first read from the twice-genus integers and their sweep.
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
    rho_min: Fraction
    omega_g: Optional[Fraction]
    bound_checks: dict[str, Optional[bool]]
    _sweep: _Sweep = field(repr=False, compare=False)
    _doubled: list[int] = field(repr=False)

    @cached_property
    def rho_by_perm(self) -> dict[CyclicPermutation, Fraction]:
        return _genus_table(self._sweep, self._doubled)

    def to_jsonable(self) -> dict:
        text = {value: str(Fraction(value, 2)) for value in set(self._doubled)}
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
            # in sweep order; the canonical JSON sorts the keys anyway
            "rho": dict(zip(self._sweep.labels,
                            map(text.__getitem__, self._doubled))),
            "rho_min": str(self.rho_min),
            "omega_g": None if self.omega_g is None else str(self.omega_g),
            "bound_checks": dict(sorted(self.bound_checks.items())),
        }


def _parameter_free_checks(graph: ColoredGraph) -> dict[str, Optional[bool]]:
    from . import checks  # checks imports invariants

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
    cls = classify_vertices(graph)
    pairs = {pair: count_g(graph, pair) for pair in combinations(graph.colors, 2)}
    triples = {tri: count_g(graph, tri) for tri in combinations(graph.colors, 3)}
    fv = f_vector(graph)
    sweep, doubled = _doubled_genera(graph)
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
        rho_min=Fraction(min(doubled), 2),
        omega_g=Fraction(sum(doubled), 2) if graph.is_regular else None,
        bound_checks=_parameter_free_checks(graph),
        _sweep=sweep,
        _doubled=doubled,
    )
