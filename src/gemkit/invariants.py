"""Numeric invariants: f-vectors, Euler characteristic, genus, G-degree.

Genus values are exact rationals with denominator at most 2; bipartite
graphs must come out integral and a half-integral value there raises,
since it would mean the input was not what it claimed to be.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, combinations, permutations
from operator import add, itemgetter
from typing import Iterable, NamedTuple, Optional

from .boundary import boundary_component_count, boundary_graph
from .core import (NO_EDGE, ColoredGraph, _count, _one_smaller,
                   _residues_by_mask, classify_vertices)
from .errors import (NonIntegralGenusError, NotRegularError,
                     PreconditionError, TooManyOrdersError)


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
        return ",".join(map(str, self.order))

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


class _Sweep:
    """The d!/2 canonical orders of one dimension, sorted, and the
    positions they read in a pair-count row: a count per color pair of
    0..d in ``pairs`` order, then a boundary count per pair.  An order
    reads its d+1 consecutive pairs and the boundary count of the two
    colors next to d.

    ``flat`` holds the d non-final colors of every order, one order after
    another.  ``columns[k]`` holds every order's k-th position as a 16-bit
    lane, little-endian: the position in the low byte, the pad ``_PAD``
    in the high one.  So one translation of a column turns positions into
    counts, and adding the columns as integers sums every order at once.
    The orders as objects, the lane units and the JSON pieces of a genus
    table are built on first read and kept with the sweep.
    """

    def __init__(self, dimension: int, pairs: tuple[tuple[int, int], ...],
                 flat: bytes, columns: tuple[bytes, ...]):
        self.dimension = dimension
        self.pairs = pairs
        self.flat = flat
        self.columns = columns
        self.count = len(flat) // dimension

    def order(self, k: int) -> CyclicPermutation:
        """The k-th order, built from the flat bytes alone."""
        d = self.dimension
        return CyclicPermutation._unchecked(
            tuple(self.flat[k * d:k * d + d]) + (d,))

    @cached_property
    def orders(self) -> tuple[CyclicPermutation, ...]:
        d = self.dimension
        unchecked, last = CyclicPermutation._unchecked, (d,)
        return tuple(unchecked(colors + last)
                     for colors in zip(*[iter(self.flat)] * d))

    @cached_property
    def ones(self) -> int:
        """A 1 in every order's lane."""
        return int.from_bytes(b"\1\0" * self.count, "little")

    @cached_property
    def pieces(self) -> list[str]:
        """The text of a JSON object from every order's label, in sweep
        order, cut where its values go: ``{"0,1,2,3":``, ``,"0,2,1,3":``,
        ..., and a last piece ``}``.  Every non-final color is one digit
        up to d = 10 (``_MAX_ORDERS`` keeps d <= 9), so every label has
        the same width and sweep order is JSON's sorted-key order."""
        d, flat = self.dimension, self.flat
        entry = (',"' + "0," * d + f'{d}":\0').encode("ascii")  # cut at the NUL
        width = len(entry)
        text = bytearray(entry * self.count + b"}")
        digits = bytes(range(48, 58)).ljust(256, b"?")  # color -> its digit
        for k in range(d):
            text[2 + 2 * k::width] = flat[k::d].translate(digits)
        text[0] = ord("{")
        return text.decode("ascii").split("\0")


# the pad of a lane's high byte; row positions stay below it up to d = 15
_PAD = 255

# Sweeps up to this dimension are kept for the life of the process, with
# their orders and pieces once built: by tracemalloc 0.25 MiB at d=7 and
# 2.1 MiB at d=8 for info, 0.71 and 5.9 MiB with the orders.  A d=9 sweep
# would keep 20 MiB, 56 MiB with its orders, and rebuilds in about 0.2 s,
# so a larger one is rebuilt on each call; ``genus_table`` makes one call
# per graph and keeps the sweep with the table in the graph's memo.
_SWEEP_CACHE_MAX_D = 8
_sweeps: dict[int, _Sweep] = {}

# Sweeps longer than this raise TooManyOrdersError: 9!/2 keeps d = 9.  The
# genus-table pieces need one-digit non-final colors, d <= 10.
_MAX_ORDERS = 181_440


def _sweep(d: int) -> _Sweep:
    """The sweep of dimension d, after checking its length against
    ``_MAX_ORDERS``: a kept one, or one built now."""
    count, k = 1, 2  # d!/2 = 3·4···d, multiplied out until above the limit
    while k < d and count <= _MAX_ORDERS:
        k += 1
        count *= k
    if count > _MAX_ORDERS:
        raise TooManyOrdersError(
            f"dimension {d} has {'' if k == d else 'more than '}{count} "
            f"cyclic orders, above the limit of {_MAX_ORDERS}")
    sweep = _sweeps.get(d)
    if sweep is None:
        sweep = _build_sweep(d)
        if d <= _SWEEP_CACHE_MAX_D:
            _sweeps[d] = sweep
    return sweep


def _build_sweep(d: int) -> _Sweep:
    if not 2 <= d <= 15:  # a pair code a*16 + b is one byte up to d = 15
        raise ValueError(f"dimension must lie in 2..15, got {d}")
    # permutations() yields lexicographic order, so the representatives
    # (first color below the one before d, then d) come out sorted
    flat = b"".join(bytes(perm) for perm in permutations(range(d))
                    if perm[0] < perm[-1])
    pairs = _color_sets(d).pairs
    n_pairs = len(pairs)
    # a color pair a, b as the code a*16 + b, a byte up to d = 15, maps to
    # its row position, and the pair's boundary count n_pairs further on
    pair_at, end_at = bytearray(256), bytearray(256)
    for k, (a, b) in enumerate(pairs):
        pair_at[a * 16 + b] = pair_at[b * 16 + a] = k
        end_at[a * 16 + b] = end_at[b * 16 + a] = n_pairs + k
    sixteen = bytes(y * 16 & 255 for y in range(256))

    def codes(firsts: bytes, seconds: bytes) -> bytes:
        # no byte carries: a*16 + b < 256
        return (int.from_bytes(firsts.translate(sixteen), "little")
                + int.from_bytes(seconds, "little")
                ).to_bytes(len(firsts), "little")

    # the pair of each color and the next one: right at the first d-1
    # colors of an order, and unread at its last, where the next is d
    inner = codes(flat, flat[1:] + b"\0").translate(pair_at)
    firsts, lasts = flat[::d], flat[d - 1::d]
    finals = bytes([d]) * len(firsts)
    reads = [inner[k::d] for k in range(d - 1)]
    reads += [codes(lasts, finals).translate(pair_at),
              codes(finals, firsts).translate(pair_at),
              codes(firsts, lasts).translate(end_at)]
    columns = []
    lanes = bytearray([_PAD]) * (2 * len(firsts))
    for column in reads:
        lanes[::2] = column
        columns.append(bytes(lanes))
    return _Sweep(d, pairs, flat, tuple(columns))


def enumerate_cyclic_permutations(d: int) -> list[CyclicPermutation]:
    """All d!/2 canonical cyclic permutations of 0..d, sorted."""
    return list(_sweep(d).orders)


class _ColorSets:
    """The color sets of one dimension as bitmasks, for the readers that
    walk them all: the pairs and triples of 0..d, each as a color tuple
    in ``combinations`` order and as a mask, the JSON templates of their
    count tables, and the rows of ``f_vector``."""

    def __init__(self, d: int):
        self.dimension = d
        self.pairs = tuple(combinations(range(d + 1), 2))
        self.pair_masks = tuple(map(_mask_of, self.pairs))
        self.triples = tuple(combinations(range(d + 1), 3))
        self.triple_masks = tuple(map(_mask_of, self.triples))

    @cached_property
    def pair_json(self) -> tuple[str, tuple[tuple[int, ...], ...]]:
        return _count_template(self.pairs)

    @cached_property
    def triple_json(self) -> tuple[str, tuple[tuple[int, ...], ...]]:
        return _count_template(self.triples)

    @cached_property
    def rows(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(mask, f-vector index, masks one color smaller) for each
        complement of at most d - 1 colors, in ascending mask order."""
        full = (1 << self.dimension + 1) - 1
        return tuple((mask, (full ^ mask).bit_count() - 1, _one_smaller(mask))
                     for mask in range(3, full) if mask & mask - 1)


def _mask_of(colors: tuple[int, ...]) -> int:
    return sum(1 << c for c in colors)


def _count_template(sets: tuple[tuple[int, ...], ...]
                    ) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """The canonical JSON text of a count table on ``sets``, each set's
    label to its [g, g_dot], with a ``%d`` slot per count; and the sets in
    the template's order, JSON's sorted-key order of their labels."""
    ordered = tuple(sorted(sets, key=_set_label))
    return ("{" + ",".join(f'"{_set_label(colors)}":[%d,%d]'
                           for colors in ordered) + "}"), ordered


@cache
def _color_sets(d: int) -> _ColorSets:
    """The color sets of dimension d, built once per process."""
    return _ColorSets(d)


# f_vector walks all 2^(d+1) color sets: 1.2 s and 100 MB at d = 16
_MAX_F_VECTOR_D = 15


def f_vector(graph: ColoredGraph) -> tuple[int, ...]:
    """Simplex counts of the associated cell complex: the number of
    h-simplices labeled by a color set B equals the component count of
    the residue on the complementary colors.  Above ``_MAX_F_VECTOR_D``
    it raises PreconditionError before decomposing any residue.

    A residue on no color has a component per vertex, and one on a
    single color a component per edge and per vertex the color misses.
    Adding a color to a residue only merges its components, so a residue
    is connected when one on a color fewer is; only the other complements
    of two or more colors are decomposed."""
    return _f_vector(graph, None)


def _f_vector(graph: ColoredGraph,
              counts: Optional[dict[int, tuple[int, int]]]) -> tuple[int, ...]:
    """``f_vector``; given a dict, the pass also stores (g, g_dot) under
    the mask of each color pair and triple its rows hold, every one but
    the full mask at d = 2.  A decomposed mask gives its own counts.  A
    connected one gives ``_count``'s one-component rule: its component
    holds every vertex, and each color below d meets every vertex, so it
    is irregular exactly when the mask holds d and the graph has a
    boundary."""
    d, n = graph.dimension, graph.num_vertices
    if d > _MAX_F_VECTOR_D:  # 2^(d+1) as a power: its digits may pass str()'s limit
        raise PreconditionError(
            f"dimension {d} has 2^{d + 1} color sets, above the f-vector "
            f"limit of dimension {_MAX_F_VECTOR_D}")
    fv = [0] * (d + 1)
    fv[d] = n
    connected = set()  # the masks whose residue is one component
    for c, row in enumerate(graph.color_maps):
        count = (n + row.count(NO_EDGE)) // 2
        fv[d - 1] += count
        if count == 1:
            connected.add(1 << c)
    # pairs and triples have f-vector index d - 2 and d - 3; with no dict
    # no row reaches the bound
    low = d + 1 if counts is None else d - 3
    top = 0 if graph.is_regular else 1 << d
    # the rows ascend, so a mask is decomposed only when the mask without
    # its top color is disconnected, and so decomposed before it, and
    # every merge unites along one color
    for mask, h, smaller in _color_sets(d).rows:
        if connected.isdisjoint(smaller):
            dec = _residues_by_mask(graph, mask)
            count = dec.count
            if count == 1:
                connected.add(mask)
            fv[h] += count
            if h >= low:
                counts[mask] = count, dec.regular_count
        else:
            connected.add(mask)
            fv[h] += 1
            if h >= low:
                counts[mask] = (1, 0) if mask & top else (1, 1)
    return tuple(fv)


def euler_characteristic(graph: ColoredGraph) -> int:
    return sum((-1) ** h * n for h, n in enumerate(f_vector(graph)))


class JSONText(str):
    """A value given as its canonical JSON text (sorted keys, no spaces),
    for a writer to splice as it is."""


class GenusTable(NamedTuple):
    """Twice the genus at every order of a sweep, in sweep order; the
    forms of the table that reports and the command line print."""

    sweep: _Sweep
    doubled: list[int]

    def by_order(self) -> dict[CyclicPermutation, Fraction]:
        halves = {value: Fraction(value, 2) for value in set(self.doubled)}
        return dict(zip(self.sweep.orders, map(halves.__getitem__, self.doubled)))

    def minimum(self) -> tuple[Fraction, list[CyclicPermutation]]:
        """The least genus and the orders that attain it, in sweep order."""
        best = min(self.doubled)
        return Fraction(best, 2), [self.sweep.order(k)
                                   for k, value in enumerate(self.doubled)
                                   if value == best]

    def json(self) -> JSONText:
        """The canonical JSON text of order label -> genus text: the
        sweep's pieces joined with one quoted string per distinct value,
        looked up in one call, and no label, order or Fraction built."""
        doubled = self.doubled
        quoted = {v: f'"{v}/2"' if v & 1 else f'"{v // 2}"' for v in set(doubled)}
        parts = [None] * (2 * self.sweep.count + 1)
        parts[::2] = self.sweep.pieces
        # itemgetter of one key gives the value, not a tuple
        parts[1::2] = (itemgetter(*doubled)(quoted) if len(doubled) > 1
                       else [quoted[doubled[0]]])
        return JSONText("".join(parts))


def genus_table(graph: ColoredGraph) -> GenusTable:
    """The sweep of the graph's dimension and twice the genus at each of
    its orders, read from the graph's pair table: built once per graph and
    kept in its memo, whose readers share the list and never change it.

    At an order, 2 - 2·rho sums the counts of its d+1 consecutive pairs
    and (1 - d)·p; with boundary, regular components only, (1 - d)·p_dot
    + (2 - d)·p_bar and the boundary graph's count on the two colors next
    to d.  So all pair counts are read once and each order sums its own.
    """
    table = graph._memo.get("genus")
    if table is not None:
        return table
    d = graph.dimension
    sweep = _sweep(d)
    masks = _color_sets(d).pair_masks
    if graph.is_regular:
        counts = [_residues_by_mask(graph, mask).count for mask in masks]
        ends = [0] * len(masks)
        base = 2 + (d - 1) * (graph.num_vertices // 2)
    else:
        cls = classify_vertices(graph)
        counts = [_residues_by_mask(graph, mask).regular_count for mask in masks]
        # the boundary graph has colors 0..d-1: a pair with d reads 0
        bgraph, top = boundary_graph(graph).graph, 1 << d
        ends = [0 if mask & top else _residues_by_mask(bgraph, mask).count
                for mask in masks]
        base = 2 + (d - 1) * cls.p_dot + (d - 2) * cls.p_bar
    table = graph._memo["genus"] = GenusTable(
        sweep, _doubled_row(sweep, counts + ends, base, graph.is_bipartite))
    return table


def _doubled_row(sweep: _Sweep, row: list[int], base: int, bipartite: bool
                 ) -> list[int]:
    """Twice the genus at every order of the sweep, in sweep order: base
    less the sum of the pair-count row's entries the order reads.  On a
    bipartite graph an odd value raises NonIntegralGenusError."""
    n = sweep.count
    # on a bipartite graph the orders are walked for an odd value
    walk = bipartite
    if max(row) < _PAD and 0 < base < 0x8000:
        # a lane's sum is at most (d+2)·254 < 0x8000, so no lane carries
        # into the next one and the pad reads 0; base + 0x8000 less the sum
        # then lies in 0..0xFFFF, so no lane borrows either, and flipping
        # its top bit reads it as the signed 16-bit base less the sum
        table = bytes(row).ljust(256, b"\0")
        packed = sum(int.from_bytes(column.translate(table), "little")
                     for column in sweep.columns)
        ones = sweep.ones
        lanes = array("h", ((base + 0x8000) * ones - packed
                            ^ ones << 15).to_bytes(2 * n, "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        doubled = lanes.tolist()
        if walk:  # only when some lane's low bit differs from base's
            walk = packed & ones != (ones if base & 1 else 0)
    else:
        # a count of 255 or more has no byte: sum each order on its own
        sums = [0] * n
        for column in sweep.columns:
            sums = list(map(add, sums, map(row.__getitem__, column[::2])))
        doubled = [base - s for s in sums]
    if walk:
        for k, value in enumerate(doubled):
            if value % 2:
                raise NonIntegralGenusError(
                    f"bipartite graph produced genus {Fraction(value, 2)} "
                    f"at {sweep.order(k).order}")
    return doubled


def rho_table(graph: ColoredGraph) -> dict[CyclicPermutation, Fraction]:
    """Genus of the regular embedding for every cyclic order, keyed in
    canonical (sorted) order: ``rho_table(graph)[eps]`` is the genus at
    eps."""
    return genus_table(graph).by_order()


def regular_genus(graph: ColoredGraph) -> tuple[Fraction, list[CyclicPermutation]]:
    """Minimum genus over all cyclic orders, with the argmin list in
    canonical order."""
    return genus_table(graph).minimum()


def gurau_degree(graph: ColoredGraph) -> Fraction:
    """Sum of the genus values over all d!/2 cyclic orders."""
    if not graph.is_regular:
        raise NotRegularError("G-degree is defined for regular graphs")
    return Fraction(sum(genus_table(graph).doubled), 2)


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
        return GenusTable(self._sweep, self._doubled).by_order()

    def _json_fields(self) -> dict:
        """The JSON form, its genus table and its two count tables given
        as ``JSONText`` for a writer to splice."""
        sets = _color_sets(self.dimension)
        return {
            "dimension": self.dimension,
            "vertices": self.num_vertices,
            "p": self.p,
            "p_bar": self.p_bar,
            "p_dot": self.p_dot,
            "regular": self.is_regular,
            "bipartite": self.is_bipartite,
            "boundary_components": self.boundary_components,
            "g_pairs": _filled(sets.pair_json, self.g_pairs),
            "g_triples": _filled(sets.triple_json, self.g_triples),
            "f_vector": list(self.f_vector),
            "chi": self.chi,
            "rho": GenusTable(self._sweep, self._doubled).json(),
            "rho_min": str(self.rho_min),
            "omega_g": None if self.omega_g is None else str(self.omega_g),
            "bound_checks": dict(sorted(self.bound_checks.items())),
        }

    def to_jsonable(self) -> dict:
        """The JSON form, each text of ``_json_fields`` decoded."""
        return {key: json.loads(value) if isinstance(value, JSONText) else value
                for key, value in self._json_fields().items()}


def _filled(template: tuple[str, tuple[tuple[int, ...], ...]],
            counts: dict[tuple[int, ...], tuple[int, int]]) -> JSONText:
    """A count table's JSON text: its template filled in the template's
    set order."""
    text, ordered = template
    return JSONText(text % tuple(chain.from_iterable(map(counts.__getitem__,
                                                         ordered))))


def _set_label(colors: tuple[int, ...]) -> str:
    """The digits of a color set, ``"012"``."""
    return "".join(map(str, colors))


def _parameter_free_checks(graph: ColoredGraph, doubled: list[int],
                           fv: tuple[int, ...], chi: int,
                           triples: dict[tuple[int, ...], tuple[int, int]]
                           ) -> dict[str, Optional[bool]]:
    """The report's flags, each read off the integers the report already
    holds, with no check report built: the genus row, the f-vector, chi
    and the triple counts."""
    from . import checks  # checks imports invariants

    out: dict[str, Optional[bool]] = {
        "omega_pairing": None,
        "capping_identities": None,
        "dehn_sommerville": None,
    }
    if graph.dimension != 4:
        return out
    if graph.is_regular:
        out["omega_pairing"] = checks._omega_pairing_ok(doubled)
        out["dehn_sommerville"] = checks._dehn_sommerville_ok(
            graph, fv, chi, sum(g for g, _ in triples.values()))
    else:
        out["capping_identities"] = all(
            row.ok for row in checks._capping_rows(graph))
    return out


def invariant_report(graph: ColoredGraph) -> InvariantReport:
    # first: too many orders raise before any residue is decomposed
    sweep, doubled = genus_table(graph)
    cls = classify_vertices(graph)
    sets, counts = _color_sets(graph.dimension), {}
    fv = _f_vector(graph, counts)
    if graph.dimension == 2:  # the one triple is every color, no f-vector row
        counts[7] = _count(graph, 7)
    pairs = dict(zip(sets.pairs, map(counts.__getitem__, sets.pair_masks)))
    triples = dict(zip(sets.triples, map(counts.__getitem__, sets.triple_masks)))
    chi = sum((-1) ** h * n for h, n in enumerate(fv))
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
        chi=chi,
        rho_min=Fraction(min(doubled), 2),
        omega_g=Fraction(sum(doubled), 2) if graph.is_regular else None,
        bound_checks=_parameter_free_checks(graph, doubled, fv, chi, triples),
        _sweep=sweep,
        _doubled=doubled,
    )
