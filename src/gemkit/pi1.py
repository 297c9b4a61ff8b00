"""Finite group presentations read off a gem.

For a color pair {i, j}, generators correspond to components of the
graph with both colors removed; every {i, j}-colored cycle contributes a
relator read with alternating signs, and the generators lying on a
maximal tree of the {i, j}-labeled subcomplex are set trivial.  Words
are tuples of nonzero signed integers: ``k+1`` stands for the k-th
generator, negative for its inverse.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import compress
from operator import eq
from typing import Optional

from .core import ColoredGraph, _count, _joined_count, _residues_by_mask, _root
from .errors import InvalidColorPairError, PreconditionError

Word = tuple[int, ...]
_PASSES = 200  # the default Tietze pass budget


@dataclass(frozen=True)
class GroupPresentation:
    num_generators: int
    cycle_relators: tuple[Word, ...]
    tree_relators: tuple[Word, ...]
    color_pair: Optional[tuple[int, int]] = None
    compact_manifold_reading: Optional[bool] = None
    singular_manifold_reading: Optional[bool] = None

    def __post_init__(self):
        """Every letter is ±1..num_generators, so each reader meets the
        same words; ``presentation`` builds its own past this check."""
        gens = self.num_generators
        if gens < 0:
            raise PreconditionError(f"negative generator count {gens}")
        for word in self.relators:
            for t in word:
                if not 0 < abs(t) <= gens:
                    raise PreconditionError(
                        f"letter {t} in relator {word} is not ±1..{gens}")

    def __getattr__(self, name):
        """The relator words of a presentation from ``presentation``, built
        from its graph when either is first read; the graph is then let go.
        Reached only for a name not in the instance's ``__dict__``."""
        state = self.__dict__
        if name not in ("cycle_relators", "tree_relators") or "_graph" not in state:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        state["cycle_relators"], state["tree_relators"] = _words(
            state.pop("_graph"), *self.color_pair)
        return state[name]

    @property
    def relators(self) -> tuple[Word, ...]:
        return self.cycle_relators + self.tree_relators

    def pretty(self) -> str:
        """Stable text form: generators g0, g1, ...; one relator per line."""
        lines = ["generators: " + (", ".join(f"g{k}" for k in range(self.num_generators))
                                   if self.num_generators else "(none)")]
        lines.append("relators:")
        for word in self.relators:
            if not word:
                lines.append("  1")
                continue
            lines.append("  " + " ".join(
                f"g{abs(t) - 1}" + ("" if t > 0 else "^-1") for t in word))
        if not self.relators:
            lines.append("  (none)")
        return "\n".join(lines)


def presentation(graph: ColoredGraph, i: int, j: int,
                 singular_colors: Optional[set[int]] = None) -> GroupPresentation:
    """Presentation on the color pair {i, j}.

    When ``singular_colors`` is supplied the result is tagged with which
    manifold group it presents: the compact one when neither i nor j is
    singular, the singular one when no color outside {i, j} is.

    The generator count is read from the residue counts; the relator
    words are built from the graph, which the result keeps until then,
    when one of them is first read.
    """
    d = graph.dimension
    if i == j or not (0 <= i <= d and 0 <= j <= d):
        raise InvalidColorPairError(f"bad color pair ({i},{j}) for dimension {d}")
    i, j = min(i, j), max(i, j)
    full, pair = (1 << d + 1) - 1, 1 << i | 1 << j
    tag_a = tag_b = None
    if singular_colors is not None:
        tag_a = i not in singular_colors and j not in singular_colors
        tag_b = not (singular_colors - {i, j})
    # fields set past the frozen init; the words are left to __getattr__
    pres = object.__new__(GroupPresentation)
    pres.__dict__.update(
        num_generators=_count(graph, full ^ pair)[0], color_pair=(i, j),
        compact_manifold_reading=tag_a, singular_manifold_reading=tag_b,
        _graph=graph)
    return pres


def _words(graph: ColoredGraph, i: int, j: int
           ) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """The cycle relators and the tree relators on the pair i < j."""
    full, pair = (1 << graph.dimension + 1) - 1, 1 << i | 1 << j
    gens = _residues_by_mask(graph, full ^ pair)

    cycles = []
    dec = _residues_by_mask(graph, pair)
    mate_i, mate_j = graph.color_maps[i], graph.color_maps[j]
    gen = gens.labels
    for start, regular in zip(dec.least, dec.regular):
        if not regular:
            continue  # an {i,j}-path contributes no cycle relator
        word = []
        v = start
        while True:  # a regular component is an {i,j}-cycle
            word.append(gen[v] + 1)
            v = mate_i[v]
            word.append(-gen[v] - 1)
            v = mate_j[v]
            if v == start:
                break
        cycles.append(tuple(word))

    # spanning forest of the bipartite incidence of generators with the
    # residues missing one of the two colors
    left = _residues_by_mask(graph, full ^ 1 << i)
    right = _residues_by_mask(graph, full ^ 1 << j)
    up = list(range(left.count + right.count))
    tree = []
    for k, v in enumerate(gens.least):
        a, b = _root(up, left.labels[v]), _root(up, left.count + right.labels[v])
        if a != b:
            up[b] = a
            tree.append((k + 1,))
    return tuple(cycles), tuple(tree)


def _cyclic_reduce(word: Word) -> Word:
    out: list[int] = []
    for t in word:
        if out and out[-1] == -t:
            out.pop()
        else:
            out.append(t)
    while len(out) >= 2 and out[0] == -out[-1]:
        out.pop()
        out.pop(0)
    return tuple(out)


def _substitute(word: Word, gen: int, image: Word) -> Word:
    inv = tuple(-t for t in reversed(image))
    out: list[int] = []
    for t in word:
        if t == gen:
            out.extend(image)
        elif t == -gen:
            out.extend(inv)
        else:
            out.append(t)
    return tuple(out)


def _trivial(pres: GroupPresentation, max_passes: int) -> bool:
    """Whether ``tietze_simplify`` gives the trivial presentation with no
    pass run, read off the graph of a presentation whose words are not
    built yet: the budget has a pass for each generator, and every
    generator is joined to a one-letter relator by two-letter ones.  A
    presentation with no graph returns False, and the passes decide it.

    A cycle word has even length, so the one-letter relators are the tree
    relators, one per generator the spanning forest keeps.  The forest
    spans the graph whose nodes are the g(Γ_î) + g(Γ_ĵ) residues without
    i or without j and whose edges are the g(Γ_îĵ) generators, each
    joining the two residues holding it.  That graph has as many
    components as the gem, c: an edge of a color other than i stays in a
    residue without i, one of color i in a residue without j.  So the
    forest keeps g(Γ_î) + g(Γ_ĵ) − c generators, and every one exactly
    when that is g(Γ_îĵ).

    Otherwise the two-letter relators are read off the twins, vertices
    v ≠ w with mate_i(v) = mate_j(v) = w, each pair a 2-cycle.  Their j-edge
    lies in a residue without i and their i-edge in one without j, so
    their generators are parallel edges of that graph, of which the
    forest keeps at most one.  With J the generator count once every twin
    pair is united, J ≥ g(Γ_î) + g(Γ_ĵ) − c, and every class holds a kept
    generator exactly when the two are equal."""
    graph = pres.__dict__.get("_graph")
    if graph is None:
        return False
    gens = pres.num_generators
    if gens > max_passes:
        return False
    i, j = pres.color_pair
    full = (1 << graph.dimension + 1) - 1
    kept = (_count(graph, full ^ 1 << i)[0] + _count(graph, full ^ 1 << j)[0]
            - graph._memo.get("components", 1))
    if gens == kept:
        return True
    # only color d may miss a vertex, so the rows of two colors never
    # agree on NO_EDGE
    mate_i, mate_j = graph.color_maps[i], graph.color_maps[j]
    twins = [(v, mate_i[v]) for v in compress(range(graph.num_vertices),
                                              map(eq, mate_i, mate_j))]
    return bool(twins) and _joined_count(
        _residues_by_mask(graph, full ^ 1 << i ^ 1 << j), twins) == kept


def tietze_simplify(pres: GroupPresentation, max_passes: int = _PASSES
                    ) -> GroupPresentation:
    """Free/cyclic reduction, empty-relator removal, and elimination of
    generators that occur exactly once in some relator, substituting in
    the rest.  Runs to a fixed point under a bounded pass budget.

    Each pass eliminates one generator from the first relator, in
    (length, word) order, that has a letter occurring once in it.  While
    a one-letter relator is left, that is the least one by signed value:
    its generator is deleted from the words holding it, and no word is
    sorted.  Every word is kept cyclically reduced, so a word without the
    eliminated generator stays as it is."""
    if _trivial(pres, max_passes):
        return GroupPresentation(0, (), (), pres.color_pair,
                                 pres.compact_manifold_reading,
                                 pres.singular_manifold_reading)
    gens = pres.num_generators
    words = {w for w in map(_cyclic_reduce, pres.relators) if w}
    units = {w[0] for w in words if len(w) == 1}
    eliminated = set()
    for _ in range(max_passes):
        if units:
            t = min(units)
            word, g, image = (t,), abs(t), ()
        else:
            for word in sorted(words, key=lambda w: (len(w), w)):
                once = [g for g, n in Counter(map(abs, word)).items() if n == 1]
                if once:
                    break
            else:
                break
            g = min(once)
            k = next(idx for idx, t in enumerate(word) if abs(t) == g)
            rest = word[k + 1:] + word[:k]  # relator rotated to end at g
            image = tuple(-t for t in reversed(rest)) if word[k] > 0 else rest
        words.remove(word)
        hit = [w for w in words if g in w or -g in w]
        words.difference_update(hit)
        units.discard(g)
        units.discard(-g)
        for w in hit:
            w = _cyclic_reduce(_substitute(w, g, image))
            if w:
                words.add(w)
                if len(w) == 1:
                    units.add(w[0])
        eliminated.add(g)
    # the survivors, in ascending order, become 1..k; the map is increasing
    # and keeps signs, so it keeps the (len, w) order
    survivors = [g for g in range(1, gens + 1) if g not in eliminated]
    number = {g: k for k, g in enumerate(survivors, 1)}
    words = sorted((tuple(number[t] if t > 0 else -number[-t] for t in w)
                    for w in words), key=lambda w: (len(w), w))
    return replace(pres, num_generators=len(survivors),
                   cycle_relators=tuple(words), tree_relators=())


def _smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form (nonzero, each entry dividing the
    next).  The smallest nonzero entry, ties by (row, column), is the
    pivot; division with remainder clears its row and column, and a
    remainder is the next pivot.  A cleared pivot that divides every entry
    is recorded and struck out; otherwise a row with an entry it does not
    divide is added to the pivot row."""
    m = [row[:] for row in matrix]
    diag = []
    while True:
        entries = [(abs(x), r, c) for r, row in enumerate(m)
                   for c, x in enumerate(row) if x]
        if not entries:
            return diag
        _, r0, c0 = min(entries)
        top = m[r0]
        p = top[c0]
        for r, row in enumerate(m):
            q = row[c0] // p
            if q and r != r0:
                m[r] = [x - q * y for x, y in zip(row, top)]
        for c, x in enumerate(top):
            q = x // p
            if q and c != c0:
                for row in m:
                    row[c] -= q * row[c0]
        if any(row[c0] for row in m if row is not top) or \
           any(x for c, x in enumerate(top) if c != c0):
            continue
        stray = next((row for row in m if any(x % p for x in row)), None)
        if stray is None:
            diag.append(abs(p))
            del m[r0]
            for row in m:
                del row[c0]
        else:
            m[r0] = [x + y for x, y in zip(top, stray)]


def abelianization_rank(pres: GroupPresentation) -> tuple[int, list[int]]:
    """Free rank and nontrivial elementary divisors of the abelianized
    group.  A one-letter relator kills its generator, a unit of the Smith
    diagonal; the Smith form runs on the other relators and generators."""
    gens = pres.num_generators
    killed = {abs(w[0]) for w in pres.relators if len(w) == 1}
    column = {g: k for k, g in enumerate(
        g for g in range(1, gens + 1) if g not in killed)}
    matrix = []
    for word in pres.relators:
        if len(word) > 1:
            row = [0] * len(column)
            for t in word:
                if abs(t) not in killed:
                    row[column[abs(t)]] += 1 if t > 0 else -1
            matrix.append(row)
    diag = _smith_diagonal(matrix)
    return len(column) - len(diag), [e for e in diag if e > 1]


def rank_bounds(pres: GroupPresentation) -> tuple[int, int]:
    """(lower, upper) bounds on the minimal generator count: the
    abelianization's generator rank from below, the simplified
    presentation's generator count from above.

    The upper end is read first, with no Tietze object when ``_trivial``
    holds.  At 0 the group is trivial, and so is its abelianization:
    (0, 0), with no Smith form.  lower <= upper always holds, as the
    abelianization needs no more generators than any presentation."""
    if _trivial(pres, _PASSES):
        return 0, 0
    upper = tietze_simplify(pres).num_generators
    if not upper:
        return 0, 0
    free_rank, divisors = abelianization_rank(pres)
    return free_rank + len(divisors), upper
