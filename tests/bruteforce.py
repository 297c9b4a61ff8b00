"""Brute-force reference implementations used as independent oracles.

Everything here works on raw edge lists (lists of ``(u, v, color)`` triples)
with plain BFS and exhaustive subset enumeration, deliberately sharing no
code with the package under test.  ``report_form`` is the one exception:
it builds a report's JSON form as dicts, from the package's own counts
and genus table, as a reference for the report's spliced JSON text.
"""

import hashlib
import json
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd


def bfs_components(num_vertices, edges, colors=None):
    """Connected components (as sorted vertex tuples) of the subgraph
    keeping only edges whose color lies in ``colors`` (all edges if None).
    Isolated vertices count as singleton components."""
    adj = {v: [] for v in range(num_vertices)}
    for u, v, c in edges:
        if colors is None or c in colors:
            adj[u].append(v)
            adj[v].append(u)
    seen = set()
    comps = []
    for start in range(num_vertices):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        comp = []
        while queue:
            x = queue.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def map_fault(maps, no_edge=-1):
    """The fault color maps are refused for, as (error class name,
    message), or None.  Every fault is listed: a loop or an entry out of
    range, in any map, is named before any entry that breaks the
    involution, and among faults of one kind the least (color, vertex)."""
    n = len(maps[0])
    loops, broken = [], []
    for c, row in enumerate(maps):
        for v, w in enumerate(row):
            if w == v or not no_edge <= w < n:
                loops.append((c, v, f"color-{c} map sends vertex {v} to {w}"))
            elif w != no_edge and row[w] != v:
                broken.append((c, v, f"vertex {w} meets two color-{c} edges"))
    if loops:
        return "LoopEdgeError", min(loops)[2]
    if broken:
        return "DuplicateColorError", min(broken)[2]
    return None


class EdgeFault(Exception):
    """A fault ``edge_maps`` names; its args are the name of the gemkit
    error class and the message."""


def edge_maps(dimension, num_vertices, edges, no_edge=-1):
    """The color maps of an edge list, read in two loops that raise the
    first fault as an ``EdgeFault``: a bad color, endpoint or loop before
    a list too short to give every vertex every color below d, and a
    short list before a repeated color.  An item that cannot index the
    maps (a float) raises its own error in the second loop."""
    d, n = dimension, num_vertices
    for u, v, c in edges:
        if not (0 <= c <= d):
            raise EdgeFault("InvalidColorError", f"color {c} outside 0..{d}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeFault("LoopEdgeError",
                            f"edge ({u},{v},{c}) has an endpoint outside "
                            f"0..{n - 1}")
        if u == v:
            raise EdgeFault("LoopEdgeError", f"loop at vertex {u} with color {c}")
    if d * n > 2 * len(edges):  # checked before the maps are allocated
        raise EdgeFault("MissingColorError",
                        f"{len(edges)} edges cannot give {n} vertices "
                        f"every color below {d}")
    maps = [[no_edge] * n for _ in range(d + 1)]
    for u, v, c in edges:
        if maps[c][u] != no_edge or maps[c][v] != no_edge:
            raise EdgeFault("DuplicateColorError",
                            f"vertex {u if maps[c][u] != no_edge else v} "
                            f"meets two color-{c} edges")
        maps[c][u] = v
        maps[c][v] = u
    return maps


def count_components(num_vertices, edges, colors):
    return len(bfs_components(num_vertices, edges, colors))


def count_regular_components(num_vertices, edges, colors):
    """Components in which every vertex meets every color of the set."""
    colors = set(colors)
    present = {v: set() for v in range(num_vertices)}
    for u, v, c in edges:
        if c in colors:
            present[u].add(c)
            present[v].add(c)
    total = 0
    for comp in bfs_components(num_vertices, edges, colors):
        if all(present[v] == colors for v in comp):
            total += 1
    return total


def f_vector(dimension, num_vertices, edges):
    """f_h = sum over (h+1)-subsets B of Delta_d of the number of
    components of the residue on the complementary color set."""
    all_colors = set(range(dimension + 1))
    fv = []
    for h in range(dimension + 1):
        total = 0
        for labels in combinations(sorted(all_colors), h + 1):
            rest = all_colors - set(labels)
            total += count_components(num_vertices, edges, rest)
        fv.append(total)
    return tuple(fv)


def euler_characteristic(dimension, num_vertices, edges):
    fv = f_vector(dimension, num_vertices, edges)
    return sum((-1) ** h * n for h, n in enumerate(fv))


def weld(dimension, num_vertices, edges, x, y):
    """The edge list, sorted by (color, u, v), left by deleting x and y and
    joining, for every color, the other ends of x's and y's edges of that
    color when both exist and are not x and y themselves; the other
    vertices keep their order, renumbered 0..num_vertices - 3."""
    mate = {c: {} for c in range(dimension + 1)}
    for u, v, c in edges:
        mate[c][u] = v
        mate[c][v] = u
    kept = [(u, v, c) for u, v, c in edges if u not in (x, y) and v not in (x, y)]
    for c in range(dimension + 1):
        a, b = mate[c].get(x), mate[c].get(y)
        if a is not None and b is not None and a != y:
            kept.append((a, b, c))
    index = {v: i for i, v in enumerate(w for w in range(num_vertices)
                                        if w not in (x, y))}
    out = [(min(index[u], index[v]), max(index[u], index[v]), c)
           for u, v, c in kept]
    return sorted(out, key=lambda e: (e[2], e[0], e[1]))


def first_1_dipole(dimension, num_vertices, edges):
    """The first 1-dipole by color, then least vertex, as (color, u, v):
    an edge whose ends lie in different components of the other colors
    and whose weld leaves one component.  None when there is none."""
    ordered = sorted(edges, key=lambda e: (e[2], e[0], e[1]))
    for c in range(dimension + 1):
        other = set(range(dimension + 1)) - {c}
        label = {v: i for i, comp in
                 enumerate(bfs_components(num_vertices, edges, other))
                 for v in comp}
        for u, v, color in ordered:
            if color != c or label[u] == label[v]:
                continue
            welded = weld(dimension, num_vertices, edges, u, v)
            if num_vertices > 2 and len(bfs_components(num_vertices - 2,
                                                       welded)) == 1:
                return c, u, v
    return None


def contraction_stepwise(dimension, num_vertices, edges):
    """Full contraction of a regular graph checked after every step:
    weld the first 1-dipole until none is left, and after each step
    compare the Euler characteristic, then the genus of every cyclic
    order, with the input's.  Returns (num_vertices, edges, None), or
    (None, None, message) naming the first step that failed, its site
    written as the package prints a DipoleSite."""
    d = dimension

    def invariants(n, edge_list):
        return (euler_characteristic(d, n, edge_list),
                [rho_closed(d, n, edge_list, eps) for eps in cyclic_classes(d)])

    chi, genera = invariants(num_vertices, edges)
    n = num_vertices
    while (found := first_1_dipole(d, n, edges)) is not None:
        c, u, v = found
        site = f"DipoleSite(color={c}, vertices=({u}, {v}))"
        n, edges = n - 2, weld(d, n, edges, u, v)
        out_chi, out_genera = invariants(n, edges)
        if out_chi != chi:
            return None, None, f"Euler characteristic changed cancelling {site}"
        if out_genera != genera:
            return None, None, f"genus table changed cancelling {site}"
    return n, edges, None


def cyclic_classes(d):
    """Canonical cyclic permutations of {0..d}: last entry d, first entry
    smaller than the entry before d; one per rotation/reflection class."""
    out = []
    for perm in permutations(range(d)):
        if perm[0] < perm[-1]:
            out.append(perm + (d,))
    return sorted(out)


def boundary_edges(dimension, num_vertices, edges):
    """Edge list of the boundary graph, on boundary vertices reindexed by
    sorted parent order, built by tracing alternating {j, d}-paths."""
    d = dimension
    mate = {c: {} for c in range(d + 1)}
    for u, v, c in edges:
        mate[c][u] = v
        mate[c][v] = u
    boundary = sorted(v for v in range(num_vertices) if v not in mate[d])
    index = {v: i for i, v in enumerate(boundary)}
    out = []
    for u in boundary:
        for j in range(d):
            cur, nxt = u, j
            while cur in mate[nxt]:
                cur = mate[nxt][cur]
                nxt = d if nxt == j else j
            if index[u] < index[cur]:
                out.append((index[u], index[cur], j))
    return len(boundary), out


def capping_edges(dimension, num_vertices, edges, c):
    """The new color-d edges that cap the boundary along color c: from
    each boundary vertex, walk c, d, c, ... to the other end of its
    path, and join the two ends.  Listed as (u, v) with u < v, by the
    least vertex of the path."""
    d = dimension
    mate = {k: {} for k in range(d + 1)}
    for u, v, k in edges:
        mate[k][u] = v
        mate[k][v] = u
    out = []
    for u in range(num_vertices):
        if u in mate[d]:
            continue
        path, cur, nxt = [u], u, c
        while cur in mate[nxt]:
            cur = mate[nxt][cur]
            path.append(cur)
            nxt = d if nxt == c else c
        if u < cur:
            out.append((min(path), u, cur))
    return [(u, v) for _, u, v in sorted(out)]


def gem_text(dimension, num_vertices, edges, name=None, metadata=None):
    """The canonical gem file text, written line by line: keys sorted,
    values as ``json.dumps`` with sorted keys writes them, and one line
    per edge, each edge with its lesser end first, by color then ends;
    a name of None and empty metadata are left out."""
    doc = {"dimension": dimension, "vertices": num_vertices,
           "edges": sorted(([min(u, v), max(u, v), c] for u, v, c in edges),
                           key=lambda e: (e[2], e[0], e[1]))}
    if name is not None:
        doc["name"] = name
    if metadata:
        doc["metadata"] = metadata
    lines = ["{"]
    keys = sorted(doc)
    for k, key in enumerate(keys):
        comma = "," if k + 1 < len(keys) else ""
        if key == "edges":
            lines.append('  "edges": [')
            for e, edge in enumerate(doc["edges"]):
                tail = "," if e + 1 < len(doc["edges"]) else ""
                lines.append(f"    [{edge[0]}, {edge[1]}, {edge[2]}]{tail}")
            lines.append(f"  ]{comma}")
        else:
            lines.append(f'  "{key}": {json.dumps(doc[key], sort_keys=True)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def digest(dimension, num_vertices, edges):
    """The catalog digest of graph data as the JSON encoder writes it:
    sha256 of the compact, key-sorted JSON object holding the dimension,
    the vertex count and the edges, each with its lesser end first, by
    color then ends."""
    doc = {"dimension": dimension, "vertices": num_vertices,
           "edges": sorted(([min(u, v), max(u, v), c] for u, v, c in edges),
                           key=lambda e: (e[2], e[0], e[1]))}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def rho_closed(dimension, num_vertices, edges, eps):
    """2 - 2*rho = sum of consecutive-pair component counts + (1-d)p."""
    d = dimension
    total = 0
    for i in range(d + 1):
        pair = {eps[i], eps[(i + 1) % (d + 1)]}
        total += count_components(num_vertices, edges, pair)
    p = num_vertices // 2
    return Fraction(2 - total - (1 - d) * p, 2)


def rho_boundary(dimension, num_vertices, edges, eps):
    """Boundary-graph genus formula; eps must end with color d."""
    d = dimension
    assert eps[d] == d
    total = 0
    for i in range(d + 1):
        pair = {eps[i], eps[(i + 1) % (d + 1)]}
        total += count_regular_components(num_vertices, edges, pair)
    mate_d = set()
    for u, v, c in edges:
        if c == d:
            mate_d.add(u)
            mate_d.add(v)
    n_bound = num_vertices - len(mate_d)
    p_bar = n_bound // 2
    p_dot = len(mate_d) // 2
    bn, bedges = boundary_edges(dimension, num_vertices, edges)
    dg = count_components(bn, bedges, {eps[0], eps[d - 1]})
    val = total + (1 - d) * p_dot + (2 - d) * p_bar + dg
    return Fraction(2 - val, 2)


def _is_sphere_union(num_vertices, edges, triple):
    """Whether every component of the residue on three colors is a
    2-sphere gem: its bicolored cycles outnumber half its vertices by
    two (Euler characteristic 2)."""
    cycles = [comp for pair in combinations(sorted(triple), 2)
              for comp in bfs_components(num_vertices, edges, set(pair))]
    for comp in bfs_components(num_vertices, edges, set(triple)):
        inside = sum(1 for cycle in cycles if cycle[0] in comp)
        if inside - len(comp) // 2 != 2:
            return False
    return True


def regularization_identities(dimension, num_vertices, edges, c):
    """The capping checks of one boundary gem for singular color c, in the
    form of the package's ``RegularizationIdentityReport.to_jsonable()``:
    the ends of every maximal {c, d}-path joined by a new color-d edge,
    every count found by search on the input, the capped graph and the
    boundary graph, and every genus compared as a Fraction."""
    d = dimension
    capped = list(edges) + [(u, v, d) for u, v in
                            capping_edges(d, num_vertices, edges, c)]
    bn, bedges = boundary_edges(d, num_vertices, edges)
    p_bar = bn // 2

    def bcount(*colors):
        return count_components(bn, bedges, set(colors))

    lemma_mixed = {}
    for i in range(d):
        if i != c:
            lemma_mixed[str(i)] = [
                count_components(num_vertices, capped, {i, d}),
                count_regular_components(num_vertices, edges, {i, d})
                + bcount(i, c)]
    lemma_singular = [count_components(num_vertices, capped, {c, d}),
                      count_components(num_vertices, edges, {c, d}),
                      count_regular_components(num_vertices, edges, {c, d})
                      + p_bar]
    lemma_ok = (all(lhs == rhs for lhs, rhs in lemma_mixed.values())
                and len(set(lemma_singular)) == 1)

    transfer = []
    transfer_ok = True
    for eps in cyclic_classes(d):
        rho_in = rho_boundary(d, num_vertices, edges, eps)
        rho_cap = rho_closed(d, num_vertices, capped, eps)
        e0, e_last = eps[0], eps[d - 1]
        universal = rho_in + Fraction(
            p_bar + bcount(e0, e_last) - bcount(e0, c) - bcount(e_last, c), 2)
        adjacent = c in (e0, e_last)
        if adjacent:
            paper = rho_in
        elif _is_sphere_union(bn, bedges, {e0, e_last, c}):
            paper = rho_in + bcount(e0, e_last) - bcount(e0, e_last, c)
        else:
            paper = None
        paper_ok = None if paper is None else rho_cap == paper
        transfer.append({
            "eps": ",".join(map(str, eps)),
            "case": "adjacent" if adjacent else "nonadjacent",
            "rho_input": str(rho_in),
            "rho_capped": str(rho_cap),
            "paper_rhs": None if paper is None else str(paper),
            "paper_applicable": paper is not None,
            "paper_ok": paper_ok,
            "universal_rhs": str(universal),
            "universal_ok": rho_cap == universal,
        })
        transfer_ok = transfer_ok and rho_cap == universal and paper_ok is not False

    h = count_components(bn, bedges, None)
    chi_delta = (euler_characteristic(d, num_vertices, capped)
                 - euler_characteristic(d, num_vertices, edges))
    return {
        "singular_color": c,
        "h": h,
        "p_bar": p_bar,
        "lemma_mixed": lemma_mixed,
        "lemma_singular": lemma_singular,
        "lemma_ok": lemma_ok,
        "transfer": transfer,
        "transfer_ok": transfer_ok,
        "chi_delta": chi_delta,
        "chi_law_ok": chi_delta == h,
        "ok": lemma_ok and transfer_ok,
    }


def tree_generators(dimension, num_vertices, edges, i, j):
    """The one-letter relators (k + 1,) a pi1 presentation on the colors
    {i, j} sets trivial.  Generator k is the k-th residue, by least
    vertex, of the colors other than i and j; it joins the residue
    without i and the residue without j that hold it.  Kruskal's walk
    takes the generators in order and keeps each one whose two residues
    are not yet joined, each joined class kept as a set of residues."""
    colors = set(range(dimension + 1))

    def residue_of(rest):
        return {v: k for k, comp in
                enumerate(bfs_components(num_vertices, edges, rest))
                for v in comp}

    left, right = residue_of(colors - {i}), residue_of(colors - {j})
    joined = {}  # residue -> the set of residues joined to it
    tree = []
    for k, comp in enumerate(bfs_components(num_vertices, edges,
                                            colors - {i, j})):
        a, b = ("left", left[comp[0]]), ("right", right[comp[0]])
        class_a, class_b = joined.get(a, {a}), joined.get(b, {b})
        if b not in class_a:
            merged = class_a | class_b
            for residue in merged:
                joined[residue] = merged
            tree.append((k + 1,))
    return tuple(tree)


def determinant(square):
    """Exact integer determinant by cofactor expansion along the first row."""
    if not square:
        return 1
    return sum((-1) ** c * x * determinant([row[:c] + row[c + 1:] for row in square[1:]])
               for c, x in enumerate(square[0]) if x)


def smith_diagonal(matrix):
    """Nonzero invariant factors of an integer matrix from its determinantal
    divisors: D_0 = 1, D_k is the gcd of all k x k minors, and the factors
    are D_k / D_(k-1) for k = 1..r, r the largest k with D_k != 0."""
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                dk = gcd(dk, determinant([[matrix[r][c] for c in cs] for r in rs]))
        if dk == 0:
            break  # every larger minor expands into k x k ones
        divisors.append(dk)
    return [b // a for a, b in zip(divisors, divisors[1:])]


def _cyclic_reduce(word):
    out = []
    for t in word:
        if out and out[-1] == -t:
            out.pop()
        else:
            out.append(t)
    while len(out) >= 2 and out[0] == -out[-1]:
        out.pop()
        out.pop(0)
    return tuple(out)


def trivial_by_words(num_generators, relators, max_passes=200):
    """Whether the Tietze loop deletes every generator by one-letter
    passes alone: the budget has a pass for each generator, and each
    generator is reached from one with a one-letter relator along
    relators of two letters, read as built (a longer word that reduces to
    two letters is not used).  Reached generators are spread one
    two-letter relator at a time until none is added."""
    if num_generators > max_passes:
        return False
    reached = {abs(w[0]) for w in relators if len(w) == 1}
    pairs = [{abs(t) for t in w} for w in relators if len(w) == 2]
    grown = True
    while grown:
        grown = False
        for pair in pairs:
            if pair & reached and not pair <= reached:
                reached |= pair
                grown = True
    return reached >= set(range(1, num_generators + 1))


def tietze_simplify(num_generators, relators, max_passes=200):
    """The sequential Tietze loop: each pass sorts the distinct nonempty
    words by (length, word), takes the first with a generator occurring
    once, eliminates the least such generator by substituting the rest of
    its relator everywhere, and cyclically reduces every word.  Returns
    the survivors' count and the sorted words, renumbered 1..k."""
    words = [_cyclic_reduce(w) for w in relators]
    eliminated = set()
    for _ in range(max_passes):
        words = sorted({w for w in words if w}, key=lambda w: (len(w), w))
        choice = None
        for wi, word in enumerate(words):
            once = [g for g in set(map(abs, word))
                    if sum(abs(t) == g for t in word) == 1]
            if once:
                choice = wi, min(once)
                break
        if choice is None:
            break
        wi, g = choice
        word = words.pop(wi)
        k = [abs(t) for t in word].index(g)
        rest = word[k + 1:] + word[:k]
        image = tuple(-t for t in reversed(rest)) if word[k] > 0 else rest
        inverse = tuple(-t for t in reversed(image))
        substituted = []
        for w in words:
            out = []
            for t in w:
                out.extend(image if t == g else inverse if t == -g else (t,))
            substituted.append(_cyclic_reduce(out))
        words = substituted
        eliminated.add(g)
    survivors = [g for g in range(1, num_generators + 1) if g not in eliminated]
    number = {g: k for k, g in enumerate(survivors, 1)}
    words = {tuple(number[t] if t > 0 else -number[-t] for t in w)
             for w in words if w}
    return len(survivors), sorted(words, key=lambda w: (len(w), w))


def report_form(graph):
    """The decoded JSON form of ``invariant_report(graph)``, built as
    dicts: the count tables from ``count_g`` on every color pair and
    triple of 0..d, the genus table from ``rho_table``, keyed by their
    labels in sorted order, and the other fields from the report."""
    from gemkit import count_g, invariant_report, rho_table

    rep = invariant_report(graph)
    d = graph.dimension

    def counts(size):
        return {"".join(map(str, colors)): list(count_g(graph, colors))
                for colors in combinations(range(d + 1), size)}

    return {
        "dimension": d, "vertices": graph.num_vertices,
        "p": rep.p, "p_bar": rep.p_bar, "p_dot": rep.p_dot,
        "regular": graph.is_regular, "bipartite": graph.is_bipartite,
        "boundary_components": rep.boundary_components,
        "g_pairs": counts(2), "g_triples": counts(3),
        "f_vector": list(rep.f_vector), "chi": rep.chi,
        "rho": {eps.label(): str(value)
                for eps, value in rho_table(graph).items()},
        "rho_min": str(rep.rho_min),
        "omega_g": None if rep.omega_g is None else str(rep.omega_g),
        "bound_checks": dict(sorted(rep.bound_checks.items())),
    }


S4_2 = dict(dimension=4, vertices=2,
            edges=[(0, 1, c) for c in range(5)])
B4_2 = dict(dimension=4, vertices=2,
            edges=[(0, 1, c) for c in range(4)])
K33 = dict(dimension=2, vertices=6,
           edges=[(j, 3 + (j + i) % 3, i) for i in range(3) for j in range(3)])
