"""Deterministic corpora for the property and acceptance suites.

Random corpora are arbitrary connected members of the graph class (no
manifold guarantee); gem corpora are grown from known manifold gems by
dipole insertion, which never changes the represented space.
"""

import random
from itertools import islice

from gemkit import ball_gem, order_two_gem, random_boundary_gem, random_gem
from gemkit.core import NO_EDGE, ColoredGraph, validate
from gemkit.errors import SamplingExhaustedError
from gemkit.moves import (cancel_1_dipole, find_1_dipoles, insert_1_dipole,
                          regularize)


def k33_graph() -> ColoredGraph:
    return validate(2, 6, [(j, 3 + (j + i) % 3, i)
                           for i in range(3) for j in range(3)])


def pseudo_shell_graph() -> ColoredGraph:
    """Connected 8-vertex member of G_4 with two boundary components: two
    4-vertex sphere gems joined by a color-1 edge swap, then one final-
    color edge removed from each side.  A pseudomanifold, not a manifold:
    the removed faces share simplices."""
    return validate(4, 8, [(0, 1, 0), (2, 3, 0), (4, 5, 0), (6, 7, 0),
                           (1, 3, 1), (5, 7, 1), (0, 4, 1), (2, 6, 1),
                           (0, 2, 2), (1, 3, 2), (4, 6, 2), (5, 7, 2),
                           (0, 2, 3), (1, 3, 3), (4, 6, 3), (5, 7, 3),
                           (0, 2, 4), (4, 6, 4)])


def shell_gem() -> ColoredGraph:
    """Gem of the spherical shell (two boundary spheres): a 10-vertex
    4-sphere gem grown by one dipole of each non-final color, minus two
    final-color edges whose dual simplices are disjoint.  Every vertex
    link is a certified sphere or ball."""
    return validate(4, 10, [
        (0, 8, 0), (1, 5, 0), (2, 3, 0), (4, 7, 0), (6, 9, 0),
        (0, 8, 1), (1, 3, 1), (2, 7, 1), (4, 5, 1), (6, 9, 1),
        (0, 8, 2), (1, 3, 2), (2, 5, 2), (4, 9, 2), (6, 7, 2),
        (0, 6, 3), (1, 3, 3), (2, 5, 3), (4, 7, 3), (8, 9, 3),
        (2, 5, 4), (4, 7, 4), (6, 9, 4)])


def shell_apart_corpus(count=20, seed=7):
    """Shell gems whose singular vertices stay apart: each is grown by
    5..29 insertions at a random vertex and one of its colors, capped on
    color 0 and contracted on colors 0..3 only, which leaves several
    components without color 4."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = shell_gem()
        for _ in range(rng.randint(5, 29)):
            u = rng.randrange(g.num_vertices)
            c = rng.choice([c for c in g.colors if g.has_color(u, c)])
            g, _, _ = insert_1_dipole(g, (u, g.mate(u, c)), c)
        g, _ = regularize(g, singular_color=0)
        while True:
            sites = [site for site in find_1_dipoles(g) if site.color < 4]
            if not sites:
                break
            g = cancel_1_dipole(g, sites[0])
        out.append(g)
    return out


def random_boundary_corpus(count, seed=2024, max_order=24):
    """Random connected members of G_4 with boundary, order <= max_order."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.randint(2, max_order // 2)
        p_dot = rng.randint(0, p - 1)
        try:
            out.append(random_boundary_gem(4, p, p_dot, seed=rng.randrange(2 ** 30)))
        except SamplingExhaustedError:
            continue
    return out


def random_regular_corpus(count, seed=4048, max_order=24):
    rng = random.Random(seed)
    return [random_gem(4, rng.randint(1, max_order // 2),
                       seed=rng.randrange(2 ** 30))
            for _ in range(count)]


def grow_by_insertions(graph, inserts, rng):
    """Apply random dipole insertions; the represented space is preserved.
    Each draws an index into ``graph.edges()`` and finds that edge color
    by color, with no edge list built."""
    for _ in range(inserts):
        n = graph.num_vertices
        # a row holds two ends of each edge of its color
        counts = [(n - row.count(NO_EDGE)) // 2 for row in graph.color_maps]
        k = rng.randrange(sum(counts))
        for c, row in enumerate(graph.color_maps):
            if k < counts[c]:
                break
            k -= counts[c]
        # the k-th edge of color c by its lesser end, as edges() lists it
        u = next(islice((u for u, v in enumerate(row) if v > u), k, None))
        graph, _, _ = insert_1_dipole(graph, (u, row[u]), c)
    return graph


def sphere_gem_corpus(count, seed=509, max_inserts=8):
    """Regular 5-colored gems of the 4-sphere: dipole descendants of the
    order-two gem and of the capped ball gem."""
    rng = random.Random(seed)
    seeds = [order_two_gem(4), regularize(ball_gem(4), singular_color=0)[0]]
    return [grow_by_insertions(seeds[k % len(seeds)],
                               rng.randint(1, max_inserts), rng)
            for k in range(count)]


def manifold_boundary_corpus(count, seed=6006, max_inserts=8):
    """Boundary gems of known manifolds: dipole descendants of the ball
    gem (one boundary sphere) and of the two-boundary shell gem."""
    rng = random.Random(seed)
    seeds = [ball_gem(4), shell_gem()]
    return [grow_by_insertions(seeds[k % len(seeds)],
                               rng.randint(0, max_inserts), rng)
            for k in range(count)]
