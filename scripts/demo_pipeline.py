#!/usr/bin/env python3
"""Walk one boundary gem through the whole pipeline.

Loads a gem with boundary (the bundled 4-ball gem by default), prints
its invariants, regularizes it, contracts the result, and checks the
lower bounds, semi-simplicity, and the gem-complexity relation on the
outcome.
"""

import argparse
import sys
from pathlib import Path

from gemkit import (
    boundary_graph,
    check_bound_on_gem,
    check_regularization_identities,
    check_semisimple,
    gem_complexity_relation,
    invariant_report,
    regular_genus,
)
from gemkit.errors import GemError
from gemkit.gemio import read_gem
from gemkit.moves import full_contraction, regularize


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("gem", nargs="?", default=root / "gems" / "b4_2.gem")
    parser.add_argument("--singular-color", type=int, default=0)
    parser.add_argument("--chi", type=int, default=1,
                        help="Euler characteristic of the encoded manifold")
    parser.add_argument("--m", type=int, default=0)
    parser.add_argument("--mhat", type=int, default=0)
    args = parser.parse_args()

    graph = read_gem(args.gem)
    rep = invariant_report(graph)
    print(f"input: {args.gem}")
    print(f"  2p = {rep.num_vertices} (boundary {2 * rep.p_bar}), "
          f"f = {rep.f_vector}, chi = {rep.chi}, rho_min = {rep.rho_min}")

    if graph.is_regular:
        print("graph is regular; nothing to regularize")
        return 1
    bg = boundary_graph(graph)
    h = bg.num_components
    print(f"  boundary components: {h}")
    for k in range(h):
        comp = bg.component_subgraph(k)
        # genus 0 certifies a sphere; a positive genus leaves it open
        sphere = regular_genus(comp)[0] == 0
        print(f"    component {k}: {comp.num_vertices} vertices, "
              f"{'ProvenSphere' if sphere else 'Unknown'}")

    identities = check_regularization_identities(graph, args.singular_color)
    print(f"capping identities with color {args.singular_color}: "
          f"{'hold' if identities.ok else 'VIOLATED'} "
          f"(chi delta {identities.chi_delta} vs h {identities.h})")

    regular, record = regularize(graph, singular_color=args.singular_color)
    contracted = full_contraction(regular)
    print(f"regularized ({len(record.added_edges)} capping edges) and "
          f"contracted to 2p = {contracted.num_vertices}")

    bound = check_bound_on_gem(contracted, args.chi, args.m, h, args.mhat)
    print(f"genus bound {bound.genus_bound}: "
          f"{'met' if bound.genus_ok else 'VIOLATED'}"
          + (" with equality" if bound.genus_equality else ""))
    print(f"G-degree bound {bound.gdegree_bound} vs omega_G {bound.omega}: "
          f"{'met' if bound.gdegree_ok else 'VIOLATED'}"
          + (" with equality" if bound.gdegree_equality else ""))

    try:
        semis = check_semisimple(contracted, args.m, args.mhat, h)
    except GemError as exc:
        # e.g. full contraction merged the singular vertices of a shell
        print(f"semi-simple: not applicable ({exc})")
    else:
        print(f"semi-simple: {semis.semi_simple}; weak witnesses: "
              f"{len(semis.weak_semi_simple)}/12")

    complexity = gem_complexity_relation(contracted, args.chi)
    print(f"gem-complexity relation: 6(chi - 1 + p - 1) = "
          f"{complexity.relation_value} vs omega_G = {complexity.omega} "
          f"({complexity.note})")
    return 0 if bound.ok and identities.ok else 1


if __name__ == "__main__":
    sys.exit(main())
