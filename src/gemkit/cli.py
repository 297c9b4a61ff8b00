"""Command-line surface.

Each subcommand is a ``cmd_<name>(graph, args)`` function that returns
its ``--json`` payload and its human lines.  One runner, ``_run``, reads
the gem FILE (``catalog`` reads its own, for ``add`` only), stamps the
payload's ``"command"``, prints one of the two, and picks the exit code:
1 exactly when the payload's ``"ok"`` is false.  ``main`` maps errors to
the other codes.

Exit codes: 0 success (and every checked identity holds), 1 a checked
identity or bound fails, 2 usage, parse or file error, 3 validation or
precondition error, 4 internal error (an unexpected exception, reported
as one ``internal error: <Type>: <message>`` line on stderr).  With
--json a single machine-readable object is printed; its content is
byte-identical across runs on the same input.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import checks, gemio, moves, pi1
from .boundary import boundary_graph
from .core import ColoredGraph, classify_vertices
from .errors import GemError, ParseError, ValidationError
from .invariants import (
    enumerate_cyclic_permutations,
    euler_characteristic,
    f_vector,
    genus_table,
    gurau_degree,
    invariant_report,
)

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def cmd_validate(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    cls = classify_vertices(graph)
    payload = {
        "ok": True, "dimension": graph.dimension, "vertices": graph.num_vertices,
        "regular": graph.is_regular, "bipartite": graph.is_bipartite,
        "boundary_vertices": 2 * cls.p_bar,
    }
    human = [f"valid gem: dimension {graph.dimension}, {graph.num_vertices} vertices, "
             f"{'regular' if graph.is_regular else f'{2 * cls.p_bar} boundary vertices'}, "
             f"{'bipartite' if graph.is_bipartite else 'non-bipartite'}"]
    return payload, human


def cmd_info(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    report = invariant_report(graph)
    payload = report._json_fields()
    if args.json:  # only the payload is printed
        return payload, []
    human = [
        f"dimension {report.dimension}, 2p = {report.num_vertices} "
        f"(p_bar={report.p_bar}, p_dot={report.p_dot})",
        f"regular: {report.is_regular}, bipartite: {report.is_bipartite}, "
        f"boundary components: {report.boundary_components}",
        f"f-vector: {report.f_vector}, chi = {report.chi}",
        f"rho_min = {report.rho_min}" + (
            f", omega_G = {report.omega_g}" if report.omega_g is not None else ""),
        "g (pairs): " + ", ".join(
            f"{''.join(map(str, k))}:{v[0]}/{v[1]}"
            for k, v in sorted(report.g_pairs.items())),
    ]
    return payload, human


def cmd_boundary(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    bg = boundary_graph(graph)
    if args.component is not None and not 0 <= args.component < bg.num_components:
        raise ParseError(f"no boundary component with index {args.component}")
    out_graph = bg.graph if args.component is None \
        else bg.component_subgraph(args.component)
    gemio.write_gem(out_graph, args.output, name=args.name)
    payload = {
        "ok": True, "h": bg.num_components,
        "boundary_vertices": out_graph.num_vertices, "output": str(args.output),
    }
    human = [f"boundary graph: {out_graph.num_vertices} vertices, "
             f"h = {bg.num_components} -> {args.output}"]
    if args.component is None and bg.num_components > 1:
        human.append("note: boundary graph is disconnected; use --component "
                     "to extract one piece")
    return payload, human


def cmd_regularize(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    out_graph, record = moves.regularize(graph, singular_color=args.singular_color)
    gemio.write_gem(out_graph, args.output, name=args.name)
    payload = {
        "ok": True, "singular_color": record.singular_color_choice,
        "added_edges": [list(e) for e in record.added_edges],
        "color_swap": list(record.color_swap),
        "output": str(args.output),
    }
    human = [f"capped {len(record.added_edges)} path(s) with color "
             f"{graph.dimension}, swapped colors {record.color_swap[0]} and "
             f"{record.color_swap[1]} -> {args.output}"]
    return payload, human


def cmd_dipoles(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    if args.cancel is None:  # only a cancellation writes a gem
        for flag, value in (("-o/--output", args.output), ("--name", args.name)):
            if value is not None:
                raise ParseError(f"{flag} needs --cancel")
    sites = moves.find_1_dipoles(graph)
    payload = {"ok": True, "sites": [{"color": s.color, "vertices": list(s.vertices)}
                                     for s in sites]}
    human = [f"{len(sites)} one-dipole site(s)"]
    human += [f"  [{k}] color {s.color} at {s.vertices}" for k, s in enumerate(sites)]
    if args.cancel is not None:
        if not (0 <= args.cancel < len(sites)):
            raise ParseError(f"no dipole with index {args.cancel}")
        if args.output is None:
            raise ParseError("--cancel needs -o OUT")
        result = moves.cancel_1_dipole(graph, sites[args.cancel])
        gemio.write_gem(result, args.output, name=args.name)
        payload["cancelled"] = args.cancel
        payload["output"] = str(args.output)
        human.append(f"cancelled [{args.cancel}] -> {args.output}")
    return payload, human


def cmd_contract(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    result = moves.full_contraction(graph)
    gemio.write_gem(result, args.output, name=args.name)
    payload = {"ok": True, "vertices_before": graph.num_vertices,
               "vertices_after": result.num_vertices, "output": str(args.output)}
    human = [f"contracted {graph.num_vertices} -> {result.num_vertices} "
             f"vertices -> {args.output}"]
    return payload, human


def cmd_genus(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    table = genus_table(graph)  # one sweep: the table and its minimum
    best, argmin = table.minimum()
    payload = {"ok": True, "rho_min": str(best),
               "argmin": [eps.label() for eps in argmin]}
    human = [f"rho = {best} (attained by {len(argmin)} cyclic order(s))"]
    if args.all_perms and args.json:
        payload["table"] = table.json()
    elif args.all_perms:  # the table is in canonical order
        human += [f"  ({eps.label()}) -> {v}" for eps, v in table.by_order().items()]
    return payload, human


def cmd_gdegree(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    omega = gurau_degree(graph)
    return {"ok": True, "omega_g": str(omega)}, [f"omega_G = {omega}"]


def cmd_fvector(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    fv = f_vector(graph)
    return {"ok": True, "f_vector": list(fv)}, [f"f = {fv}"]


def cmd_euler(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    chi = euler_characteristic(graph)
    return {"ok": True, "chi": chi}, [f"chi = {chi}"]


def cmd_pi1(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    try:
        i, j = (int(x) for x in args.pair.split(","))
    except ValueError as exc:
        raise ParseError(f"--pair wants I,J with integers, got {args.pair!r}") from exc
    pres = pi1.presentation(graph, i, j)
    if args.simplify:
        pres = pi1.tietze_simplify(pres)
    # the upper end first, so a trivial group is decided from the graph
    upper = pi1.tietze_simplify(pres).num_generators
    free_rank, divisors = pi1.abelianization_rank(pres)
    lower = free_rank + len(divisors)
    payload = {
        "ok": True, "pair": [min(i, j), max(i, j)],
        "generators": pres.num_generators,
        "relators": [list(w) for w in pres.relators],
        "abelianization": {"free_rank": free_rank, "divisors": divisors},
        "rank_bounds": [lower, upper],
        "simplified": bool(args.simplify),
    }
    human = [pres.pretty(),
             f"abelianization: free rank {free_rank}, torsion {divisors or 'none'}",
             f"rank bounds: [{lower}, {upper}]"]
    return payload, human


def _dipole_suite(graph: ColoredGraph) -> tuple[dict, list[str], bool]:
    if graph.is_regular:  # their limits refuse a dimension before any site
        base_f, base_rho = f_vector(graph), genus_table(graph).doubled
    sites = moves.find_1_dipoles(graph)
    results = []
    ok = True
    base_abel = pi1.abelianization_rank(pi1.presentation(graph, 0, 1))
    for site in sites:
        entry = {"color": site.color, "vertices": list(site.vertices)}
        u, v = site.vertices
        mixed = graph.has_color(u, graph.dimension) != graph.has_color(v, graph.dimension)
        if mixed:
            entry["skipped"] = "endpoints straddle the boundary"
            results.append(entry)
            continue
        after = moves.cancel_1_dipole(graph, site)
        entry["abelianization_invariant"] = (
            pi1.abelianization_rank(pi1.presentation(after, 0, 1)) == base_abel)
        checks_here = [entry["abelianization_invariant"]]
        if graph.is_regular:
            delta = tuple(b - a for b, a in zip(base_f, f_vector(after)))
            chi_kept = sum((-1) ** h * x for h, x in enumerate(delta)) == 0
            entry["f_delta"] = list(delta)
            entry["f_delta_ok"] = (delta == (1, 4, 6, 5, 2)) if graph.dimension == 4 \
                else chi_kept
            entry["chi_invariant"] = chi_kept
            entry["rho_invariant"] = genus_table(after).doubled == base_rho
            checks_here += [entry["f_delta_ok"], entry["chi_invariant"],
                            entry["rho_invariant"]]
        ok = ok and all(checks_here)
        results.append(entry)
    return {"sites": results}, [f"checked {len(sites)} dipole site(s)"], ok


# each invariance flag of a dipole site, and the invariant it names
_DIPOLE_FLAGS = (("abelianization_invariant", "abelianization"),
                 ("f_delta_ok", "f-delta"), ("chi_invariant", "chi"),
                 ("rho_invariant", "rho"))


def _dipole_mismatch(sites: list[dict]) -> str:
    """The first site, in site order, where an invariant moved, and each
    invariant that moved there."""
    for entry in sites:
        moved = [name for flag, name in _DIPOLE_FLAGS if entry.get(flag) is False]
        if moved:
            break
    return (f"  first failing site: color {entry['color']} at "
            f"{tuple(entry['vertices'])}; moved: {', '.join(moved)}")


def _mismatches(suite: str, report, d: int) -> list[str]:
    """The values of one color's capping report that miss their prediction."""
    if suite == "corollary":
        return [f"order {t.eps.label()}: rho_cap = {t.rho_capped}, "
                + (f"universal rhs = {t.universal_rhs}" if not t.universal_ok
                   else f"paper rhs = {t.paper_rhs}")
                for t in report.transfer if not t.universal_ok or t.paper_ok is False]
    out = [f"g_{i}{d} = {lhs} after capping, predicted {rhs}"
           for i, (lhs, rhs) in sorted(report.lemma_mixed.items()) if lhs != rhs]
    if len(set(report.lemma_singular)) > 1:
        out.append(f"lemma_singular = {report.lemma_singular}")
    return out


def _omega_mismatch(report) -> str:
    """The first order, in sweep order, whose pair sum differs from the
    first order's, with both sums; else six times the one pair sum
    against omega_G."""
    sums = iter(report.pair_sums.items())
    first, first_sum = next(sums)
    for eps, value in sums:
        if value != first_sum:
            return (f"  order {eps.label()}: pair sum {value}, first order "
                    f"{first.label()}: pair sum {first_sum}")
    return f"  6 * pair sum = {6 * first_sum}, omega_G = {report.omega}"


def cmd_check(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    suite = args.suite
    if suite == "lemma" or suite == "corollary":
        reports = {c: checks.check_regularization_identities(graph, c)
                   for c in range(graph.dimension)}
        failing = [c for c, r in reports.items()
                   if not (r.lemma_ok if suite == "lemma" else r.transfer_ok)]
        ok = not failing
        payload = {"suite": suite, "ok": ok,
                   "by_color": {str(c): r.to_jsonable() for c, r in reports.items()}}
        if ok:
            human = [f"{suite} identities: hold for all {graph.dimension} "
                     f"color choices"]
        else:
            human = [f"{suite} identities: VIOLATED for color(s) "
                     f"{', '.join(map(str, failing))} of {graph.dimension}"]
            human += [f"  color {c}: {miss[0]}" for c in failing
                      if (miss := _mismatches(suite, reports[c], graph.dimension))]
    elif suite == "omega":
        report = checks.check_omega_pairing(graph)
        ok = report.ok
        payload = {"suite": suite, "ok": ok, **report.to_jsonable()}
        human = [f"omega pairing: omega_G = {report.omega}, "
                 f"{'holds' if ok else 'VIOLATED'}"]
        if not ok:
            human.append(_omega_mismatch(report))
    elif suite == "dipole":
        detail, human, ok = _dipole_suite(graph)
        payload = {"suite": suite, "ok": ok, **detail}
        human.append("dipole invariances: " + ("hold" if ok else "VIOLATED"))
        if not ok:
            human.append(_dipole_mismatch(detail["sites"]))
    elif suite == "dehn":
        report = checks.check_dehn_sommerville(graph)
        ok = report.ok
        payload = {"suite": suite, "ok": ok, **report.to_jsonable()}
        human = [f"2p = {report.lhs}, 6chi + 2*sum(g_ijk) - 30 = {report.rhs}"
                 + (": holds" if ok else f" (chi = {report.chi}, sum(g_ijk) = "
                                         f"{report.triple_sum}): VIOLATED")]
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown suite {suite!r}")
    return payload, human


def cmd_bound(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    report = checks.check_bound_on_gem(graph, args.chi, args.m, args.h, args.mhat)
    payload = {"ok": report.ok, **report.to_jsonable()}
    human = [
        f"genus bound {report.genus_bound}: "
        f"{'met' if report.genus_ok else 'VIOLATED'}"
        + (" with equality" if report.genus_equality else ""),
        f"G-degree bound {report.gdegree_bound} vs omega_G = {report.omega}: "
        f"{'met' if report.gdegree_ok else 'VIOLATED'}"
        + (" with equality" if report.gdegree_equality else ""),
    ]
    if args.semisimple:
        ss = checks.check_semisimple(graph, args.m, args.mhat, args.h)
        payload["semisimple"] = ss.to_jsonable()
        human.append(f"semi-simple: {ss.semi_simple}; weak witnesses: "
                     f"{len(ss.weak_semi_simple)} of "
                     f"{len(enumerate_cyclic_permutations(4))}")
    return payload, human


def cmd_catalog(graph, args) -> tuple[dict, list[str]]:
    if args.action == "add":
        if args.file is None:
            raise ParseError("catalog add needs a gem FILE")
        if args.where:
            raise ParseError("catalog add takes no --where")
        graph = gemio.read_gem(args.file)
        # the record as the text it was stored or found as
        digest, text, added = gemio._catalog_add(args.store, graph, args.name)
        return ({"action": "add", "ok": True, "added": added, "record": text},
                [("added " if added else "already present: ") + digest])
    if args.file is not None:
        raise ParseError(f"catalog scan takes no gem FILE, got {args.file!r}")
    if args.name is not None:
        raise ParseError("catalog scan takes no --name")
    if args.json:  # the records as their stored text, never decoded
        records, warnings = gemio._catalog_texts(args.store, args.where or ())
        human = []
    else:
        records, warnings = gemio.catalog_scan(args.store, args.where or ())
        human = [f"{len(records)} record(s)"]
        for r in records:  # no text digest shows '-', as no name does
            digest = r.get("digest")
            digest = digest[:12] if isinstance(digest, str) else "-"
            human.append(f"  {digest}  {r.get('name') or '-'}  rho_min="
                         f"{r.get('rho_min')} omega_G={r.get('omega_g')}")
        human += [f"warning: corrupt line {w.line_number}" for w in warnings]
    payload = {"action": "scan", "ok": True,
               "count": len(records), "records": records,
               "corrupt_lines": [w.line_number for w in warnings]}
    return payload, human


def cmd_export_dot(graph: ColoredGraph, args) -> tuple[dict, list[str]]:
    gemio.export_dot(graph, args.output, name=args.name or "gem")
    return {"ok": True, "output": str(args.output)}, [f"wrote {args.output}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemkit",
        description="Manipulate edge-colored graphs encoding PL manifolds "
                    "and verify their genus and degree identities.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, output=None):
        """A subcommand on a gem FILE; ``output`` True or False adds a
        required or optional ``-o/--output``, and ``--name``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("file")
        if output is not None:
            p.add_argument("-o", "--output", required=output)
            p.add_argument("--name", default=None)
        return p

    add("validate", cmd_validate, "validate a gem file")
    add("info", cmd_info, "vertex classes, residue counts, invariants")
    p = add("boundary", cmd_boundary, "write the boundary graph", output=True)
    p.add_argument("--component", type=int, default=None,
                   help="extract one boundary component")
    p = add("regularize", cmd_regularize, "cap the boundary and swap colors",
            output=True)
    p.add_argument("--singular-color", type=int, required=True)
    p = add("dipoles", cmd_dipoles, "list (and optionally cancel) 1-dipoles",
            output=False)
    p.add_argument("--cancel", type=int, default=None, metavar="INDEX")
    add("contract", cmd_contract, "cancel 1-dipoles until none remain", output=True)
    p = add("genus", cmd_genus, "regular genus")
    p.add_argument("--all-perms", action="store_true")
    add("gdegree", cmd_gdegree, "Gurau degree")
    add("fvector", cmd_fvector, "simplex counts")
    add("euler", cmd_euler, "Euler characteristic")
    p = add("pi1", cmd_pi1, "fundamental group presentation")
    p.add_argument("--pair", required=True, metavar="I,J")
    p.add_argument("--simplify", action="store_true")
    p = add("check", cmd_check, "run an identity suite")
    p.add_argument("--suite", required=True,
                   choices=["lemma", "corollary", "omega", "dipole", "dehn"])
    p = add("bound", cmd_bound, "check genus/G-degree lower bounds")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mhat", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--semisimple", action="store_true")
    p = sub.add_parser("catalog", help="content-addressed invariant store")
    p.set_defaults(func=cmd_catalog)
    p.add_argument("action", choices=["add", "scan"])
    p.add_argument("store")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--where", action="append", metavar="FIELD OP VALUE")
    add("export-dot", cmd_export_dot, "write a DOT drawing", output=True)
    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs more than most commands.
    Parsing returns a fresh namespace and leaves the parser unchanged."""
    return build_parser()


def _run(args) -> int:
    """Run one parsed command: read its gem, print its payload or its
    human lines, and return 1 exactly when the payload's ``"ok"`` is False."""
    graph = None if args.command == "catalog" else gemio.read_gem(args.file)
    payload, human = args.func(graph, args)
    payload["command"] = args.command
    if args.json:
        print(gemio._payload_json(payload))
    else:
        for line in human:
            print(line)
    return EXIT_INCONSISTENT if payload.get("ok") is False else EXIT_OK


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits after --help or a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _run(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"invalid gem: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
