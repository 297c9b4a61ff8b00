#!/usr/bin/env python3
"""Mutant gate for gemkit's fast paths.

Each mutant names a module of ``src/gemkit``, a function in it, the
source of one node in that function, what replaces the node, and the
tests that must fail once it is in.  For each mutant the script copies
``src/``, ``tests/``, ``gems/`` and ``pyproject.toml`` to a temporary
directory, applies the mutant to the copy, and runs all its tests there
in one pytest call that does not stop at a failure.  Every listed test
must fail: the script prints, per listed test, the first of its cases
that failed, or ``PASSED`` and the test, and the seconds each mutant
took.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones
    python tests/mutants.py --list      # names and what each one breaks

Exit code 0 when every listed test of every mutant failed, 1 when one
passed, 2 when a mutant no longer applies to the source or names no
test.

The list only grows, but for a mutant whose code is deleted.  A fast
path comes with mutants of its guards; a mutant that survives is either equivalent to the
original, which the change that finds it explains, or a sign that a
test is missing.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "gems", "pyproject.toml")
TIMEOUT_S = 600  # a mutant that hangs its tests counts as caught


class Mutant(NamedTuple):
    name: str
    module: str                # file under src/gemkit
    function: str              # "function" or "Class.method"
    node: str                  # source of the one node replaced
    replacement: str           # source put in its place
    tests: tuple[str, ...]     # pytest node ids that must fail
    breaks: str                # what the mutant breaks, in a few words


BOUNDARY = "tests/test_boundary.py"
CATALOG = "tests/test_catalog_index.py"
CHECKS = "tests/test_checks.py"
CLI = "tests/test_cli.py"
CORE = "tests/test_core.py"
GEMIO = "tests/test_gemio.py"
INVARIANTS = "tests/test_invariants.py"
MEMO = "tests/test_residue_memo.py"
MOVES = "tests/test_moves.py"
PI1 = "tests/test_pi1.py"

MUTANTS = (
    Mutant("prefix-compare-skipped", "gemio.py", "_read_after",
           "indexed.startswith(view[:n], at)", "True",
           (f"{CATALOG}::TestTexts::test_rewrite_drops_the_texts",
            f"{CATALOG}::TestAgainstColdRead::test_random_histories"),
           "a store of the index's length is taken as covered"),
    Mutant("digest-map-keeps-last", "gemio.py", "_StoreIndex._add",
           "digest not in self.digests", "True",
           (f"{CATALOG}::TestAgainstColdRead"
            "::test_add_finds_the_first_record_of_a_digest",),
           "a digest maps to its last record, not its first"),
    Mutant("digest-map-without-bytes-check", "gemio.py", "_StoreIndex._add",
           "digest.encode('ascii') in raw", "True",
           (f"{CATALOG}::TestAgainstColdRead::test_escaped_digest",),
           "a record whose line holds its digest only escaped is found"),
    Mutant("own-line-indexed-past-a-tail", "gemio.py", "_catalog_add",
           "covered and not rest", "covered",
           (f"{CATALOG}::TestCost::test_cold_add_builds_no_index",),
           "an add indexes its line past bytes the index does not hold"),
    Mutant("regularize-assumes-bipartite", "moves.py", "regularize",
           "graph.is_bipartite", "True",
           (f"{MOVES}::TestRegularize::test_one_build_matches_cap_then_swap",),
           "a regularized gem is flagged bipartite whatever the input"),
    Mutant("insert-assumes-bipartite", "moves.py", "insert_1_dipole",
           "graph.is_bipartite", "True",
           (f"{MOVES}::TestInsertBuild::test_matches_the_checked_build",),
           "a grown gem is flagged bipartite whatever the input"),
    Mutant("insert-assumes-regular", "moves.py", "insert_1_dipole",
           "graph.is_regular", "True",
           (f"{MOVES}::TestInsertBuild::test_matches_the_checked_build",),
           "a gem grown from one with boundary is flagged regular"),
    Mutant("insert-ignores-components", "moves.py", "insert_1_dipole",
           "graph._memo.get('components', 1) != 1", "False",
           (f"{MOVES}::TestInsertBuild"
            "::test_boundary_graph_of_two_components_is_refused",),
           "a split of a graph of several components is built unchecked"),
    Mutant("trivial-test-ignores-budget", "pi1.py", "_trivial",
           "gens > max_passes", "False",
           (f"{PI1}::TestCountTest::test_covered_past_the_budget_goes_to_tietze",),
           "a group the graph covers is trivial though the pass budget cannot "
           "delete every generator"),
    Mutant("trivial-test-takes-built-words-as-trivial", "pi1.py", "_trivial",
           "if graph is None:\n    return False",
           "if graph is None:\n        return True",
           (f"{PI1}::TestCountTest::test_built_words_go_to_the_passes",
            f"{PI1}::TestRankBounds::test_z_plus_torsion",
            f"{PI1}::TestTietzeOracle::test_pinned_example"),
           "every presentation with no graph, its words built or read, is "
           "taken as trivial"),
    Mutant("presentation-generator-mask-drops-a-color", "pi1.py",
           "presentation", "full ^ pair", "full ^ 1 << i",
           (f"{PI1}::TestPresentation::test_k33_torus_group",),
           "generators are the residues missing one color of the pair, "
           "not both"),
    Mutant("words-generator-mask-drops-a-color", "pi1.py", "_words",
           "full ^ pair", "full ^ 1 << i",
           (f"{PI1}::TestPresentation::test_k33_torus_group",),
           "the words read the residues missing one color of the pair as "
           "generators"),
    Mutant("count-test-assumes-one-component", "pi1.py", "_trivial",
           "graph._memo.get('components', 1)", "1",
           (f"{PI1}::TestCountTest::test_boundary_graphs_of_several_components",),
           "the count test takes a graph of several components as connected"),
    Mutant("count-test-ignores-budget", "pi1.py", "_trivial",
           "gens > max_passes", "gens > max_passes + 1",
           (f"{PI1}::TestCountTest::test_covered_past_the_budget_goes_to_tietze",),
           "a group the counts cover is trivial with one generator more than "
           "the pass budget deletes"),
    Mutant("twin-scan-skipped", "pi1.py", "_trivial",
           "compress(range(graph.num_vertices), map(eq, mate_i, mate_j))",
           "()",
           (f"{PI1}::TestWordBuilds::test_trivial_pairs_build_no_words",),
           "a group that only two-letter relators decide builds its words "
           "and runs the Tietze loop"),
    Mutant("presentation-builds-words-eagerly", "pi1.py", "presentation",
           "return pres", "return replace(pres)",
           (f"{PI1}::TestWordBuilds::test_trivial_pairs_build_no_words",),
           "every presentation builds its words, also one the counts decide"),
    Mutant("edge-reader-raises-repeat-at-once", "core.py", "_build",
           "fault = exc", "raise exc",
           (f"{CORE}::TestOnePassChecks::test_deferred_fault_precedence",),
           "a repeated color or a float item is named before a range fault "
           "after it"),
    Mutant("edge-reader-ignores-short-list", "core.py", "_build",
           "d * n > 2 * len(edges)", "False",
           (f"{CORE}::TestOnePassChecks::test_deferred_fault_precedence",),
           "a short edge list is filled into maps, and its repeated color or "
           "first missing color is named"),
    Mutant("from-maps-raises-involution-at-once", "core.py", "_from_maps",
           "broken = f'vertex {w} meets two color-{c} edges'",
           "raise DuplicateColorError(f'vertex {w} meets two color-{c} edges')",
           (f"{CORE}::TestOnePassChecks::test_map_fault_precedence",),
           "a broken involution is named before a loop in a later map"),
    Mutant("count-reads-gdot-as-one", "core.py", "_count",
           "1 if regular else 0", "1",
           (f"{MEMO}::TestCountClosure::test_one_component_counted_without_a_kernel",
            f"{MEMO}::TestCountClosure::test_counts_match_bruteforce"),
           "a one-component residue holding d on a gem with boundary is "
           "counted as regular"),
    Mutant("doubled-row-packs-base-0x8000", "invariants.py", "_doubled_row",
           "0 < base < 0x8000", "0 < base <= 0x8000",
           (f"{INVARIANTS}::TestDoubledRow::test_bounds_of_the_lanes",),
           "a base of 0x8000 goes onto the packed path, whose lanes then "
           "overflow"),
    Mutant("report-json-drops-g-triples", "invariants.py",
           "InvariantReport._json_fields",
           "_filled(sets.triple_json, self.g_triples)", "JSONText('{}')",
           (f"{GEMIO}::TestCatalog::test_record_is_the_dict_form",),
           "reports and catalog records are written with an empty g_triples "
           "table"),
    Mutant("coerce-lists-as-repr", "gemio.py", "_coerce",
           "isinstance(value, (list, dict))", "False",
           (f"{CATALOG}::test_table_filters_compare_json_values",),
           "a filter on a list or object field compares the stored value's "
           "repr text"),
    Mutant("catalog-add-returns-text-tables", "gemio.py", "catalog_add",
           "json.loads(text)", "_record(graph, _graph_digest(graph), name)",
           (f"{GEMIO}::TestCatalog::test_record_is_the_dict_form",),
           "catalog add returns the record it builds, its tables JSON text"),
    Mutant("f-vector-pass-reads-gdot-as-one", "invariants.py", "_f_vector",
           "(1, 0) if mask & top else (1, 1)", "(1, 1)",
           (f"{INVARIANTS}::TestFVector::test_pass_counts_every_pair_and_triple",
            f"{CLI}::test_info_matches_the_oracle_on_seeded_gems"),
           "a connected residue holding d on a gem with boundary is stored "
           "as regular by the f-vector pass"),
    Mutant("genus-json-floors-odd-values", "invariants.py", "GenusTable.json",
           "f'\"{v}/2\"'", "f'\"{v // 2}\"'",
           (f"{INVARIANTS}::TestGenusTableJson::test_negative_zero_and_odd_values",
            f"{INVARIANTS}::TestPairTable::test_report_json_equals_per_order_formulas"),
           "an odd doubled genus is quoted as its floor half"),
    Mutant("payload-json-drops-comma-after-spliced", "gemio.py", "_payload_json",
           "out.append(',')", "None",
           (f"{CLI}::TestPipelines::test_payload_json_edge_cases",
            f"{GEMIO}::TestCatalog::test_record_is_the_dict_form"),
           "no comma between a spliced value or list and the piece after it"),
    Mutant("end-check-skips-euler", "moves.py", "full_contraction",
           "out_chi != chi", "False",
           (f"{MOVES}::TestVerifyPass::test_euler_characteristic_change",
            f"{MOVES}::TestEndCheck::test_faulty_pass_fails_the_end_check"),
           "a contraction that moved the Euler characteristic is named by "
           "another check, or passes"),
    Mutant("end-check-skips-genus", "moves.py", "full_contraction",
           "after != genera.doubled", "False",
           (f"{MOVES}::TestVerifyPass::test_genus_table_change",
            f"{MOVES}::TestEndCheck::test_faulty_pass_fails_the_end_check"),
           "a contraction that moved only the genus table passes"),
    Mutant("end-check-skips-site", "moves.py", "full_contraction",
           "site is not None", "False",
           (f"{MOVES}::TestVerifyPass::test_site_left",
            f"{MOVES}::TestEndCheck::test_faulty_pass_fails_the_end_check"),
           "a contraction that left a 1-dipole passes"),
    Mutant("contract-heap-top-ignores-dead-ends", "moves.py", "_next_site",
           "alive[x]", "True",
           (f"{MOVES}::TestOnePass::test_same_as_stepwise_loop",
            f"{MOVES}::TestEndCheck::test_same_output_as_stepwise"),
           "a heap entry whose first end was cancelled is taken as a site"),
    Mutant("contraction-ignores-components", "moves.py", "full_contraction",
           "components != 1", "False",
           (f"{MOVES}::TestFullContraction"
            "::test_several_components_refused_before_any_step",),
           "a graph of several components is read and contracted before "
           "it is refused, or comes back unchanged"),
    Mutant("capping-drops-an-edge", "boundary.py", "_capping_edges",
           "return tuple(tuple(ends[k]) for k in sorted(ends))",
           "return tuple(tuple(ends[k]) for k in sorted(ends))[1:]",
           (f"{BOUNDARY}::TestBoundaryGraph::test_b4",
            f"{CLI}::TestGolden::test_matches_golden",
            f"{MOVES}::TestRegularize::test_lemma_counts_on_capped_graph",
            f"{MOVES}::TestRegularize::test_one_build_matches_cap_then_swap"),
           "the boundary graph, regularize, cap_boundary and the capping "
           "checks all read one capping edge fewer than the boundary needs"),
    Mutant("capping-edges-skip-the-pairing-check", "boundary.py",
           "_capping_edges", "len(held) != 2", "False",
           (f"{MOVES}::TestRegularize"
            "::test_four_boundary_ends_in_one_residue_raise[boundary graph]",
            f"{MOVES}::TestRegularize"
            "::test_three_boundary_ends_in_one_residue_raise[regularize]"),
           "a residue holding three or four boundary vertices gives a "
           "capping 'edge' of as many ends, which fails to unpack"),
    Mutant("capping-rows-drop-an-edge", "checks.py", "_build_capping_rows",
           "i < k", "0 < i < k",
           (f"{MEMO}::TestWorkCount::test_rows_cap_with_the_edges_of_regularize",),
           "the capping rows read every color's boundary-graph edge at "
           "boundary vertex 0 as no capping edge"),
    Mutant("capping-rows-miscount-one-color", "checks.py", "_build_capping_rows",
           "p_bar if a == b else _residues_by_mask(bgraph, 1 << a | 1 << b).count",
           "p_bar + 1 if a == b else _residues_by_mask(bgraph, 1 << a | 1 << b).count",
           (f"{CHECKS}::TestRegularizationIdentities::test_transfer_universal_parts",
            f"{CHECKS}::TestCountPath::test_reports_match_the_capped_graph"),
           "the rows take the boundary graph's count on one color as one "
           "more than its p_bar edges"),
    Mutant("chi-delta-skips-a-mask", "checks.py", "_chi_delta",
           "(1 << d + 1) - 1", "(1 << d + 1) - 2",
           (f"{CHECKS}::TestCountPath::test_reports_match_the_capped_graph",),
           "the capping check's chi change leaves out the residue on every "
           "color but 0"),
    Mutant("lemma-prediction-drops-the-boundary-count", "checks.py",
           "_build_capping_rows",
           "mixed[i][1] + counts[1 << i | 1 << c]", "mixed[i][1]",
           (f"{CHECKS}::TestRegularizationIdentities::test_b4_lemma_values",
            f"{CHECKS}::TestRegularizationIdentities::test_lemma_universal"),
           "the lemma predicts the capped count on {i, d} without the "
           "boundary graph's count on {i, c}"),
    Mutant("paper-form-reads-the-pair-count", "checks.py",
           "_build_capping_rows",
           "triples[1 << e0 | 1 << e_last | 1 << c]",
           "counts[1 << e0 | 1 << e_last]",
           (f"{CHECKS}::TestRegularizationIdentities::test_transfer_universal_parts",
            f"{CHECKS}::TestCountPath::test_reports_match_the_capped_graph"),
           "the paper form reads the boundary graph's count on the ends "
           "in place of its count on the ends and c"),
    Mutant("report-universal-sums-the-capped-row", "checks.py",
           "check_regularization_identities",
           "[value + shift[1] for value, shift in zip(doubled, shifts)]",
           "[value + shift[1] for value, shift in zip(row.doubled_capped, shifts)]",
           (f"{CHECKS}::TestRegularizationIdentities::test_transfer_universal_parts",
            f"{CHECKS}::TestCountPath::test_cli_matches_the_oracle_on_seeded_gems",
            f"{CLI}::TestGolden::test_matches_golden"),
           "a report's universal prediction adds its shift to the capped "
           "gem's twice genus in place of the input's"),
    Mutant("joined-count-skips-a-union", "core.py", "_joined_count",
           "up[x] = y", "pass",
           (f"{CHECKS}::TestCountPath::test_reports_match_the_capped_graph",),
           "a capped count is lowered for each join without uniting"),
    Mutant("joined-count-off-by-one", "core.py", "_joined_count",
           "count = dec.count", "count = dec.count - 1",
           (f"{CHECKS}::TestRegularizationIdentities::test_b4_lemma_values",
            f"{CHECKS}::TestRegularizationIdentities::test_b4_all_colors"),
           "every capped count on a color set with d is one too low"),
    Mutant("doubled-row-moves-the-last-entry", "invariants.py", "_doubled_row",
           "lanes.tolist()",
           "[v + 2 * (k == n - 1) for k, v in enumerate(lanes.tolist())]",
           (f"{INVARIANTS}::TestRho::test_s4_all_zero",
            f"{INVARIANTS}::TestRho::test_k33_torus"),
           "the genus of the last order of the sweep is one too high"),
    Mutant("merge-reverses-the-root-numbers", "core.py", "_merge",
           "itemgetter(*labels)(up)",
           "itemgetter(*labels)([len(regular) - 1 - m for m in up])",
           (f"{MEMO}::TestLeastVertices::test_kept_by_the_kernels",
            f"{MEMO}::TestLabelsFirstSearch::test_every_mask_matches_oracles"),
           "a merge numbers its united components against their least "
           "vertices"),
    Mutant("merge-reverses-the-least-vertices", "core.py", "_merge",
           "tuple([least[k] for k in roots])",
           "tuple([least[k] for k in roots[::-1]])",
           (f"{MEMO}::TestLeastVertices::test_kept_by_the_kernels",),
           "a merge lists its components' least vertices in reverse"),
    Mutant("merge-always-walks-its-base", "core.py", "_merge",
           "prefix not in graph._memo", "True",
           (f"{MEMO}::TestLatticeOrder::test_merge_base",),
           "a merge starts from the two lowest colors also when the mask "
           "without its top color is memoized"),
    Mutant("walk-takes-a-path-end-as-closed", "core.py", "_walk",
           "v != NO_EDGE and u == start", "u == start",
           (f"{MEMO}::TestLabelsFirstSearch::test_every_mask_matches_oracles",),
           "a path that starts at a vertex missing the first color is "
           "taken as a cycle and walked one way"),
    Mutant("one-component-reads-every-mask-as-regular", "core.py",
           "_one_component_regular",
           "graph.is_regular or not mask >> graph.dimension & 1", "True",
           (f"{MEMO}::TestOneComponentWrite::test_two_vertex_gems",
            f"{MEMO}::TestOneComponentWrite::test_matches_the_kernels_and_the_search",
            f"{MEMO}::TestCountClosure::test_one_component_counted_without_a_kernel"),
           "a one-component residue holding d on a gem with boundary, "
           "written or counted undecomposed, is taken as regular"),
    Mutant("digest-drops-the-last-edge", "gemio.py", "_digest",
           "(dimension, *flat, vertices)",
           "(dimension, *flat[:-3], *flat[-6:-3], vertices)",
           (f"{GEMIO}::TestDigestOracle::test_both_paths_match_the_oracle",
            f"{CLI}::TestGolden::test_catalog_matches_golden"),
           "the digest text leaves out the last edge, writing the edge "
           "before it twice"),
    Mutant("payload-json-keeps-the-run-past-a-list", "gemio.py", "_payload_json",
           "if run:\n    out += (_canonical(run)[1:-1], ',')\n    run = {}",
           "pass",
           (f"{CLI}::TestPipelines::test_payload_json_edge_cases",),
           "values before a spliced value or list are written after it, "
           "out of key order"),
)


def _find_function(tree: ast.Module, qualname: str) -> ast.AST:
    scope: ast.AST = tree
    for part in qualname.split("."):
        for node in ast.iter_child_nodes(scope):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and node.name == part):
                scope = node
                break
        else:
            raise LookupError(f"no {qualname} in the module")
    return scope


def _parsed(text: str) -> ast.AST:
    """The one expression or statement ``text`` holds."""
    try:
        return ast.parse(text, mode="eval").body
    except SyntaxError:
        (statement,) = ast.parse(text).body
        return statement


def mutated_source(mutant: Mutant, src: Path = ROOT / "src") -> str:
    """The mutant's module with the mutant in.  Raises LookupError unless
    the function holds exactly one node whose source reads as ``node``."""
    path = src / "gemkit" / mutant.module
    text = path.read_text(encoding="utf-8")
    target = _parsed(mutant.node)
    want = ast.unparse(target)
    function = _find_function(ast.parse(text), mutant.function)
    hits = [node for node in ast.walk(function)
            if type(node) is type(target) and ast.unparse(node) == want]
    if len(hits) != 1:
        raise LookupError(f"{mutant.name}: {len(hits)} nodes read as "
                          f"{want!r} in {mutant.function}, not one")
    node = hits[0]
    raw = text.encode("utf-8")  # column offsets count UTF-8 bytes
    starts = [0] + [m.end() for m in re.finditer(rb"\n", raw)]
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    replacement = mutant.replacement
    if isinstance(target, ast.expr):
        replacement = f"({replacement})"
    mutated = (raw[:begin] + replacement.encode("utf-8") + raw[end:]).decode("utf-8")
    ast.parse(mutated)  # the mutant is still Python
    return mutated


def _copy_tree(workdir: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, workdir / name,
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          ".hypothesis"))
        else:
            shutil.copy2(source, workdir / name)


def run(mutant: Mutant, workdir: Path) -> dict[str, Optional[str]]:
    """Apply the mutant to a copy in ``workdir`` and run all its tests:
    each listed test mapped to the first of its cases that failed, or to
    None when it passed.  Raises LookupError when the mutant does not
    apply or its tests are not found."""
    mutated = mutated_source(mutant)
    _copy_tree(workdir)
    (workdir / "src" / "gemkit" / mutant.module).write_text(mutated,
                                                           encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
               "no:cacheprovider", *mutant.tests]
    try:
        done = subprocess.run(command, cwd=workdir, env=env, text=True,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict.fromkeys(mutant.tests, f"timeout after {TIMEOUT_S} s")
    if done.returncode in (4, 5):  # a node id not found, or no test
        raise LookupError(f"{mutant.name}: its tests did not run\n"
                          + done.stdout[-2000:] + done.stderr[-2000:])
    caught = _caught(mutant.tests, done.stdout)
    if done.returncode and not any(caught.values()):  # no summary to read
        return dict.fromkeys(mutant.tests, f"pytest exit code {done.returncode}")
    return caught


def _caught(tests: tuple[str, ...], stdout: str) -> dict[str, Optional[str]]:
    """Each listed test mapped to the first case of it that pytest's short
    summary reports as failed or in error, or None.  A case is the test,
    one of its parametrized cases or methods, or a file that failed to
    collect; a case id may hold spaces, and ends before " - " and the
    message."""
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", stdout,
                        re.MULTILINE)
    return {test: next((case for case in failed
                        if case == test
                        or case.startswith((test + "[", test + "::"))
                        or test.startswith(case + "::")), None)
            for test in tests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="print each mutant's name and what it breaks")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    width = max(len(m.name) for m in chosen)
    if args.list:
        for m in chosen:
            print(f"{m.name:<{width}}  {m.module}:{m.function}  {m.breaks}")
        return 0
    missed, started = 0, time.perf_counter()
    print(f"{'mutant':<{width}}  caught by")
    for mutant in chosen:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="gemkit-mutant-") as tmp:
            try:
                caught = run(mutant, Path(tmp))
            except LookupError as exc:
                print(f"{mutant.name:<{width}}  ERROR: {exc}")
                return 2
        rows = [case or f"PASSED {test}" for test, case in caught.items()]
        missed += None in caught.values()
        rows[0] += f"  ({time.perf_counter() - start:.1f} s)"
        for name, row in zip([mutant.name] + [""] * len(rows), rows):
            print(f"{name:<{width}}  {row}", flush=True)
    print(f"{len(chosen)} mutants: {len(chosen) - missed} caught by every "
          f"listed test, {missed} not, in {time.perf_counter() - started:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
