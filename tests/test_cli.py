"""CLI surface tests: exit codes, output determinism, golden JSON."""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemkit import random_boundary_gem, random_gem, validate
from gemkit.cli import build_parser, main
from gemkit.gemio import read_gem, write_gem

import bruteforce as bf
import malformed

ROOT = Path(__file__).resolve().parent.parent
GEMS = ROOT / "gems"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _json_text(value):
    from gemkit.gemio import _canonical
    from gemkit.invariants import JSONText
    return JSONText(_canonical(value))


# plain JSON values, with non-ASCII text and nested objects
PLAIN_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.dictionaries(st.text(max_size=4), inner, max_size=3)
    | st.lists(inner, max_size=3),
    max_leaves=6)
# payload values: plain ones other than lists, JSON text, and lists that
# mix plain items with JSON text
PAYLOAD_VALUES = st.one_of(
    PLAIN_VALUES.filter(lambda v: not isinstance(v, list)),
    PLAIN_VALUES.map(_json_text),
    st.lists(PLAIN_VALUES | PLAIN_VALUES.map(_json_text), max_size=3))


def run_cli(*argv, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, "-m", "gemkit.cli", *argv],
        capture_output=True, env=env, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def torus_block_file(tmp_path):
    edges = [(j, 3 + (j + i) % 3, i) for i in range(3) for j in range(3)]
    edges += [(0, 3, 3), (1, 4, 3), (2, 5, 3)]
    edges += [(0, 4, 4), (1, 5, 4), (2, 3, 4)]
    path = tmp_path / "torus_block.gem"
    write_gem(validate(4, 6, edges), path, name="torus_block")
    return path


class TestExitCodes:
    def test_ok(self):
        code, _, _ = run_cli("validate", str(GEMS / "s4_2.gem"))
        assert code == 0

    def test_identity_violation_is_one(self, tmp_path):
        path = torus_block_file(tmp_path)
        code, out, _ = run_cli("check", str(path), "--suite", "dehn")
        assert code == 1

    def test_usage_error_is_two(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.gem"
        bad.write_text("not json")
        code, _, err = run_cli("validate", str(bad))
        assert code == 2

    def test_boolean_integers_are_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.gem"
        bad.write_text('{"dimension": 2, "vertices": 2, '
                       '"edges": [[0,1,0],[false,true,true],[0,1,2]]}')
        code, out, err = run_cli("validate", str(bad))
        assert code == 2 and b"Traceback" not in err

    @pytest.mark.parametrize("index", ["2", "5", "-1"])
    def test_missing_boundary_component_is_two(self, tmp_path, index):
        out = tmp_path / "bd.gem"
        code, _, err = run_cli("boundary", str(GEMS / "shell.gem"),
                               "--component", index, "-o", str(out))
        assert code == 2
        assert err == f"error: no boundary component with index {index}\n".encode()
        assert not out.exists()

    def test_validation_error_is_three(self, tmp_path):
        bad = tmp_path / "bad.gem"
        bad.write_text(json.dumps({
            "dimension": 4, "vertices": 2,
            "edges": [[0, 0, 3]] + [[0, 1, c] for c in range(3)]}))
        code, _, err = run_cli("validate", str(bad))
        assert code == 3

    def test_impossible_vertex_count_is_three(self, tmp_path):
        # rejected from the edge count, before any per-vertex allocation
        bad = tmp_path / "huge.gem"
        bad.write_text(json.dumps({
            "dimension": 4, "vertices": 10 ** 12, "edges": [[0, 1, 0]]}))
        code, _, err = run_cli("validate", str(bad))
        assert code == 3
        assert b"invalid gem:" in err and b"Traceback" not in err

    def test_precondition_is_three(self):
        # G-degree of a boundary gem is undefined
        code, _, _ = run_cli("gdegree", str(GEMS / "b4_2.gem"))
        assert code == 3

    @pytest.mark.parametrize("command", ["info", "genus", "gdegree"])
    def test_too_many_orders_is_three(self, tmp_path, capsys, command):
        # 10!/2 orders are over the default limit: refused before the sweep
        import time
        import tracemalloc

        from gemkit import order_two_gem

        path = tmp_path / "s10.gem"
        write_gem(order_two_gem(10), path)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(["--json", command, str(path)])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: dimension 10 has 1814400 cyclic orders, above the limit "
            "of 181440\n")
        assert elapsed < 0.5
        assert peak < 1_000_000  # the d = 10 sweep's flat bytes alone are 18 MB

    def test_huge_dimension_is_three(self, tmp_path, capsys):
        # d!/2 is multiplied out only until it passes the limit
        d = 5000
        path = tmp_path / "huge.gem"
        path.write_text(json.dumps({"dimension": d, "vertices": 2, "edges": [
            [0, 1, c] for c in range(d + 1)]}))
        assert main(["--json", "info", str(path)]) == 3
        assert capsys.readouterr().err == (
            "error: dimension 5000 has more than 1814400 cyclic orders, "
            "above the limit of 181440\n")

    @staticmethod
    def two_vertex_gem(path, d, colors):
        """The 2-vertex gem of dimension d with the edges of ``colors``
        colors: d for the ball, d + 1 for the sphere."""
        path.write_text(json.dumps({"dimension": d, "vertices": 2, "edges": [
            [0, 1, c] for c in range(colors)]}))
        return path

    def test_huge_boundary_answers(self, tmp_path, capsys):
        """The boundary graph decomposes the d residues on {j, d}; the
        colors of each bitmask are read a step per color, not per bit."""
        import time

        from gemkit import order_two_gem

        d = 5000
        path = self.two_vertex_gem(tmp_path / "ball.gem", d, d)
        out = tmp_path / "boundary.gem"
        start = time.perf_counter()
        code = main(["--json", "boundary", str(path), "-o", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["h"], payload["boundary_vertices"]) == (1, 2)
        assert read_gem(out) == order_two_gem(d - 1)
        assert elapsed < 2

    @pytest.mark.parametrize("suite", ["lemma", "corollary"])
    @pytest.mark.parametrize("d", [60, 5000])
    def test_huge_capping_check_is_three(self, tmp_path, capsys, suite, d):
        """The capping rows read the genus table first, so the order
        limit refuses the dimension before any residue is decomposed."""
        import time

        path = self.two_vertex_gem(tmp_path / "ball.gem", d, d)
        start = time.perf_counter()
        code = main(["--json", "check", "--suite", suite, str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: dimension {d} has more than 1814400 cyclic orders, "
            "above the limit of 181440\n")
        assert elapsed < 0.5

    @pytest.mark.parametrize("d", [1000, 5000])
    def test_huge_dipole_check_is_three(self, tmp_path, capsys, d):
        """On a regular gem the dipole suite reads the f-vector before it
        lists any site, so the f-vector limit refuses the dimension."""
        import time

        path = self.two_vertex_gem(tmp_path / "sphere.gem", d, d + 1)
        start = time.perf_counter()
        code = main(["--json", "check", "--suite", "dipole", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: dimension {d} has 2^{d + 1} color sets, above the "
            "f-vector limit of dimension 15\n")
        assert elapsed < 0.5

    @pytest.mark.parametrize("command,d", [
        ("fvector", 16), ("fvector", 5000), ("euler", 5000),
        ("contract", 5000),
        # 2^20001 has more digits than int() may turn into text
        ("fvector", 20000)])
    def test_huge_dimension_f_vector_is_three(self, tmp_path, capsys,
                                              command, d):
        """The f-vector walks all 2^(d+1) color sets, so it is refused
        above its limit before any residue is decomposed; a verified
        contraction reads the input's genus table first, and is refused
        by the order limit before the pass."""
        import time

        path = tmp_path / "huge.gem"
        path.write_text(json.dumps({"dimension": d, "vertices": 2, "edges": [
            [0, 1, c] for c in range(d + 1)]}))
        out = tmp_path / "out.gem"
        argv = ["--json", command, str(path)]
        if command == "contract":
            argv += ["-o", str(out)]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            f"error: dimension {d} has 2^{d + 1} color sets, above the "
            "f-vector limit of dimension 15\n" if command != "contract" else
            f"error: dimension {d} has more than 1814400 cyclic orders, "
            "above the limit of 181440\n")
        assert elapsed < 0.5

    def test_f_vector_limit_still_answers(self, tmp_path, capsys):
        from math import comb

        from gemkit import order_two_gem

        path = tmp_path / "s15.gem"
        write_gem(order_two_gem(15), path)
        assert main(["--json", "fvector", str(path)]) == 0
        # every nonempty color set of the two vertices is one residue
        assert json.loads(capsys.readouterr().out)["f_vector"] == [
            comb(16, h + 1) for h in range(15)] + [2]

    @pytest.mark.parametrize("limit,code", [(59, 3), (60, 0)])
    def test_order_limit(self, tmp_path, capsys, monkeypatch, limit, code):
        from gemkit import invariants, random_boundary_gem

        path = tmp_path / "d5.gem"
        write_gem(random_boundary_gem(5, 3, 1, seed=5), path)
        monkeypatch.setattr(invariants, "_MAX_ORDERS", limit)
        assert main(["--json", "info", str(path)]) == code
        if code == 3:
            assert capsys.readouterr().err == (
                "error: dimension 5 has 60 cyclic orders, above the limit "
                "of 59\n")

    def test_usage_error_returns_two_in_process(self, capsys):
        assert main(["info"]) == 2
        assert "usage: gemkit info" in capsys.readouterr().err

    def test_help_returns_zero_in_process(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: gemkit")

    def test_unexpected_exception_is_four(self, capsys, monkeypatch):
        from gemkit import cli

        def broken(graph):
            raise RuntimeError("boom")

        # the euler command now fails inside, as a bug would
        monkeypatch.setattr(cli, "euler_characteristic", broken)
        code = main(["--json", "euler", str(GEMS / "s4_2.gem")])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case", [
        "missing", "directory", "not_utf8", "scan_directory", "add_missing",
        "output_directory_missing"])
    def test_unusable_path_is_two(self, tmp_path, capsys, case):
        (tmp_path / "dir.gem").mkdir()
        (tmp_path / "latin1.gem").write_bytes(b'{"name": "\xe9"}')
        argv = {
            "missing": ["info", str(tmp_path / "missing.gem")],
            "directory": ["info", str(tmp_path / "dir.gem")],
            "not_utf8": ["info", str(tmp_path / "latin1.gem")],
            "scan_directory": ["catalog", "scan", str(tmp_path / "dir.gem")],
            "add_missing": ["catalog", "add", str(tmp_path / "store.jsonl"),
                            str(tmp_path / "missing.gem")],
            "output_directory_missing": ["contract", str(GEMS / "s4_2.gem"),
                                         "-o", str(tmp_path / "no" / "out.gem")],
        }[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"dimension": 4, "vertices": %s, "edges": []}' % ("1" * 5001),
        '{"dimension": 4, "vertices": 2, "edges": [], "metadata": {"a": %s%s}}'
        % ("[" * 100_000, "]" * 100_000),
    ], ids=["long_integer", "deep_nesting"])
    def test_json_past_a_reader_limit_is_two(self, tmp_path, capsys, text):
        path = tmp_path / "hostile.gem"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: JSON past a reader limit: ")

    def test_deep_store_line_is_corrupt(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        for name in ("s4_2", "b4_2"):
            assert main(["catalog", "add", str(store), str(GEMS / f"{name}.gem"),
                         "--name", name]) == 0
            if name == "s4_2":
                with store.open("a") as fh:
                    fh.write("[" * 100_000 + "]" * 100_000 + "\n")
        capsys.readouterr()
        for _ in range(2):  # the second scan reads the store's index
            assert main(["--json", "catalog", "scan", str(store)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert [r["name"] for r in payload["records"]] == ["s4_2", "b4_2"]
            assert payload["corrupt_lines"] == [2]

    def test_record_without_a_text_digest_scans(self, tmp_path, capsys):
        """The human scan shows '-' for a record with no digest or one that
        is not text, as it does for no name, and exits 0; the JSON scan
        returns the records as stored."""
        store = tmp_path / "store.jsonl"
        store.write_text('{"x": 1}\n{"digest": 5, "name": "five"}\n')
        assert main(["catalog", "scan", str(store)]) == 0
        assert capsys.readouterr().out == (
            "2 record(s)\n"
            "  -  -  rho_min=None omega_G=None\n"
            "  -  five  rho_min=None omega_G=None\n")
        assert main(["--json", "catalog", "scan", str(store)]) == 0
        assert capsys.readouterr().out == (
            '{"action":"scan","command":"catalog","corrupt_lines":[],"count":2,'
            '"ok":true,"records":[{"x":1},{"digest":5,"name":"five"}]}\n')

    def test_huge_exponent_filter_is_two_before_the_store(self, tmp_path,
                                                          capsys):
        # the store is a directory: reading it would fail with another error
        argv = ["catalog", "scan", str(tmp_path), "--where", "chi<1e100000"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: filter on 'chi': the value's exponent is above 4300\n")

    @pytest.mark.parametrize("case", [
        "scan_file", "scan_name", "add_where", "dipoles_output", "dipoles_name"])
    def test_ignored_argument_is_two(self, tmp_path, capsys, case):
        """An argument the command would do nothing with is refused, and
        nothing is written."""
        gem, store = str(GEMS / "b4_2.gem"), tmp_path / "store.jsonl"
        out = tmp_path / "out.gem"
        store.write_bytes(b"")
        argv, message = {
            "scan_file": (["catalog", "scan", str(store), gem],
                          f"catalog scan takes no gem FILE, got {gem!r}"),
            "scan_name": (["catalog", "scan", str(store), "--name", "x"],
                          "catalog scan takes no --name"),
            "add_where": (["catalog", "add", str(store), gem,
                           "--where", "regular=true"],
                          "catalog add takes no --where"),
            "dipoles_output": (["dipoles", gem, "-o", str(out)],
                               "-o/--output needs --cancel"),
            "dipoles_name": (["dipoles", gem, "--name", "x"],
                             "--name needs --cancel"),
        }[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert store.read_bytes() == b"" and not out.exists()

    @pytest.mark.parametrize("case", ["index_past_end", "index_negative",
                                      "no_output"])
    def test_refused_cancellation_is_two(self, tmp_path, capsys, case):
        """A site index out of range, or ``--cancel`` without ``-o``, is
        refused after the listing, and nothing is printed or written."""
        out = tmp_path / "out.gem"
        argv, message = {
            "index_past_end": (["--cancel", "8", "-o", str(out)],
                               "no dipole with index 8"),
            "index_negative": (["--cancel", "-1", "-o", str(out)],
                               "no dipole with index -1"),
            "no_output": (["--cancel", "0"], "--cancel needs -o OUT"),
        }[case]
        assert main(["--json", "dipoles", str(GEMS / "shell.gem"), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("pair", ["a,b", "0", "0,1,2", "1.0,2"])
    def test_pi1_pair_of_non_integers_is_two(self, capsys, pair):
        assert main(["--json", "pi1", str(GEMS / "k33.gem"), "--pair", pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --pair wants I,J with integers, got {pair!r}\n")

    def test_catalog_add_without_file_is_two(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        assert main(["--json", "catalog", "add", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: catalog add needs a gem FILE\n"
        assert not store.exists()

    def test_bound_violation_is_one(self):
        code, _, _ = run_cli("bound", str(GEMS / "b4_2_regularized.gem"),
                             "--chi", "1", "--m", "3", "--mhat", "0", "--h", "1")
        assert code == 1


class TestDeterminism:
    COMMANDS = [
        ("--json", "info", "gems/b4_2.gem"),
        ("--json", "genus", "gems/k33.gem", "--all-perms"),
        ("--json", "fvector", "gems/s4_2.gem"),
        ("--json", "check", "gems/b4_2.gem", "--suite", "corollary"),
        ("--json", "check", "gems/s4_2.gem", "--suite", "omega"),
        ("--json", "pi1", "gems/k33.gem", "--pair", "0,1", "--simplify"),
        ("--json", "bound", "gems/b4_2_regularized.gem",
         "--chi", "1", "--m", "0", "--mhat", "0", "--h", "1", "--semisimple"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[1])
    def test_byte_identical_across_runs_and_hash_seeds(self, argv):
        code1, out1, _ = run_cli(*argv, hashseed="1")
        code2, out2, _ = run_cli(*argv, hashseed="271828")
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)  # well-formed

    def test_export_dot_bytes_stable(self, tmp_path):
        out1, out2 = tmp_path / "a.dot", tmp_path / "b.dot"
        run_cli("export-dot", str(GEMS / "shell_h2.gem"), "-o", str(out1),
                hashseed="5")
        run_cli("export-dot", str(GEMS / "shell_h2.gem"), "-o", str(out2),
                hashseed="99")
        assert out1.read_bytes() == out2.read_bytes()


class TestGolden:
    CASES = [
        ("info_b4_2.json", ("--json", "info", "gems/b4_2.gem")),
        ("genus_k33.json", ("--json", "genus", "gems/k33.gem", "--all-perms")),
        ("check_lemma_b4_2.json",
         ("--json", "check", "gems/b4_2.gem", "--suite", "lemma")),
        ("bound_pipeline.json",
         ("--json", "bound", str(GOLDEN / "b4_pipeline.gem"),
          "--chi", "1", "--m", "0", "--mhat", "0", "--h", "1", "--semisimple")),
        ("info_d6_boundary.json",
         ("--json", "info", str(GOLDEN / "info_d6_boundary.gem"))),
        # random_boundary_gem(7, 4, 2, seed=7): 2520 orders
        ("info_d7_boundary.json",
         ("--json", "info", str(GOLDEN / "info_d7_boundary.gem"))),
        # random_gem(7, 4, seed=7): omega_G and a 2520-order table
        ("info_d7_regular.json",
         ("--json", "info", str(GOLDEN / "info_d7_regular.gem"))),
        ("pi1_k33.json", ("--json", "pi1", "gems/k33.gem", "--pair", "0,1")),
        ("pi1_d3_03.json",
         ("--json", "pi1", str(GOLDEN / "pi1_d3.gem"), "--pair", "0,3")),
        ("pi1_d3_03_simplified.json",
         ("--json", "pi1", str(GOLDEN / "pi1_d3.gem"), "--pair", "0,3", "--simplify")),
        ("pi1_d3_23_simplified.json",
         ("--json", "pi1", str(GOLDEN / "pi1_d3.gem"), "--pair", "2,3", "--simplify")),
        ("check_omega_s4_2.json",
         ("--json", "check", "gems/s4_2.gem", "--suite", "omega")),
        ("check_corollary_shell.json",
         ("--json", "check", "gems/shell.gem", "--suite", "corollary")),
        # random_boundary_gem(4, 4, 2, seed=4): twelve transfer cases per
        # color have no paper form
        ("check_lemma_rb4.json",
         ("--json", "check", str(GOLDEN / "check_lemma_rb4.gem"),
          "--suite", "lemma")),
        ("dipoles_shell.json", ("--json", "dipoles", "gems/shell.gem")),
        ("check_dipole_shell.json",
         ("--json", "check", "gems/shell.gem", "--suite", "dipole")),
        ("check_dipole_shell_h2.json",
         ("--json", "check", "gems/shell_h2.gem", "--suite", "dipole")),
        # grow_by_insertions(order_two_gem(4), 5, random.Random(14)): 12
        # vertices, regular
        ("check_dipole_grown.json",
         ("--json", "check", str(GOLDEN / "check_dipole_grown.gem"),
          "--suite", "dipole")),
    ]

    @pytest.mark.parametrize("golden,argv", CASES, ids=lambda c: str(c)[:24])
    def test_matches_golden(self, golden, argv):
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_bytes()

    def test_failing_check_matches_golden(self):
        # full_contraction(random_gem(4, 3, seed=0), verify=False) is no
        # singular manifold: the Dehn-Sommerville relation fails
        code, out, _ = run_cli("--json", "check",
                               str(GOLDEN / "check_dehn_contracted.gem"),
                               "--suite", "dehn")
        assert code == 1
        assert out == (GOLDEN / "check_dehn_contracted.json").read_bytes()

    def test_catalog_matches_golden(self, tmp_path):
        """``catalog add`` of every bundled gem into an empty store, then
        the two scan filters of the survey benchmark."""
        store = str(tmp_path / "store.jsonl")
        out = b""
        for gem in sorted(GEMS.glob("*.gem")):
            code, text, _ = run_cli("--json", "catalog", "add", store, str(gem))
            assert code == 0
            out += text
        for where in ("regular=true", "boundary_components>=1"):
            code, text, _ = run_cli("--json", "catalog", "scan", store,
                                    "--where", where)
            assert code == 0
            out += text
        assert out == (GOLDEN / "catalog_bundled.jsonl").read_bytes()

    @pytest.mark.parametrize("gem", ["shell", "shell_h2"])
    def test_regularize_matches_golden(self, gem, tmp_path):
        """``regularize`` with every singular color: each payload without
        its ``output``, then the gem it wrote."""
        out = b""
        for c in range(4):
            path = tmp_path / f"color{c}.gem"
            code, text, _ = run_cli("--json", "regularize", f"gems/{gem}.gem",
                                    "--singular-color", str(c), "-o", str(path))
            assert code == 0
            payload = json.loads(text)
            assert payload.pop("output") == str(path)
            out += json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode() + b"\n"
            out += path.read_bytes()
        assert out == (GOLDEN / f"regularize_{gem}.txt").read_bytes()

    @pytest.mark.parametrize("gem,sites", [("shell", 8), ("shell_h2", 6)])
    def test_dipoles_cancel_matches_golden(self, gem, sites, tmp_path, capsys):
        """``dipoles --cancel`` at every site index: each payload without
        its ``output``, then the gem it wrote.  Sites with one boundary
        end drop the final-color edge of the other."""
        out = b""
        for k in range(sites):
            path = tmp_path / f"site{k}.gem"
            assert main(["--json", "dipoles", f"gems/{gem}.gem",
                         "--cancel", str(k), "-o", str(path)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["sites"]) == sites
            assert payload.pop("output") == str(path)
            out += json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode() + b"\n"
            out += path.read_bytes()
        assert out == (GOLDEN / f"dipoles_cancel_{gem}.txt").read_bytes()

    def test_malformed_validate_matches_golden(self, tmp_path, capsys):
        """``validate`` on each malformed gem of ``malformed.CASES``: its
        name, exit code and stderr line, as the CI step prints them; none
        is an internal error, and the base gem is valid."""
        lines = []
        for path in malformed.write_cases(tmp_path):
            code = main(["validate", str(path)])
            assert code in (2, 3)
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            lines.append(f"{path.stem} {code} {err}")
        assert "".join(lines) == (GOLDEN / "malformed_validate.txt").read_text()
        base = malformed.BASE
        assert validate(base["dimension"], base["vertices"], base["edges"])


class TestPipelines:
    def test_regularize_contract_roundtrip(self, tmp_path):
        reg = tmp_path / "reg.gem"
        con = tmp_path / "con.gem"
        code, _, _ = run_cli("regularize", str(GEMS / "b4_2.gem"),
                             "--singular-color", "2", "-o", str(reg))
        assert code == 0
        code, _, _ = run_cli("contract", str(reg), "-o", str(con))
        assert code == 0
        code, out, _ = run_cli("--json", "euler", str(con))
        assert json.loads(out)["chi"] == 2

    @pytest.mark.parametrize("gem", ["shell.gem", "shell_h2.gem"])
    def test_demo_on_shell_gems(self, gem):
        """Full contraction merges a shell's singular vertices, so the
        semi-simplicity check does not apply; the bound still holds."""
        proc = subprocess.run(
            [sys.executable, "scripts/demo_pipeline.py", f"gems/{gem}", "--chi", "0"],
            capture_output=True, text=True, cwd=ROOT)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert ("semi-simple: not applicable (expected 2 components without "
                "color 4, got 1)\n") in proc.stdout
        assert "genus bound 0: met with equality\n" in proc.stdout

    def test_boundary_component_extraction(self, tmp_path):
        out = tmp_path / "bd.gem"
        code, _, _ = run_cli("boundary", str(GEMS / "shell_h2.gem"),
                             "--component", "1", "-o", str(out))
        assert code == 0
        code, payload, _ = run_cli("--json", "validate", str(out))
        assert code == 0
        assert json.loads(payload)["dimension"] == 3

    def test_dipole_list_and_cancel(self, tmp_path):
        grown = tmp_path / "grown.gem"
        code, out, _ = run_cli("--json", "dipoles", str(GEMS / "s4_2.gem"))
        assert json.loads(out)["sites"] == []
        # grow then cancel through the CLI
        from gemkit import order_two_gem
        from gemkit.moves import insert_1_dipole
        g, _, _ = insert_1_dipole(order_two_gem(4), (0, 1), 1)
        write_gem(g, grown)
        smaller = tmp_path / "smaller.gem"
        code, out, _ = run_cli("--json", "dipoles", str(grown),
                               "--cancel", "0", "-o", str(smaller))
        assert code == 0
        code, out, _ = run_cli("--json", "validate", str(smaller))
        assert json.loads(out)["vertices"] == 2

    def test_catalog_flow(self, tmp_path):
        store = tmp_path / "store.jsonl"
        for name in ("s4_2", "b4_2", "k33"):
            code, _, _ = run_cli("catalog", "add", str(store),
                                 str(GEMS / f"{name}.gem"), "--name", name)
            assert code == 0
        run_cli("catalog", "add", str(store), str(GEMS / "s4_2.gem"))
        code, out, _ = run_cli("--json", "catalog", "scan", str(store),
                               "--where", "rho_min=0")
        doc = json.loads(out)
        assert doc["count"] == 2
        assert {r["name"] for r in doc["records"]} == {"s4_2", "b4_2"}

    def test_check_dipole_suite(self, tmp_path):
        from gemkit import order_two_gem
        from gemkit.moves import insert_1_dipole
        g, _, _ = insert_1_dipole(order_two_gem(4), (0, 1), 3)
        path = tmp_path / "grown.gem"
        write_gem(g, path)
        code, out, _ = run_cli("--json", "check", str(path), "--suite", "dipole")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and len(doc["sites"]) == 2

    @pytest.mark.parametrize("swap", [False, True])
    def test_dipole_suite_invariants_as_defined(self, monkeypatch, swap):
        """chi and rho invariance, read from the f-vector delta and the
        doubled genera, answer as Euler characteristics and genus tables
        compared whole; with ``swap``, some cancellations are replaced by
        other gems of the dimension, so that some invariants fail."""
        import random

        from corpus import grow_by_insertions
        from gemkit import moves, order_two_gem, random_gem
        from gemkit.cli import _dipole_suite
        from gemkit.invariants import euler_characteristic, rho_table
        real = moves.cancel_1_dipole

        def cancel(graph, site):
            others = [real(graph, site), order_two_gem(graph.dimension),
                      random_gem(graph.dimension, 2, seed=site.vertices[0])]
            return others[sum(site.vertices) % 3 if swap else 0]

        monkeypatch.setattr(moves, "cancel_1_dipole", cancel)
        gems = ([grow_by_insertions(order_two_gem(d), 4, random.Random(d))
                 for d in (2, 3, 4, 5)]
                + [random_gem(3, 8, seed=k) for k in (2, 3)])
        seen = set()
        for g in gems:
            sites = moves.find_1_dipoles(g)
            entries = _dipole_suite(g)[0]["sites"]
            assert sites and len(entries) == len(sites)
            for site, entry in zip(sites, entries):
                after = cancel(g, site)
                expected = (euler_characteristic(after) == euler_characteristic(g),
                            rho_table(after) == rho_table(g))
                assert (entry["chi_invariant"], entry["rho_invariant"]) == expected
                seen.add(expected)
        assert seen == ({(False, False), (True, False), (True, True)} if swap
                        else {(True, True)})

    def test_in_process_main_matches_subprocess(self, capsys):
        code = main(["--json", "euler", str(GEMS / "s4_2.gem")])
        captured = capsys.readouterr()
        assert code == 0
        sub_code, sub_out, _ = run_cli("--json", "euler", str(GEMS / "s4_2.gem"))
        assert captured.out.encode() == sub_out

    def test_payload_json_matches_one_call(self, tmp_path):
        from gemkit import ball_gem, order_two_gem
        from gemkit.gemio import _payload_json, catalog_add, catalog_scan

        store = tmp_path / "store.jsonl"
        for graph in (order_two_gem(4), ball_gem(4), ball_gem(3)):
            catalog_add(store, graph)
        records, _ = catalog_scan(store)
        payload = {"command": "catalog", "ok": True, "records": records,
                   "corrupt_lines": [], "pair": (0, 1), "name": "b\u00e9",
                   "nested": {"z": [[1, 2], {"y": None}], "a": 0.5}}
        assert _payload_json(payload) == json.dumps(
            payload, sort_keys=True, separators=(",", ":"))

    def test_payload_json_splices_encoded_text(self):
        from gemkit.gemio import _payload_json
        from gemkit.invariants import JSONText

        rho = {"0,1,2": "1/2", "0,2,1": "0"}
        payload = {"command": "info", "chi": 2, "records": [{"b": 1, "a": None}]}
        encoded = _payload_json(
            {**payload, "rho": JSONText(json.dumps(rho, separators=(",", ":")))})
        assert encoded == json.dumps({**payload, "rho": rho}, sort_keys=True,
                                     separators=(",", ":"))

    @pytest.mark.parametrize("payload", [
        {},
        {"b": _json_text([1, {"c": None}]), "a": _json_text({"x": "\u00e9"})},
        {"empty": [], "n": 1},
        {"records": [{"b": 1, "a": None}, _json_text({"z": [2]}), {"c": [3]},
                     _json_text("t")]},
        {"a": _json_text(3), "b": 1, "c": None, "d": [_json_text(4)], "e": 5},
    ], ids=["empty", "spliced-only", "empty-list", "mixed-list",
            "run-after-spliced"])
    def test_payload_json_edge_cases(self, payload):
        """The pieces of the one joined list meet at the right commas and
        brackets: no piece, spliced values only, an empty list, a list of
        dicts and text, and a run after a spliced value."""
        from gemkit.gemio import _canonical, _payload_json
        from gemkit.invariants import JSONText

        def decoded(value):
            if isinstance(value, JSONText):
                return json.loads(value)
            if isinstance(value, list):
                return [decoded(item) for item in value]
            return value

        assert _payload_json(payload) == _canonical(
            {key: decoded(value) for key, value in payload.items()})

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), PAYLOAD_VALUES, max_size=8))
    def test_payload_json_encodes_runs(self, payload):
        """``_payload_json`` gives ``_canonical`` of the payload with each
        ``JSONText`` decoded: one call per run of plain values, a
        ``JSONText`` value spliced, a list of plain scalars encoded in one
        call, and any other list one item at a time, so no call sees a
        whole top-level list that holds text, dicts or lists."""
        from gemkit import gemio
        from gemkit.gemio import _canonical
        from gemkit.invariants import JSONText

        def decoded(value):
            if isinstance(value, JSONText):
                return json.loads(value)
            if isinstance(value, list):
                return [decoded(item) for item in value]
            return value

        seen = []

        def recording(value):
            seen.append(value)
            return _canonical(value)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gemio, "_canonical", recording)
            text = gemio._payload_json(payload)
        assert text == _canonical({k: decoded(v) for k, v in payload.items()})

        def itemwise(value):
            return isinstance(value, list) and any(
                isinstance(item, (JSONText, dict, list)) for item in value)

        spliced = [v for v in payload.values() if isinstance(v, JSONText) or itemwise(v)]
        for arg in seen:
            assert not isinstance(arg, JSONText)
            assert not any(arg is v for v in spliced)
            if isinstance(arg, dict):
                assert not any(w is v for w in arg.values() for v in spliced)
        calls, in_run = 0, False
        for _, value in sorted(payload.items()):
            plain = not isinstance(value, (JSONText, list))
            if not plain:  # its key, and a plain list or each item not text
                calls += 1 + (sum(not isinstance(item, JSONText)
                                  for item in value) if itemwise(value)
                              else isinstance(value, list))
            elif not in_run:
                calls += 1
            in_run = plain
        assert len(seen) == calls

    def test_info_encodes_few_runs(self, capsys, monkeypatch):
        """``info`` encodes its plain values in three runs around the
        f-vector, encoded in one call, and the spliced count and genus
        tables."""
        from gemkit import gemio
        from gemkit.gemio import _canonical

        seen = []
        monkeypatch.setattr(gemio, "_canonical",
                            lambda value: seen.append(value) or _canonical(value))
        assert main(["--json", "info", str(GEMS / "b4_2.gem")]) == 0
        payload = json.loads(capsys.readouterr().out)
        # three runs, the keys "f_vector", "g_pairs", "g_triples" and
        # "rho", and the f-vector
        assert len(seen) == 3 + 4 + 1
        assert payload["f_vector"] in seen

    # ``gemkit info`` on the bundled gems, as printed without --json
    INFO_LINES = {
        "b4_2": ("dimension 4, 2p = 2 (p_bar=1, p_dot=0)",
                 "regular: False, bipartite: True, boundary components: 1",
                 "f-vector: (5, 10, 10, 6, 2), chi = 1",
                 "rho_min = 0",
                 "g (pairs): 01:1/1, 02:1/1, 03:1/1, 04:1/0, 12:1/1, 13:1/1, "
                 "14:1/0, 23:1/1, 24:1/0, 34:1/0"),
        "b4_2_regularized": (
            "dimension 4, 2p = 2 (p_bar=0, p_dot=1)",
            "regular: True, bipartite: True, boundary components: 0",
            "f-vector: (5, 10, 10, 5, 2), chi = 2",
            "rho_min = 0, omega_G = 0",
            "g (pairs): 01:1/1, 02:1/1, 03:1/1, 04:1/1, 12:1/1, 13:1/1, "
            "14:1/1, 23:1/1, 24:1/1, 34:1/1"),
        "k33": ("dimension 2, 2p = 6 (p_bar=0, p_dot=3)",
                "regular: True, bipartite: True, boundary components: 0",
                "f-vector: (3, 9, 6), chi = 0",
                "rho_min = 1, omega_G = 1",
                "g (pairs): 01:1/1, 02:1/1, 12:1/1"),
        "s4_2": ("dimension 4, 2p = 2 (p_bar=0, p_dot=1)",
                 "regular: True, bipartite: True, boundary components: 0",
                 "f-vector: (5, 10, 10, 5, 2), chi = 2",
                 "rho_min = 0, omega_G = 0",
                 "g (pairs): 01:1/1, 02:1/1, 03:1/1, 04:1/1, 12:1/1, 13:1/1, "
                 "14:1/1, 23:1/1, 24:1/1, 34:1/1"),
        "shell": ("dimension 4, 2p = 10 (p_bar=2, p_dot=3)",
                  "regular: False, bipartite: True, boundary components: 2",
                  "f-vector: (9, 26, 34, 27, 10), chi = 0",
                  "rho_min = 0",
                  "g (pairs): 01:3/3, 02:3/3, 03:3/3, 04:4/2, 12:3/3, 13:3/3, "
                  "14:4/2, 23:3/3, 24:4/2, 34:4/2"),
        "shell_h2": ("dimension 4, 2p = 8 (p_bar=2, p_dot=2)",
                     "regular: False, bipartite: True, boundary components: 2",
                     "f-vector: (8, 22, 28, 22, 8), chi = 0",
                     "rho_min = 0",
                     "g (pairs): 01:1/1, 02:2/2, 03:2/2, 04:2/0, 12:3/3, "
                     "13:3/3, 14:3/1, 23:4/4, 24:4/2, 34:4/2"),
    }

    @pytest.mark.parametrize("name", sorted(INFO_LINES))
    def test_info_human_lines(self, capsys, name):
        """The human lines, which ``--json`` does not build."""
        assert main(["info", str(GEMS / f"{name}.gem")]) == 0
        assert capsys.readouterr().out == "".join(
            line + "\n" for line in self.INFO_LINES[name])

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_genus_table_is_the_canonical_encoding(self, tmp_path, capsys, d):
        from gemkit import random_boundary_gem, random_gem, rho_table

        for k, graph in enumerate([random_gem(d, 3, seed=d),
                                   random_boundary_gem(d, 3, 1, seed=d)]):
            path = tmp_path / f"g{k}.gem"
            write_gem(graph, path)
            table = rho_table(graph)
            best = min(table.values())
            expected = {"command": "genus", "ok": True, "rho_min": str(best),
                        "argmin": [eps.label() for eps, v in table.items()
                                   if v == best],
                        "table": {eps.label(): str(v) for eps, v in table.items()}}
            assert main(["--json", "genus", str(path), "--all-perms"]) == 0
            assert capsys.readouterr().out == json.dumps(
                expected, sort_keys=True, separators=(",", ":")) + "\n"

    def test_genus_all_perms_sweeps_once(self, capsys, monkeypatch):
        """The table is built once, by one sum over the sweep, for both
        the minimum and the table."""
        from gemkit import invariants

        sums = []
        real = invariants._doubled_row

        def counting(sweep, row, base, bipartite):
            sums.append(sweep.dimension)
            return real(sweep, row, base, bipartite)

        monkeypatch.setattr(invariants, "_doubled_row", counting)
        argv = ["--json", "genus", str(GEMS / "k33.gem"), "--all-perms"]
        assert main(argv) == 0
        assert len(sums) == 1
        assert capsys.readouterr().out.encode() == run_cli(*argv)[1]

    def test_genus_all_perms_human_lines_are_the_table(self, capsys):
        """Without --json, the minimum, then one line per order in the
        JSON table's order."""
        path = str(GOLDEN / "check_lemma_rb4.gem")
        assert main(["--json", "genus", path, "--all-perms"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["genus", path, "--all-perms"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (f"rho = {payload['rho_min']} (attained by "
                            f"{len(payload['argmin'])} cyclic order(s))")
        assert lines[1:] == [f"  ({label}) -> {value}"
                             for label, value in payload["table"].items()]
        assert len(lines) == 13

    def test_pi1_abelianizes_once(self, capsys, monkeypatch):
        from gemkit import pi1

        calls = []
        real = pi1.abelianization_rank

        def counting(pres):
            calls.append(pres)
            return real(pres)

        monkeypatch.setattr(pi1, "abelianization_rank", counting)
        argv = ["pi1", str(GEMS / "k33.gem"), "--pair", "0,1", "--simplify"]
        assert main(argv) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.encode() == run_cli(*argv)[1]

    @pytest.mark.parametrize("simplify", [True, False])
    def test_pi1_reads_upper_bound_from_tietze(self, capsys, monkeypatch,
                                               simplify):
        """The upper rank bound is the generator count of the printed
        presentation, simplified: with --simplify, of its own fixed
        point."""
        from gemkit import pi1

        calls = []
        real = pi1.tietze_simplify

        def counting(pres, *args):
            calls.append(real(pres, *args))
            return calls[-1]

        monkeypatch.setattr(pi1, "tietze_simplify", counting)
        argv = ["--json", "pi1", str(GEMS / "k33.gem"), "--pair", "0,1"]
        argv += ["--simplify"] * simplify
        assert main(argv) == 0
        assert len(calls) == 1 + simplify
        out = capsys.readouterr().out
        assert json.loads(out)["rank_bounds"][1] == calls[-1].num_generators
        assert out.encode() == run_cli(*argv)[1]

    def test_info_above_the_sweep_cap_builds_once(self, tmp_path, capsys,
                                                  monkeypatch):
        from gemkit import invariants, random_boundary_gem

        path = tmp_path / "d5.gem"
        write_gem(random_boundary_gem(5, 3, 1, seed=5), path)
        argv = ["--json", "info", str(path)]
        assert main(argv) == 0
        default = capsys.readouterr().out
        builds = []
        real = invariants._build_sweep

        def counting(d):
            builds.append(d)
            return real(d)

        monkeypatch.setattr(invariants, "_SWEEP_CACHE_MAX_D", 4)
        monkeypatch.setattr(invariants, "_sweeps", {})
        monkeypatch.setattr(invariants, "_build_sweep", counting)
        assert main(argv) == 0
        assert builds == [5]
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_info_builds_no_order_object(self, tmp_path, capsys, monkeypatch, d):
        from gemkit import invariants, random_boundary_gem

        path = tmp_path / "g.gem"
        write_gem(random_boundary_gem(d, 3, 1, seed=d), path)
        monkeypatch.setattr(invariants, "_sweeps", {})
        assert main(["--json", "info", str(path)]) == 0
        assert "orders" not in vars(invariants._sweeps[d])
        assert len(json.loads(capsys.readouterr().out)["rho"]) == len(
            invariants._sweeps[d].orders)

    def test_check_names_first_mismatch(self, capsys, monkeypatch):
        from dataclasses import replace

        from gemkit import checks

        real = checks.check_regularization_identities

        def mismatched(graph, color):
            report = real(graph, color)
            if color == 1:  # one lemma count and one universal transfer
                lhs, rhs = report.lemma_mixed[0]
                case = report.transfer[2]
                return replace(
                    report, lemma_mixed={**report.lemma_mixed, 0: (lhs, rhs + 1)},
                    lemma_ok=False, transfer_ok=False, transfer=(
                        *report.transfer[:2],
                        replace(case, universal_rhs=case.universal_rhs + 1,
                                universal_ok=False),
                        *report.transfer[3:]))
            if color == 3:  # the singular count and one paper transfer
                capped, g_cd, predicted = report.lemma_singular
                case = report.transfer[0]
                return replace(
                    report, lemma_singular=(capped, g_cd, predicted + 2),
                    lemma_ok=False, transfer_ok=False, transfer=(
                        replace(case, paper_rhs=case.paper_rhs - 1,
                                paper_ok=False), *report.transfer[1:]))
            return report

        gem = str(GEMS / "b4_2.gem")
        one, three = real(read_gem(gem), 1), real(read_gem(gem), 3)
        monkeypatch.setattr(checks, "check_regularization_identities", mismatched)
        assert main(["check", gem, "--suite", "lemma"]) == 1
        lhs, rhs = one.lemma_mixed[0]
        capped, g_cd, predicted = three.lemma_singular
        assert capsys.readouterr().out.splitlines() == [
            "lemma identities: VIOLATED for color(s) 1, 3 of 4",
            f"  color 1: g_04 = {lhs} after capping, predicted {rhs + 1}",
            f"  color 3: lemma_singular = ({capped}, {g_cd}, {predicted + 2})"]
        assert main(["check", gem, "--suite", "corollary"]) == 1
        u, p = one.transfer[2], three.transfer[0]
        assert capsys.readouterr().out.splitlines() == [
            "corollary identities: VIOLATED for color(s) 1, 3 of 4",
            f"  color 1: order {u.eps.label()}: rho_cap = {u.rho_capped}, "
            f"universal rhs = {u.universal_rhs + 1}",
            f"  color 3: order {p.eps.label()}: rho_cap = {p.rho_capped}, "
            f"paper rhs = {p.paper_rhs - 1}"]

    def test_omega_failure_names_first_differing_order(self, capsys, monkeypatch):
        from dataclasses import replace
        from fractions import Fraction

        from gemkit import checks

        real = checks.check_omega_pairing
        gem = str(GEMS / "s4_2.gem")
        orders = list(real(read_gem(gem)).pair_sums)
        reports = {
            # two later orders differ; the first of them in sweep order is named
            "sums": lambda r: replace(
                r, sum_constant=False, pair_sums={
                    **r.pair_sums, orders[5]: Fraction(3, 2), orders[9]: Fraction(7)}),
            # the sums agree, and only six times the sum misses omega_G
            "factor": lambda r: replace(r, factor_ok=False),
        }
        for name, broken in reports.items():
            monkeypatch.setattr(checks, "check_omega_pairing",
                                lambda graph, broken=broken: broken(real(graph)))
            assert main(["check", gem, "--suite", "omega"]) == 1
            first = orders[0].label()
            assert capsys.readouterr().out.splitlines() == [
                "omega pairing: omega_G = 0, VIOLATED",
                f"  order {orders[5].label()}: pair sum 3/2, first order "
                f"{first}: pair sum 0" if name == "sums"
                else "  6 * pair sum = 0, omega_G = 0"]
            assert main(["--json", "check", gem, "--suite", "omega"]) == 1
            payload = json.loads(capsys.readouterr().out)
            assert payload == {"command": "check", "suite": "omega", "ok": False,
                               **checks._jsonable(broken(real(read_gem(gem))))}

    def test_dehn_failure_names_chi_and_triple_sum(self, capsys, monkeypatch):
        from gemkit import checks

        failing = checks.DehnSommervilleReport(lhs=2, rhs=4, chi=2, triple_sum=11)
        monkeypatch.setattr(checks, "check_dehn_sommerville", lambda graph: failing)
        gem = str(GEMS / "s4_2.gem")
        assert main(["check", gem, "--suite", "dehn"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "2p = 2, 6chi + 2*sum(g_ijk) - 30 = 4 (chi = 2, sum(g_ijk) = 11): "
            "VIOLATED"]
        assert main(["--json", "check", gem, "--suite", "dehn"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "command": "check", "suite": "dehn", "ok": False, "lhs": 2,
            "rhs": 4, "chi": 2, "triple_sum": 11}
        monkeypatch.undo()
        assert main(["check", gem, "--suite", "dehn"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "2p = 2, 6chi + 2*sum(g_ijk) - 30 = 2: holds"]

    def test_dipole_failure_names_the_site(self, capsys, monkeypatch):
        """A cancellation that leaves the gem as it is moves only the
        f-vector: the first such site, in site order, is named with it,
        and ``--json`` keeps its form."""
        from gemkit import moves

        gem = str(GOLDEN / "check_dipole_grown.gem")
        assert main(["--json", "check", gem, "--suite", "dipole"]) == 0
        passing = json.loads(capsys.readouterr().out)
        sites = moves.find_1_dipoles(read_gem(gem))
        assert len(sites) > 3
        real = moves.cancel_1_dipole
        stuck = {sites[2], sites[3]}
        monkeypatch.setattr(moves, "cancel_1_dipole", lambda graph, site:
                            graph if site in stuck else real(graph, site))
        assert main(["check", gem, "--suite", "dipole"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"checked {len(sites)} dipole site(s)",
            "dipole invariances: VIOLATED",
            f"  first failing site: color {sites[2].color} at "
            f"{sites[2].vertices}; moved: f-delta"]
        assert main(["--json", "check", gem, "--suite", "dipole"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failing = {**passing, "ok": False, "sites": [
            {**entry, "f_delta": [0] * 5, "f_delta_ok": False}
            if k in (2, 3) else entry
            for k, entry in enumerate(passing["sites"])]}
        assert payload == failing

    def test_check_names_failing_colors(self, capsys, monkeypatch):
        from dataclasses import replace

        from gemkit import checks

        real = checks.check_regularization_identities

        def failing_at_two(graph, color):
            report = real(graph, color)
            return replace(report, lemma_ok=False) if color == 2 else report

        monkeypatch.setattr(checks, "check_regularization_identities",
                            failing_at_two)
        code = main(["check", str(GEMS / "b4_2.gem"), "--suite", "lemma"])
        assert code == 1
        assert capsys.readouterr().out.strip() == (
            "lemma identities: VIOLATED for color(s) 2 of 4")
        code = main(["check", str(GEMS / "b4_2.gem"), "--suite", "corollary"])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "corollary identities: hold for all 4 color choices")


def test_info_matches_the_oracle_on_seeded_gems(tmp_path, capsys):
    """``info``'s residue counts, f-vector, Euler characteristic and genus
    table on 300 seeded gems of d = 5..7 and p = 1..4, half with
    boundary."""
    rng = random.Random(577)
    gem = str(tmp_path / "info.gem")
    for k in range(300):
        d, p = rng.randint(5, 7), rng.randint(1, 4)
        seed = rng.randrange(2 ** 32)
        g = (random_boundary_gem(d, p, rng.randrange(p), seed=seed) if k % 2
             else random_gem(d, p, seed=seed))
        write_gem(g, gem)
        code = main(["--json", "info", gem])
        r = json.loads(capsys.readouterr().out)
        n, edges = g.num_vertices, list(g.edges())

        def counts(size):
            return {"".join(map(str, s)): [bf.count_components(n, edges, set(s)),
                                           bf.count_regular_components(n, edges, set(s))]
                    for s in combinations(range(d + 1), size)}

        fv = bf.f_vector(d, n, edges)
        want = {"g_pairs": counts(2), "g_triples": counts(3), "f_vector": list(fv),
                "chi": sum((-1) ** h * x for h, x in enumerate(fv))}
        # the genus at every order at d = 5 and 6; at d = 7 at 40 seeded
        # orders, the rest read off the printed table, whose labels must
        # be every order's, in order
        oracle = bf.rho_closed if g.is_regular else bf.rho_boundary
        orders = bf.cyclic_classes(d)
        sample = orders if d < 7 else random.Random(seed).sample(orders, 40)
        rho = {",".join(map(str, eps)): oracle(d, n, edges, eps) for eps in sample}
        printed = r.get("rho", {})
        if d == 7 and list(printed) == [",".join(map(str, eps)) for eps in orders]:
            rho = {**{label: Fraction(v) for label, v in printed.items()}, **rho}
        want["rho"] = {label: str(value) for label, value in rho.items()}
        want["rho_min"] = str(min(rho.values()))
        want["omega_g"] = str(sum(rho.values())) if g.is_regular else None
        where = f"gem {k} (d = {d}, p = {p})"
        assert code == 0, f"{where}: exit code {code}"
        for key, value in want.items():
            assert r.get(key) == value, f"{where}: info's {key} differs from the oracle"


class TestExitRule:
    """The exit code follows from the payload alone: 1 exactly when its
    ``"ok"`` is false, in human and ``--json`` mode alike."""

    GEMS = sorted(GEMS.glob("*.gem")) + [GOLDEN / "check_dehn_contracted.gem"]

    @staticmethod
    def argvs(gem, tmp_path):
        store, out = str(tmp_path / "store.jsonl"), str(tmp_path / "out")
        bound = ["bound", gem, "--chi", "1", "--mhat", "0", "--h", "1", "--m"]
        yield from (["validate", gem], ["info", gem], ["genus", gem],
                    ["gdegree", gem], ["fvector", gem], ["euler", gem],
                    ["boundary", gem, "-o", out],
                    ["regularize", gem, "--singular-color", "0", "-o", out],
                    ["dipoles", gem], ["contract", gem, "-o", out],
                    ["pi1", gem, "--pair", "0,1"],
                    [*bound, "0"], [*bound, "3"],
                    ["catalog", "add", store, gem], ["catalog", "scan", store],
                    ["export-dot", gem, "-o", out])
        for suite in ("lemma", "corollary", "omega", "dipole", "dehn"):
            yield ["check", gem, "--suite", suite]

    @pytest.mark.parametrize("gem", GEMS, ids=lambda p: p.name)
    def test_exit_one_exactly_when_not_ok(self, tmp_path, capsys, gem):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        seen = set()
        for argv in self.argvs(str(gem), tmp_path):
            code = main(argv)
            human = capsys.readouterr()
            assert main(["--json", *argv]) == code, argv
            out = capsys.readouterr().out
            if code in (0, 1):
                payload = json.loads(out)
                assert payload["command"] == argv[0]
                assert (code == 1) == (payload.get("ok") is False), argv
            else:  # an error: nothing on stdout in either mode
                assert out == human.out == "", argv
            seen.add(argv[0])
        assert seen == set(subparsers.choices)

    def test_failing_identity_is_one(self, capsys):
        argv = ["check", str(GOLDEN / "check_dehn_contracted.gem"), "--suite", "dehn"]
        assert main(argv) == main(["--json", *argv]) == 1
        assert '"ok":false' in capsys.readouterr().out


class TestSharedParser:
    """``main`` parses with one parser per process; every call must act
    as the only call of a fresh process."""

    def _in_process(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # usage errors exit from argparse
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode()

    def test_calls_do_not_leak_into_each_other(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        for name in ("s4_2", "b4_2", "k33"):
            assert main(["catalog", "add", str(store),
                         str(GEMS / f"{name}.gem"), "--name", name]) == 0
        capsys.readouterr()
        sequence = [
            ("--json", "catalog", "scan", str(store), "--where", "rho_min=0",
             "--where", "regular=true"),
            ("--json", "catalog", "scan", str(store)),
            ("--json", "genus", str(GEMS / "k33.gem"), "--all-perms"),
            ("--json", "genus", str(GEMS / "k33.gem")),
            ("--json", "genus"),                      # usage error: no FILE
            ("--json", "info", str(GEMS / "b4_2.gem")),
            ("--json", "check", str(GEMS / "b4_2.gem"), "--suite", "bogus"),
            ("--json", "genus", str(GEMS / "k33.gem")),
        ]
        results = [self._in_process(capsys, argv) for argv in sequence]
        assert [r[0] for r in results] == [0, 0, 0, 0, 2, 0, 2, 0]
        scan_filtered = json.loads(results[0][1])
        scan_all = json.loads(results[1][1])
        assert [r["name"] for r in scan_filtered["records"]] == ["s4_2"]
        assert scan_all["count"] == 3
        assert "table" in json.loads(results[2][1])
        assert "table" not in json.loads(results[3][1])
        for argv, result in zip(sequence, results):
            assert result == run_cli(*argv), argv
