"""The mutant gate in ``mutants.py``: every mutant still applies to the
source, and one of them is run and caught.  CI runs the whole list."""

import ast

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_applies(mutant):
    original = (mutants.ROOT / "src" / "gemkit" / mutant.module).read_text()
    mutated = mutants.mutated_source(mutant)
    assert mutated != original
    ast.parse(mutated)
    for node_id in mutant.tests:
        assert (mutants.ROOT / node_id.split("::")[0]).is_file()


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_tests_are_named_in_their_files(mutant):
    """Each node id names a class or function its file defines, so a test
    renamed away fails here, not only when the gate runs."""
    assert mutant.tests
    for node_id in mutant.tests:
        path, *names = node_id.split("::")
        tree = ast.parse((mutants.ROOT / path).read_text(encoding="utf-8"))
        qualname = ".".join(names).split("[")[0]
        mutants._find_function(tree, qualname)  # LookupError if missing


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_a_node_read_twice_is_refused():
    twice = mutants.Mutant("twice", "gemio.py", "_StoreIndex._add",
                           "self.lines", "0", (), "")
    with pytest.raises(LookupError, match="not one"):
        mutants.mutated_source(twice)


def test_each_listed_test_is_read_apart():
    """A listed test is caught by a failed case of its own, a method of a
    listed class, or its file failing to collect; one that passed reads
    None, whatever the others read."""
    stdout = ("...F\n"
              "FAILED tests/a.py::TestX::test_y[1] - AssertionError: no\n"
              "ERROR tests/b.py - ImportError: no\n"
              "1 failed, 3 passed, 1 error in 0.1s\n")
    tests = ("tests/a.py::TestX", "tests/a.py::TestX::test_y",
             "tests/a.py::TestX::test_yy", "tests/a.py::test_z",
             "tests/b.py::test_w")
    assert mutants._caught(tests, stdout) == {
        "tests/a.py::TestX": "tests/a.py::TestX::test_y[1]",
        "tests/a.py::TestX::test_y": "tests/a.py::TestX::test_y[1]",
        "tests/a.py::TestX::test_yy": None,
        "tests/a.py::test_z": None,
        "tests/b.py::test_w": "tests/b.py"}


def test_one_mutant_is_caught(tmp_path):
    mutant = {m.name: m for m in mutants.MUTANTS}["digest-map-without-bytes-check"]
    assert mutants.run(mutant, tmp_path) == {
        mutant.tests[0]: mutant.tests[0] + "[False]"}


def test_a_case_id_with_spaces_is_read_whole():
    stdout = ("FAILED tests/a.py::test_y[a b] - ValueError: x - y\n"
              "FAILED tests/a.py::test_z[c d]\n")
    tests = ("tests/a.py::test_y[a b]", "tests/a.py::test_z[c d]",
             "tests/a.py::test_y[a]")
    assert mutants._caught(tests, stdout) == {
        "tests/a.py::test_y[a b]": "tests/a.py::test_y[a b]",
        "tests/a.py::test_z[c d]": "tests/a.py::test_z[c d]",
        "tests/a.py::test_y[a]": None}
