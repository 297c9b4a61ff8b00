"""The catalog's store index against cold reads of the same bytes.

One index per process holds the whole lines at the start of the store
read last.  ``catalog scan`` decodes only the lines past them, and
``catalog add`` looks a digest up in it and searches only the bytes past
them; an add to a store the index covers whole puts its own line in.
Both must answer exactly as the line-by-line loops in ``catalog_oracle``
do, whatever happens to the file in between.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemkit import (
    ball_gem,
    gemio,
    order_two_gem,
    random_boundary_gem,
    random_gem,
)
from gemkit.cli import main
from gemkit.gemio import (
    _canonical,
    catalog_add,
    catalog_record,
    catalog_scan,
    gemfile_from_graph,
    read_gem,
    write_gem,
)

import catalog_oracle as oracle

GEMS = Path(__file__).resolve().parent.parent / "gems"

POOL = ([order_two_gem(3), order_two_gem(4), ball_gem(3), ball_gem(4)]
        + [random_gem(4, 3, seed=k) for k in range(2)]
        + [random_boundary_gem(4, 3, 1, seed=k) for k in range(2)])
RECORDS = [catalog_record(g, f"pool{k}") for k, g in enumerate(POOL)]
FILTERS = ((), ("regular=true",), ("boundary_components>=1",), ("chi<2",),
           ("name=pool1",), ("rho_min=0", "regular=true"), ("missing=1",),
           ("f_vector!=x",), ("regular!=false", "chi>=-100"))


def cli_scan(store, filters) -> str:
    where = [arg for expr in filters for arg in ("--where", expr)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", "catalog", "scan", str(store), *where])
    assert code == 0
    return out.getvalue()


def cli_add(store, k) -> str:
    """``gemkit --json catalog add`` of the pool's gem k as ``pool<k>``."""
    gem = Path(store).parent / f"pool{k}.gem"
    if not gem.exists():
        write_gem(POOL[k], gem)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", "catalog", "add", str(store), str(gem),
                     "--name", f"pool{k}"])
    assert code == 0
    return out.getvalue()


def assert_scan_matches_oracle(store, filters, cli_first):
    expected, expected_warnings = oracle.scan(store, filters)
    text = oracle.scan_text(store, filters)
    if cli_first:
        assert cli_scan(store, filters) == text
    records, warnings = catalog_scan(store, filters)
    assert records == expected
    assert ([(w.line_number, str(w)) for w in warnings]
            == [(w.line_number, str(w)) for w in expected_warnings])
    if not cli_first:
        assert cli_scan(store, filters) == text


STAMP = "2020-11-02T00:00:00+00:00"


def record_line(k: int, form: int, name: Optional[str] = None) -> bytes:
    """A stored record of the pool in one of the forms a store may hold,
    under another name if one is given."""
    record = RECORDS[k] if name is None else {**RECORDS[k], "name": name}
    stored = {**record, "added_at": STAMP}
    if form == 0:    # as catalog add writes it
        text = _canonical(stored)
    elif form == 1:  # as older catalog add wrote it
        text = json.dumps(stored, sort_keys=True)
    elif form == 2:  # unsorted keys
        text = json.dumps(dict(reversed(stored.items())), separators=(",", ":"))
    elif form == 3:  # no time stamp, blanks around
        text = " \t" + _canonical(record) + " \x1c"
    else:            # non-ASCII text, then a non-ASCII blank
        text = json.dumps({**stored, "added_at": "\u00e9t\u00e9"},
                          sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False) + "\u00a0"
    return text.encode("utf-8")


def named_line(j: int, k: int) -> bytes:
    """The pool's record j, named by the digest of the pool's gem k."""
    return _canonical({**RECORDS[j], "name": RECORDS[k]["digest"],
                       "added_at": STAMP}).encode()


def escaped_line(k: int, named: bool) -> bytes:
    """The pool's record k with its digest written in escapes, so the line
    decodes to the digest but holds its text only when ``named`` puts it
    in the name too.  Its name tells it from the record an add writes."""
    stored = {**RECORDS[k], "added_at": STAMP}
    digest = stored["digest"]
    stored["name"] = digest if named else "escaped"
    escaped = "".join("\\u%04x" % ord(char) for char in digest)
    text = _canonical(stored).replace(f'"digest":"{digest}"',
                                      f'"digest":"{escaped}"')
    assert digest not in text.split('"name"')[0]
    return text.encode()


RAW_LINES = (b"", b"  \t", b"\x1c", b"{broken", b"[1, 2]", b"{}",
             b'{"added_at":"x"}', b'{"digest": "\xff\xfe"}',
             b"\xef\xbb\xbf{}", b'{"regular":true}')
ENDINGS = (b"\n", b"\r\n", b"\r", b"")

# a few gems, so that histories often meet one gem's record again
GEM = st.integers(0, 3)

ADD = st.tuples(st.just("add"), GEM, st.booleans())
SCAN = st.tuples(st.just("scan"), st.sampled_from(FILTERS), st.booleans())

actions = st.one_of(
    ADD, SCAN,
    st.tuples(st.just("add elsewhere"), GEM),
    st.tuples(st.just("record"), GEM, st.integers(0, 4), st.booleans(),
              st.sampled_from(ENDINGS)),
    st.tuples(st.just("raw"), st.sampled_from(RAW_LINES),
              st.sampled_from(ENDINGS)),
    st.tuples(st.just("named"), GEM, GEM, st.just(b"\n")),
    st.tuples(st.just("escaped"), GEM, st.booleans(), st.just(b"\n")),
    st.tuples(st.just("poke"), st.floats(0, 1, exclude_max=True),
              st.sampled_from(b'0 {}",\n\r\xff')),
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(st.just("replace"), st.lists(st.integers(0, len(POOL) - 1),
                                           max_size=3)),
    st.tuples(st.just("scan elsewhere"), st.sampled_from(FILTERS)),
)

# a round: a few other actions, then an add, then maybe a scan
ROUND = st.tuples(st.lists(actions, max_size=3), ADD, st.one_of(st.none(), SCAN))


def history(rounds) -> list:
    """The actions of the rounds, in order."""
    return [action for others, add, scan in rounds
            for action in [*others, add] + ([scan] if scan else [])]


histories = st.lists(ROUND, max_size=10).map(history)


def elsewhere(store: Path) -> Path:
    """A second store next to ``store``."""
    return store.with_name("elsewhere.jsonl")


def apply(store: Path, action) -> None:
    """One step of a history, checked against the oracle where it answers:
    an add, by the library or the command line, or a scan, of the store
    or of a second one; or a write by another writer."""
    kind = action[0]
    if kind == "add elsewhere":
        store, action = elsewhere(store), ("add", action[1], False)
    if kind == "scan elsewhere":
        store, action = elsewhere(store), ("scan", action[1], True)
    kind = action[0]
    if kind == "add":
        k, cli = action[1], action[2:] == (True,)
        before = oracle.find_record(store, RECORDS[k]["digest"])
        old = store.read_bytes() if store.exists() else b""
        if cli:
            out = cli_add(store, k)
            added = before is None
            assert out == _canonical({
                "action": "add", "added": added, "command": "catalog",
                "ok": True, "record": RECORDS[k] if added else before}) + "\n"
        else:
            rec, added = catalog_add(store, POOL[k], name=f"pool{k}")
            assert added == (before is None)
            assert rec == (RECORDS[k] if added else before)
        if not added:
            assert store.read_bytes() == old
    elif kind in ("record", "raw", "named", "escaped"):
        if kind == "record":
            line = record_line(*action[1:3], "foreign" if action[3] else None)
        elif kind == "named":
            line = named_line(*action[1:3])
        elif kind == "escaped":
            line = escaped_line(*action[1:3])
        else:
            line = action[1]
        with store.open("ab") as fh:
            fh.write(line + action[-1])
    elif kind in ("poke", "flip"):  # equal-length rewrites in place
        data = bytearray(store.read_bytes()) if store.exists() else bytearray()
        if not data:
            return
        at = int(action[1] * len(data))
        if kind == "poke":
            data[at] = action[2]
        else:  # a valid record with another value
            hit = max(data.find(b"true", at), data.find(b"null", at))
            if hit < 0:
                return
            data[hit:hit + 4] = b"null" if data[hit:hit + 4] == b"true" else b"true"
        with store.open("r+b") as fh:
            fh.write(data)
    elif kind == "truncate":
        if store.exists():
            size = store.stat().st_size
            with store.open("r+b") as fh:
                fh.truncate(int(action[1] * size))
    elif kind == "replace":
        fresh = store.with_suffix(".new")
        fresh.write_bytes(b"".join(record_line(k, 0) + b"\n" for k in action[1]))
        os.replace(fresh, store)
    else:
        assert_scan_matches_oracle(store, action[1], action[2])


class TestAgainstColdRead:
    @settings(max_examples=150, deadline=None)
    @given(histories)
    def test_random_histories(self, history):
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "store.jsonl"
            for action in history:
                apply(store, action)
            for filters in FILTERS[:3]:
                assert_scan_matches_oracle(store, filters, cli_first=False)
                assert_scan_matches_oracle(elsewhere(store), filters,
                                           cli_first=False)

    def test_add_finds_the_first_record_of_a_digest(self, tmp_path):
        """The index maps a digest to its first record, as the search of
        the bytes finds it."""
        store = tmp_path / "store.jsonl"
        store.write_bytes(b"".join(
            _canonical({**RECORDS[2], "name": name}).encode() + b"\n"
            for name in ("first", "second")))
        assert_scan_matches_oracle(store, (), cli_first=True)
        rec, added = catalog_add(store, POOL[2], name="third")
        assert not added and rec["name"] == "first"
        assert json.loads(cli_add(store, 2))["record"]["name"] == "first"

    @pytest.mark.parametrize("named", [False, True])
    def test_escaped_digest(self, tmp_path, named):
        """A line whose digest is escaped is the gem's record to an add
        only when its bytes hold the digest elsewhere, as in its name."""
        store = tmp_path / "store.jsonl"
        store.write_bytes(escaped_line(2, named) + b"\n")
        expected = oracle.find_record(store, RECORDS[2]["digest"])
        assert (expected is not None) == named
        for _ in range(2):  # before and after a scan has indexed the line
            apply(store, ("add", 2, True))
            apply(store, ("add", 2, False))
            assert_scan_matches_oracle(store, (), cli_first=True)

    def test_cr_at_the_end_joins_a_later_lf(self, tmp_path):
        """A store that ends in "\\r" may yet end that line in "\\r\\n"."""
        store = tmp_path / "store.jsonl"
        store.write_bytes(record_line(0, 0) + b"\r")
        assert_scan_matches_oracle(store, (), cli_first=True)
        with store.open("ab") as fh:
            fh.write(b"\n{broken\n")
        assert_scan_matches_oracle(store, (), cli_first=True)
        assert [w.line_number for w in catalog_scan(store)[1]] == [2]

    def test_add_finds_a_record_after_a_cr(self, tmp_path):
        store = tmp_path / "store.jsonl"
        store.write_bytes(record_line(1, 0) + b"\r" + record_line(0, 1) + b"\r")
        apply(store, ("add", 0))
        assert store.read_bytes().count(b"\n") == 0

    def test_deep_line_is_corrupt(self, tmp_path):
        """A line nested past the recursion limit is a corrupt line, in
        every scan and in the duplicate lookup of an add."""
        store = tmp_path / "store.jsonl"
        digest = gemfile_from_graph(POOL[2]).digest().encode()
        deep = b'{"digest":"%s","x":%s%s}' % (digest, b"[" * 100_000, b"]" * 100_000)
        store.write_bytes(record_line(0, 0) + b"\n" + deep + b"\n"
                          + record_line(1, 0) + b"\n")
        for cli_first in (True, False):
            assert_scan_matches_oracle(store, (), cli_first)
        records, warnings = catalog_scan(store)
        assert records == RECORDS[:2]
        assert [w.line_number for w in warnings] == [2]
        apply(store, ("add", 2))
        apply(store, ("add", 1))
        assert catalog_scan(store)[0] == RECORDS[:3]

    @pytest.mark.parametrize("ending", ENDINGS)
    @pytest.mark.parametrize("form", [3, 4])
    def test_add_finds_a_record_a_scan_returns(self, tmp_path, form, ending):
        """A line with blanks around its record is the record to ``catalog
        add`` as to a scan, a blank such as "\\x1c" before its line end
        included."""
        store = tmp_path / "store.jsonl"
        store.write_bytes(record_line(2, form) + ending)
        assert oracle.find_record(store, RECORDS[2]["digest"]) == RECORDS[2]
        assert catalog_add(store, POOL[2], name="again") == (RECORDS[2], False)
        assert catalog_scan(store) == ([RECORDS[2]], [])

    @pytest.mark.parametrize("field", ["g_pairs", "rho", "bound_checks"])
    def test_table_filter_after_own_adds(self, tmp_path, field):
        """A filter on an object, named before this process appends lines,
        reads each appended record's object as a cold read of its line
        does: the canonical JSON text of the decoded object."""
        store = tmp_path / "store.jsonl"
        store.touch()
        filters = (f"{field}={json.dumps(RECORDS[2][field])}",)
        cli_scan(store, filters)  # the field's column is made before the adds
        for k, graph in enumerate(POOL):
            catalog_add(store, graph, name=f"pool{k}")
        assert_scan_matches_oracle(store, filters, cli_first=True)
        assert RECORDS[2] in catalog_scan(store, filters)[0]

    def test_scan_cut_short_leaves_no_partial_index(self, tmp_path,
                                                   monkeypatch):
        """An exception while an append is indexed drops the index, so the
        next scan reads the store anew and indexes no line twice."""
        store = tmp_path / "store.jsonl"
        store.write_bytes(b"".join(record_line(k, 0) + b"\n" for k in range(2)))
        assert_scan_matches_oracle(store, (), cli_first=True)
        with store.open("ab") as fh:
            fh.write(b"".join(record_line(k, 0) + b"\n" for k in range(2, 5)))
        real, calls = gemio._line_record, []

        def failing(raw):
            calls.append(raw)
            if len(calls) == 2:  # the first appended record is indexed
                raise RuntimeError("cut short")
            return real(raw)

        with monkeypatch.context() as mp:
            mp.setattr(gemio, "_line_record", failing)
            with pytest.raises(RuntimeError, match="cut short"):
                catalog_scan(store)
        assert cli_scan(store, ()) == oracle.scan_text(store)
        assert catalog_scan(store)[0] == RECORDS[:5]

    def test_stores_take_turns(self, tmp_path):
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        for k, graph in enumerate(POOL):
            catalog_add(one if k % 2 else two, graph, name=f"pool{k}")
        for store in (one, two, one, two):
            for filters in FILTERS:
                assert_scan_matches_oracle(store, filters, cli_first=True)


@pytest.fixture
def loads_calls(monkeypatch):
    """A cold index, and the store lines decoded so far: the calls of
    ``gemio._load_line``, each with the stripped text of its line."""
    monkeypatch.setattr(gemio, "_INDEX", gemio._StoreIndex())
    calls = []
    real_load = gemio._load_line

    def counting_load(line):
        calls.append(line)
        return real_load(line)

    monkeypatch.setattr(gemio, "_load_line", counting_load)
    return calls


def bundled_store(path: Path) -> Path:
    for gem in sorted(GEMS.glob("*.gem")):
        catalog_add(path, read_gem(gem), name=gem.stem)
    with path.open("ab") as fh:
        fh.write(b"\n{broken\n")
    return path


def store_lines(store: Path) -> set[str]:
    """The stripped text of every line of the store, as a scan decodes it."""
    return {line.strip() for line in store.read_text().splitlines()}


def decoded(calls: list, store: Path) -> list[str]:
    """The lines of the store among the decoded ``calls``."""
    lines = store_lines(store)
    return [text for text in calls if text in lines]


class TestCost:
    @pytest.mark.parametrize("where", [(), ("regular=true",)])
    def test_each_line_decoded_once(self, tmp_path, loads_calls, where):
        """A line this process appended is decoded 0 times, and a line
        another writer appended once."""
        store = tmp_path / "store.jsonl"
        store.touch()
        cli_scan(store, where)  # the filter's field is named before any add
        bundled_store(store)  # adds, then a corrupt line by another writer
        with store.open("ab") as fh:
            fh.write(record_line(4, 1) + b"\n")
        foreign = {"{broken", record_line(4, 1).decode()}
        loads_calls.clear()
        cold = cli_scan(store, where)
        assert sorted(decoded(loads_calls, store)) == sorted(foreign)
        assert cold == oracle.scan_text(store, where)
        loads_calls.clear()
        assert cli_scan(store, where) == cold
        for k in (0, 4, 0):  # new, then found among foreign lines, then own
            cli_add(store, k)
        text = cli_scan(store, where)
        assert decoded(loads_calls, store) == []
        assert text == oracle.scan_text(store, where)

    def test_add_decodes_only_lines_holding_the_digest(self, tmp_path,
                                                        loads_calls):
        store = bundled_store(tmp_path / "store.jsonl")
        loads_calls.clear()
        _, added = catalog_add(store, order_two_gem(3), name="s3")
        assert added and loads_calls == []
        _, added = catalog_add(store, order_two_gem(3), name="again")
        assert not added and len(loads_calls) == 1

    def test_cold_add_builds_no_index(self, tmp_path, loads_calls):
        """An add to a store another writer filled decodes only the lines
        that hold its digest, up to the record, and indexes nothing."""
        store = tmp_path / "store.jsonl"
        lines = [_canonical({**RECORDS[n % 4], "name": f"r{n}",
                             "added_at": STAMP}) for n in range(1000)]
        lines[1] = _canonical({**RECORDS[1], "name": RECORDS[3]["digest"]})
        store.write_text("\n".join(lines) + "\n")
        for k in (3, 0, 5):  # found on line 4 after line 2, found, new
            rec, added = catalog_add(store, POOL[k], name="again")
            assert added == (k == 5)
        assert loads_calls == [lines[1], lines[3], lines[0]]
        assert gemio._INDEX.data == b"" and gemio._INDEX.texts == []

    def test_two_stores_decode_no_line_twice(self, tmp_path, loads_calls):
        """Adds to a store the index does not cover leave it as it is, and
        a new index keeps the fields named before, so scans of both stores
        after adds to each in turn decode no line twice, and none of the
        store the index held."""
        held, other = tmp_path / "held.jsonl", tmp_path / "other.jsonl"
        held.touch()
        for filters in FILTERS[:3]:  # the fields are named before any add
            cli_scan(held, filters)
        for k, graph in enumerate(POOL):
            catalog_add(other if k % 2 else held, graph, name=f"pool{k}")
        expected = {(store, filters): oracle.scan_text(store, filters)
                    for store in (held, other) for filters in FILTERS[:3]}
        loads_calls.clear()
        for store in (held, other, other):
            for filters in FILTERS[:3]:
                assert cli_scan(store, filters) == expected[store, filters]
        calls = [text for text in loads_calls if text.startswith("{")]
        assert len(calls) == len(set(calls))
        assert decoded(loads_calls, held) == []
        assert sorted(decoded(loads_calls, other)) == sorted(store_lines(other))


class TestTexts:
    """A record's text is made once per process: by the add that appended
    its line, or by the first scan that returns a record another writer
    appended.  It is kept while the store's indexed bytes stay the same."""

    def test_made_on_first_return(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gemio, "_INDEX", gemio._StoreIndex())
        store = bundled_store(tmp_path / "store.jsonl")
        own = list(gemio._INDEX.texts)
        assert own and None not in own
        with store.open("ab") as fh:
            fh.write(record_line(4, 0) + b"\n" + record_line(6, 0) + b"\n")
        assert gemio._catalog_texts(store, ["missing=1"])[0] == []
        texts = gemio._INDEX.texts
        assert all(a is b for a, b in zip(texts, own)) and texts[len(own):] == [None] * 2
        first = gemio._catalog_texts(store, ["regular=true"])[0]
        again = gemio._catalog_texts(store, ["regular=true"])[0]
        assert first and all(a is b for a, b in zip(first, again, strict=True))
        made = [t for t in first if not any(t is o for o in own)]
        assert made == [_canonical(RECORDS[4])]  # record 6 has a boundary
        assert texts[len(own):] == [made[0], None]
        # the add printed the text the scans return
        printed = json.loads(cli_add(store, 4))["record"]
        assert printed == RECORDS[4] and gemio._INDEX.texts[-2] is made[0]

    def test_rewrite_drops_the_texts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gemio, "_INDEX", gemio._StoreIndex())
        store = bundled_store(tmp_path / "store.jsonl")
        before = gemio._catalog_texts(store)[0]
        lines = store.read_bytes().splitlines(keepends=True)
        store.write_bytes(b"".join(reversed(lines)))
        assert gemio._catalog_texts(store, ["missing=1"])[0] == []
        assert set(gemio._INDEX.texts) == {None}
        after = gemio._catalog_texts(store)[0]
        assert after == before[::-1]
        assert not any(a is b for a in after for b in before)


class TestLineForm:
    def test_record_text_is_the_end_of_its_line(self, tmp_path, s4):
        store = tmp_path / "store.jsonl"
        rec, _ = catalog_add(store, s4, name="s4")
        line = store.read_text()
        stored = json.loads(line)
        assert line == _canonical(stored) + "\n"
        assert line.startswith('{"added_at":')
        assert line.rstrip("\n").endswith(_canonical(rec)[1:])

    @pytest.mark.parametrize("filters", FILTERS[:3])
    def test_spaced_store_scans_the_same(self, tmp_path, filters):
        """A store written in the older spaced form prints the same scan."""
        compact = bundled_store(tmp_path / "compact.jsonl")
        spaced = tmp_path / "spaced.jsonl"
        lines = []
        for line in compact.read_text().splitlines():
            try:
                lines.append(json.dumps(json.loads(line), sort_keys=True))
            except ValueError:
                lines.append(line)
        spaced.write_text("\n".join(lines) + "\n")
        assert spaced.read_bytes() != compact.read_bytes()
        text = cli_scan(compact, filters)
        assert text == oracle.scan_text(compact, filters)
        for _ in range(2):  # cold, then from the index
            assert cli_scan(spaced, filters) == text


def json_forms(value) -> list[str]:
    """The compact JSON text ``--json`` prints and a store holds, and a
    spaced one with any object's keys in reverse order."""
    reverse = (dict(reversed(value.items())) if isinstance(value, dict)
               else value)
    return [json.dumps(value, sort_keys=True, separators=(",", ":")),
            json.dumps(reverse)]


@pytest.mark.parametrize("field", ["f_vector", "g_pairs", "g_triples", "rho",
                                   "bound_checks"])
def test_table_filters_compare_json_values(tmp_path, field):
    """A filter on a list or object field finds exactly the records whose
    value ``json.loads`` of its text equals, whatever the text's spacing or
    key order: in this process through the index, and cold in a fresh
    process.  A dict's ``repr`` text, which is not JSON, finds none."""
    store = tmp_path / "store.jsonl"
    for k, graph in enumerate(POOL):
        catalog_add(store, graph, name=f"pool{k}")
    stored = [json.loads(line) for line in store.read_text().splitlines()]

    def names(where) -> list[str]:
        records, warnings = catalog_scan(store, [where])
        assert warnings == []
        return [rec["name"] for rec in records]

    def cold(where) -> list[str]:
        done = subprocess.run([sys.executable, "-m", "gemkit.cli", "--json",
                               "catalog", "scan", str(store), "--where", where],
                              capture_output=True, text=True, cwd=GEMS.parent)
        assert done.returncode == 0, done.stderr
        return [rec["name"] for rec in json.loads(done.stdout)["records"]]

    for k, record in enumerate(RECORDS):
        for text in json_forms(record[field]):
            want = [rec["name"] for rec in stored
                    if rec[field] == json.loads(text)]
            assert f"pool{k}" in want
            assert names(f"{field}={text}") == want, text
            assert names(f"{field}!={text}") == [
                rec["name"] for rec in stored if rec["name"] not in want]
            if k == 1:
                assert cold(f"{field}={text}") == want, text
        if isinstance(record[field], dict):
            assert names(f"{field}={record[field]}") == []


def test_fresh_processes_find_a_record_with_a_blank_before_its_line_end(
        tmp_path):
    """Each add and the scan reads the store cold, in a process of its own:
    the second add finds the record whose line ends in a "\\x1c" blank."""
    store = tmp_path / "dedupe.jsonl"

    def run(*argv) -> dict:
        done = subprocess.run([sys.executable, "-m", "gemkit.cli", "--json",
                               "catalog", *argv], capture_output=True,
                              text=True, cwd=GEMS.parent)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    assert run("add", str(store), "gems/s4_2.gem")["added"] is True
    store.write_bytes(store.read_bytes()[:-1] + b"\x1c\n")
    assert run("add", str(store), "gems/s4_2.gem")["added"] is False
    assert run("scan", str(store))["count"] == 1


def test_threads_share_the_index(tmp_path):
    stores = [tmp_path / "one.jsonl", tmp_path / "two.jsonl"]
    for k, graph in enumerate(POOL):
        catalog_add(stores[k % 2], graph, name=f"pool{k}")
    expected = {(s, f): oracle.scan_text(s, f) for s in stores for f in FILTERS}
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(40):
                key = (rng.choice(stores), rng.choice(FILTERS))
                texts, _ = gemio._catalog_texts(*key)
                records = json.loads("[" + ",".join(texts) + "]")
                if records != json.loads(expected[key])["records"]:
                    errors.append(key)
        except Exception as exc:  # reported through errors
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_threads_add_and_scan(tmp_path):
    """Adds and scans of two stores from more threads than cores share the
    index: each gem is appended to each store once, no scan returns a
    record twice, and each store then scans as the oracle reads it."""
    stores = [tmp_path / "one.jsonl", tmp_path / "two.jsonl"]
    added, errors = [], []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(30):
                store = rng.choice(stores)
                if rng.random() < 0.6:
                    k = rng.randrange(len(POOL))
                    rec, new = catalog_add(store, POOL[k], name=f"pool{k}")
                    if rec != RECORDS[k]:
                        errors.append(("add", store.name, k))
                    if new:
                        added.append((store.name, k))
                else:
                    filters = rng.choice(FILTERS)
                    texts, warnings = gemio._catalog_texts(store, filters)
                    records = json.loads("[" + ",".join(texts) + "]")
                    digests = [r["digest"] for r in records]
                    if (warnings or len(set(digests)) != len(digests)
                            or any(r not in RECORDS for r in records)):
                        errors.append(("scan", store.name, filters))
        except Exception as exc:  # reported through errors
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(added) == len(set(added))
    for store in stores:
        for filters in FILTERS:
            texts, _ = gemio._catalog_texts(store, filters)
            assert [json.loads(t) for t in texts] == oracle.scan(store, filters)[0]
