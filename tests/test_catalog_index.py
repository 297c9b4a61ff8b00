"""The catalog's store index against cold reads of the same bytes.

``catalog scan`` keeps an index of the store it scanned last and decodes
only what was appended since; ``catalog add`` finds a duplicate by one
search of the store's bytes.  Both must answer exactly as the line-by-line
loops in ``catalog_oracle`` do, whatever happens to the file in between.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import threading
from pathlib import Path

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


def record_line(k: int, form: int) -> bytes:
    """A stored record of the pool in one of the forms a store may hold."""
    stored = {**RECORDS[k], "added_at": "2020-11-02T00:00:00+00:00"}
    if form == 0:    # as catalog add writes it
        text = _canonical(stored)
    elif form == 1:  # as older catalog add wrote it
        text = json.dumps(stored, sort_keys=True)
    elif form == 2:  # unsorted keys
        text = json.dumps(dict(reversed(stored.items())), separators=(",", ":"))
    elif form == 3:  # no time stamp, blanks around
        text = " \t" + _canonical(RECORDS[k]) + " \x1c"
    else:            # non-ASCII text, then a non-ASCII blank
        text = json.dumps({**stored, "added_at": "\u00e9t\u00e9"},
                          sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False) + "\u00a0"
    return text.encode("utf-8")


RAW_LINES = (b"", b"  \t", b"\x1c", b"{broken", b"[1, 2]", b"{}",
             b'{"added_at":"x"}', b'{"digest": "\xff\xfe"}',
             b"\xef\xbb\xbf{}", b'{"regular":true}')
ENDINGS = (b"\n", b"\r\n", b"\r", b"")

actions = st.one_of(
    st.tuples(st.just("add"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("record"), st.integers(0, len(POOL) - 1),
              st.integers(0, 4), st.sampled_from(ENDINGS)),
    st.tuples(st.just("raw"), st.sampled_from(RAW_LINES),
              st.sampled_from(ENDINGS)),
    st.tuples(st.just("poke"), st.floats(0, 1, exclude_max=True),
              st.sampled_from(b'0 {}",\n\r\xff')),
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(st.just("replace"), st.lists(st.integers(0, len(POOL) - 1),
                                           max_size=3)),
    st.tuples(st.just("scan"), st.sampled_from(FILTERS), st.booleans()),
)


def apply(store: Path, action) -> None:
    kind = action[0]
    if kind == "add":
        graph = POOL[action[1]]
        before = oracle.find_record(store, gemfile_from_graph(graph).digest())
        rec, added = catalog_add(store, graph, name=f"pool{action[1]}")
        assert added == (before is None)
        assert rec == (RECORDS[action[1]] if added else before)
    elif kind in ("record", "raw"):
        line = record_line(*action[1:3]) if kind == "record" else action[1]
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
    @settings(max_examples=120, deadline=None)
    @given(st.lists(actions, max_size=25))
    def test_random_histories(self, history):
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "store.jsonl"
            for action in history:
                apply(store, action)
            for filters in FILTERS[:3]:
                assert_scan_matches_oracle(store, filters, cli_first=False)

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
    """A cold index, and the number of json.loads calls made so far."""
    monkeypatch.setattr(gemio, "_INDEX", gemio._StoreIndex())
    calls = []
    real_loads = json.loads

    def counting_loads(text, *args, **kwargs):
        calls.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(gemio.json, "loads", counting_loads)
    return calls


def bundled_store(path: Path) -> Path:
    for gem in sorted(GEMS.glob("*.gem")):
        catalog_add(path, read_gem(gem), name=gem.stem)
    with path.open("ab") as fh:
        fh.write(b"\n{broken\n")
    return path


class TestCost:
    @pytest.mark.parametrize("where", [(), ("regular=true",)])
    def test_each_line_decoded_once(self, tmp_path, loads_calls, where):
        store = bundled_store(tmp_path / "store.jsonl")
        lines = [line for line in store.read_text().splitlines() if line.strip()]
        loads_calls.clear()
        cold = cli_scan(store, where)
        assert len(loads_calls) == len(lines)
        loads_calls.clear()
        assert cli_scan(store, where) == cold
        assert loads_calls == []
        catalog_add(store, order_two_gem(3), name="s3")
        loads_calls.clear()
        cli_scan(store, where)
        assert len(loads_calls) == 1

    def test_add_decodes_only_lines_holding_the_digest(self, tmp_path,
                                                        loads_calls):
        store = bundled_store(tmp_path / "store.jsonl")
        loads_calls.clear()
        _, added = catalog_add(store, order_two_gem(3), name="s3")
        assert added and loads_calls == []
        _, added = catalog_add(store, order_two_gem(3), name="again")
        assert not added and len(loads_calls) == 1


class TestTexts:
    """The index makes a record's text the first time a scan returns it,
    and keeps it while the store's indexed bytes stay the same."""

    def test_made_on_first_return(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gemio, "_INDEX", gemio._StoreIndex())
        store = bundled_store(tmp_path / "store.jsonl")
        assert gemio._catalog_texts(store, ["missing=1"])[0] == []
        assert gemio._INDEX.texts and set(gemio._INDEX.texts) == {None}
        first = gemio._catalog_texts(store, ["regular=true"])[0]
        again = gemio._catalog_texts(store, ["regular=true"])[0]
        assert first and all(a is b for a, b in zip(first, again, strict=True))
        assert sum(text is not None for text in gemio._INDEX.texts) == len(first)

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
