import json
import operator
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemkit import (ball_gem, gemio, invariant_report, order_two_gem,
                    random_boundary_gem)
from gemkit.core import ColoredGraph
from gemkit.errors import ParseError, ValidationError
from gemkit.gemio import (
    GemFile,
    catalog_add,
    catalog_record,
    catalog_scan,
    export_dot,
    format_gemfile,
    gemfile_from_graph,
    graph_from_gemfile,
    parse_filter,
    parse_gemfile,
    read_gem,
    write_gem,
)

import bruteforce as bf
from corpus import k33_graph
from test_residue_memo import sample_gem

TESTS = Path(__file__).resolve().parent
GEM_FILES = sorted((TESTS.parent / "gems").glob("*.gem")) + sorted(
    (TESTS / "golden").glob("*.gem"))
S4_TEXT = ('{"dimension":4,"vertices":2,'
           '"edges":[[0,1,0],[0,1,1],[0,1,2],[0,1,3],[0,1,4]]}')


class TestParsing:
    def test_s4_document(self, tmp_path, s4):
        path = tmp_path / "g.gem"
        path.write_text(S4_TEXT)
        assert read_gem(path) == s4

    def test_b4_document(self, tmp_path, b4):
        doc = json.loads(S4_TEXT)
        doc["edges"] = doc["edges"][:-1]
        path = tmp_path / "g.gem"
        path.write_text(json.dumps(doc))
        assert read_gem(path) == b4

    def test_loop_edge_is_validation_error(self, tmp_path):
        doc = json.loads(S4_TEXT)
        doc["edges"][0] = [0, 0, 3]
        path = tmp_path / "g.gem"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            read_gem(path)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("dimension"),
        lambda d: d.__setitem__("vertices", "2"),
        lambda d: d.__setitem__("edges", {"a": 1}),
        lambda d: d.__setitem__("edges", [[0, 1]]),
        lambda d: d.__setitem__("edges", [[0, 1, "x"]]),
        lambda d: d.__setitem__("name", 7),
        lambda d: d.__setitem__("dimension", True),
        lambda d: d.__setitem__("vertices", False),
        lambda d: d["edges"].__setitem__(1, [False, True, True]),
    ])
    def test_schema_errors(self, tmp_path, mutate):
        doc = json.loads(S4_TEXT)
        mutate(doc)
        path = tmp_path / "g.gem"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_gem(path)

    def test_metadata_round_trip(self, tmp_path):
        metadata = {"source": "census", "ids": [3, 1], "note": {"k": None}}
        gf = GemFile(2, 2, ((0, 1, 0), (0, 1, 1), (0, 1, 2)), "s2", metadata)
        text = format_gemfile(gf)
        assert json.loads(text)["metadata"] == metadata
        assert parse_gemfile(text) == gf
        assert format_gemfile(parse_gemfile(text)) == text
        path = tmp_path / "g.gem"
        path.write_text(text)
        assert read_gem(path) == order_two_gem(2)

    @pytest.mark.parametrize("metadata", [[1, 2], "census", 3, True])
    def test_non_object_metadata(self, tmp_path, metadata):
        doc = {**json.loads(S4_TEXT), "metadata": metadata}
        with pytest.raises(ParseError, match="^metadata must be an object$"):
            parse_gemfile(json.dumps(doc))

    def test_not_json(self, tmp_path):
        path = tmp_path / "g.gem"
        path.write_text("dimension: 4")
        with pytest.raises(ParseError):
            read_gem(path)

    @pytest.mark.parametrize("text,message", [
        # past int()'s digit limit
        ('{"dimension": 4, "vertices": 1%s, "edges": []}' % ("0" * 5000),
         "integer string conversion"),
        # past the recursion limit
        ('{"dimension": 4, "vertices": 2, "edges": [], "metadata": {"a": %s%s}}'
         % ("[" * 100_000, "]" * 100_000), "maximum recursion depth"),
    ], ids=["long_integer", "deep_nesting"])
    def test_json_past_a_reader_limit(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_gemfile(text)


ITEM_FAULTS = ("two-element edge", "four-element edge", "bool item",
               "float item", "string item", "edge not a list", "null edge")


def corrupt_item(raw, kind, rng):
    k = rng.randrange(len(raw))
    item = raw[k] if isinstance(raw[k], list) else [0, 1, 0]
    j = rng.randrange(len(item))
    if kind == "two-element edge":
        raw[k] = item[:2]
    elif kind == "four-element edge":
        raw[k] = item + [0]
    elif kind in ("bool item", "float item", "string item"):
        item = item[:]
        item[j] = {"bool item": True, "float item": float(item[j]),
                   "string item": str(item[j])}[kind]
        raw[k] = item
    elif kind == "edge not a list":
        raw[k] = rng.choice([7, {"u": 0}, "0 1 2"])
    else:
        raw[k] = None


def kept_edges(raw):
    """The edges through the kept per-edge loop alone."""
    gemio._raise_bad_edge(raw)  # returns when every edge is three ints
    return tuple(tuple(item) for item in raw)


def parse_outcome(parse, arg):
    try:
        return parse(arg)
    except ParseError as exc:
        return ParseError, str(exc)


class TestBulkEdgeCheck:
    """The bulk edge-shape check of ``parse_gemfile`` names the edge, and
    gives the message, that the kept per-edge loop does; on valid input
    the edges and the graph are the same."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 20),
           st.booleans(), st.lists(st.sampled_from(ITEM_FAULTS), max_size=3),
           st.randoms(use_true_random=False))
    def test_raises_like_the_kept_loop(self, d, p, seed, with_boundary,
                                       faults, rng):
        g = sample_gem(d, p, seed, with_boundary)
        doc = json.loads(format_gemfile(gemfile_from_graph(g)))
        for kind in faults:
            corrupt_item(doc["edges"], kind, rng)
        text = json.dumps(doc)
        raw = json.loads(text)["edges"]
        got = parse_outcome(parse_gemfile, text)
        want = parse_outcome(kept_edges, raw)
        if isinstance(got, GemFile):
            assert got.edges == want
            assert graph_from_gemfile(got) == g
        else:
            assert got == want
            assert got[1].startswith("edges[")
        if not faults:
            assert got.edges == tuple(g.edges())


class TestCanonicalForm:
    def test_write_read_write_fixpoint(self, tmp_path, b4):
        path = tmp_path / "b.gem"
        write_gem(b4, path, name="b4")
        text = path.read_text()
        assert format_gemfile(parse_gemfile(text)) == text

    def test_canonical_sorts_edges(self):
        gf = GemFile(4, 2, ((1, 0, 4), (0, 1, 0), (0, 1, 2), (0, 1, 1), (0, 1, 3)))
        assert gf.canonical().edges == tuple(
            (0, 1, c) for c in range(5))

    def test_roundtrip_any_graph(self, tmp_path, shell):
        path = tmp_path / "s.gem"
        write_gem(shell, path)
        assert read_gem(path) == shell


class TestDigest:
    def test_name_does_not_change_digest(self, s4):
        assert gemfile_from_graph(s4, "a").digest() == \
            gemfile_from_graph(s4, "b").digest()

    def test_mutations_change_digest(self, s4):
        base = gemfile_from_graph(s4).digest()
        seen = {base}
        edges = list(s4.edges())
        for k in range(len(edges)):
            for color in range(5):
                mutated = list(edges)
                u, v, _ = mutated[k]
                mutated[k] = (u, v, color)
                gf = GemFile(4, 2, tuple(mutated)).canonical()
                digest = gf.digest()
                if [e for e in gf.edges] == sorted(
                        (min(u, v), max(u, v), c) for u, v, c in edges):
                    assert digest == base
                else:
                    assert digest not in seen or digest != base

    def test_digest_stable_across_edge_order(self, b4):
        e = list(b4.edges())
        a = GemFile(4, 2, tuple(e)).digest()
        b = GemFile(4, 2, tuple(e[::-1])).digest()
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 12), st.integers(0, 2 ** 20),
           st.booleans(), st.randoms(use_true_random=False))
    def test_graph_digest_is_the_gem_file_digest(self, d, p, seed,
                                                 with_boundary, rng):
        # the graph path hashes its edges as listed; the gem file path
        # sorts and orients them first
        g = sample_gem(d, p, seed, with_boundary)
        edges = [(v, u, c) if rng.random() < 0.5 else (u, v, c)
                 for u, v, c in g.edges()]
        rng.shuffle(edges)
        assert gemio._graph_digest(g) == GemFile(d, g.num_vertices,
                                                 tuple(edges)).digest()
        assert gemio._graph_digest(g) == gemfile_from_graph(g).digest()


def digest_sample(d, p, seed, with_boundary):
    """A gem of any dimension from 1 up: above 1 a sampled one, and at 1
    the alternating cycle or, with boundary, path on 2p vertices in a
    seeded order."""
    if d > 1:
        return sample_gem(d, p, seed, with_boundary)
    order = random.Random(seed).sample(range(2 * p), 2 * p)
    edges = [(order[k], order[k + 1], k % 2) for k in range(2 * p - 1)]
    if not with_boundary:
        edges.append((order[-1], order[0], 1))
    return ColoredGraph.from_edges(1, 2 * p, edges)


class TestDigestOracle:
    """``_digest`` writes with one format the text the JSON encoder
    writes: both digest paths equal the oracle's hash of ``json.dumps``."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 10), st.integers(0, 2 ** 20),
           st.booleans(), st.randoms(use_true_random=False))
    def test_both_paths_match_the_oracle(self, d, p, seed, with_boundary,
                                         rng):
        g = digest_sample(d, p, seed, with_boundary)
        n, edges = g.num_vertices, list(g.edges())
        want = bf.digest(d, n, edges)
        assert gemio._graph_digest(g) == want
        assert gemfile_from_graph(g).digest() == want
        shuffled = [(v, u, c) if rng.random() < 0.5 else (u, v, c)
                    for u, v, c in edges]
        rng.shuffle(shuffled)
        assert GemFile(d, n, tuple(shuffled)).digest() == want
        assert GemFile(d, n, tuple(edges[::-1])).digest() == want

    @pytest.mark.parametrize("dimension,vertices", [(4, 2), (1, 0), (0, 5)])
    def test_no_edges(self, dimension, vertices):
        assert GemFile(dimension, vertices, ()).digest() == bf.digest(
            dimension, vertices, [])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.sampled_from([float("inf"), -float("inf")])
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


class TestCanonicalText:
    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_shared_encoder_writes_what_dumps_writes(self, value):
        assert gemio._canonical(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"))

    def test_fixed_payload(self):
        value = {"z": [None, 1.5, float("inf"), -float("inf")],
                 "é": {"ß": "ü€", "a": [True, False, 0]}, "": -0.0}
        assert gemio._canonical(value) == (
            '{"":-0.0,"z":[null,1.5,Infinity,-Infinity],'
            '"\\u00e9":{"a":[true,false,0],"\\u00df":"\\u00fc\\u20ac"}}')


EDGE_END = st.integers(-2, 40)


class TestWriter:
    """``format_gemfile`` writes what the per-edge writer in
    ``bruteforce.gem_text`` writes, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 80),
           st.lists(st.tuples(EDGE_END, EDGE_END, st.integers(0, 7)),
                    max_size=40),
           st.none() | st.text(),
           st.none() | st.dictionaries(st.text(), JSON_VALUES, max_size=3))
    @example(4, 2, [], None, None)
    @example(4, 2, [(1, 0, 4), (0, 1, 0), (1, 0, 0)], "", {})
    def test_matches_the_per_edge_oracle(self, d, n, edges, name, metadata):
        gf = GemFile(d, n, tuple(edges), name, metadata)
        assert format_gemfile(gf) == bf.gem_text(d, n, edges, name, metadata)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 12), st.integers(0, 2 ** 20),
           st.booleans(), st.randoms(use_true_random=False))
    def test_graph_edges_in_any_order(self, d, p, seed, with_boundary, rng):
        g = sample_gem(d, p, seed, with_boundary)
        edges = [(v, u, c) if rng.random() < 0.5 else (u, v, c)
                 for u, v, c in g.edges()]
        rng.shuffle(edges)
        text = bf.gem_text(d, g.num_vertices, edges, "g")
        assert format_gemfile(GemFile(d, g.num_vertices, tuple(edges),
                                      "g")) == text
        assert format_gemfile(gemfile_from_graph(g, "g")) == text

    @pytest.mark.parametrize("path", GEM_FILES,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_bundled_and_golden_gems_are_fixed_points(self, path):
        text = path.read_text(encoding="utf-8")
        gf = parse_gemfile(text)
        assert format_gemfile(gf) == text
        assert bf.gem_text(gf.dimension, gf.vertices, gf.edges, gf.name,
                           gf.metadata) == text


class TestCatalog:
    def test_add_is_idempotent(self, tmp_path, s4):
        store = tmp_path / "store.jsonl"
        rec1, added1 = catalog_add(store, s4, name="s4")
        rec2, added2 = catalog_add(store, s4, name="renamed")
        assert added1 and not added2
        assert rec1["digest"] == rec2["digest"]
        assert len(store.read_text().splitlines()) == 1

    def test_duplicate_keeps_the_store_mtime(self, tmp_path, s4, b4):
        store = tmp_path / "store.jsonl"
        assert not store.exists()
        catalog_add(store, s4, name="s4")  # a missing store is created
        os.utime(store, ns=(0, 0))
        before = store.read_bytes()
        for name in ("s4", "renamed"):
            assert not catalog_add(store, s4, name=name)[1]
            assert store.stat().st_mtime_ns == 0
        assert store.read_bytes() == before
        assert catalog_add(store, b4, name="b4")[1]
        assert store.stat().st_mtime_ns != 0
        assert store.read_bytes().startswith(before)
        assert len(store.read_bytes().splitlines()) == 2

    def test_resubmission_builds_no_report(self, tmp_path, monkeypatch, s4,
                                           b4):
        store = tmp_path / "store.jsonl"
        first, _ = catalog_add(store, s4, name="s4")
        catalog_add(store, b4, name="b4")
        before = store.read_bytes()
        reports = []
        real_report = gemio.invariant_report

        def counting_report(graph):
            reports.append(graph)
            return real_report(graph)

        monkeypatch.setattr(gemio, "invariant_report", counting_report)
        again, added = catalog_add(store, s4, name="renamed")
        assert not added and reports == []
        assert again == first and store.read_bytes() == before

    def test_new_record_hashes_once(self, tmp_path, monkeypatch, b4):
        store = tmp_path / "store.jsonl"
        expected = catalog_record(b4, "b4")
        digests = []
        real_digest = gemio._digest

        def counting_digest(*data):
            digests.append(data)
            return real_digest(*data)

        monkeypatch.setattr(gemio, "_digest", counting_digest)
        rec, added = catalog_add(store, b4, name="b4")
        assert added and len(digests) == 1
        assert rec == expected
        stored = json.loads(store.read_text())
        assert stored.pop("added_at")
        assert stored == expected

    def test_name_equal_to_a_digest_is_not_a_record(self, tmp_path, s4, b4):
        store = tmp_path / "store.jsonl"
        b4_digest = gemfile_from_graph(b4).digest()
        catalog_add(store, s4, name=b4_digest)
        rec, added = catalog_add(store, b4, name="b4")
        assert added and rec["digest"] == b4_digest
        again, added = catalog_add(store, b4)
        assert not added and again == rec
        assert len(store.read_text().splitlines()) == 2

    def test_corrupt_line_with_digest_is_skipped(self, tmp_path, s4):
        store = tmp_path / "store.jsonl"
        digest = gemfile_from_graph(s4).digest()
        store.write_text(f'{{"digest": "{digest}", broken\n')
        rec, added = catalog_add(store, s4, name="s4")
        assert added and rec["digest"] == digest
        hits, warnings = catalog_scan(store)
        assert [r["name"] for r in hits] == ["s4"]
        assert [w.line_number for w in warnings] == [1]

    def test_scan_filters(self, tmp_path, s4, b4, k33):
        store = tmp_path / "store.jsonl"
        catalog_add(store, s4, name="s4")
        catalog_add(store, b4, name="b4")
        catalog_add(store, k33, name="k33")
        hits, warnings = catalog_scan(store, ["rho_min=0"])
        assert {r["name"] for r in hits} == {"s4", "b4"}
        assert not warnings
        hits, _ = catalog_scan(store, ["omega_g<=0"])
        assert {r["name"] for r in hits} == {"s4"}
        hits, _ = catalog_scan(store, ["chi>=1", "regular=True"])
        assert {r["name"] for r in hits} == {"s4"}

    def test_scan_filters_match_text_coercion(self, tmp_path, s4, b4, k33):
        """Every filter compares as it would with both sides coerced from
        their text: bools and None as they are, then true/false,
        none/null, a rational, or else the text itself."""
        def from_text(value):
            if isinstance(value, bool) or value is None:
                return value
            text = str(value)
            if text.lower() in ("true", "false"):
                return text.lower() == "true"
            if text.lower() in ("none", "null"):
                return None
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError):
                return text

        store = tmp_path / "store.jsonl"
        for name, graph in (("s4", s4), ("b4", b4), ("k33", k33),
                            (None, random_boundary_gem(4, 5, 2, seed=7))):
            catalog_add(store, graph, name=name)
        records = [json.loads(line) for line in store.read_text().splitlines()]
        for rec in records:
            rec.pop("added_at")
        ops = {"=": operator.eq, "==": operator.eq, "!=": operator.ne,
               "<=": operator.le, ">=": operator.ge, "<": operator.lt,
               ">": operator.gt}
        literals = ("0", "1", "-1", "2", "1/2", "3/2", "0.5", "1/0", "true",
                    "False", "none", "null", "s4", "", "[5, 10, 10, 5, 2]")
        fields = ("chi", "p_bar", "rho_min", "omega_g", "regular", "name",
                  "f_vector", "missing")
        for field in fields:
            for op, compare in ops.items():
                for literal in literals:
                    want = []
                    for rec in records:
                        try:
                            keep = field in rec and compare(
                                from_text(rec[field]), from_text(literal))
                        except TypeError:
                            keep = False
                        if keep:
                            want.append(rec)
                    hits, _ = catalog_scan(store, [f"{field}{op}{literal}"])
                    assert hits == want, (field, op, literal)

    def test_scan_empty_store(self, tmp_path):
        hits, warnings = catalog_scan(tmp_path / "missing.jsonl", [])
        assert hits == [] and warnings == []

    def test_corrupt_line_reported_and_skipped(self, tmp_path, s4, b4):
        store = tmp_path / "store.jsonl"
        catalog_add(store, s4, name="s4")
        with store.open("a") as fh:
            fh.write("{broken\n")
        catalog_add(store, b4, name="b4")
        hits, warnings = catalog_scan(store)
        assert {r["name"] for r in hits} == {"s4", "b4"}
        assert [w.line_number for w in warnings] == [2]

    def test_undecodable_bytes_are_a_corrupt_line(self, tmp_path, s4, b4):
        store = tmp_path / "store.jsonl"
        catalog_add(store, s4, name="s4")
        digest = gemfile_from_graph(b4).digest()
        with store.open("ab") as fh:
            fh.write(b'{"digest": "\xff\xfe"}\n')
            # the b4 digest on a line with a bad byte is no record of b4
            fh.write(b'{"digest": "%s", "name": "\xff"}\n' % digest.encode())
            fh.write('{"digest": "caf\u00e9", "name": "\u00e9t\u00e9"}\n'
                     .encode("utf-8"))
        rec, added = catalog_add(store, s4, name="again")
        assert not added and rec["name"] == "s4"
        rec, added = catalog_add(store, b4, name="b4")
        assert added
        hits, warnings = catalog_scan(store)
        assert [r["name"] for r in hits] == ["s4", "\u00e9t\u00e9", "b4"]
        assert hits[1]["digest"] == "caf\u00e9"
        assert [w.line_number for w in warnings] == [2, 3]

    def test_filter_parse_error(self):
        with pytest.raises(ParseError):
            parse_filter("rho_min ~ 0")

    @pytest.mark.parametrize("tail,names,corrupt", [
        (b'{"note": 1}', ["s4", None, "b4"], []),  # an object: a record
        (b'{"note": 1', ["s4", "b4"], [2]),
    ], ids=["object", "truncated"])
    def test_add_ends_an_unterminated_last_line(self, tmp_path, tail, names,
                                                corrupt):
        store = tmp_path / "store.jsonl"
        catalog_add(store, order_two_gem(4), name="s4")
        with store.open("ab") as fh:
            fh.write(tail)
        rec, added = catalog_add(store, ball_gem(4), name="b4")
        assert added
        again, added = catalog_add(store, ball_gem(4), name="b4")
        assert not added and again == rec
        assert store.read_bytes().splitlines()[1] == tail
        hits, warnings = catalog_scan(store)
        assert [r.get("name") for r in hits] == names
        assert hits[-1] == rec
        assert [w.line_number for w in warnings] == corrupt

    def test_huge_exponent_is_text(self):
        # Fraction("1e100000") would be a 332,000-bit integer
        assert gemio._coerce("1e4300") == 10 ** 4300
        assert gemio._coerce("-1.5E-4300") == Fraction(-15, 10 ** 4301)
        for text in ("1e100000", "1e4301", "-2.5e-4301", " 1e+0004301 ",
                     "1e" + "9" * 5000):
            assert gemio._coerce(text) == text
        assert gemio._coerce("e100000") == "e100000"

    def test_huge_exponent_filter_is_a_parse_error(self):
        assert parse_filter(" x < 1e4300 ") == ("x", "<", "1e4300")
        assert parse_filter("name=e100000") == ("name", "=", "e100000")
        for expr in ("x<1e100000", "x = -1.5E-4301"):
            with pytest.raises(ParseError, match="exponent is above 4300"):
                parse_filter(expr)

    def test_whole_number_literals_compare_as_fractions(self):
        """A whole-number literal coerces to an int, and each filter
        comparison with it, on every type a record field can hold, gives
        what the same comparison with its Fraction gives."""
        values = [True, False, None, 0, 1, -3, 7, 10 ** 30, "2", "2.0", "-1/2",
                  "3e2", " 4 ", "0.5", "abc", "", "true", "null", [1, 2], [],
                  {"a": 1}, {}]
        literals = ["0", "1", "2", "-3", "7", "300", "2.0", "1e1", "-0", "6/3",
                    str(10 ** 30)]

        def as_fraction(value):  # an int as the Fraction it stands for
            return Fraction(value) if type(value) is int else value

        for literal in literals:
            coerced = gemio._coerce(literal)
            assert type(coerced) is int and coerced == Fraction(literal)
        for value in values:
            coerced = gemio._coerce(value)
            for literal in literals:
                for op in gemio._OPS.values():
                    assert (gemio._holds(coerced, op, gemio._coerce(literal))
                            == gemio._holds(as_fraction(coerced), op,
                                            Fraction(literal))), (value, literal, op)

    def test_huge_exponent_value_compares_as_text(self, tmp_path):
        store = tmp_path / "store.jsonl"
        store.write_text('{"digest": "d", "x": "1e100000"}\n')
        assert catalog_scan(store, ["x>1"])[0] == []
        assert catalog_scan(store, ["x!=1"])[0] != []
        assert catalog_scan(store, ["x>1e"])[0] == [
            {"digest": "d", "x": "1e100000"}]

    def test_record_has_invariants(self, s4):
        rec = catalog_record(s4, "s4")
        assert rec["rho_min"] == "0" and rec["omega_g"] == "0"
        assert rec["f_vector"] == [5, 10, 10, 5, 2]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 3), st.integers(0, 2 ** 20),
           st.booleans())
    def test_record_is_the_dict_form(self, d, p, seed, with_boundary):
        """The report's dict form, the record and the record ``catalog
        add`` returns, appended or found, are the tables built as dicts;
        the record's spliced text is their canonical encoding."""
        g = sample_gem(d, p, seed, with_boundary)
        form = bf.report_form(g)
        digest = gemio._graph_digest(g)
        record = {"digest": digest, "name": "g", **form}
        assert invariant_report(g).to_jsonable() == form
        assert catalog_record(g, "g") == record
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "store.jsonl"
            assert catalog_add(store, g, name="g") == (record, True)
            assert catalog_add(store, g, name="again") == (record, False)
        assert gemio._payload_json(gemio._record(g, digest, "g")) == json.dumps(
            record, sort_keys=True, separators=(",", ":"))


class TestExportDot:
    def test_s4_shape(self, tmp_path, s4):
        text = export_dot(s4, tmp_path / "a.dot")
        assert text.count(" -- ") == 5
        assert text.count("[shape=circle]") == 2
        assert "doublecircle" not in text

    def test_b4_boundary_marked(self, tmp_path, b4):
        text = export_dot(b4, tmp_path / "b.dot")
        assert text.count("[shape=doublecircle]") == 2

    def test_deterministic(self, tmp_path, shell):
        a = export_dot(shell, tmp_path / "x.dot")
        b = export_dot(shell, tmp_path / "y.dot")
        assert a == b
