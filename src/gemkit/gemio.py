"""Gem file serialization, DOT export, and the line-oriented catalog.

A gem file is a JSON object with keys "dimension", "vertices", "edges"
(an array of [u, v, color] triples) and optional "name" and "metadata".
Canonical form sorts edges by color then least endpoint; the content
digest hashes only the graph data, so renaming a gem does not change its
catalog identity.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import operator
import os
import re
import threading
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .core import ColoredGraph, validate
from .errors import GemError, ParseError, StoreCorruptError, ValidationError
from .invariants import JSONText, invariant_report

PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00")


# one encoder for every call: json.dumps with these settings builds a new one
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# json.dumps(value, sort_keys=True): the form of a gem file's values
_SORTED_KEYS = json.JSONEncoder(sort_keys=True)
# canonical edge order: by color, then by ends
_COLOR_THEN_ENDS = operator.itemgetter(2, 0, 1)


def _canonical(value) -> str:
    """Compact JSON with sorted keys: the form of digests, catalog lines
    and ``--json`` output."""
    return _CANONICAL.encode(value)


def _payload_json(payload: dict) -> str:
    """The text of ``_canonical(payload)`` for string keys, where a
    ``JSONText`` value or list item stands for the JSON it holds: the one
    writer of ``--json`` output and of catalog records.

    Each run of other values that are not lists, in sorted key order, is
    encoded by one ``_canonical`` call, its braces dropped.  A
    ``JSONText`` value is spliced as it is.  A list with a ``JSONText``,
    dict or list item is written one item at a time: encoding a long
    catalog scan in one call holds all its small pieces at once, about
    seven times the text.  Any other list is one ``_canonical`` call.
    Every piece and comma goes into one list, joined once."""
    out, run = ["{"], {}
    for key, value in sorted(payload.items()):
        if isinstance(value, (JSONText, list)):
            if run:
                out += (_canonical(run)[1:-1], ",")
                run = {}
            out += (_canonical(key), ":")
            if isinstance(value, JSONText):
                out.append(value)
            elif any(isinstance(item, (JSONText, dict, list)) for item in value):
                out.append("[")
                for item in value:
                    out += (item if isinstance(item, JSONText) else _canonical(item),
                            ",")
                out[-1] = "]"  # the comma after the last item
            else:
                out.append(_canonical(value))
            out.append(",")
        else:
            run[key] = value
    if run:
        out += (_canonical(run)[1:-1], ",")
    if len(out) > 1:
        out.pop()  # the comma after the last piece
    out.append("}")
    return "".join(out)


@dataclass(frozen=True)
class GemFile:
    dimension: int
    vertices: int
    edges: tuple[tuple[int, int, int], ...]
    name: Optional[str] = None
    metadata: Optional[dict] = None

    def canonical(self) -> "GemFile":
        edges = sorted([(u, v, c) if u <= v else (v, u, c)
                        for u, v, c in self.edges], key=_COLOR_THEN_ENDS)
        return GemFile(self.dimension, self.vertices, tuple(edges),
                       self.name, self.metadata)

    def digest(self) -> str:
        """Content hash of the canonical graph data (name excluded)."""
        c = self.canonical()
        return _digest(c.dimension, c.vertices,
                       tuple(chain.from_iterable(c.edges)))


def _digest(dimension: int, vertices: int, flat: Sequence[int]) -> str:
    """The content hash of graph data, from its edges in canonical order
    flattened: u, v and the color of each edge in turn, all integers.
    The hashed text is what ``_canonical`` writes of the object with keys
    dimension, edges (a list of [u, v, color] lists) and vertices, made
    by one ``%`` format."""
    text = ('{"dimension":%d,"edges":[' + ("[%d,%d,%d]," * (len(flat) // 3))[:-1]
            + '],"vertices":%d}') % (dimension, *flat, vertices)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _graph_digest(graph: ColoredGraph) -> str:
    """The digest of the graph's gem file, read off the color maps in
    canonical edge order, so no edge is sorted or built as a tuple."""
    flat = []
    for c, row in enumerate(graph.color_maps):
        for u, v in enumerate(row):
            if v > u:
                flat += (u, v, c)
    return _digest(graph.dimension, graph.num_vertices, flat)


def gemfile_from_graph(graph: ColoredGraph, name: Optional[str] = None) -> GemFile:
    # the graph lists its edges in canonical order already
    return GemFile(graph.dimension, graph.num_vertices,
                   tuple(graph.edges()), name)


def parse_gemfile(text: str) -> GemFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # int()'s digit or the nesting limit
        raise ParseError(f"JSON past a reader limit: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("dimension", "vertices", "edges"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    # type() and not isinstance(): JSON true and false decode to bool,
    # a subclass of int
    if type(doc["dimension"]) is not int or type(doc["vertices"]) is not int:
        raise ParseError("dimension and vertices must be integers")
    if not isinstance(doc["edges"], list):
        raise ParseError("edges must be an array")
    raw = doc["edges"]
    # every edge a list of three ints, checked in bulk; type() again, so a
    # JSON true is refused
    if not ({list}.issuperset(map(type, raw))
            and {3}.issuperset(map(len, raw))
            and {int}.issuperset(map(type, chain.from_iterable(raw)))):
        _raise_bad_edge(raw)
    edges = list(map(tuple, raw))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string")
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError("metadata must be an object")
    return GemFile(doc["dimension"], doc["vertices"], tuple(edges),
                   name, metadata)


def _raise_bad_edge(raw: list) -> None:
    """Raise ParseError naming the first edge that is not three integers,
    if any."""
    for k, item in enumerate(raw):
        if (not isinstance(item, list) or len(item) != 3
                or not all(type(x) is int for x in item)):
            raise ParseError(f"edges[{k}] must be three integers, got {item!r}")


def read_gem(path: str | Path) -> ColoredGraph:
    """Parse and validate a gem file; schema problems and text that is
    not UTF-8 raise ParseError, graph problems raise ValidationError
    wrapping the core error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    return graph_from_gemfile(parse_gemfile(text))


def graph_from_gemfile(gf: GemFile) -> ColoredGraph:
    try:
        return validate(gf.dimension, gf.vertices, gf.edges)
    except ValidationError:
        raise
    except GemError as exc:
        raise ValidationError(str(exc)) from exc


def format_gemfile(gf: GemFile) -> str:
    """Canonical text: sorted keys, one edge per line, trailing newline.
    Writing, reading back and writing again is a fixed point.  The edge
    lines are one ``%`` format over the canonical edges, flattened."""
    gf = gf.canonical()
    rows = ("\n    [%s, %s, %s]," * len(gf.edges))[:-1] % tuple(
        chain.from_iterable(gf.edges))
    lines = ["{", '  "dimension": %s,' % _SORTED_KEYS.encode(gf.dimension),
             '  "edges": [%s\n  ],' % rows]
    if gf.metadata:
        lines.append('  "metadata": %s,' % _SORTED_KEYS.encode(gf.metadata))
    if gf.name is not None:
        lines.append('  "name": %s,' % _SORTED_KEYS.encode(gf.name))
    lines.append('  "vertices": %s\n}\n' % _SORTED_KEYS.encode(gf.vertices))
    return "\n".join(lines)


def write_gem(graph: ColoredGraph, path: str | Path,
              name: Optional[str] = None) -> None:
    Path(path).write_text(format_gemfile(gemfile_from_graph(graph, name)),
                          encoding="utf-8")


def export_dot(graph: ColoredGraph, path: str | Path,
               name: str = "gem") -> str:
    """Deterministic DOT document: one styled edge per colored edge,
    boundary vertices drawn distinctly."""
    boundary = set(graph.boundary_vertices())
    lines = [f"graph {json.dumps(name)} {{"]
    for v in range(graph.num_vertices):
        shape = "doublecircle" if v in boundary else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for u, v, c in graph.edges():
        color = PALETTE[c % len(PALETTE)]
        lines.append(f'  {u} -- {v} [color="{color}", label="{c}"];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# catalog
#
# A store holds one record per line, in compact canonical JSON with its
# "added_at" time.


def catalog_record(graph: ColoredGraph, name: Optional[str] = None) -> dict:
    """The record ``catalog add`` stores for the gem, decoded."""
    return json.loads(_payload_json(_record(graph, _graph_digest(graph), name)))


def _record(graph: ColoredGraph, digest: str, name: Optional[str]) -> dict:
    """The record as ``_payload_json`` writes it, its tables ``JSONText``."""
    return {"digest": digest, "name": name,
            **invariant_report(graph)._json_fields()}


def _load_line(line: str):
    """One store line as JSON.  Bad bytes are read as lone surrogates,
    which UTF-8 cannot encode, so their line raises ValueError as corrupt,
    as does a line nested past the recursion limit."""
    if not line.isascii():  # lines gemkit writes are ASCII
        line.encode("utf-8")
    try:
        return json.loads(line)
    except RecursionError as exc:
        raise ValueError(str(exc)) from exc


def _line_record(raw: bytes) -> Optional[dict]:
    """The record on one store line, as every reader of a store reads it:
    None for a blank line, ValueError for a corrupt one."""
    line = raw.decode("utf-8", "surrogateescape").strip()
    if not line:
        return None
    rec = _load_line(line)
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    return rec


_LINE_REST = re.compile(rb"[^\r\n]*")


def _find_record(data: bytes, digest: str) -> Optional[dict]:
    """The record ``catalog_add`` finds in the lines of ``data``, its
    ``"added_at"`` dropped: the first line that holds the digest and
    decodes to an object with that digest, or None.  Only the lines
    holding the digest are decoded; an ASCII digest is in a line's bytes
    exactly when it is in the line's text."""
    key = digest.encode("ascii")
    hit = data.find(key)
    while hit >= 0:
        line_start = max(data.rfind(b"\n", 0, hit), data.rfind(b"\r", 0, hit)) + 1
        stop = _LINE_REST.match(data, hit).end()
        try:
            existing = _line_record(data[line_start:stop])
        except ValueError:
            existing = None
        if existing is not None and existing.get("digest") == digest:
            existing.pop("added_at", None)
            return existing
        hit = data.find(key, stop)
    return None


def catalog_add(store_path: str | Path, graph: ColoredGraph,
                name: Optional[str] = None) -> tuple[dict, bool]:
    """Append the gem's record unless its digest is already present: on
    the first line that holds the digest's text and decodes to an object
    whose ``"digest"`` is it.  Returns (record, added), the record without
    its ``"added_at"``.  Appends hold an exclusive lock; the record is
    built only when it is appended, and encoded once.  The process's
    store index answers for the bytes it covers and ``find`` searches the
    rest (see ``_StoreIndex``); a store it does not cover is searched
    whole, with no index built."""
    _, text, added = _catalog_add(store_path, graph, name)
    return json.loads(text), added


def _catalog_add(store_path: str | Path, graph: ColoredGraph,
                 name: Optional[str]) -> tuple[str, JSONText, bool]:
    """``catalog_add``: the gem's digest, the record's canonical text and
    whether it was appended.  When the index covers the whole store, the
    appended line goes into it with its text."""
    global _INDEX
    digest = _graph_digest(graph)
    # created when missing, but never touched: a duplicate keeps its mtime
    fd = os.open(store_path, os.O_RDWR | os.O_CREAT, 0o666)
    with os.fdopen(fd, "r+b") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            with _INDEX_LOCK:
                index, size = _INDEX, len(_INDEX.data)
                covered, rest = _read_after(fh, index.data)
                at = index.digests.get(digest) if covered else None
                if at is not None:
                    return digest, index.text(at), False
            existing = _find_record(rest, digest)
            if existing is not None:
                return digest, JSONText(_canonical(existing)), False
            record = _record(graph, digest, name)
            text = JSONText(_payload_json(record))
            stamp = datetime.now(timezone.utc).isoformat()
            # the line is the text of {**record, "added_at": stamp}: the
            # stamp's key sorts before every key of a record
            line = ('{"added_at":%s,%s\n' % (_canonical(stamp), text[1:])
                    ).encode("ascii")
            # the indexed bytes end in "\n"
            if rest and not rest.endswith((b"\n", b"\r")):
                fh.write(b"\n")  # end the last line, or the record joins it
            fh.write(line)
            fh.flush()  # written before the lock is released
            if covered and not rest:
                with _INDEX_LOCK:
                    # unless a scan replaced or grew the index meanwhile
                    if _INDEX is index and len(index.data) == size:
                        try:
                            index.add_own(line, record, stamp, text)
                        except BaseException:
                            _INDEX = _StoreIndex()
                            raise
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    return digest, text, True


_OPS: dict[str, Callable] = {
    "=": operator.eq, "==": operator.eq, "!=": operator.ne,
    "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
}


def parse_filter(expr: str) -> tuple[str, str, str]:
    for op in ("<=", ">=", "!=", "==", "=", "<", ">"):
        if op in expr:
            field, value = (part.strip() for part in expr.split(op, 1))
            if _huge_exponent(value):
                raise ParseError(f"filter on {field!r}: the value's exponent "
                                 f"is above {_MAX_EXPONENT}")
            return field, op, value
    raise ParseError(f"cannot parse filter {expr!r}")


_MAX_EXPONENT = 4300  # as int()'s digit limit
# decimal text with an exponent, in the form Fraction reads
_DECIMAL = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
                      r"[eE][-+]?(\d+(?:_\d+)*)\s*")


def _huge_exponent(text: str) -> bool:
    """Whether ``text`` is decimal text whose exponent has magnitude above
    ``_MAX_EXPONENT``, so that ``Fraction(text)`` would build an integer
    with that many digits."""
    match = _DECIMAL.fullmatch(text)
    if match is None:
        return False
    digits = match[1].replace("_", "").lstrip("0")
    return (len(digits) > len(str(_MAX_EXPONENT))
            or int(digits or "0") > _MAX_EXPONENT)


def _coerce(value):
    """The value a filter compares: a list or object, and text that starts
    with "[" or "{" and decodes as JSON, as its canonical JSON text; a
    whole number as an int, other numeric text as a rational."""
    if isinstance(value, bool) or value is None:
        return value
    if type(value) is int:
        return value  # compares as Fraction(str(value)) would
    if isinstance(value, (list, dict)):
        return _canonical(value)
    text = str(value)
    if text.startswith(("[", "{")):
        try:
            return _canonical(json.loads(text))
        except (ValueError, RecursionError):
            pass  # not JSON: compared as text
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if text.lower() in ("none", "null"):
        return None
    try:
        if _huge_exponent(text):
            return text
        number = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text
    # a whole number as an int, which compares as its Fraction does
    return number.numerator if number.denominator == 1 else number


_MISSING = object()  # the value of a field a record does not have


def _value(rec: dict, field: str):
    return _coerce(rec[field]) if field in rec else _MISSING


def _holds(value, op, literal) -> bool:
    if value is _MISSING:
        return False
    try:
        return op(value, literal)
    except TypeError:
        return False


class _StoreIndex:
    """What the whole lines at the start of a store parse to, for both
    ``catalog scan`` and ``catalog add``.

    The index keeps those bytes as they were read (``data``, empty or
    ending in ``\\n``) and, from them: each corrupt line's number and
    message; per record, where its line lies, its canonical text once
    made, and the coerced value of every field filtered on so far; and
    per digest the record ``catalog add`` finds for it, the first whose
    decoded ``"digest"`` is it and whose line holds its text.

    It covers a store that starts with ``data``, compared byte for byte
    (``_read_after``).  A scan of a store it covers indexes the whole
    lines that follow, decoding each once; any other store replaces it.
    An add to a store it covers looks the digest up and searches only the
    bytes that follow; when none follow, the line it appends goes in with
    the text it encoded, so no scan decodes that line unless a field
    first filtered on later needs its value.  An add to a store it does
    not cover leaves it as it is."""

    def __init__(self, fields: Iterable[str] = ()):
        self.data = bytearray()       # the indexed bytes
        self.lines = 0                # lines in them
        self.corrupt = []             # (line number, message) per corrupt line
        self.line_spans = array("q")  # start and end of each record's line
        self.texts = []               # each record's text, None until made
        # field -> coerced value per record, for ``fields`` from the start
        self.columns = {field: [] for field in fields}
        self.digests = {}             # digest -> the record catalog add finds

    def scan(self, rest: bytes, parsed: list
             ) -> tuple[list[JSONText], list[StoreCorruptError]]:
        """The texts and warnings of a scan of a store that starts with
        the indexed bytes, ``rest`` following them, after indexing the
        whole lines of ``rest``."""
        hits = range(len(self.texts))
        for field, _, _ in parsed:
            if field not in self.columns:
                self.columns[field] = [_value(self._record(i), field)
                                       for i in hits]
        for field, op, literal in parsed:
            column = self.columns[field]
            hits = [i for i in hits if _holds(column[i], op, literal)]
        made = self.texts  # a record's text is never empty
        texts = [made[i] or self.text(i) for i in hits]
        warnings = [StoreCorruptError(message, line_number=lineno)
                    for lineno, message in self.corrupt]
        # whole lines end in "\n": a last "\r" may yet become "\r\n"
        end = rest.rfind(b"\n") + 1
        if end:
            self._add(rest[:end], parsed, texts, warnings)
        tail = _StoreIndex(field for field, _, _ in parsed)  # never kept
        tail.lines = self.lines
        tail._add(rest[end:], parsed, texts, warnings)
        return texts, warnings

    def _add(self, chunk: bytes, parsed: list, texts: list,
             warnings: list) -> None:
        """Index the lines of ``chunk``, the bytes that follow the indexed
        ones, decoding each once, and append the texts of its records that
        ``parsed`` keeps and its warnings."""
        columns = list(self.columns.items())
        checks = [(self.columns[field], op, literal) for field, op, literal in parsed]
        i, start = len(self.texts), len(self.data)
        self.data += chunk
        for raw in chunk.splitlines(keepends=True):
            self.lines += 1
            line_start, start = start, start + len(raw)
            try:
                rec = _line_record(raw)
            except ValueError as exc:
                self.corrupt.append((self.lines, str(exc)))
                warnings.append(StoreCorruptError(str(exc), line_number=self.lines))
                continue
            if rec is None:
                continue
            self.line_spans.extend((line_start, start))
            self.texts.append(None)
            digest = rec.get("digest")
            if (type(digest) is str and digest not in self.digests
                    and digest.isascii() and digest.encode("ascii") in raw):
                self.digests[digest] = i
            for field, column in columns:
                column.append(_value(rec, field))
            for column, op, literal in checks:
                if not _holds(column[i], op, literal):
                    break
            else:
                texts.append(self.text(i, rec))
            i += 1

    def add_own(self, line: bytes, record: dict, stamp: str,
                text: JSONText) -> None:
        """Index ``line``, appended to a store the index covered whole:
        ``record`` with ``"added_at"`` ``stamp``, whose text is ``text``;
        its ``JSONText`` values coerce as the objects they hold."""
        start = len(self.data)
        self.data += line
        self.lines += 1
        self.line_spans.extend((start, len(self.data)))
        self.digests.setdefault(record["digest"], len(self.texts))
        self.texts.append(text)
        if self.columns:
            stored = {**record, "added_at": stamp}
            for field, column in self.columns.items():
                column.append(_value(stored, field))

    def _record(self, i: int) -> dict:
        return _line_record(self.data[self.line_spans[2 * i]:self.line_spans[2 * i + 1]])

    def text(self, i: int, rec: Optional[dict] = None) -> JSONText:
        """The record's canonical text, made the first time it is asked
        for, from ``rec`` when given."""
        if self.texts[i] is None:
            if rec is None:
                rec = self._record(i)
            rec.pop("added_at", None)
            self.texts[i] = JSONText(_canonical(rec))
        return self.texts[i]


_CHUNK = 1 << 17  # bytes read and compared at a time


def _read_after(fh, indexed: bytearray) -> tuple[bool, bytes]:
    """Read the store open as ``fh`` from its start: whether it starts
    with the bytes ``indexed``, and the bytes that follow them, or the
    whole store when it does not.  The bytes are compared a chunk at a
    time, so only what follows them is held at once."""
    size = len(indexed)
    view = memoryview(bytearray(min(_CHUNK, size)))
    at = 0
    while at < size:
        n = fh.readinto(view[:size - at])
        if not n or not indexed.startswith(view[:n], at):
            fh.seek(0)
            return False, fh.read()
        at += n
    return True, fh.read()


# One index per process, of the store read last.
_INDEX = _StoreIndex()
_INDEX_LOCK = threading.Lock()


def _catalog_texts(store_path: str | Path, filters: Iterable[str] = ()
                   ) -> tuple[list[JSONText], list[StoreCorruptError]]:
    """The canonical JSON text of each record ``catalog_scan`` returns,
    and its warnings.  Of a store the index covers, only the lines past
    its bytes are decoded; any other store replaces the index."""
    global _INDEX
    parsed = [(field, _OPS[op], _coerce(raw))
              for field, op, raw in map(parse_filter, filters)]
    store = Path(store_path)
    if not store.exists():
        return [], []
    with store.open("rb") as fh, _INDEX_LOCK:
        covered, rest = _read_after(fh, _INDEX.data)
        if not covered:
            # not an append: read the store anew, with the fields named so far
            _INDEX = _StoreIndex(_INDEX.columns)
        try:
            return _INDEX.scan(rest, parsed)
        except BaseException:
            _INDEX = _StoreIndex()  # a scan cut short leaves no partial index
            raise


def catalog_scan(store_path: str | Path, filters: Iterable[str] = ()
                 ) -> tuple[list[dict], list[StoreCorruptError]]:
    """Records matching every filter expression (``field OP value``),
    plus parse problems as warnings; scanning never aborts on a corrupt
    line."""
    texts, warnings = _catalog_texts(store_path, filters)
    return [json.loads(text) for text in texts], warnings
