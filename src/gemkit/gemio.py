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
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional

from .core import ColoredGraph, validate
from .errors import GemError, ParseError, StoreCorruptError, ValidationError
from .invariants import invariant_report

PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00")


@dataclass(frozen=True)
class GemFile:
    dimension: int
    vertices: int
    edges: tuple[tuple[int, int, int], ...]
    name: Optional[str] = None
    metadata: Optional[dict] = None

    def canonical(self) -> "GemFile":
        edges = sorted(((min(u, v), max(u, v), c) for u, v, c in self.edges),
                       key=operator.itemgetter(2, 0, 1))
        return GemFile(self.dimension, self.vertices, tuple(edges),
                       self.name, self.metadata)

    def to_jsonable(self) -> dict:
        out = {"dimension": self.dimension, "vertices": self.vertices,
               "edges": [list(e) for e in self.edges]}
        if self.name is not None:
            out["name"] = self.name
        if self.metadata:
            out["metadata"] = self.metadata
        return out

    def digest(self) -> str:
        """Content hash of the canonical graph data (name excluded)."""
        c = self.canonical()
        payload = json.dumps(
            {"dimension": c.dimension, "vertices": c.vertices,
             "edges": [list(e) for e in c.edges]},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


def gemfile_from_graph(graph: ColoredGraph, name: Optional[str] = None) -> GemFile:
    # the graph lists its edges in canonical order already
    return GemFile(graph.dimension, graph.num_vertices,
                   tuple(graph.edges()), name)


def parse_gemfile(text: str) -> GemFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
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
    edges = []
    for k, item in enumerate(doc["edges"]):
        if (not isinstance(item, list) or len(item) != 3
                or not all(type(x) is int for x in item)):
            raise ParseError(f"edges[{k}] must be three integers, got {item!r}")
        edges.append(tuple(item))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string")
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError("metadata must be an object")
    return GemFile(doc["dimension"], doc["vertices"], tuple(edges),
                   name, metadata)


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
    Writing, reading back and writing again is a fixed point."""
    gf = gf.canonical()
    doc = gf.to_jsonable()
    lines = ["{"]
    keys = sorted(doc)
    for k, key in enumerate(keys):
        comma = "," if k + 1 < len(keys) else ""
        if key == "edges":
            lines.append('  "edges": [')
            for e, edge in enumerate(doc["edges"]):
                tail = "," if e + 1 < len(doc["edges"]) else ""
                lines.append(f"    [{edge[0]}, {edge[1]}, {edge[2]}]{tail}")
            lines.append(f"  ]{comma}")
        else:
            lines.append(f'  "{key}": {json.dumps(doc[key], sort_keys=True)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def catalog_record(graph: ColoredGraph, name: Optional[str] = None) -> dict:
    return _record(graph, gemfile_from_graph(graph).digest(), name)


def _record(graph: ColoredGraph, digest: str, name: Optional[str]) -> dict:
    record = {"digest": digest, "name": name}
    record.update(invariant_report(graph).to_jsonable())
    return record


def _load_line(line: str):
    """One store line as JSON.  Bad bytes are read as lone surrogates,
    which UTF-8 cannot encode, so their line raises ValueError as corrupt."""
    if not line.isascii():  # lines gemkit writes are ASCII
        line.encode("utf-8")
    return json.loads(line)


def catalog_add(store_path: str | Path, graph: ColoredGraph,
                name: Optional[str] = None) -> tuple[dict, bool]:
    """Append the gem's record unless its digest is already present.
    Returns (record, added).  Appends hold an exclusive lock; the record
    is built only when it is appended."""
    store = Path(store_path)
    store.touch(exist_ok=True)
    digest = gemfile_from_graph(graph).digest()
    with store.open("r+", encoding="utf-8", errors="surrogateescape") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            for line in fh:
                # only a line holding the digest text can be its record
                if digest not in line:
                    continue
                try:
                    existing = _load_line(line)
                except ValueError:
                    continue
                if isinstance(existing, dict) and existing.get("digest") == digest:
                    existing.pop("added_at", None)
                    return existing, False
            record = _record(graph, digest, name)
            stored = dict(record)
            stored["added_at"] = datetime.now(timezone.utc).isoformat()
            fh.write(json.dumps(stored, sort_keys=True) + "\n")
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    return record, True


_OPS: dict[str, Callable] = {
    "=": operator.eq, "==": operator.eq, "!=": operator.ne,
    "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
}


def parse_filter(expr: str) -> tuple[str, str, str]:
    for op in ("<=", ">=", "!=", "==", "=", "<", ">"):
        if op in expr:
            field, value = expr.split(op, 1)
            return field.strip(), op, value.strip()
    raise ParseError(f"cannot parse filter {expr!r}")


def _coerce(value):
    if isinstance(value, bool) or value is None:
        return value
    if type(value) is int:
        return value  # compares as Fraction(str(value)) would
    text = str(value)
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if text.lower() in ("none", "null"):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text


def catalog_scan(store_path: str | Path, filters: Iterable[str] = ()
                 ) -> tuple[list[dict], list[StoreCorruptError]]:
    """Records matching every filter expression (``field OP value``),
    plus parse problems as warnings; scanning never aborts on a corrupt
    line."""
    parsed = [(field, _OPS[op], _coerce(raw))
              for field, op, raw in map(parse_filter, filters)]
    records, warnings = [], []
    store = Path(store_path)
    if not store.exists():
        return records, warnings
    with store.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = _load_line(line)
                if not isinstance(rec, dict):
                    raise ValueError("record is not an object")
            except ValueError as exc:
                warnings.append(StoreCorruptError(str(exc), line_number=lineno))
                continue
            keep = True
            for field, op, literal in parsed:
                if field not in rec:
                    keep = False
                    break
                try:
                    keep = op(_coerce(rec[field]), literal)
                except TypeError:
                    keep = False
                if not keep:
                    break
            if keep:
                rec.pop("added_at", None)
                records.append(rec)
    return records, warnings
