"""The catalog scan and the duplicate lookup of ``catalog add`` as cold,
line-by-line reads of the store.

These are the loops the library used before it kept a store index and
searched the store's bytes: they read the store as text with universal
newlines, strip each line they look at of its blanks and decode it.
Both read a line alike, as the library's one line reader does.  Tests
compare the library against them on the same bytes.
"""

import json
from pathlib import Path

from gemkit.errors import StoreCorruptError
from gemkit.gemio import _OPS, _coerce, _load_line, parse_filter


def scan(store_path, filters=()):
    """(records, warnings) as ``gemio.catalog_scan`` returns them."""
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


def scan_payload(store_path, filters=()):
    """The object ``gemkit --json catalog scan`` prints for the store."""
    records, warnings = scan(store_path, filters)
    return {"command": "catalog", "action": "scan", "ok": True,
            "count": len(records), "records": records,
            "corrupt_lines": [w.line_number for w in warnings]}


def scan_text(store_path, filters=()):
    """The exact stdout of ``gemkit --json catalog scan`` on the store."""
    return json.dumps(scan_payload(store_path, filters), sort_keys=True,
                      separators=(",", ":")) + "\n"


def find_record(store_path, digest):
    """The stored record ``catalog add`` finds for a digest, or None: the
    first line holding the digest text that, stripped as ``scan`` strips
    it, decodes to an object with that digest, read as text with
    universal newlines."""
    store = Path(store_path)
    if not store.exists():
        return None
    with store.open(encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            if digest not in line:
                continue
            try:
                existing = _load_line(line.strip())
            except ValueError:
                continue
            if isinstance(existing, dict) and existing.get("digest") == digest:
                existing.pop("added_at", None)
                return existing
    return None
