"""Span recorder for the traced benchmark run.

The recorder wraps gemkit's public functions from outside the library:
each target function is replaced, in every gemkit module that binds it,
by a wrapper that records one span per call (name, start, end, parent
span, operation).  Spans stay in memory until :meth:`Recorder.write`.
The untraced run never creates a recorder, so it loads gemkit unmodified.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# layer (gemkit module) -> public functions whose calls are recorded
TARGETS = {
    "cli": ("main",),
    "gemio": ("read_gem", "catalog_record", "catalog_add", "catalog_scan"),
    "core": ("validate", "ColoredGraph.from_edges", "residues",
             "classify_vertices"),
    "boundary": ("boundary_graph", "boundary_g"),
    "invariants": ("invariant_report", "f_vector", "rho_table", "rho_closed",
                   "rho_boundary", "enumerate_cyclic_permutations"),
    "checks": ("check_regularization_identities", "check_omega_pairing",
               "check_bound_on_gem", "check_dehn_sommerville"),
    "moves": ("regularize", "full_contraction", "find_1_dipoles",
              "cancel_1_dipole"),
    "pi1": ("presentation", "tietze_simplify", "abelianization_rank"),
}


def _materialized(value):
    """An iterator argument is consumed by the distinctness key, so hand
    the wrapped function a tuple with the same items instead."""
    return tuple(value) if iter(value) is value else value


def _residues_key(args, kwargs):
    graph = args[0] if args else kwargs["graph"]
    if len(args) > 1:
        colors = _materialized(args[1])
        args = (graph, colors) + tuple(args[2:])
    else:
        colors = kwargs["colors"] = _materialized(kwargs["colors"])
    return (graph.color_maps, frozenset(colors)), args, kwargs


def _graph_key(args, kwargs):
    graph = args[0] if args else kwargs["graph"]
    return graph.color_maps, args, kwargs


# span name -> (metric name, key of one unit of useful work); the ratio of
# distinct keys within an operation to calls shows how much work repeats
DISTINCT = {
    "core.residues": ("core.residues.distinct_ratio", _residues_key),
    "boundary.boundary_graph": ("boundary.boundary_graph.distinct_ratio",
                                _graph_key),
}


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in TARGETS.items()
            for name in names]


def metric_names() -> list[str]:
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s"]
    return out + [metric for metric, _ in DISTINCT.values()]


class Recorder:
    """Records spans of wrapped gemkit calls, one operation at a time."""

    def __init__(self):
        self.names = span_names()
        n = len(self.names)
        self.calls = [0] * n
        self.op_self_s: list[list[float]] = []   # per operation, per function
        self.distinct_total = {name: 0 for name in DISTINCT}
        self.distinct_seen = {name: set() for name in DISTINCT}
        self.op = -1
        self._op_self = [0.0] * n
        self._stack: list[int] = []
        self._child: list[float] = []
        # one entry per span, in start order
        self.span_name = array("h")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self, gemkit) -> None:
        """Wrap every target function wherever a gemkit module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "gemkit" or name.startswith("gemkit."))]
        for fid, full in enumerate(self.names):
            layer, _, qualname = full.partition(".")
            module = getattr(gemkit, layer, None)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(full)
                continue
            if isinstance(raw, staticmethod):
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(self._wrap(fid, full, raw.__func__)))
                continue
            wrapper = self._wrap(fid, full, raw)
            for mod in modules:
                for bound_name, value in list(vars(mod).items()):
                    if value is raw:
                        self._restore.append((mod, bound_name, raw))
                        setattr(mod, bound_name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, fid: int, full: str, fn):
        distinct = DISTINCT.get(full)
        key_fn = distinct[1] if distinct else None
        seen = self.distinct_seen.get(full)
        stack, child = self._stack, self._child
        names, ops, parents = self.span_name, self.span_op, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, op_self = self.calls, self._op_self

        def wrapper(*args, **kwargs):
            if key_fn is not None:
                key, args, kwargs = key_fn(args, kwargs)
                seen.add(key)
            calls[fid] += 1
            sid = len(starts)
            names.append(fid)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            stack.append(sid)
            child.append(0.0)
            ends.append(0.0)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[sid] = t1
                stack.pop()
                dur = t1 - t0
                op_self[fid] += dur - child.pop()
                if child:
                    child[-1] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", full)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- operations -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        for seen in self.distinct_seen.values():
            seen.clear()

    def end_op(self) -> None:
        self.op_self_s.append(self._op_self[:])
        for fid in range(len(self._op_self)):
            self._op_self[fid] = 0.0
        for name, seen in self.distinct_seen.items():
            self.distinct_total[name] += len(seen)
            seen.clear()
        self.op = -1

    # -- results ----------------------------------------------------------

    def metrics(self, scales: list[float]) -> dict[str, dict]:
        """Per-function metrics; each operation's self times are scaled by
        its host-speed factor in ``scales``."""
        out = {}
        for fid, name in enumerate(self.names):
            self_s = sum(op[fid] * s for op, s in zip(self.op_self_s, scales))
            out[f"{name}.calls"] = {"value": self.calls[fid], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        for full, (metric, _) in DISTINCT.items():
            calls = self.calls[self.names.index(full)]
            ratio = self.distinct_total[full] / calls if calls else 0.0
            out[metric] = {"value": ratio, "unit": "ratio"}
        return out

    def write(self, path) -> int:
        """Write every span as a gzip-compressed tab-separated table;
        times are seconds from the first span.  Returns the span count."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid}\t{self.span_op[sid]}\t{self.span_parent[sid]}\t"
                         f"{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid] - origin:.9f}\t"
                         f"{self.span_end[sid] - origin:.9f}\n")
        return len(self.span_start)
