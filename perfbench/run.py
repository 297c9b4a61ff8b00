#!/usr/bin/env python3
"""gemkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run from the root of a gemkit checkout.  The run imports gemkit from the
checkout's ``src``, writes the seed's gem files, then drives operations
one at a time (closed loop, one client) until ``--seconds`` of measured
time are spent, checking every output.  It prints each metric by name
with its unit and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the run executes a fixed number of operations twice, first
with gemkit unmodified and then with every traced function wrapped, and
reports the per-function counts and self times, the distinct-work
ratios and the tracing overhead; the spans go to ``perfbench/out/``.

Host speed on a shared machine drifts by tens of percent within seconds,
so a fixed pure-Python probe is timed after every operation, and each
operation's time is scaled by ``PROBE_NOMINAL_S`` over the mean probe
time around it: reported times are what the operation would take on
this host at its nominal speed.  The raw wall figures are printed
alongside.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = HERE / "out"
REQUIRED = ("src/gemkit/__init__.py", "tests/bruteforce.py", "gems/shell.gem")
SETUP_REPEATS = (3, 9)   # set up at least 3 and at most 9 times,
SETUP_MIN_S = 2.0        # until this much set-up time has passed
MIN_OPS = 100        # p90 needs ten samples beyond it
DIGEST_OPS = 100     # the output digest covers this many leading operations
WALL_CAP = 1.75      # stop at this multiple of --seconds of wall time


# ---------------------------------------------------------------------------
# host-speed probe

_PROBE_RNG = random.Random(20201102)
_PROBE_VERTICES = 64
_PROBE_EDGES = [(perm[k], perm[k + 1], color)
                for color in range(5)
                for perm in [_PROBE_RNG.sample(range(_PROBE_VERTICES), _PROBE_VERTICES)]
                for k in range(0, _PROBE_VERTICES, 2)]
_PROBE_COLOR_SETS = [set(c) for c in ((0, 1), (1, 2, 3), (0, 2, 4), (0, 1, 2, 3))]
_PROBE_PAIRS = [(_PROBE_RNG.randrange(1000), _PROBE_RNG.randrange(1, 50))
                for _ in range(160)]
# median probe time on the reference host (2 cores, Python 3.11)
PROBE_NOMINAL_S = 0.0007
# half-width of the time window whose median probe scales an operation
PROBE_WINDOW_S = 2.0


def _probe_work() -> int:
    """Fixed work in the style of gemkit's inner loops, sharing no code
    with it: residue counting by plain BFS over dicts and sets, then
    exact fractions and JSON text.  Without the allocation-heavy half the
    probe slows less than the operations when the host is busy."""
    table = {}
    for a, b in _PROBE_PAIRS:
        value = Fraction(a, b)
        table[f"{a},{b}"] = [str(value), a * b, (a, b)]
    total = len(json.dumps(table, sort_keys=True))
    for colors in _PROBE_COLOR_SETS:
        adj: dict[int, list[int]] = {v: [] for v in range(_PROBE_VERTICES)}
        for u, v, c in _PROBE_EDGES:
            if c in colors:
                adj[u].append(v)
                adj[v].append(u)
        seen: set[int] = set()
        comps = []
        for start in range(_PROBE_VERTICES):
            if start in seen:
                continue
            seen.add(start)
            stack, comp = [start], []
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            comps.append(tuple(sorted(comp)))
        total += len(sorted(comps))
    return total


def probe() -> float:
    """One timing of the probe work, garbage collection off so that only
    the host's speed shows."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# set-up


def import_gemkit():
    """Import gemkit afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "gemkit" or m.startswith("gemkit.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    gk = importlib.import_module("gemkit")
    importlib.import_module("gemkit.cli")
    if Path(gk.__file__).resolve().parent != ROOT / "src" / "gemkit":
        raise RuntimeError(f"imported gemkit from {gk.__file__}, not the checkout")
    return gk


def set_up(wl, seed: int, workdir: Path, count: int):
    """Set up repeatedly (fresh import, generate and write the inputs of
    ``count`` operations), as SETUP_REPEATS and SETUP_MIN_S say; returns
    the last import, its operations and the (wall, host-speed-scaled)
    seconds of each set-up.

    The workload calls ``tick`` after each gem it writes; every 50 ms a
    tick times the probe, and that time is taken out of the set-up's."""
    times = []
    least, most = SETUP_REPEATS
    while len(times) < least or (len(times) < most
                                 and sum(w for w, _ in times) < SETUP_MIN_S):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        probes = [probe()]
        paused = 0.0
        t0 = last = time.perf_counter()

        def tick():
            nonlocal paused, last
            now = time.perf_counter()
            if now - last >= 0.05:
                probes.append(probe())
                last = time.perf_counter()
                paused += last - now

        gk = import_gemkit()
        ops = wl.generate(gk, seed, workdir, ROOT, count, tick)
        wall = time.perf_counter() - t0 - paused
        probes.append(probe())
        times.append((wall, wall * PROBE_NOMINAL_S / statistics.fmean(probes)))
    return gk, ops, times


# ---------------------------------------------------------------------------
# measurement


class Pass:
    """Outcome of driving one sequence of operations."""

    def __init__(self):
        self.starts: list[float] = []   # perf_counter at each operation's start
        self.raw: list[float] = []      # wall seconds per operation
        self.probe_at: list[float] = []
        self.probes: list[float] = []
        self.failures: list[str] = []
        self.sampled = 0
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.raw)

    def scales(self) -> list[float]:
        """Host-speed factor of each operation: nominal probe time over
        the mean probe within PROBE_WINDOW_S of the operation's middle.
        Single probes are too noisy and the drift is slower; a median
        would miss the short bursts of slowness that operations do see."""
        out = []
        for t0, raw in zip(self.starts, self.raw):
            mid = t0 + raw / 2
            before = bisect.bisect_left(self.probe_at, t0) - 1
            lo = min(bisect.bisect_left(self.probe_at, mid - PROBE_WINDOW_S), before)
            hi = max(bisect.bisect_right(self.probe_at, mid + PROBE_WINDOW_S), before + 2)
            out.append(PROBE_NOMINAL_S / statistics.fmean(self.probes[lo:hi]))
        return out

    def scaled(self) -> list[float]:
        """Host-speed-adjusted seconds per operation."""
        return [raw * s for raw, s in zip(self.raw, self.scales())]


def drive(wl, gk, ops, state, bf, budget_s: float, wall_cap_s: float,
          min_ops: int, recorder=None) -> Pass:
    """Run operations in order until ``budget_s`` of scaled time is spent
    and at least ``min_ops`` ran, the operations run out, or the wall
    clock passes ``wall_cap_s``.  Only ``wl.call`` is timed; a probe
    runs before the first operation and after each one."""
    out = Pass()
    start = time.perf_counter()
    spent = 0.0
    out.probes.append(probe())
    out.probe_at.append(time.perf_counter())
    for i, op in enumerate(ops):
        if recorder:
            recorder.begin_op(i)
        failure = None
        t0 = time.perf_counter()
        try:
            result = wl.call(gk, op, state)
        except Exception as exc:  # an operation that raises counts as failed
            failure = f"op {i}: raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if recorder:
            recorder.end_op()
        out.probes.append(probe())
        out.probe_at.append(time.perf_counter())
        out.starts.append(t0)
        out.raw.append(t1 - t0)
        text = ""
        if failure is None:
            try:
                text, reason = wl.check(op, result, state, bf)
            except Exception as exc:  # malformed output fails the check
                reason = f"output check raised {type(exc).__name__}: {exc}"
            if reason:
                failure = f"op {i}: {reason}"
        out.sampled += op.sample >= 0
        if i < DIGEST_OPS:
            out.digest.update(text.encode("utf-8") + b"\n")
        if failure:
            out.failures.append(failure)
        # the budget uses recent probes; the reported times use the
        # centred window once the pass is over
        spent += (t1 - t0) * PROBE_NOMINAL_S / statistics.fmean(out.probes[-25:])
        if len(out.raw) >= min_ops and spent >= budget_s:
            break
        if t1 - start >= wall_cap_s:
            break
    return out


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by the exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(run: Pass, setup: list[tuple[float, float]]) -> dict[str, dict]:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = run.scaled()
    return {
        "ops_per_s": {"value": run.attempted / sum(scaled), "unit": "1/s"},
        "op_ms_p50": {"value": 1000 * statistics.median(scaled), "unit": "ms"},
        "op_ms_p90": {"value": 1000 * percentile(scaled, 90), "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, bf=None,
        max_ops: int | None = None, say=print) -> dict:
    """One benchmark run; returns the result object printed last.

    ``bf`` replaces the oracle module and ``max_ops`` caps the number of
    operations; both exist for the harness's own tests."""
    wl = WORKLOADS[workload]
    bf = bf if bf is not None else oracle.load(ROOT)
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    try:
        gk, ops, setup = set_up(wl, seed, workdir, max_ops or wl.pool)
        say(f"gemkit benchmark: workload={workload} seed={seed} "
            f"seconds={seconds:g} trace={int(trace)}")
        say(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]}")
        say(f"set-up: {', '.join(f'{w:.4f}' for w, _ in setup)} s wall, "
            f"{', '.join(f'{s:.4f}' for _, s in setup)} s scaled, "
            f"{len(ops)} operations generated")
        if trace:
            result = _traced(wl, gk, ops[:wl.trace_ops], workdir, bf, seed, say)
        else:
            result = _untraced(wl, gk, ops, workdir, bf, seconds, setup, say)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _report(name: str, run: Pass, say) -> None:
    say(f"{name}: {run.attempted} operations attempted, {len(run.failures)} "
        f"failed (fail_ratio {len(run.failures) / max(run.attempted, 1):.4f}), "
        f"{run.sampled} checked by the oracle")
    say(f"{name}: output digest of the first {min(run.attempted, DIGEST_OPS)} "
        f"operations sha256={run.digest.hexdigest()}")
    for failure in run.failures[:10]:
        say(f"  FAILED {failure}")


def _untraced(wl, gk, ops, workdir, bf, seconds, setup, say) -> dict:
    t0 = time.perf_counter()
    run = drive(wl, gk, ops, wl.start(workdir, "timed"), bf, seconds,
                WALL_CAP * seconds, MIN_OPS)
    wall = time.perf_counter() - t0
    _report(wl.name, run, say)
    metrics = end_to_end(run, setup)
    say(f"samples: {run.attempted} operation latencies; raw wall: "
        f"{run.attempted / sum(run.raw):.4f} ops/s, "
        f"p50 {1000 * statistics.median(run.raw):.3f} ms, "
        f"p90 {1000 * percentile(run.raw, 90):.3f} ms, "
        f"loop {wall:.2f} s, mean probe {1e6 * statistics.fmean(run.probes):.1f} us "
        f"(nominal {1e6 * PROBE_NOMINAL_S:.1f} us)")
    for name, m in metrics.items():
        say(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def _traced(wl, gk, ops, workdir, bf, seed, say) -> dict:
    plain = drive(wl, gk, ops, wl.start(workdir, "plain"), bf,
                  float("inf"), float("inf"), len(ops))
    _report("untraced pass", plain, say)
    gk = import_gemkit()  # drop anything the first pass left in gemkit
    recorder = tracer.Recorder()
    recorder.install(gk)
    try:
        traced = drive(wl, gk, ops, wl.start(workdir, "traced"), bf,
                       float("inf"), float("inf"), len(ops), recorder)
    finally:
        recorder.uninstall()
    _report("traced pass", traced, say)
    failures = plain.failures + traced.failures
    if plain.digest.digest() != traced.digest.digest():
        failures.append("traced outputs differ from untraced outputs")
        say("FAILED traced outputs differ from untraced outputs")
    for name in recorder.missing:
        say(f"warning: {name} not found in gemkit; reported as zero")
    metrics = recorder.metrics(traced.scales())
    metrics["trace.overhead_ratio"] = {
        "value": sum(traced.scaled()) / sum(plain.scaled()), "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-{seed}.tsv.gz"
    count = recorder.write(spans_path)
    say(f"{count} spans written to {spans_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        say(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not failures,
            "attempted": plain.attempted + traced.attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gemkit checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
