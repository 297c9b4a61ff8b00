"""The benchmark's workloads: seeded inputs, the timed call, the check.

A workload turns a seed into gem files and a list of operations, calling
``tick`` after each file it writes so the harness can time its probe.
Each operation has a timed ``call``, the only code that touches gemkit,
and an untimed ``check`` that reads the call's output and, on a fixed
sample of the run's gems, compares it with the independent oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import oracle

# Input sizes follow seeded golden-ratio sequences rather than independent
# draws: every prefix of a run covers the size range evenly, so a run's
# cost depends little on its seed or on where the time budget cut it.
PHI = (math.sqrt(5) - 1) / 2
SILVER = math.sqrt(2) - 1

ORACLE_EVERY = 10  # one gem in ten is recomputed by the oracle


def spread(offset: float, k: int, step: float = PHI) -> float:
    return (offset + k * step) % 1.0


def pick(lo: int, hi: int, u: float) -> int:
    """Integer in lo..hi for u in [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def sample_number(n: int) -> int:
    """Oracle sample number of the n-th gem, -1 when it is not sampled."""
    return n // ORACLE_EVERY if n % ORACLE_EVERY == 0 else -1


@dataclass
class Op:
    kind: str
    path: str = ""
    gem: int = -1          # index of the gem file the operation reads
    sample: int = -1       # oracle sample number, -1 when not sampled
    regular: bool = True
    where: str = ""        # survey scans: the filter expression
    data: tuple = ()       # contract: seed manifold's (chi, m, h, m_hat);
                           # highdim: expected (dimension, vertices)


def run_cli(gk, argv) -> tuple[int, str, str]:
    """In-process ``gemkit`` invocation: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gk.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli_failure(result) -> str | None:
    code, _, err = result
    return f"exit code {code}: {err.strip()[-200:]}" if code != 0 else None


# ---------------------------------------------------------------------------
# survey


@dataclass
class SurveyStore:
    """Expected state of one pass's catalog store."""

    path: Path
    digest: dict[int, str] = field(default_factory=dict)
    regular: int = 0
    boundary: int = 0


class Survey:
    """``catalog add`` of random d=4 gems into a store that starts empty,
    with resubmitted files and a ``catalog scan`` after every ten adds."""

    name = "survey"
    pool = 1300       # operations generated per run
    trace_ops = 110
    DUPLICATE_SHARE = 0.15
    SCAN_EVERY = 11   # ten adds, then one scan
    WHERE = ("regular=true", "boundary_components>=1")

    def generate(self, gk, seed: int, workdir: Path, root: Path,
                 count: int, tick) -> list[Op]:
        rng = random.Random(seed)
        offsets = [rng.random() for _ in range(4)]
        ops: list[Op] = []
        gems: list[Op] = []
        per_kind = {True: 0, False: 0}
        adds = 0
        for i in range(count):
            if i % self.SCAN_EVERY == self.SCAN_EVERY - 1:
                where = self.WHERE[(i // self.SCAN_EVERY) % 2]
                ops.append(Op("scan", where=where))
                continue
            if gems and spread(offsets[0], adds, SILVER) < self.DUPLICATE_SHARE:
                ops.append(gems[rng.randrange(len(gems))])
            else:
                regular = len(gems) % 2 == 0
                k = per_kind[regular]
                per_kind[regular] += 1
                p = pick(4, 48, spread(offsets[1 + regular], k))
                if regular:
                    graph = gk.random_gem(4, p, seed=rng.randrange(2 ** 30))
                else:
                    p_dot = pick(0, p - 1, spread(offsets[3], k, SILVER))
                    graph = gk.random_boundary_gem(4, p, p_dot,
                                                   seed=rng.randrange(2 ** 30))
                n = len(gems)
                path = workdir / f"gem{n:05d}.gem"
                gk.gemio.write_gem(graph, path)
                tick()
                op = Op("add", path=str(path), gem=n, regular=regular,
                        sample=sample_number(n))
                gems.append(op)
                ops.append(op)
            adds += 1
        return ops

    def start(self, workdir: Path, pass_name: str) -> SurveyStore:
        path = workdir / f"store-{pass_name}.jsonl"
        path.unlink(missing_ok=True)
        return SurveyStore(path)

    def call(self, gk, op: Op, store: SurveyStore):
        if op.kind == "scan":
            return run_cli(gk, ["--json", "catalog", "scan", str(store.path),
                                "--where", op.where])
        return run_cli(gk, ["--json", "catalog", "add", str(store.path), op.path,
                            "--name", f"gem{op.gem}"])

    def check(self, op: Op, result, store: SurveyStore, bf) -> tuple[str, str | None]:
        out = result[1]
        failure = _cli_failure(result)
        if failure:
            return out, failure
        payload = json.loads(out)
        if op.kind == "scan":
            expected = store.regular if op.where == "regular=true" else store.boundary
            if payload["count"] != expected or payload["corrupt_lines"]:
                return out, (f"scan {op.where} found {payload['count']} records, "
                             f"expected {expected}")
            return out, None
        record = payload["record"]
        first = op.gem not in store.digest
        if first:
            store.digest[op.gem] = record["digest"]
            if op.regular:
                store.regular += 1
            else:
                store.boundary += 1
        if payload["added"] != first:
            return out, f"gem{op.gem}: added={payload['added']}, expected {first}"
        if record["digest"] != store.digest[op.gem]:
            return out, f"gem{op.gem}: digest changed on resubmission"
        if record["regular"] != op.regular:
            return out, f"gem{op.gem}: regular={record['regular']}"
        for flag in ("omega_pairing", "capping_identities"):
            if record["bound_checks"][flag] is False:
                return out, f"gem{op.gem}: {flag} check failed"
        if first and op.sample >= 0:
            return out, oracle.check_report(bf, op.path, record, op.sample)
        return out, None


# ---------------------------------------------------------------------------
# contract


class Contract:
    """read, regularize, contract with verification, check the bound and
    take rank bounds of every color pair, on manifold boundary gems grown
    by random dipole insertions."""

    name = "contract"
    pool = 250
    trace_ops = 60
    # (chi, m, h, m_hat) of the seed manifolds: the 4-ball and the shell
    SEEDS = (("ball", (1, 0, 1, 0)), ("shell", (0, 0, 2, 0)))

    def generate(self, gk, seed: int, workdir: Path, root: Path,
                 count: int, tick) -> list[Op]:
        rng = random.Random(seed)
        offsets = [rng.random() for _ in self.SEEDS]
        bases = {"ball": gk.ball_gem(4),
                 "shell": gk.gemio.read_gem(root / "gems" / "shell.gem")}
        ops = []
        for i in range(count):
            base, data = self.SEEDS[i % 2]
            insertions = pick(10, 50, spread(offsets[i % 2], i // 2))
            graph = bases[base]
            for _ in range(insertions):
                u = rng.randrange(graph.num_vertices)
                c = rng.choice([c for c in graph.colors if graph.has_color(u, c)])
                graph, _, _ = gk.moves.insert_1_dipole(graph, (u, graph.mate(u, c)), c)
            path = workdir / f"gem{i:05d}.gem"
            gk.gemio.write_gem(graph, path)
            tick()
            ops.append(Op("contract", path=str(path), gem=i, data=data,
                          sample=sample_number(i)))
        return ops

    def start(self, workdir: Path, pass_name: str):
        return None

    def call(self, gk, op: Op, state):
        graph = gk.gemio.read_gem(op.path)
        regular, _ = gk.moves.regularize(graph, singular_color=0)
        contracted = gk.moves.full_contraction(regular, verify=True)
        bound = gk.checks.check_bound_on_gem(contracted, *op.data)
        ranks = [gk.pi1.rank_bounds(gk.pi1.presentation(regular, i, j))
                 for i, j in combinations(regular.colors, 2)]
        return regular, contracted, bound, ranks

    def check(self, op: Op, result, state, bf) -> tuple[str, str | None]:
        regular, contracted, bound, ranks = result
        out = json.dumps({"contracted": [list(e) for e in contracted.edges()],
                          "bound": bound.to_jsonable(), "rank_bounds": ranks},
                         sort_keys=True)
        if not bound.ok:
            return out, f"gem{op.gem}: bound report not ok"
        if any(lower > upper for lower, upper in ranks):
            return out, f"gem{op.gem}: rank bounds {ranks} out of order"
        if op.sample >= 0:
            chi, _, h, _ = op.data
            as_edges = [(g.dimension, g.num_vertices, list(g.edges()))
                        for g in (regular, contracted)]
            return out, oracle.check_contraction(bf, *as_edges, chi + h, op.sample)
        return out, None


# ---------------------------------------------------------------------------
# highdim


class Highdim:
    """``gemkit --json info`` on tiny regular and boundary gems of
    dimension 5, 6 and 7, where the sweep over d!/2 cyclic orders
    dominates."""

    name = "highdim"
    pool = 320
    trace_ops = 60
    # (p, p_dot) per block of ten gems of one dimension, shuffled by the
    # seed; p_dot None is a regular gem, -1 is drawn from 0..p-1.  The run's
    # median falls mid-way through the d=6 gems and p90 at 70% of the d=7
    # gems; this mix puts both inside a run of like-cost gems (p=2, at
    # most one boundary pair) rather than between two cost levels, where
    # they would jump with every small change in the mix.
    BLOCK = ((1, None), (1, None), (2, None), (3, None), (4, None),
             (2, 1), (2, 1), (2, 1), (3, -1), (4, -1))

    def generate(self, gk, seed: int, workdir: Path, root: Path,
                 count: int, tick) -> list[Op]:
        rng = random.Random(seed)
        offset = rng.random()
        blocks: dict[int, list] = {5: [], 6: [], 7: []}
        ops = []
        for i in range(count):
            d, k = 5 + i % 3, i // 3
            if not blocks[d]:
                blocks[d] = rng.sample(self.BLOCK, len(self.BLOCK))
            p, p_dot = blocks[d].pop()
            regular = p_dot is None
            if regular:
                graph = gk.random_gem(d, p, seed=rng.randrange(2 ** 30))
            else:
                if p_dot < 0:
                    p_dot = pick(0, p - 1, spread(offset, k, SILVER))
                graph = gk.random_boundary_gem(d, p, p_dot,
                                               seed=rng.randrange(2 ** 30))
            path = workdir / f"gem{i:05d}.gem"
            gk.gemio.write_gem(graph, path)
            tick()
            ops.append(Op("info", path=str(path), gem=i, regular=regular,
                          data=(d, 2 * p),
                          sample=sample_number(i)))
        return ops

    def start(self, workdir: Path, pass_name: str):
        return None

    def call(self, gk, op: Op, state):
        return run_cli(gk, ["--json", "info", op.path])

    def check(self, op: Op, result, state, bf) -> tuple[str, str | None]:
        out = result[1]
        failure = _cli_failure(result)
        if failure:
            return out, failure
        report = json.loads(out)
        d, n = op.data
        if (report["dimension"], report["vertices"], report["regular"]) != (d, n, op.regular):
            return out, f"gem{op.gem}: wrong dimension, order or regularity"
        if len(report["rho"]) != math.factorial(d) // 2:
            return out, f"gem{op.gem}: {len(report['rho'])} cyclic orders"
        if Fraction(report["rho_min"]) != min(map(Fraction, report["rho"].values())):
            return out, f"gem{op.gem}: rho_min is not the minimum"
        if op.sample >= 0:
            return out, oracle.check_report(bf, op.path, report, op.sample)
        return out, None


WORKLOADS = {w.name: w for w in (Survey(), Contract(), Highdim())}
