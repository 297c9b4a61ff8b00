"""Independent recomputation of gemkit outputs on a sample of each run's gems.

The arithmetic comes from ``tests/bruteforce.py`` (plain BFS on raw edge
lists, no gemkit code); gem files are read here with the json module, not
with gemkit's parser.  Each check returns None when the output agrees and
a one-line reason when it does not.
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

# f-vector change from cancelling one 1-dipole of a 4-dimensional gem
DIPOLE_F_DELTA = (1, 4, 6, 5, 2)


def load(root: Path):
    """Import the brute-force module from the checkout, read-only."""
    path = root / "tests" / "bruteforce.py"
    spec = importlib.util.spec_from_file_location("gemkit_bruteforce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_edges(path) -> tuple[int, int, list[tuple[int, int, int]]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return doc["dimension"], doc["vertices"], [tuple(e) for e in doc["edges"]]


def _chi(fv) -> int:
    return sum((-1) ** h * n for h, n in enumerate(fv))


def _genus(bf, d, n, edges, eps) -> Fraction:
    boundary = n - 2 * sum(1 for e in edges if e[2] == d)
    if boundary:
        return bf.rho_boundary(d, n, edges, eps)
    return bf.rho_closed(d, n, edges, eps)


def check_report(bf, path, report: dict, k: int):
    """Compare an invariant report (``info`` payload or catalog record)
    with the f-vector, chi and one genus value recomputed from the file;
    ``k`` picks the cyclic order."""
    d, n, edges = read_edges(path)
    fv = bf.f_vector(d, n, edges)
    if list(fv) != report["f_vector"]:
        return f"f-vector {report['f_vector']} != oracle {list(fv)}"
    if _chi(fv) != report["chi"]:
        return f"chi {report['chi']} != oracle {_chi(fv)}"
    orders = bf.cyclic_classes(d)
    eps = orders[k % len(orders)]
    label = ",".join(map(str, eps))
    expected = _genus(bf, d, n, edges, eps)
    if Fraction(report["rho"][label]) != expected:
        return f"rho({label}) {report['rho'][label]} != oracle {expected}"
    return None


def _dipole_edges(bf, n, edges, d):
    for j in range(d + 1):
        comps = bf.bfs_components(n, edges, set(range(d + 1)) - {j})
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
        for u, v, c in edges:
            if c == j and comp_of[u] != comp_of[v]:
                yield (u, v, c)


def check_contraction(bf, regular, contracted, chi_closed: int, k: int):
    """Check a regularize + full_contraction result, each graph given as
    (dimension, vertices, edges): the regularized gem has the closed
    manifold's chi, the f-vectors differ by one dipole step per cancelled
    pair, chi and one genus value are unchanged, and no 1-dipole is left."""
    d, n_reg, reg_edges = regular
    _, n_con, con_edges = contracted
    f_reg = bf.f_vector(d, n_reg, reg_edges)
    f_con = bf.f_vector(d, n_con, con_edges)
    if _chi(f_reg) != chi_closed:
        return f"regularized chi {_chi(f_reg)} != {chi_closed}"
    pairs = (n_reg - n_con) // 2
    delta = tuple(a - b for a, b in zip(f_reg, f_con))
    if delta != tuple(pairs * x for x in DIPOLE_F_DELTA):
        return f"f-vector change {delta} after {pairs} cancellations"
    orders = bf.cyclic_classes(d)
    eps = orders[k % len(orders)]
    before = bf.rho_closed(d, n_reg, reg_edges, eps)
    after = bf.rho_closed(d, n_con, con_edges, eps)
    if before != after:
        return f"rho({eps}) changed from {before} to {after}"
    for edge in _dipole_edges(bf, n_con, con_edges, d):
        return f"contracted gem still has the 1-dipole {edge}"
    return None
