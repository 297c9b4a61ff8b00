"""Malformed gem files, one fault each, for the `gemkit validate` golden.

    PYTHONPATH=tests python -c 'import malformed; malformed.write_cases("DIR")'

writes one ``NAME.gem`` per case into DIR.  Every case but the short
lists edits one edge or one item of ``BASE``, a valid regular 4-vertex
gem of dimension 4, so the error it meets names that fault alone.
``tests/golden/malformed_validate.txt`` holds, per case in name order,
the name, the exit code and the stderr line of ``gemkit validate``.
"""

import json
from pathlib import Path

# two order-two 4-sphere gems joined by their final-color edges
BASE = {"dimension": 4, "vertices": 4,
        "edges": [[0, 1, c] for c in range(4)] + [[2, 3, c] for c in range(4)]
        + [[0, 2, 4], [1, 3, 4]]}


def _edit(index, edge, **doc):
    edges = [list(e) for e in BASE["edges"]]
    edges[index] = edge
    return {**BASE, "edges": edges, **doc}


CASES = {
    "bad_color": _edit(0, [0, 1, 5]),
    "negative_color": _edit(0, [0, 1, -1]),
    # the edge forms of a map entry n or -2, a fixed point and a map that
    # is not an involution
    "endpoint_n": _edit(9, [1, 4, 4]),
    "endpoint_minus_two": _edit(9, [1, -2, 4]),
    "loop": _edit(9, [1, 1, 4]),
    "repeated_color": _edit(9, [0, 3, 4]),
    "missing_color": {**BASE, "edges": BASE["edges"][:4] + BASE["edges"][5:]},
    "disconnected": {**BASE, "edges": BASE["edges"][:8]
                     + [[0, 1, 4], [2, 3, 4]]},
    "two_element_edge": _edit(3, [0, 1]),
    "bool_item": _edit(3, [0, True, 3]),
    "float_item": _edit(3, [0, 1.0, 3]),
    "string_item": _edit(3, [0, "1", 3]),
    "edge_not_a_list": _edit(3, 7),
    # a bad color is named before a list too short to give every vertex
    # every color below d
    "short_list": {**BASE, "edges": [[0, 1, 0]]},
    "short_list_bad_color": {**BASE, "edges": [[0, 1, 9]]},
    # refused before any map is allocated
    "huge_vertex_count": {**BASE, "vertices": 10 ** 12},
    "huge_vertex_count_bad_color": _edit(0, [0, 1, 5], vertices=10 ** 12),
}


def write_cases(directory) -> list[Path]:
    """Write every case as ``NAME.gem`` into the directory, made if
    missing, and return the paths in name order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in sorted(CASES):
        path = directory / f"{name}.gem"
        path.write_text(json.dumps(CASES[name]), encoding="utf-8")
        paths.append(path)
    return paths
