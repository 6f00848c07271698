"""Writes reference.json: the facts of multi_theta(g) that only a copy
can check, the vertex and facet counts the independent checks cannot
re-derive at g >= 4 (brute force is out of reach from g = 4 on).

    python3 benchmark/reference.py

Run from the repository root.  It analyses multi_theta(2..6) with the
program and, for g <= 3, confirms the vertex set with the brute-force
enumerator before writing anything.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "reference.json"


def load() -> dict[str, dict[str, int]]:
    return json.loads(PATH.read_text(encoding="utf-8"))["multi_theta"]


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src")]
    from graphtoric import analyze_graph, brute_force_vertices, multi_theta

    out = {}
    for g in range(2, 7):
        report, artifacts = analyze_graph(multi_theta(g))
        if g <= 3 and brute_force_vertices(artifacts.hrep).vertices != artifacts.vpoly.vertices:
            sys.exit(f"multi_theta({g}): enumeration and brute force disagree")
        out[str(g)] = {"vertices": report.vertex_count, "facets": report.facet_count}
        print(f"multi_theta({g}): {out[str(g)]}")
    PATH.write_text(json.dumps({"multi_theta": out}, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
