"""The benchmark's contract: workloads and metrics, and BENCHMARK.json.

Run ``python3 benchmark/spec.py`` from the repository root to rewrite
BENCHMARK.json from the definitions below; run.py reports exactly these
metric names.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20

WORKLOADS = (
    ("theta-ladder",
     "analyze multi_theta(g), g=2..6, the paper's DM_g family: double description"
     " and facet detection on highly degenerate polytopes, g=6 dominates"),
    ("random-census",
     "seeded random trivalent multigraphs of genus 2-4 from text to JSON report:"
     " the same layers through many small calls (median job genus 3), loops and the SMOOTH path"),
    ("cheap-facts",
     "vertex enumeration skipped on genus 8-12: labelling search, HNF lattice and"
     " H-rep only, so a double-description change must leave it unchanged"),
)

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("job_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per layer: every traced call gives its self time (seconds per pass,
# drift-scaled) and its call count per pass; analyze_graph is the root
# of each job, so only its self time is a layer of its own.
TRACED_LAYERS = (
    "graph_core.parse_graph",
    "polytope.build_hrep",
    "polytope.cube_vertex_labellings",
    "polytope.enumerate_vertices",
    "polytope.facet_defining_rows",
    "polytope.is_simple",
    "lattice_fan.build_lattice",
    "lattice_fan.covolume",
    "lattice_fan.delzant_check",
    "lattice_fan.is_lattice_polytope",
    "exactmath.echelon_add",
    "exactmath.hnf",
    "exactmath.det",
    "exactmath.inverse",
    "exactmath.primitive_direction",
    "cli.analyze_graph",
    "cli.to_json",
)
# Output sizes per pass.  The mathematics fixes them and checks.py
# re-derives every one, so they must stay equal: a change in either
# direction is a wrong answer, not a gain.  They are listed with
# "better": "lower" only because BENCHMARK.json has no neutral direction.
OUTPUT_COUNTS = ("polytope.rows", "polytope.vertices", "polytope.facets", "polytope.labellings")
FRACTION_STAGES = (
    "polytope.enumerate_vertices",
    "polytope.facet_defining_rows",
    "lattice_fan.build_lattice",
    "lattice_fan.delzant_check",
)


def seconds_name(layer: str) -> str:
    return "cli.analyze_graph_self_s" if layer == "cli.analyze_graph" else f"{layer}_s"


def per_layer() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in TRACED_LAYERS:
        out.append((seconds_name(layer), "s"))
        out.append((f"{layer}.calls", "count"))
    out += [(name, "count") for name in OUTPUT_COUNTS]
    out += [(f"{stage}.fraction_calls", "count") for stage in FRACTION_STAGES]
    out.append(("trace.overhead_s", "s"))
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in per_layer()
        ],
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target.name}")
