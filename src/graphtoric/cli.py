"""Command line front end.

Subcommands:
  theta    write a multi-theta graph file
  analyze  run the full pipeline on a graph and print a report
  oracle   cross-check the closed-form vertices by brute force (genus <= 3)
  batch    analyze a range of multi-theta graphs as a table

Exit codes: 0 success, 1 usage, 2 invalid input, 3 internal
contradiction (two routes that must agree disagreed).

Reports are exact: every fraction is serialized as "p/q" (or "p" when
integral), and a report parsed back from its JSON form compares equal to
the original.  REPORT_LAYOUT is the one place the JSON sections, keys and
their order are fixed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import exact
from .graph_core import (
    GraphError,
    TrivalentGraph,
    multi_theta,
    parse_graph,
    serialize_graph,
)
from .lattice_fan import (
    ConsistencyError,
    DelzantVerdict,
    Lattice,
    apply_loop_free_guard,
    blocks_in_lattice,
    build_lattice,
    delzant_check,
)
from .polytope import (
    HPolytope,
    VPolytope,
    build_hrep,
    brute_force_vertices,
    enumerate_vertices,
    facet_defining_rows,
    format_hrep,
    format_vrep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CONTRADICTION = 3

# brute_force_vertices makes one integer elimination per n-row subset,
# exponential in the row count; past this ambient dimension (genus
# 3) the cross-check is refused rather than left to crawl: genus 3 has 8,008
# subsets, genus 4 already C(24, 9) = 1,307,504.
ORACLE_DIM_LIMIT = 6


# The JSON report layout, the one place its field order is fixed: each
# section (None for the top level) maps its JSON keys to AnalysisReport
# fields, in output order.  to_json and from_json both read this table.
REPORT_LAYOUT = (
    ("graph", {"genus": "genus", "vertices": "graph_vertices",
               "edges": "graph_edges", "loop_free": "loop_free"}),
    ("polytope", {key: key for key in (
        "ambient_dim", "affine_dim", "facet_count", "vertex_count",
        "cube_vertex_count", "max_vertex_denominator")}),
    ("lattice", {"covolume": "covolume"}),
    ("verdict", {key: key for key in (
        "simple", "simple_witness", "lattice_polytope", "smooth", "overall")}),
    (None, {"elapsed_ms": "elapsed_ms"}),
)
# exact rationals: a "p/q" string each, a list of them for a point
RATIONAL_FIELDS = frozenset({"covolume", "simple_witness"})


@dataclass(frozen=True, kw_only=True)
class AnalysisReport:
    """Everything the pipeline learns about one graph.

    The nine vertex-dependent fields default to None, their value when
    enumeration was skipped.  ``covolume`` and witnesses are exact
    rationals.  The JSON form follows REPORT_LAYOUT, which alone fixes
    its key order.
    """

    genus: int
    graph_vertices: int
    graph_edges: int
    loop_free: bool
    ambient_dim: int
    affine_dim: int | None = None
    facet_count: int | None = None
    vertex_count: int | None = None
    cube_vertex_count: int
    max_vertex_denominator: int | None = None
    covolume: Fraction
    simple: bool | None = None
    simple_witness: tuple[Fraction, ...] | None = None
    lattice_polytope: bool | None = None
    smooth: bool | None = None
    overall: str | None = None
    elapsed_ms: int

    def __post_init__(self):
        if self.overall == "SMOOTH" and not (self.simple and self.smooth):
            raise ValueError("SMOOTH verdict with failing sub-verdicts")

    def to_json(self) -> str:
        doc = {}
        for section, keys in REPORT_LAYOUT:
            out = doc if section is None else doc.setdefault(section, {})
            for key, field in keys.items():
                x = getattr(self, field)
                if x is not None and field in RATIONAL_FIELDS:
                    x = [str(c) for c in x] if isinstance(x, tuple) else str(x)
                out[key] = x
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        d = json.loads(text)
        fields = {}
        for section, keys in REPORT_LAYOUT:
            part = d if section is None else d[section]
            for key, field in keys.items():
                x = part[key]
                if x is not None and field in RATIONAL_FIELDS:
                    x = tuple(map(exact, x)) if isinstance(x, list) else exact(x)
                fields[field] = x
        return cls(**fields)

    def render(self) -> str:
        def yn(flag):
            return "-" if flag is None else ("yes" if flag else "no")

        def num(x):
            return "-" if x is None else str(x)

        witness = self.simple_witness
        lines = [
            f"genus {self.genus}: {self.graph_vertices} vertices, "
            f"{self.graph_edges} edges, loop-free {yn(self.loop_free)}",
            f"ambient dimension {self.ambient_dim}, affine dimension {num(self.affine_dim)}",
            f"facets {num(self.facet_count)}, vertices {num(self.vertex_count)}, "
            f"cube vertices {self.cube_vertex_count}, "
            f"max vertex denominator {num(self.max_vertex_denominator)}",
            f"lattice covolume {self.covolume}",
            f"simple {yn(self.simple)}"
            + (f" (witness ({', '.join(map(str, witness))}))" if witness is not None else "")
            + f", lattice polytope {yn(self.lattice_polytope)}, smooth {yn(self.smooth)}",
            f"verdict: {num(self.overall)}",
            f"elapsed: {self.elapsed_ms} ms",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AnalysisArtifacts:
    """Intermediate pipeline values kept around for exports, batch rows
    and tests.  The vertex-dependent ones are None when enumeration was
    skipped."""

    graph: TrivalentGraph
    hrep: HPolytope
    vpoly: VPolytope | None
    facet_rows: tuple[int, ...] | None
    lattice: Lattice
    verdict: DelzantVerdict | None


def analyze_graph(
    graph: TrivalentGraph, skip_vertex_enum: bool = False
) -> tuple[AnalysisReport, AnalysisArtifacts]:
    """Run every stage once, in the one place that sequences them.

    The 2^g cube vertices are counted from the genus and checked against
    the popcount of the integer-vertex mask, if enumerated, which guards
    only the byte lanes it is read from and the scale (README).  The
    stages read the vertex set in block order; none builds the sorted
    views.  Raises ConsistencyError."""
    t0 = time.perf_counter()
    h = build_hrep(graph)
    cube_vertex_count = 1 << graph.genus
    lattice = build_lattice(graph)
    v = facet_rows = verdict = None
    facts = {}
    if not skip_vertex_enum:
        v = enumerate_vertices(graph, h)
        integral = v.block_integer.bit_count()
        if integral != cube_vertex_count:
            raise ConsistencyError(
                f"{integral} integer vertices enumerated, "
                f"but {cube_vertex_count} cube vertices"
            )
        facet_rows = facet_defining_rows(h, v)
        verdict = delzant_check(h, v, lattice, facet_rows)
        apply_loop_free_guard(graph, verdict)
        facts = dict(
            affine_dim=v.dim,
            facet_count=len(facet_rows),
            vertex_count=v.count,
            # the lcm of denominators in {1, 2} is their maximum
            max_vertex_denominator=v.scale,
            simple=verdict.simple,
            simple_witness=verdict.simple_witness,
            lattice_polytope=blocks_in_lattice(v, lattice),
            smooth=verdict.smooth,
            overall=verdict.overall,
        )
    report = AnalysisReport(
        genus=graph.genus,
        graph_vertices=graph.n_vertices,
        graph_edges=graph.n_edges,
        loop_free=graph.is_loop_free(),
        ambient_dim=h.dim,
        cube_vertex_count=cube_vertex_count,
        covolume=lattice.covolume,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        **facts,
    )
    return report, AnalysisArtifacts(graph, h, v, facet_rows, lattice, verdict)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this project reserves 2 for
    invalid input data, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphtoric")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="write a multi-theta graph file")
    p_theta.add_argument("g", type=int, help="genus, at least 2")
    p_theta.add_argument("-o", "--output", help="output path (default stdout)")

    p_an = sub.add_parser("analyze", help="full pipeline on one graph")
    p_an.add_argument("graph", nargs="?", help="graph file path")
    p_an.add_argument("--theta", type=int, metavar="G", help="use the multi-theta graph")
    p_an.add_argument("--json", action="store_true", help="JSON report on stdout")
    p_an.add_argument("--export-hrep", metavar="PATH")
    p_an.add_argument("--export-vrep", metavar="PATH")
    p_an.add_argument("--skip-vertex-enum", action="store_true")

    p_or = sub.add_parser("oracle", help="cross-check vertex enumeration")
    p_or.add_argument("graph", nargs="?", help="graph file path")
    p_or.add_argument("--theta", type=int, metavar="G")

    p_b = sub.add_parser("batch", help="analyze a genus range of multi-theta graphs")
    p_b.add_argument("g_min", type=int)
    p_b.add_argument("g_max", type=int)
    p_b.add_argument("--json", action="store_true")
    return parser


def _load_graph(args, parser: _Parser) -> TrivalentGraph:
    if (args.graph is None) == (args.theta is None):
        parser.error("give exactly one of a graph file or --theta G")
    if args.theta is not None:
        if args.theta < 2:
            parser.error("--theta requires genus >= 2")
        return multi_theta(args.theta)
    with open(args.graph, encoding="utf-8-sig") as fh:
        return parse_graph(fh.read())


def _cmd_theta(args, parser) -> int:
    if args.g < 2:
        parser.error("genus must be at least 2")
    text = serialize_graph(multi_theta(args.g))
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_analyze(args, parser) -> int:
    if args.export_vrep and args.skip_vertex_enum:
        parser.error("--export-vrep needs vertex enumeration")
    graph = _load_graph(args, parser)
    report, artifacts = analyze_graph(graph, skip_vertex_enum=args.skip_vertex_enum)
    if args.export_hrep:
        with open(args.export_hrep, "w", encoding="utf-8") as fh:
            fh.write(format_hrep(artifacts.hrep))
    if args.export_vrep:
        with open(args.export_vrep, "w", encoding="utf-8") as fh:
            fh.write(format_vrep(artifacts.vpoly))
    sys.stdout.write(report.to_json() + "\n" if args.json else report.render())
    return EXIT_OK


# what oracle compares, in the order a mismatch is named: the fields of
# VPolytope equality, with the vertex count before the points
_ORACLE_FIELDS = (
    ("dim", lambda v: v.dim),
    ("scale", lambda v: v.scale),
    ("vertex count", lambda v: len(v.points)),
    ("points", lambda v: v.points),
    ("row_vertices", lambda v: v.row_vertices),
    ("integer_vertices", lambda v: v.integer_vertices),
)


def _cmd_oracle(args, parser) -> int:
    graph = _load_graph(args, parser)
    n = graph.n_edges
    if n > ORACLE_DIM_LIMIT:
        raise GraphError(
            f"oracle limited to ambient dimension {ORACLE_DIM_LIMIT}, got {n}"
        )
    h = build_hrep(graph)
    fast = enumerate_vertices(graph, h)
    slow = brute_force_vertices(h)
    if fast != slow:
        field = next(name for name, get in _ORACLE_FIELDS if get(fast) != get(slow))
        raise ConsistencyError(
            f"vertex enumeration disagrees on {field}: {len(fast.points)} vs "
            f"{len(slow.points)} vertices"
        )
    print(f"oracle pass: {len(fast.points)} vertices, incidence and dimension agree")
    return EXIT_OK


def _cmd_batch(args, parser) -> int:
    if not 2 <= args.g_min <= args.g_max:
        parser.error("need 2 <= g_min <= g_max")
    failures = 0
    if not args.json:
        print("g  cube_vertices  origin_facets  6g-6_ok  verdict")
    for g in range(args.g_min, args.g_max + 1):
        try:
            row = _batch_row(g)
        except ConsistencyError:
            raise  # a contradiction ends the batch with exit 3
        except Exception as exc:  # keep going; report the failed genus
            failures += 1
            if args.json:
                print(json.dumps({"g": g, "error": str(exc)}))
            else:
                print(f"{g}  error: {exc}", file=sys.stderr)
            continue
        if args.json:
            print(json.dumps(row))
        else:
            print(
                f"{row['g']}  {row['cube_vertex_count']:>13}  "
                f"{row['origin_facet_count']:>13}  "
                f"{str(row['origin_facet_ok']).lower() if row['origin_facet_ok'] is not None else '-':>7}  "
                f"{row['overall']}"
            )
    return EXIT_INPUT if failures else EXIT_OK


def _batch_row(g: int) -> dict:
    report, art = analyze_graph(multi_theta(g))
    # vertex 0 of the block order is the origin (S empty, T-join 0)
    origin_facets = sum(art.vpoly.block_masks[i] & 1 for i in art.facet_rows)
    return {
        "g": g,
        "cube_vertex_count": report.cube_vertex_count,
        "origin_facet_count": origin_facets,
        # the 6g-6 count only holds from genus 3 up
        "origin_facet_ok": (origin_facets == 6 * g - 6) if g >= 3 else None,
        "overall": report.overall,
    }


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "theta": _cmd_theta,
        "analyze": _cmd_analyze,
        "oracle": _cmd_oracle,
        "batch": _cmd_batch,
    }[args.command]
    try:
        return handler(args, parser)
    except ConsistencyError as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
