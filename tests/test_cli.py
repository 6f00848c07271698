import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import graphtoric
import graphtoric.cli as cli
from graphtoric import lattice_fan, polytope
from graphtoric.cli import AnalysisReport, analyze_graph, main
from graphtoric.graph_core import TrivalentGraph
from graphtoric.lattice_fan import SMOOTH, ConsistencyError, DelzantVerdict
from helpers import echelon_facet_rows, rational_vpolytope

F = Fraction

# The full JSON reports, key order included, with elapsed_ms set to 0.
GOLDEN_THETA3_JSON = """\
{
  "graph": {
    "genus": 3,
    "vertices": 4,
    "edges": 6,
    "loop_free": true
  },
  "polytope": {
    "ambient_dim": 6,
    "affine_dim": 6,
    "facet_count": 16,
    "vertex_count": 10,
    "cube_vertex_count": 8,
    "max_vertex_denominator": 2
  },
  "lattice": {
    "covolume": "1/8"
  },
  "verdict": {
    "simple": false,
    "simple_witness": [
      "0",
      "0",
      "0",
      "0",
      "0",
      "0"
    ],
    "lattice_polytope": true,
    "smooth": false,
    "overall": "SINGULAR"
  },
  "elapsed_ms": 0
}
"""
GOLDEN_THETA9_SKIP_JSON = """\
{
  "graph": {
    "genus": 9,
    "vertices": 16,
    "edges": 24,
    "loop_free": true
  },
  "polytope": {
    "ambient_dim": 24,
    "affine_dim": null,
    "facet_count": null,
    "vertex_count": null,
    "cube_vertex_count": 512,
    "max_vertex_denominator": null
  },
  "lattice": {
    "covolume": "1/32768"
  },
  "verdict": {
    "simple": null,
    "simple_witness": null,
    "lattice_polytope": null,
    "smooth": null,
    "overall": null
  },
  "elapsed_ms": 0
}
"""


def fake_smooth_verdict():
    return DelzantVerdict(
        simple=True,
        simple_witness=None,
        simple_witness_facets=None,
        smooth=True,
        smooth_witness=None,
        smooth_witness_det=None,
        overall=SMOOTH,
    )


class TestTheta:
    def test_stdout(self, capsys):
        assert main(["theta", "2"]) == 0
        assert capsys.readouterr().out == "0 1\n0 1\n0 1\n"

    def test_file_output(self, tmp_path):
        path = tmp_path / "g3.graph"
        assert main(["theta", "3", "-o", str(path)]) == 0
        assert len(path.read_text().splitlines()) == 6

    def test_too_small_genus_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["theta", "1"])
        assert e.value.code == 1

    def test_unwritable_output_is_input_error(self, tmp_path):
        assert main(["theta", "2", "-o", str(tmp_path / "no" / "dir.graph")]) == 2

    def test_python_dash_m_runs_the_cli_without_warnings(self, tmp_path):
        source_root = str(Path(graphtoric.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=source_root)
        done = subprocess.run(
            [sys.executable, "-m", "graphtoric", "theta", "2"],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == "0 1\n0 1\n0 1\n"
        assert done.stderr == ""

    @pytest.mark.parametrize("genus, code, out", [("2", 0, "0 1\n0 1\n0 1\n"), ("1", 1, "")])
    def test_python_dash_m_cli_module_runs_main(self, tmp_path, genus, code, out):
        # runpy may warn on stderr that graphtoric.cli was imported first
        source_root = str(Path(graphtoric.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=source_root)
        done = subprocess.run(
            [sys.executable, "-m", "graphtoric.cli", "theta", genus],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert done.returncode == code
        assert done.stdout == out


class TestAnalyze:
    def test_human_report(self, capsys):
        assert main(["analyze", "--theta", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict: SMOOTH" in out
        assert "lattice covolume 1/2" in out

    def test_json_report_round_trips(self, capsys):
        assert main(["analyze", "--theta", "3", "--json"]) == 0
        text = capsys.readouterr().out
        report = AnalysisReport.from_json(text)
        assert report.overall == "SINGULAR"
        assert report.covolume == F(1, 8)
        assert report.simple_witness == (F(0),) * 6
        assert AnalysisReport.from_json(report.to_json()) == report

    def test_json_and_human_share_facts(self, capsys):
        main(["analyze", "--theta", "2", "--json"])
        data = json.loads(capsys.readouterr().out)
        main(["analyze", "--theta", "2"])
        human = capsys.readouterr().out
        assert data["verdict"]["overall"] in human
        assert data["lattice"]["covolume"] in human
        assert str(data["polytope"]["facet_count"]) in human

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["--theta", "3"], GOLDEN_THETA3_JSON),
            (["--theta", "9", "--skip-vertex-enum"], GOLDEN_THETA9_SKIP_JSON),
        ],
        ids=["theta3", "theta9-skip"],
    )
    def test_golden_json_report(self, argv, golden, capsys):
        # round trips and reruns cannot see a change of key order; this can
        assert main(["analyze", "--json", *argv]) == 0
        out = capsys.readouterr().out
        assert re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out) == golden

    def test_graph_file_input(self, tmp_path, capsys):
        path = tmp_path / "dumbbell.graph"
        path.write_text("0 0\n0 1\n1 1\n")
        assert main(["analyze", str(path), "--json"]) == 0
        report = AnalysisReport.from_json(capsys.readouterr().out)
        assert report.loop_free is False
        assert report.overall == "SINGULAR"

    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # editors on Windows save UTF-8 text with a leading BOM
        plain = tmp_path / "plain.graph"
        plain.write_text("0 1\n0 1\n0 1\n")
        bom = tmp_path / "bom.graph"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for path in (plain, bom):
            for argv in (["analyze", str(path), "--json"], ["oracle", str(path)]):
                assert main(argv) == 0
                out = capsys.readouterr().out
                outputs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out))
        assert outputs[:2] == outputs[2:]

    def test_exports(self, tmp_path, capsys):
        h = tmp_path / "out.ine"
        v = tmp_path / "out.ext"
        rc = main(
            ["analyze", "--theta", "2", "--export-hrep", str(h), "--export-vrep", str(v)]
        )
        assert rc == 0
        assert h.read_text().startswith("H-representation\nbegin\n4 4 rational\n")
        assert "1 0 1 1" in v.read_text()

    def test_skip_vertex_enum_nulls_vertex_facts(self, capsys):
        assert main(["analyze", "--theta", "4", "--json", "--skip-vertex-enum"]) == 0
        report = AnalysisReport.from_json(capsys.readouterr().out)
        assert report.vertex_count is None
        assert report.overall is None
        assert report.cube_vertex_count == 16
        assert report.covolume is not None
        assert AnalysisReport.from_json(report.to_json()) == report

    def test_skip_conflicts_with_vrep_export(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(
                ["analyze", "--theta", "2", "--skip-vertex-enum",
                 "--export-vrep", str(tmp_path / "x.ext")]
            )
        assert e.value.code == 1

    def test_both_sources_is_usage_error(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("0 1\n0 1\n0 1\n")
        with pytest.raises(SystemExit) as e:
            main(["analyze", str(path), "--theta", "2"])
        assert e.value.code == 1

    def test_no_source_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["analyze"])
        assert e.value.code == 1

    def test_invalid_graph_file(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("0 1\nnot numbers\n")
        assert main(["analyze", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.graph")]) == 2

    def test_contradiction_guard_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "delzant_check", lambda *a, **k: fake_smooth_verdict())
        assert main(["analyze", "--theta", "3"]) == 3
        assert "contradiction" in capsys.readouterr().err

    def test_dependent_facet_normals_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(lattice_fan, "integer_det", lambda rows: 0)
        assert main(["analyze", "--theta", "2"]) == 3
        assert "are dependent" in capsys.readouterr().err


class TestOracle:
    def test_pass(self, capsys):
        assert main(["oracle", "--theta", "2"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_theta3_half_integral_vertices_pass(self, capsys):
        # scale 2: the column route's points and masks must equal the
        # brute-force solver's, or oracle exits 3
        assert main(["oracle", "--theta", "3"]) == 0
        assert "oracle pass: 10 vertices" in capsys.readouterr().out

    def test_size_guard(self, capsys):
        assert main(["oracle", "--theta", "5"]) == 2
        assert "dimension 6" in capsys.readouterr().err

    def test_genus_four_is_refused(self, capsys):
        # C(24, 9) = 1,307,504 row subsets would take minutes to solve
        assert main(["oracle", "--theta", "4"]) == 2
        assert "dimension 6, got 9" in capsys.readouterr().err

    def test_mismatch_is_contradiction(self, monkeypatch, capsys):
        real = cli.enumerate_vertices

        def dropping(graph, h):
            v = real(graph, h)
            return rational_vpolytope(v.dim, v.vertices[1:], v.incidence[1:], len(h.rows))

        monkeypatch.setattr(cli, "enumerate_vertices", dropping)
        assert main(["oracle", "--theta", "2"]) == 3
        assert "disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["incidence", "dim"])
    def test_incidence_or_dimension_mismatch_is_contradiction(self, field, monkeypatch, capsys):
        # the same vertex list with one wrong incidence row or dimension
        real = cli.enumerate_vertices

        def wrong(graph, h):
            v = real(graph, h)
            if field == "dim":
                return rational_vpolytope(v.dim - 1, v.vertices, v.incidence, len(h.rows))
            return rational_vpolytope(
                v.dim, v.vertices, (v.incidence[0][1:],) + v.incidence[1:], len(h.rows)
            )

        monkeypatch.setattr(cli, "enumerate_vertices", wrong)
        assert main(["oracle", "--theta", "2"]) == 3
        assert "disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, named",
        [("integer_vertices", "integer_vertices"), ("row_vertices", "row_vertices"),
         ("points", "vertex count"), ("scale", "scale")],
    )
    def test_mismatch_names_the_first_field(self, field, named, tmp_path, monkeypatch, capsys):
        # on the tripod, looped at scale 2 with 8 of 14 vertices integral:
        # one bit cleared, or the last vertex dropped, or the scale doubled,
        # and the message names that field, not just the vertex counts
        path = tmp_path / "tripod.graph"
        path.write_text("0 1\n0 2\n0 3\n1 1\n2 2\n3 3\n")
        real = cli.enumerate_vertices

        def faulty(graph, h):
            v = real(graph, h)
            value = getattr(v, field)
            if field == "points":
                value = value[:-1]
            elif field == "scale":
                value *= 2
            elif field == "row_vertices":
                value = (value[0] & value[0] - 1,) + value[1:]
            else:
                value &= value - 1
            return dataclasses.replace(v, **{field: value})

        monkeypatch.setattr(cli, "enumerate_vertices", faulty)
        assert main(["oracle", str(path)]) == 3
        counts = "13 vs 14" if field == "points" else "14 vs 14"
        assert f"disagrees on {named}: {counts} vertices" in capsys.readouterr().err


class TestCubeVertexCheck:
    def test_missing_cube_vertex_is_contradiction(self, monkeypatch, capsys):
        # one 0/1 vertex dropped with its incidence row, so the enumerated
        # integer vertices fall one short of the cycle-space count
        real = cli.enumerate_vertices

        def dropping(graph, h):
            v = real(graph, h)
            k = next(i for i, p in enumerate(v.vertices) if all(x.denominator == 1 for x in p))
            return rational_vpolytope(
                v.dim,
                v.vertices[:k] + v.vertices[k + 1 :],
                v.incidence[:k] + v.incidence[k + 1 :],
                len(h.rows),
            )

        monkeypatch.setattr(cli, "enumerate_vertices", dropping)
        assert main(["analyze", "--theta", "3"]) == 3
        assert "7 integer vertices enumerated, but 8 cube vertices" in capsys.readouterr().err

    def test_cleared_integer_bit_is_contradiction(self, monkeypatch, capsys):
        # the points and incidence are right, but the integer-vertex mask
        # has lost one bit: the guard counts the mask, not the points
        real = cli.enumerate_vertices

        def clearing(graph, h):
            v = real(graph, h)
            low = v.integer_vertices & -v.integer_vertices
            return dataclasses.replace(v, integer_vertices=v.integer_vertices ^ low)

        monkeypatch.setattr(cli, "enumerate_vertices", clearing)
        assert main(["analyze", "--theta", "3"]) == 3
        assert "7 integer vertices enumerated, but 8 cube vertices" in capsys.readouterr().err


class TestBatch:
    def test_table(self, capsys):
        assert main(["batch", "2", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3  # header + two rows
        assert out[1].startswith("2") and "SMOOTH" in out[1]
        assert out[2].startswith("3") and "SINGULAR" in out[2]

    def test_json_rows(self, capsys):
        assert main(["batch", "2", "4", "--json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["g"] for r in rows] == [2, 3, 4]
        assert [r["cube_vertex_count"] for r in rows] == [4, 8, 16]
        assert rows[0]["origin_facet_ok"] is None
        assert rows[1]["origin_facet_ok"] is True
        assert rows[1]["origin_facet_count"] == 12
        assert rows[2]["origin_facet_count"] == 18

    def test_golden_json_rows(self, capsys):
        assert main(["batch", "2", "6", "--json"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            '{"g": 2, "cube_vertex_count": 4, "origin_facet_count": 3, '
            '"origin_facet_ok": null, "overall": "SMOOTH"}',
            '{"g": 3, "cube_vertex_count": 8, "origin_facet_count": 12, '
            '"origin_facet_ok": true, "overall": "SINGULAR"}',
            '{"g": 4, "cube_vertex_count": 16, "origin_facet_count": 18, '
            '"origin_facet_ok": true, "overall": "SINGULAR"}',
            '{"g": 5, "cube_vertex_count": 32, "origin_facet_count": 24, '
            '"origin_facet_ok": true, "overall": "SINGULAR"}',
            '{"g": 6, "cube_vertex_count": 64, "origin_facet_count": 30, '
            '"origin_facet_ok": true, "overall": "SINGULAR"}',
        ]

    def test_origin_count_reads_only_facets(self, monkeypatch, capsys):
        # a genus-3 graph with a loop: 11 rows are tight at its origin, and
        # one of them is not a facet, so the 6g-6 check must read false
        graph = TrivalentGraph(4, ((0, 1), (2, 3), (2, 2), (0, 3), (0, 1), (1, 3)))
        h = polytope.build_hrep(graph)
        v = polytope.enumerate_vertices(graph, h)
        origin = v.points.index((0,) * h.dim)
        expected = len(set(v.incidence[origin]) & set(echelon_facet_rows(h, v)))
        assert (len(v.incidence[origin]), expected) == (11, 10)
        monkeypatch.setattr(cli, "multi_theta", lambda g: graph)
        assert main(["batch", "3", "3", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["origin_facet_count"] == expected
        assert row["origin_facet_ok"] is False

    def test_bad_range_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["batch", "5", "4"])
        assert e.value.code == 1

    def test_per_genus_failure_continues(self, monkeypatch, capsys):
        real = cli._batch_row

        def flaky(g):
            if g == 3:
                raise ValueError("boom")
            return real(g)

        monkeypatch.setattr(cli, "_batch_row", flaky)
        assert main(["batch", "2", "4", "--json"]) == 2
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["g"] for r in rows] == [2, 3, 4]
        assert "error" in rows[1]
        assert rows[2]["origin_facet_ok"] is True

    def test_contradiction_exits_3(self, monkeypatch, capsys):
        real = cli._batch_row

        def contradicting(g):
            if g == 3:
                raise ConsistencyError("routes disagree")
            return real(g)

        monkeypatch.setattr(cli, "_batch_row", contradicting)
        assert main(["batch", "2", "4", "--json"]) == 3
        captured = capsys.readouterr()
        assert [json.loads(line)["g"] for line in captured.out.splitlines()] == [2]
        assert "internal contradiction: routes disagree" in captured.err


STAGES = (
    "build_hrep",
    "cube_vertex_labellings",
    "build_lattice",
    "enumerate_vertices",
    "facet_defining_rows",
    "delzant_check",
    "blocks_in_lattice",
    "is_lattice_polytope",
)
# functions no stage calls: the cube vertices are counted from the genus,
# and is_lattice_polytope, which tests every vertex, is the oracle of
# blocks_in_lattice
UNCALLED = dict.fromkeys(("cube_vertex_labellings", "is_lattice_polytope"), 0)


def _counting(calls, name, real):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    return wrapper


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls per stage, counted wherever a graphtoric module binds it, so
    a stage recomputed inside another (a missing facet_rows) shows too."""
    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        real = getattr(polytope, name, None) or getattr(lattice_fan, name)
        for module in (cli, polytope, lattice_fan):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, _counting(calls, name, real))
    return calls


class TestStagesRunOnce:
    """Every stage once per graph; the cube vertices are counted from the
    genus, so cube_vertex_labellings is never called.  blocks_in_lattice
    is a stage of its own, once per enumerated graph: delzant_check does
    not call it, and skipping the vertices skips it.  Its oracle
    is_lattice_polytope is never called."""

    def test_batch(self, stage_calls, capsys):
        assert main(["batch", "2", "4", "--json"]) == 0
        assert stage_calls == {**dict.fromkeys(STAGES, 3), **UNCALLED}

    def test_analyze_graph(self, stage_calls, theta3):
        analyze_graph(theta3)
        assert stage_calls == {**dict.fromkeys(STAGES, 1), **UNCALLED}

    def test_skip_vertex_enum(self, stage_calls, theta3):
        analyze_graph(theta3, skip_vertex_enum=True)
        assert stage_calls == {
            name: int(name in ("build_hrep", "build_lattice")) for name in STAGES
        }

    def test_delzant_check_asks_no_lattice_question(self, stage_calls, bundles):
        b = bundles["theta2"]
        assert lattice_fan.delzant_check(b.hrep, b.vpoly, b.lattice, b.facet_rows).smooth
        assert stage_calls["delzant_check"] == 1
        assert stage_calls["blocks_in_lattice"] == stage_calls["is_lattice_polytope"] == 0


class TestReportValue:
    def test_analyze_graph_function(self, theta2):
        report, artifacts = analyze_graph(theta2)
        assert report.vertex_count == 4
        assert report.facet_count == 4
        assert report.max_vertex_denominator == 1
        assert artifacts.vpoly is not None

    def test_analyze_graph_leaves_incidence_unbuilt(self):
        # the stages read the rows' vertex masks VPolytope.row_vertices;
        # the per-vertex masks and the index tuples are built only when a
        # caller reads them
        _, artifacts = analyze_graph(graphtoric.multi_theta(4))
        assert "incidence" not in artifacts.vpoly.__dict__
        assert "tight" not in artifacts.vpoly.__dict__
        assert len(artifacts.vpoly.incidence) == len(artifacts.vpoly.tight)

    def test_smooth_claim_requires_sub_verdicts(self):
        with pytest.raises(ValueError):
            AnalysisReport(
                genus=2, graph_vertices=2, graph_edges=3, loop_free=True,
                ambient_dim=3, affine_dim=3, facet_count=4, vertex_count=4,
                cube_vertex_count=4, max_vertex_denominator=1,
                covolume=F(1, 2), simple=False, simple_witness=None,
                lattice_polytope=True, smooth=True, overall="SMOOTH",
                elapsed_ms=0,
            )

    def test_usage_error_for_unknown_command(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 1


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        assert [name for name in graphtoric.__all__ if not hasattr(graphtoric, name)] == []
        namespace = {}
        exec("from graphtoric import *", namespace)
        assert set(graphtoric.__all__) <= namespace.keys()
