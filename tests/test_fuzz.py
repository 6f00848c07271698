"""Seeded Hypothesis fuzzing of the text format and the JSON report.

parse_graph must turn any text into a graph or a GraphError, never a
bare exception; serialize_graph and AnalysisReport.to_json must be
undone exactly by parse_graph and AnalysisReport.from_json.  Every test
runs from a fixed seed and without the example database, so reruns are
identical.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from graphtoric.cli import AnalysisReport
from graphtoric.graph_core import GraphError, TrivalentGraph, parse_graph, serialize_graph
from helpers import random_trivalent_graph

FUZZ = settings(max_examples=300, deadline=None, database=None)

# Tokens near the edge of the format: ASCII digits, signs, comments, and
# characters that str.isdigit() accepts but int() reads differently or not
# at all (superscripts, Arabic-Indic and fullwidth digits).
_TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["", "#", "-1", "+1", "0x1", "1.0", "²", "1²", "٣", "１", "⁰", " ", "1" * 5000]),
)
_GRAPHISH = st.lists(
    st.lists(_TOKENS, max_size=4).map(" ".join), max_size=12
).map("\n".join)


@seed(20261018)
@FUZZ
@given(st.one_of(st.text(), _GRAPHISH))
def test_parse_graph_returns_a_graph_or_raises_graph_error(text):
    try:
        graph = parse_graph(text)
    except GraphError:
        return
    assert isinstance(graph, TrivalentGraph)


@seed(20261019)
@FUZZ
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_serialized_graphs_parse_back(half_vertices, rng):
    graph = random_trivalent_graph(rng, 2 * half_vertices)
    assert parse_graph(serialize_graph(graph)) == graph


_FRACTIONS = st.fractions(max_denominator=10**6)
_REPORTS = st.builds(
    AnalysisReport,
    genus=st.integers(2, 10**6),
    graph_vertices=st.integers(0, 10**6),
    graph_edges=st.integers(0, 10**6),
    loop_free=st.booleans(),
    ambient_dim=st.integers(0, 10**6),
    affine_dim=st.none() | st.integers(-1, 10**6),
    facet_count=st.none() | st.integers(0, 10**6),
    vertex_count=st.none() | st.integers(0, 10**6),
    cube_vertex_count=st.integers(0, 10**6),
    max_vertex_denominator=st.none() | st.integers(1, 10**6),
    covolume=_FRACTIONS,
    simple=st.none() | st.booleans(),
    simple_witness=st.none() | st.lists(_FRACTIONS, max_size=6).map(tuple),
    lattice_polytope=st.none() | st.booleans(),
    smooth=st.none() | st.booleans(),
    overall=st.sampled_from([None, "SINGULAR"]),  # SMOOTH needs simple and smooth
    elapsed_ms=st.integers(0, 10**9),
)


@seed(20261020)
@FUZZ
@given(_REPORTS)
def test_report_json_round_trip(report):
    assert AnalysisReport.from_json(report.to_json()) == report

