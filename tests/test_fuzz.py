"""Seeded Hypothesis fuzzing of the text format and the JSON report.

parse_graph must turn any text into a graph or a GraphError, never a
bare exception, and must agree with the line loop it replaced
(helpers.stripped_line_parse_graph); serialize_graph and
AnalysisReport.to_json must be undone exactly by parse_graph and
AnalysisReport.from_json, and to_json must write the bytes of
json.dumps(doc, indent=2) (helpers.json_dumps_report).  Every test runs
from a fixed seed and without the example database, so reruns are
identical.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from graphtoric.cli import AnalysisReport
from graphtoric.graph_core import GraphError, TrivalentGraph, parse_graph, serialize_graph
from helpers import json_dumps_report, random_trivalent_graph, stripped_line_parse_graph

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
# The same tokens between other whitespace (tabs, the ideographic space
# U+3000, runs, and a vertical tab, at which splitlines also ends a line),
# with comments of any text and LF, CRLF or CR line ends.
_BLANKS = st.sampled_from([" ", "\t", "\u3000", " \t "])
_SEPS = _BLANKS | st.just("\x0b")
_NOTES = st.sampled_from(["", "#", " # ü", "\t#\u30001 2", "# 0 1"])
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_SPACED = st.lists(
    st.tuples(st.lists(_TOKENS, max_size=4), _SEPS, _NOTES, _ENDS), max_size=12
).map(lambda lines: "".join(sep.join(tokens) + note + end for tokens, sep, note, end in lines))


@st.composite
def _respaced_graphs(draw):
    """A random graph's text with every blank, comment and line end
    redrawn, so that the examples are graphs."""
    graph = random_trivalent_graph(draw(st.randoms(use_true_random=False)), 2 * draw(st.integers(1, 4)))
    return "".join(
        draw(_BLANKS) + f"{u}" + draw(_BLANKS) + f"{v}" + draw(_NOTES) + draw(_ENDS) for u, v in graph.edges
    )


@seed(20261018)
@FUZZ
@given(st.one_of(st.text(), _GRAPHISH))
def test_parse_graph_returns_a_graph_or_raises_graph_error(text):
    try:
        graph = parse_graph(text)
    except GraphError:
        return
    assert isinstance(graph, TrivalentGraph)


def _outcome(parse, text):
    """The graph, or the error's class, message and line number."""
    try:
        return parse(text)
    except GraphError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


@seed(20261021)
@FUZZ
@given(st.one_of(st.text(), _GRAPHISH, _SPACED, _respaced_graphs()))
def test_parse_graph_matches_line_loop_oracle(text):
    assert _outcome(parse_graph, text) == _outcome(stripped_line_parse_graph, text)


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
    # SMOOTH needs simple and smooth; other text tests the string escapes
    overall=st.sampled_from([None, "SINGULAR"]) | st.text().filter(lambda s: s != "SMOOTH"),
    elapsed_ms=st.integers(0, 10**9),
)


@seed(20261020)
@FUZZ
@given(_REPORTS)
def test_report_json_round_trip(report):
    text = report.to_json()
    assert text == json_dumps_report(report)
    assert AnalysisReport.from_json(text) == report

