import dataclasses
import functools
import operator
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from graphtoric import graph_core
from graphtoric.graph_core import (
    DegreeViolation,
    Disconnected,
    GenusTooSmall,
    GraphError,
    GraphSyntaxError,
    TrivalentGraph,
    multi_theta,
    parse_graph,
    serialize_graph,
    _tree_paths,
    validate,
)
from graphtoric.polytope import build_hrep, cube_vertex_labellings, enumerate_vertices
from helpers import gf2_rank, incidence_triples, random_trivalent_graph, stripped_line_parse_graph


class TestMultiTheta:
    def test_genus_two_is_the_triple_edge(self):
        g = multi_theta(2)
        assert g.n_vertices == 2
        assert g.edges == ((0, 1), (0, 1), (0, 1))
        assert g.genus == 2

    @pytest.mark.parametrize("g", range(2, 9))
    def test_counts(self, g):
        graph = multi_theta(g)
        assert graph.n_vertices == 2 * g - 2
        assert graph.n_edges == 3 * g - 3
        assert graph.genus == g
        assert graph.is_loop_free()

    @pytest.mark.parametrize("g", [0, 1])
    def test_genus_below_two_is_refused(self, g):
        with pytest.raises(GenusTooSmall) as e:
            multi_theta(g)
        assert e.value.genus == g
        assert str(e.value) == f"genus {g} is below the minimum of 2"

    def test_degrees_are_three(self):
        graph = multi_theta(5)
        deg = [0] * graph.n_vertices
        for u, v in graph.edges:
            deg[u] += 1
            deg[v] += 1
        assert set(deg) == {3}


class TestValidation:
    def test_validate_infers_vertex_count(self):
        g = validate([(0, 1), (0, 1), (0, 1)])
        assert g.n_vertices == 2

    def test_genus_function(self, k4):
        assert k4.genus == 3

    def test_wrong_degree(self):
        with pytest.raises(DegreeViolation) as e:
            TrivalentGraph(2, ((0, 1), (0, 1)))
        assert e.value.vertex == 0
        assert e.value.degree == 2

    def test_isolated_vertex_reported_as_degree_zero(self):
        with pytest.raises(DegreeViolation) as e:
            TrivalentGraph(3, ((0, 1), (0, 1), (0, 1)))
        assert e.value.vertex == 2
        assert e.value.degree == 0

    def test_huge_vertex_id_is_refused_without_allocating(self):
        # the vertex count is inferred as the largest id + 1; the degree
        # check must not allocate per vertex before it can fail
        tracemalloc.start()
        try:
            with pytest.raises(DegreeViolation) as e:
                parse_graph("0 1\n0 1\n0 1000000\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (e.value.vertex, e.value.degree) == (1, 2)
        assert peak < 1_000_000

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            TrivalentGraph(4, ((0, 1),) * 3 + ((2, 3),) * 3)

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError):
            TrivalentGraph(2, ((0, 5), (0, 1), (0, 1)))

    def test_float_endpoint_is_refused_not_truncated(self):
        # int(1.7) would be 1 and turn this into the genus-2 theta graph
        with pytest.raises(GraphError, match="non-integer"):
            validate([(0, 1.7), (0, 1), (0, 1)])
        with pytest.raises(GraphError, match="non-integer"):
            TrivalentGraph(2, ((0, 1.0), (0, 1), (0, 1)))

    def test_string_endpoint_is_refused(self):
        with pytest.raises(GraphError, match="non-integer"):
            TrivalentGraph(2, (("0", "1"), ("0", "1"), ("0", "1")))
        with pytest.raises(GraphError, match="non-integer"):
            validate([("0", 1), (0, 1), (0, 1)])

    @pytest.mark.parametrize("endpoint", [None, F(1), F(3, 2), 1j, b"1"])
    def test_other_non_integer_endpoint_is_refused(self, endpoint):
        with pytest.raises(GraphError, match="non-integer"):
            TrivalentGraph(2, ((0, endpoint), (0, 1), (0, 1)))

    def test_integer_like_endpoints_are_accepted(self):
        # operator.index takes any type that declares itself an integer
        class Vertex:
            def __init__(self, i):
                self.i = i

            def __index__(self):
                return self.i

        g = validate([(Vertex(0), Vertex(1)), (0, 1), (0, 1)])
        assert g.edges == ((0, 1),) * 3
        assert all(type(x) is int for e in g.edges for x in e)

    def test_loops_count_twice(self, dumbbell):
        # loop at 0 plus the bridge gives degree 3, not 2
        assert dumbbell.genus == 2


class TestCycleBasis:
    @pytest.fixture(scope="class")
    def graphs(self, theta2, theta3, theta4, dumbbell, k4):
        rng = random.Random(23)
        sizes = (2, 4, 6, 8, 10, 12, 22)
        randoms = [random_trivalent_graph(rng, n) for n in sizes for _ in range(4)]
        return [theta2, theta3, theta4, dumbbell, k4, multi_theta(9), *randoms]

    def test_genus_many_masks(self, graphs):
        for graph in graphs:
            assert len(graph.cycle_basis()) == graph.genus

    def test_masks_are_independent(self, graphs):
        for graph in graphs:
            bits = range(graph.n_edges)
            vectors = [[mask >> i & 1 for i in bits] for mask in graph.cycle_basis()]
            assert gf2_rank(vectors) == graph.genus

    def test_every_vertex_has_even_degree(self, graphs):
        for graph in graphs:
            for mask in graph.cycle_basis():
                degree = [0] * graph.n_vertices
                for i, (u, v) in enumerate(graph.edges):
                    if mask >> i & 1:
                        degree[u] += 1
                        degree[v] += 1
                assert all(d % 2 == 0 for d in degree), (graph.edges, bin(mask))

    def test_kept_tree_paths_stay_out_of_equality_and_repr(self, graphs):
        for graph in graphs:
            paths, triples = _tree_paths(graph.n_vertices, graph.edges)
            assert graph._paths == tuple(paths)
            assert graph._triples == triples
            twin = TrivalentGraph(graph.n_vertices, graph.edges)
            assert twin == graph and hash(twin) == hash(graph)
            assert repr(graph) == (
                f"TrivalentGraph(n_vertices={graph.n_vertices}, edges={graph.edges!r})"
            )

    def test_each_mask_owns_one_non_tree_edge(self):
        # the labellings' reduction rests on this: each mask holds exactly
        # one edge off the spanning tree (the union of the tree paths), no
        # other mask holds it, and a loop's mask is the loop alone
        rng = random.Random(2409)
        randoms = [random_trivalent_graph(rng, 2 * g - 2) for g in range(2, 10) for _ in range(10)]
        assert sum(not graph.is_loop_free() for graph in randoms) >= 20
        for graph in [multi_theta(g) for g in range(2, 10)] + randoms:
            paths, _ = _tree_paths(graph.n_vertices, graph.edges)
            tree = functools.reduce(operator.or_, paths)
            assert tree.bit_count() == graph.n_vertices - 1
            masks = graph.cycle_basis()
            owned = [mask & ~tree for mask in masks]
            assert all(f.bit_count() == 1 for f in owned), graph
            for i, f in enumerate(owned):
                assert [j for j, mask in enumerate(masks) if mask & f] == [i], graph
            # the vertex stage reads each mask with its non-tree edge and
            # the tree path to that edge's first end
            ends = [graph.edges[f.bit_length() - 1][0] for f in owned]
            assert graph._cycles == tuple(zip(masks, owned, (paths[u] for u in ends)))
            for i, (u, v) in enumerate(graph.edges):
                if u == v:
                    assert 1 << i in masks, graph

    def test_validation_walks_the_graph_once(self, monkeypatch, dumbbell):
        # construction walks the graph; the cycle basis and the stages that
        # read it, the vertices and the labellings, reuse that walk
        calls = []

        def counting(n, edges):
            calls.append(n)
            return _tree_paths(n, edges)

        monkeypatch.setattr(graph_core, "_tree_paths", counting)
        for n, edges in [(dumbbell.n_vertices, dumbbell.edges), (10, multi_theta(6).edges)]:
            calls.clear()
            graph = TrivalentGraph(n, edges)
            graph.cycle_basis()
            graph.cycle_basis()
            enumerate_vertices(graph, build_hrep(graph))
            cube_vertex_labellings(graph)
            assert calls == [n]


class TestTrinionTriples:
    def test_triple_edge(self, theta2):
        triples = theta2.trinion_triples()
        assert [t.vertex for t in triples] == [0, 1]
        assert all(t.edges == (0, 1, 2) for t in triples)

    def test_loop_doubles_its_index(self, dumbbell):
        triples = dumbbell.trinion_triples()
        assert triples[0].edges == (0, 0, 1)
        assert triples[1].edges == (1, 2, 2)

    def test_sorted_ascending(self, k4):
        for t in k4.trinion_triples():
            assert list(t.edges) == sorted(t.edges)

    def test_walk_order(self, dumbbell, k4):
        # the order build_hrep emits the trinion rows in, and so the order
        # the double description inserts them in
        rng = random.Random(5)
        randoms = [random_trivalent_graph(rng, n) for n in (2, 4, 8, 12, 22) for _ in range(4)]
        for graph in [dumbbell, k4, *map(multi_theta, range(2, 10)), *randoms]:
            order = [t.vertex for t in graph.trinion_triples()]
            assert order[0] == 0
            assert sorted(order) == list(range(graph.n_vertices))
            for i, x in enumerate(order[1:], 1):
                earlier = set(order[:i])
                assert any(u == x and v in earlier or v == x and u in earlier for u, v in graph.edges)

    def test_kept_triples_match_the_incidence_rebuild(self, theta2, theta3, theta4, dumbbell, k4):
        rng = random.Random(29)
        randoms = [random_trivalent_graph(rng, n) for n in (2, 4, 6, 8, 10, 12, 22) for _ in range(5)]
        # the random graphs must reach the loop and multi-edge cases
        assert any(not g.is_loop_free() for g in randoms)
        assert any(len(set(g.edges)) < g.n_edges for g in randoms)
        graphs = [theta2, theta3, theta4, dumbbell, k4, *map(multi_theta, range(2, 10)), *randoms]
        permuted = [
            dataclasses.replace(graph, edges=tuple(rng.sample(graph.edges, graph.n_edges)))
            for graph in graphs
        ]
        for graph in graphs + permuted:
            assert graph.trinion_triples() == incidence_triples(graph), graph.edges

    def test_triples_are_built_once(self, theta4):
        triples = theta4.trinion_triples()
        assert isinstance(triples, tuple)
        assert theta4.trinion_triples() is triples

    def test_every_edge_appears_twice_overall(self, theta3):
        counts = [0] * theta3.n_edges
        for t in theta3.trinion_triples():
            for e in t.edges:
                counts[e] += 1
        assert set(counts) == {2}


class TestFileFormat:
    def test_serialize(self, theta2):
        assert serialize_graph(theta2) == "0 1\n0 1\n0 1\n"

    def test_round_trip(self, k4, dumbbell, theta4):
        for g in (k4, dumbbell, theta4):
            assert parse_graph(serialize_graph(g)) == g

    def test_comments_and_blanks(self):
        text = "# triple edge\n\n0 1\n0 1  # arc\n\n0 1\n"
        assert parse_graph(text) == multi_theta(2)

    def test_bad_token_reports_line(self):
        with pytest.raises(GraphSyntaxError) as e:
            parse_graph("0 1\n0 x\n0 1\n")
        assert e.value.line_no == 2

    def test_negative_id_rejected(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("0 1\n-1 0\n0 1\n")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("0 1 2\n")

    # split() with no argument splits at any whitespace and drops it at
    # both ends, as strip() did; only the tokens must be ASCII, so a
    # comment may hold any text
    @pytest.mark.parametrize(
        "text",
        ["0 1 # ü\n0 1\n0 1  # ٣ ²\n", "0\t1\n0\u30001\n\t 0 \u3000 1\u3000\n", "0 1\r\n0 1\r\n0 1\r\n"],
        ids=["non-ascii-comment", "tabs-and-ideographic-space", "crlf"],
    )
    def test_whitespace_and_comments(self, text):
        assert parse_graph(text) == stripped_line_parse_graph(text) == multi_theta(2)

    @pytest.mark.parametrize(
        "text", ["0 1\r\n0\t٣ # ü\r\n0 1\r\n", "0 1\n\u3000１\u30000\n0 1\n", "0 1\n0\t1\t2\n"]
    )
    def test_errors_match_line_loop(self, text):
        errors = []
        for parse in (parse_graph, stripped_line_parse_graph):
            with pytest.raises(GraphSyntaxError) as e:
                parse(text)
            errors.append((e.value.line_no, str(e.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] == 2

    # str.isdigit() accepts superscripts and non-ASCII decimal digits, and
    # int() refuses more than 4300 digits; each is a syntax error, not a
    # bare ValueError or another vertex id
    @pytest.mark.parametrize("token", ["1²", "²", "٣", "１", "1" * 5000])
    def test_non_ascii_or_oversized_digits_rejected(self, token):
        with pytest.raises(GraphSyntaxError) as e:
            parse_graph(f"0 1\n{token} 0\n0 1\n")
        assert e.value.line_no == 2
