import random
from fractions import Fraction

import pytest

from graphtoric.cli import analyze_graph
from graphtoric.graph_core import TrivalentGraph, multi_theta
from graphtoric.lattice_fan import SMOOTH, Lattice, delzant_check
from graphtoric.polytope import (
    HPolytope,
    NotFullDimensional,
    Row,
    UnboundedPolytope,
    brute_force_vertices,
    build_hrep,
    contains,
    cube_vertex_labellings,
    enumerate_vertices,
    facet_defining_rows,
    format_hrep,
    format_vrep,
    is_simple,
)
from helpers import (
    exhaustive_labellings,
    gauss_rank,
    inequality_hrep,
    random_hsystem,
    random_trivalent_graph,
)

F = Fraction

TET_VERTICES = {
    (F(0), F(0), F(0)),
    (F(1), F(1), F(0)),
    (F(1), F(0), F(1)),
    (F(0), F(1), F(1)),
}


def unit_cube(n):
    ineqs = []
    for i in range(n):
        e = tuple(int(i == k) for k in range(n))
        ineqs.append((e, 1))
        ineqs.append((tuple(-x for x in e), 0))
    return HPolytope.from_inequalities(n, ineqs)


class TestBuildHrep:
    def test_triple_edge_collapses_to_four_rows(self, theta2):
        h = build_hrep(theta2)
        assert h.dim == 3
        assert {(r.a, r.b) for r in h.rows} == {
            ((1, 1, 1), 2),
            ((1, -1, -1), 0),
            ((-1, 1, -1), 0),
            ((-1, -1, 1), 0),
        }

    def test_loop_folds_into_coefficient_two(self, dumbbell):
        h = build_hrep(dumbbell)
        assert {(r.a, r.b) for r in h.rows} == {
            ((2, 1, 0), 2),
            ((-2, 1, 0), 0),
            ((0, -1, 0), 0),
            ((0, 1, 2), 2),
            ((0, 1, -2), 0),
        }

    def test_distinct_triples_give_sixteen_rows(self, theta3):
        assert len(build_hrep(theta3).rows) == 16

    def test_row_data_bounds(self, theta4, k4):
        for graph in (theta4, k4):
            for row in build_hrep(graph).rows:
                assert row.b in (0, 2)
                assert all(-2 <= x <= 2 for x in row.a)

    def test_duplicate_inequalities_merge_scaled(self):
        h = HPolytope.from_inequalities(2, [((1, 0), 1), ((2, 0), 2)])
        assert len(h.rows) == 1

    @pytest.mark.parametrize("dim, a", [(2, (1, 0, 7)), (3, (1, 0))], ids=["long", "short"])
    def test_row_of_wrong_length_is_refused(self, dim, a):
        # accepted before, such a row made enumerate_vertices die (IndexError, ZeroDivisionError)
        rows = [(a, 1)] + [(tuple(int(i == k) for k in range(dim)), 1) for i in range(dim)]
        with pytest.raises(ValueError, match=rf"row \(1, 0.*length {len(a)}, expected {dim}"):
            HPolytope.from_inequalities(dim, rows)


class TestEnumerateVertices:
    def test_tetrahedron(self, theta2):
        v = enumerate_vertices(build_hrep(theta2))
        assert set(v.vertices) == TET_VERTICES
        assert v.dim == 3

    def test_unit_cube(self):
        v = enumerate_vertices(unit_cube(3))
        assert len(v.vertices) == 8
        assert all(set(p) <= {F(0), F(1)} for p in v.vertices)

    def test_dumbbell_has_one_non_integral_vertex(self, dumbbell):
        v = enumerate_vertices(build_hrep(dumbbell))
        assert (F(1, 2), F(1), F(1, 2)) in v.vertices
        assert len(v.vertices) == 5

    def test_vertices_sorted_lexicographically(self, theta3):
        v = enumerate_vertices(build_hrep(theta3))
        assert list(v.vertices) == sorted(v.vertices)

    def test_incidence_is_exact(self, theta3):
        h = build_hrep(theta3)
        v = enumerate_vertices(h)
        for p, tight in zip(v.vertices, v.incidence):
            for i, row in enumerate(h.rows):
                lhs = sum(c * x for c, x in zip(row.a, p))
                assert lhs <= row.b
                assert (lhs == row.b) == (i in tight)

    def test_tight_rows_pin_each_vertex(self, dumbbell):
        # the tight normals at any vertex must have full rank
        h = build_hrep(dumbbell)
        v = enumerate_vertices(h)
        for tight in v.incidence:
            assert gauss_rank([h.rows[i].a for i in tight]) == h.dim

    def test_empty_system(self):
        h = HPolytope.from_inequalities(1, [((1,), 0), ((-1,), -1)])
        v = enumerate_vertices(h)
        assert v.vertices == ()
        assert v.dim == -1

    def test_single_point(self):
        h = HPolytope.from_inequalities(1, [((1,), 0), ((-1,), 0)])
        v = enumerate_vertices(h)
        assert v.vertices == ((F(0),),)
        assert v.dim == 0

    def test_segment_is_lower_dimensional(self):
        h = HPolytope.from_inequalities(
            2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
        )
        v = enumerate_vertices(h)
        assert set(v.vertices) == {(F(0), F(0)), (F(0), F(1))}
        assert v.dim == 1

    def test_unbounded_by_missing_direction(self):
        # slab 0 <= x <= 1 in the plane: invariant along y
        h = HPolytope.from_inequalities(2, [((1, 0), 1), ((-1, 0), 0)])
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(h)

    def test_unbounded_by_recession_ray(self):
        h = HPolytope.from_inequalities(2, [((-1, 0), 0), ((0, -1), 0)])
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(h)


class TestBruteForceOracle:
    @pytest.mark.parametrize("name", ["theta2", "dumbbell", "k4"])
    def test_agrees_on_graph_polytopes(self, name, request):
        h = build_hrep(request.getfixturevalue(name))
        assert enumerate_vertices(h).vertices == brute_force_vertices(h).vertices

    def test_agrees_on_cube(self):
        h = unit_cube(3)
        assert enumerate_vertices(h).vertices == brute_force_vertices(h).vertices

    def test_agrees_on_random_systems(self):
        rng = random.Random(7)
        for _ in range(5):
            h = random_hsystem(rng, rng.randint(2, 3))
            assert enumerate_vertices(h).vertices == brute_force_vertices(h).vertices


class TestFacetsAndSimplicity:
    def test_tetrahedron_all_facets(self, theta2):
        h = build_hrep(theta2)
        v = enumerate_vertices(h)
        assert facet_defining_rows(h, v) == tuple(range(4))
        assert is_simple(h, v).simple

    def test_redundant_row_excluded(self):
        h = HPolytope.from_inequalities(
            2,
            [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0), ((1, 1), 3)],
        )
        v = enumerate_vertices(h)
        facets = facet_defining_rows(h, v)
        redundant = next(i for i, r in enumerate(h.rows) if r.b == 3)
        assert redundant not in facets
        assert len(facets) == 4

    @pytest.mark.parametrize("extra", [Row((1, 0), 1), Row((2, 0), 2)], ids=["repeated", "scaled"])
    def test_repeated_row_is_one_facet(self, extra):
        # HPolytope(dim, rows) does not merge: the square's x <= 1 twice
        square = HPolytope.from_inequalities(
            2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
        )
        h = HPolytope(2, square.rows + (extra,))
        v = enumerate_vertices(h)
        assert facet_defining_rows(h, v) == (0, 1, 2, 3)
        assert is_simple(h, v).simple
        assert delzant_check(h, v, Lattice(2, 1, ((1, 0), (0, 1)))).overall == SMOOTH

    def test_origin_witness(self, theta3):
        h = build_hrep(theta3)
        v = enumerate_vertices(h)
        verdict = is_simple(h, v)
        assert not verdict.simple
        assert verdict.witness == (F(0),) * 6
        assert verdict.witness_facets == 12

    def test_dumbbell_witness(self, dumbbell):
        h = build_hrep(dumbbell)
        v = enumerate_vertices(h)
        verdict = is_simple(h, v)
        assert not verdict.simple
        assert verdict.witness == (F(1, 2), F(1), F(1, 2))
        assert verdict.witness_facets == 4

    def test_requires_full_dimension(self):
        h = HPolytope.from_inequalities(
            2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
        )
        v = enumerate_vertices(h)
        with pytest.raises(NotFullDimensional):
            facet_defining_rows(h, v)


class TestContains:
    def test_all_ones_excluded(self):
        for g in range(2, 5):
            h = build_hrep(multi_theta(g))
            assert not contains(h, (1,) * h.dim)

    def test_origin_inside(self, theta4, dumbbell, k4):
        for graph in (theta4, dumbbell, k4):
            h = build_hrep(graph)
            assert contains(h, (0,) * h.dim)

    def test_half_point_inside(self, theta3):
        h = build_hrep(theta3)
        assert contains(h, (F(1, 2),) * 6)

    def test_length_mismatch(self, theta2):
        with pytest.raises(ValueError):
            contains(build_hrep(theta2), (0, 0))


def _fixtures_and_random_graphs(theta2, theta3, dumbbell, k4, seed):
    """The fixture graphs and 20 seeded random multigraphs of genus 2 to 4,
    with loops and multi-edges among them."""
    rng = random.Random(seed)
    graphs = [theta2, theta3, dumbbell, k4]
    graphs += [random_trivalent_graph(rng, rng.choice((2, 4, 6))) for _ in range(20)]
    assert sum(not g.is_loop_free() for g in graphs) >= 5
    assert sum(len(set(g.edges)) < len(g.edges) for g in graphs) >= 5
    return graphs


class TestBuildHrepOracle:
    def test_matches_normalising_route(self, theta2, theta3, theta4, dumbbell, k4):
        graphs = _fixtures_and_random_graphs(theta2, theta3, dumbbell, k4, seed=13)
        for graph in graphs + [theta4, multi_theta(8)]:
            # HPolytope equality: the rows and their order
            assert build_hrep(graph) == inequality_hrep(graph)


class TestCubeVertexLabellings:
    def test_report_count_matches_labellings(self, theta2, theta3, dumbbell, k4):
        for graph in _fixtures_and_random_graphs(theta2, theta3, dumbbell, k4, seed=14):
            report, _ = analyze_graph(graph)  # enumerates, so the count is cross-checked
            count = report.cube_vertex_count
            assert count == len(cube_vertex_labellings(graph)) == len(exhaustive_labellings(graph))

    def test_counts_small(self):
        for g in (2, 3, 4):
            assert len(cube_vertex_labellings(multi_theta(g))) == 2**g

    def test_matches_exhaustive_oracle(self, theta2, theta3, dumbbell, k4):
        for graph in (theta2, theta3, dumbbell, k4):
            got = {lab.labels for lab in cube_vertex_labellings(graph)}
            assert got == set(exhaustive_labellings(graph))

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(11)
        graphs = [random_trivalent_graph(rng, rng.choice((2, 4))) for _ in range(10)]
        graphs += [random_trivalent_graph(rng, 6) for _ in range(10)]
        for graph in graphs:
            got = [lab.labels for lab in cube_vertex_labellings(graph)]
            assert got == exhaustive_labellings(graph)

    def test_genus_twelve(self):
        corners = {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
        rng = random.Random(12)
        graphs = [multi_theta(12)] + [random_trivalent_graph(rng, 22) for _ in range(3)]
        for graph in graphs:
            labs = [lab.labels for lab in cube_vertex_labellings(graph)]
            assert len(labs) == 2**12
            assert all(a < b for a, b in zip(labs, labs[1:]))
            for triple in graph.trinion_triples():
                assert all(tuple(x[e] for e in triple.edges) in corners for x in labs)

    def test_loop_forces_partner_zero(self, dumbbell):
        for lab in cube_vertex_labellings(dumbbell):
            assert lab.labels[1] == 0  # bridge edge must be 0 at both loops

    def test_labelling_points_are_polytope_vertices(self, theta3):
        h = build_hrep(theta3)
        verts = set(enumerate_vertices(h).vertices)
        for lab in cube_vertex_labellings(theta3):
            assert lab.point() in verts

    def test_order_is_lexicographic(self, theta3):
        labs = [lab.labels for lab in cube_vertex_labellings(theta3)]
        assert labs == sorted(labs)


class TestExport:
    def test_hrep_format(self, theta2):
        out = format_hrep(build_hrep(theta2))
        assert out == (
            "H-representation\n"
            "begin\n"
            "4 4 rational\n"
            "2 -1 -1 -1\n"
            "0 -1 1 1\n"
            "0 1 -1 1\n"
            "0 1 1 -1\n"
            "end\n"
        )

    def test_vrep_format(self, theta2):
        out = format_vrep(enumerate_vertices(build_hrep(theta2)))
        assert out == (
            "V-representation\n"
            "begin\n"
            "4 4 rational\n"
            "1 0 0 0\n"
            "1 0 1 1\n"
            "1 1 0 1\n"
            "1 1 1 0\n"
            "end\n"
        )

    def test_vrep_prints_exact_fractions(self, dumbbell):
        out = format_vrep(enumerate_vertices(build_hrep(dumbbell)))
        assert "1 1/2 1 1/2" in out
