import dataclasses
import itertools
import math
import random
import re
import timeit
from fractions import Fraction

import pytest

from graphtoric.cli import analyze_graph
from graphtoric.graph_core import TrivalentGraph, multi_theta
from graphtoric.lattice_fan import SMOOTH, Lattice, delzant_check
from graphtoric.polytope import (
    HPolytope,
    NotFullDimensional,
    Row,
    VPolytope,
    _vpolytope_from_rays,
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
    UnboundedPolytope,
    dd_vertices,
    exhaustive_labellings,
    fraction_brute_force_vertices,
    gauss_rank,
    inequality_hrep,
    pairwise_facet_rows,
    per_vertex_is_simple,
    random_hsystem,
    random_trivalent_graph,
    ray_tuple_vertices,
    unit_cube,
    walking_is_simple,
)

F = Fraction

# a centre joined to three looped trinions: scale 2, and its simple
# origin is not its witness
TRIPOD = TrivalentGraph(4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)))
K4 = TrivalentGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
DUMBBELL = TrivalentGraph(2, ((0, 0), (0, 1), (1, 1)))

TET_VERTICES = {
    (F(0), F(0), F(0)),
    (F(1), F(1), F(0)),
    (F(1), F(0), F(1)),
    (F(0), F(1), F(1)),
}


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
        # accepted before, such a row made enumeration die (IndexError, ZeroDivisionError)
        rows = [(a, 1)] + [(tuple(int(i == k) for k in range(dim)), 1) for i in range(dim)]
        message = rf"row \(1, 0.*length {len(a)}, expected {dim}"
        with pytest.raises(ValueError, match=message):
            HPolytope.from_inequalities(dim, rows)
        with pytest.raises(ValueError, match=message):
            HPolytope(dim, tuple(Row(tuple(a), b) for a, b in rows))


class TestEnumerateVertices:
    def test_tetrahedron(self, theta2):
        v = enumerate_vertices(theta2, build_hrep(theta2))
        assert set(v.vertices) == TET_VERTICES
        assert v.dim == 3

    def test_unit_cube(self):
        v = dd_vertices(unit_cube(3))
        assert len(v.vertices) == 8
        assert all(set(p) <= {F(0), F(1)} for p in v.vertices)

    def test_dumbbell_has_one_non_integral_vertex(self, dumbbell):
        v = enumerate_vertices(dumbbell, build_hrep(dumbbell))
        assert (F(1, 2), F(1), F(1, 2)) in v.vertices
        assert len(v.vertices) == 5

    def test_vertices_sorted_lexicographically(self, theta3):
        v = enumerate_vertices(theta3, build_hrep(theta3))
        assert list(v.vertices) == sorted(v.vertices)
        # the origin is the least point, and vertex 0 of the block order
        # too, where batch reads it
        assert v.points[0] == tuple(v.block_point(0)) == (0,) * 6

    def test_incidence_is_exact(self, theta3):
        h = build_hrep(theta3)
        v = enumerate_vertices(theta3, h)
        for p, tight in zip(v.vertices, v.incidence):
            for i, row in enumerate(h.rows):
                lhs = sum(c * x for c, x in zip(row.a, p))
                assert lhs <= row.b
                assert (lhs == row.b) == (i in tight)

    def test_tight_rows_pin_each_vertex(self, dumbbell):
        # the tight normals at any vertex must have full rank
        h = build_hrep(dumbbell)
        v = enumerate_vertices(dumbbell, h)
        for tight in v.incidence:
            assert gauss_rank([h.rows[i].a for i in tight]) == h.dim

    def test_genus_two_lanes_hold_zero_and_one(self, theta2):
        # only S = {} passes at genus 2, so the scale is 1 and every byte
        # of a column is 0 or 1
        h = build_hrep(theta2)
        v = enumerate_vertices(theta2, h)
        # each vertex is tight on the three rows of the faces through it;
        # the tetrahedron's symmetry makes the two layouts the same masks;
        # at scale 1 all four vertices are integral
        assert v == VPolytope(
            3, 1, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)), (14, 13, 11, 7), 0b1111
        )
        assert v.tight == (14, 13, 11, 7)
        assert v == ray_tuple_vertices(theta2, h)

    def test_dumbbell_lanes_meet_loop_rows(self, dumbbell):
        # the loop rows carry a coefficient 2; the one vertex off the cube,
        # (1/2, 1, 1/2), has the bytes 1, 2, 1 at scale 2
        h = build_hrep(dumbbell)
        assert {2, -2} <= {c for row in h.rows for c in row.a}
        v = enumerate_vertices(dumbbell, h)
        points = ((0, 0, 0), (0, 0, 2), (1, 2, 1), (2, 0, 0), (2, 0, 2))
        # row k's vertex mask; the per-vertex row masks are its
        # transposition; every vertex but vertex 2 is integral
        assert v == VPolytope(3, 2, points, (28, 27, 7, 22, 13), 0b11011)
        assert v.tight == (22, 14, 29, 19, 11)
        assert v == ray_tuple_vertices(dumbbell, h)

    def test_integer_vertices_match_gcd(self):
        # bit i is set iff the scale divides every coordinate of points[i],
        # and the integral vertices are the 2^g cube vertices
        rng = random.Random(3207)
        randoms = [random_trivalent_graph(rng, 2 * g - 2) for g in range(2, 9) for _ in range(6)]
        assert sum(not graph.is_loop_free() for graph in randoms) >= 10
        for graph in [multi_theta(g) for g in range(2, 11)] + randoms:
            v = enumerate_vertices(graph, build_hrep(graph))
            want = sum(1 << i for i, p in enumerate(v.points) if math.gcd(v.scale, *p) == v.scale)
            assert v.integer_vertices == want, graph
            assert want.bit_count() == 1 << graph.genus, graph

    @pytest.mark.parametrize("graph", ["theta2", "dumbbell", "theta4"])
    def test_points_are_tuples_of_int(self, graph, request):
        graph = request.getfixturevalue(graph)
        v = enumerate_vertices(graph, build_hrep(graph))
        assert type(v.points) is tuple
        assert all(type(p) is tuple and all(type(c) is int for c in p) for p in v.points)

    def test_shuffled_rows_permute_the_masks(self):
        # a row's support code is shared with the row before it only when
        # their supports are equal; with the trinions' rows shuffled apart
        # each row must still get its own mask, and the points stay put
        rng = random.Random(3001)
        randoms = [random_trivalent_graph(rng, 2 * rng.randint(2, 6) - 2) for _ in range(100)]
        assert sum(not graph.is_loop_free() for graph in randoms) >= 20
        for graph in [multi_theta(g) for g in range(2, 8)] + randoms:
            h = build_hrep(graph)
            v = enumerate_vertices(graph, h)
            order = list(range(len(h.rows)))
            rng.shuffle(order)
            shuffled = enumerate_vertices(graph, HPolytope(h.dim, tuple(h.rows[k] for k in order)))
            assert shuffled.points == v.points and shuffled.scale == v.scale, graph
            assert shuffled.row_vertices == tuple(v.row_vertices[k] for k in order), graph
            assert shuffled.dim == v.dim

    def test_support_code_holds_four_edges(self, theta3):
        # four edges fill the code byte and match the row evaluated at
        # each point; a fifth does not fit, and the row is named
        h = build_hrep(theta3)
        four = Row((2, -1, 1, -1, 0, 0), 1)
        v = enumerate_vertices(theta3, HPolytope(6, h.rows + (four,)))
        dot = lambda p: sum(c * x for c, x in zip(four.a, p))
        tight = [i for i, p in enumerate(v.points) if dot(p) == v.scale]
        assert 0 < len(tight) < len(v.points)
        assert v.row_vertices[-1] == sum(1 << i for i in tight)
        five = Row((1, 1, 1, 1, 1, 0), 4)
        message = re.escape(f"row {len(h.rows)} {five} has 5 edges")
        with pytest.raises(ValueError, match=message):
            enumerate_vertices(theta3, HPolytope(6, h.rows + (five,)))

    def test_system_of_another_dimension_is_refused(self, theta2, theta3):
        with pytest.raises(ValueError, match="dimension 6, the graph 3 edges"):
            enumerate_vertices(theta2, build_hrep(theta3))

    def test_empty_system(self):
        h = HPolytope.from_inequalities(1, [((1,), 0), ((-1,), -1)])
        v = dd_vertices(h)
        assert v.vertices == ()
        assert v.dim == -1

    def test_single_point(self):
        h = HPolytope.from_inequalities(1, [((1,), 0), ((-1,), 0)])
        v = dd_vertices(h)
        assert v.vertices == ((F(0),),)
        assert v.dim == 0

    def test_segment_is_lower_dimensional(self):
        h = HPolytope.from_inequalities(
            2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
        )
        v = dd_vertices(h)
        assert set(v.vertices) == {(F(0), F(0)), (F(0), F(1))}
        assert v.dim == 1

    def test_unbounded_by_missing_direction(self):
        # slab 0 <= x <= 1 in the plane: invariant along y
        h = HPolytope.from_inequalities(2, [((1, 0), 1), ((-1, 0), 0)])
        with pytest.raises(UnboundedPolytope):
            dd_vertices(h)

    def test_unbounded_by_recession_ray(self):
        h = HPolytope.from_inequalities(2, [((-1, 0), 0), ((0, -1), 0)])
        with pytest.raises(UnboundedPolytope):
            dd_vertices(h)


class TestBruteForceOracle:
    @pytest.mark.parametrize("name", ["theta2", "dumbbell", "k4"])
    def test_agrees_on_graph_polytopes(self, name, request):
        graph = request.getfixturevalue(name)
        h = build_hrep(graph)
        v = brute_force_vertices(h)
        assert enumerate_vertices(graph, h) == v
        assert fraction_brute_force_vertices(h) == v

    @pytest.mark.parametrize(
        "graph", [K4, DUMBBELL, TRIPOD, multi_theta(3)], ids=["k4", "dumbbell", "tripod", "theta3"]
    )
    def test_integer_vertices_agree(self, graph):
        # the mask read from the lanes against the gcd of each brute-force point
        h = build_hrep(graph)
        fast, slow = enumerate_vertices(graph, h), brute_force_vertices(h)
        assert fast.integer_vertices == slow.integer_vertices
        assert fast.integer_vertices.bit_count() == 1 << graph.genus
        assert fast == slow

    def test_agrees_on_cube(self):
        h = unit_cube(3)
        v = brute_force_vertices(h)
        assert dd_vertices(h).vertices == v.vertices
        assert fraction_brute_force_vertices(h) == v

    def test_agrees_on_random_systems(self):
        rng = random.Random(7)
        for _ in range(5):
            h = random_hsystem(rng, rng.randint(2, 3))
            v = brute_force_vertices(h)
            assert dd_vertices(h).vertices == v.vertices
            assert fraction_brute_force_vertices(h) == v

    @pytest.mark.parametrize(
        "h, count, dim",
        [
            # the unit square with a 0 <= -1 marker row: infeasible
            (HPolytope.from_inequalities(2, [((0, 0), -1), *unit_cube(2).rows]), 0, -1),
            (HPolytope(3, ()), 0, -1),
            # the diagonal x = y of the unit square, and the standard
            # triangle x + y + z = 1 in its positive octant
            (HPolytope.from_inequalities(2, [((1, -1), 0), ((-1, 1), 0), *unit_cube(2).rows]), 2, 1),
            (HPolytope.from_inequalities(
                3, [((1, 1, 1), 1), ((-1, -1, -1), -1), ((-1, 0, 0), 0), ((0, -1, 0), 0),
                    ((0, 0, -1), 0)]), 3, 2),
            # rational rows: the triangle x/2 + y/3 <= 1 in the positive quadrant
            (HPolytope.from_inequalities(2, [((F(1, 2), F(1, 3)), 1), ((-1, 0), 0), ((0, -1), 0)]),
             3, 2),
            # dimension 0: the point (), and with a 0 <= -1 marker nothing
            (HPolytope(0, ()), 1, 0),
            (HPolytope.from_inequalities(0, [((), -1)]), 0, -1),
        ],
        ids=["infeasible-marker", "empty", "segment", "triangle-in-3d", "rational-rows",
             "point", "infeasible-point"],
    )
    def test_agrees_on_edge_cases(self, h, count, dim):
        v = brute_force_vertices(h)
        assert (len(v.points), v.dim) == (count, dim)
        if h.dim:
            assert fraction_brute_force_vertices(h) == v
        else:
            # the Fraction oracle needs n >= 1, so the values are pinned here
            # a point of R^0 is integral
            assert v == VPolytope(dim, 1, ((),) * count, (0,) * len(h.rows), (1 << count) - 1)


class TestFacetsAndSimplicity:
    def test_tetrahedron_all_facets(self, theta2):
        h = build_hrep(theta2)
        v = dd_vertices(h)
        assert facet_defining_rows(h, v) == tuple(range(4))
        assert is_simple(h, v, facet_defining_rows(h, v)).simple

    def test_redundant_row_excluded(self):
        h = HPolytope.from_inequalities(
            2,
            [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0), ((1, 1), 3)],
        )
        v = dd_vertices(h)
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
        v = dd_vertices(h)
        facets = facet_defining_rows(h, v)
        assert facets == (0, 1, 2, 3)
        assert is_simple(h, v, facets).simple
        assert delzant_check(h, v, Lattice(2, 1, ((1, 0), (0, 1))), facets).overall == SMOOTH

    def test_origin_witness(self, theta3):
        h = build_hrep(theta3)
        v = enumerate_vertices(theta3, h)
        verdict = is_simple(h, v, facet_defining_rows(h, v))
        assert not verdict.simple
        assert verdict.witness == (F(0),) * 6
        assert verdict.witness_facets == 12

    def test_dumbbell_witness(self, dumbbell):
        h = build_hrep(dumbbell)
        v = enumerate_vertices(dumbbell, h)
        verdict = is_simple(h, v, facet_defining_rows(h, v))
        assert not verdict.simple
        assert verdict.witness == (F(1, 2), F(1), F(1, 2))
        assert verdict.witness_facets == 4

    def test_vertex_set_of_another_system_is_refused(self):
        # theta-2's vertices are tight on its fourth row, which the cut
        # system does not have
        graph = multi_theta(2)
        h = build_hrep(graph)
        with pytest.raises(ValueError):
            facet_defining_rows(HPolytope(3, h.rows[:-1]), enumerate_vertices(graph, h))

    def test_extra_row_mask_is_refused(self):
        # one vertex mask more than the system has rows
        graph = multi_theta(2)
        h = build_hrep(graph)
        v = enumerate_vertices(graph, h)
        extra = dataclasses.replace(v, row_vertices=v.row_vertices + (0,))
        with pytest.raises(ValueError, match="5 row masks over 4 vertices for 4 rows"):
            facet_defining_rows(h, extra)

    def test_mask_naming_a_missing_vertex_is_refused(self):
        # the last point dropped, its bits left in the row masks
        graph = multi_theta(2)
        h = build_hrep(graph)
        v = enumerate_vertices(graph, h)
        short = dataclasses.replace(v, points=v.points[:-1])
        with pytest.raises(ValueError, match="4 row masks over 3 vertices for 4 rows"):
            facet_defining_rows(h, short)

    def test_simplicity_matches_per_vertex_scan(self, theta2, theta3, dumbbell):
        # the walk over the row masks against the per-vertex scan it
        # replaced: verdict, witness and facet count, on the hand-built
        # simple polytopes of this class, theta-2, random genus-2 graphs
        # (theta-2 with its edges in random orders, SMOOTH, and the
        # dumbbell), and theta-3
        square = HPolytope.from_inequalities(
            2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
        )
        systems = [unit_cube(3), square, build_hrep(theta2)]
        systems += [HPolytope(2, square.rows + (row,)) for row in (Row((1, 0), 1), Row((2, 0), 2))]
        cases = [(h, dd_vertices(h)) for h in systems]
        rng = random.Random(31)
        randoms = [random_trivalent_graph(rng, 2) for _ in range(12)]
        graphs = [theta2, theta3, dumbbell] + randoms
        cases += [(h, enumerate_vertices(g, h)) for g in graphs for h in [build_hrep(g)]]
        simple = []
        for h, v in cases:
            facets = facet_defining_rows(h, v)
            verdict = is_simple(h, v, facets)
            got = (verdict.simple, verdict.witness, verdict.witness_facets)
            assert got == per_vertex_is_simple(h, v, facets)
            simple.append(verdict.simple)
        assert all(simple[: len(systems) + 1]) and not any(simple[len(systems) + 1 : -12])
        # the random graphs hold SMOOTH thetas and non-simple dumbbells
        assert 3 <= sum(simple[-12:]) <= 9

    def test_counts_match_the_walk(self, theta2, theta3, dumbbell):
        # the bit-sliced counts against the walk over the sorted row masks
        # they replaced: verdict, witness and facet count; the dumbbell,
        # the tripod and the square pyramid (apex on 4 facets, the last
        # vertex) pass at vertex 0 and offend elsewhere
        pyramid = HPolytope.from_inequalities(
            3, [((0, 0, -1), 0), ((-2, 0, 1), 0), ((2, 0, 1), 2), ((0, -2, 1), 0), ((0, 2, 1), 2)]
        )
        cases = [(h, dd_vertices(h)) for h in (unit_cube(3), unit_cube(5), pyramid)]
        rng = random.Random(37)
        randoms = [random_trivalent_graph(rng, 2 * rng.randint(2, 4) - 2) for _ in range(40)]
        graphs = [theta2, theta3, dumbbell, TRIPOD] + randoms
        cases += [(h, enumerate_vertices(g, h)) for g in graphs for h in [build_hrep(g)]]
        past_origin = 0
        for h, v in cases:
            facets = facet_defining_rows(h, v)
            verdict = is_simple(h, v, facets)
            got = (verdict.simple, verdict.witness, verdict.witness_facets)
            assert got == walking_is_simple(h, v, facets)
            past_origin += not verdict.simple and verdict.witness != v.vertex(0)
        assert past_origin >= 3
        assert is_simple(pyramid, cases[2][1], (0, 1, 2, 3, 4)).witness == (F(1, 2), F(1, 2), F(1))

    def test_twelve_cube_counts_in_one_pass(self):
        # all 4096 vertices of the 12-cube are simple, so the walk shifts
        # every facet mask once per vertex, 98,304 shifts of 4096-bit
        # masks, where the counters add each of the 24 masks once
        n = 12
        h = unit_cube(n)
        corners = list(itertools.product((0, 1), repeat=n))
        tight = [sum(1 << 2 * e + 1 - x for e, x in enumerate(p)) for p in corners]
        v = _vpolytope_from_rays(h, [(1, *p) for p in corners], tight)
        facets = facet_defining_rows(h, v)
        assert is_simple(h, v, facets).simple and walking_is_simple(h, v, facets)[0]
        counted = min(timeit.repeat(lambda: is_simple(h, v, facets), number=1, repeat=5))
        walked = min(timeit.repeat(lambda: walking_is_simple(h, v, facets), number=1, repeat=3))
        assert counted * 20 < walked, (counted, walked)

    def test_requires_full_dimension(self):
        h = HPolytope.from_inequalities(
            2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
        )
        v = dd_vertices(h)
        with pytest.raises(NotFullDimensional):
            facet_defining_rows(h, v)


class TestFacetOrder:
    """facet_defining_rows, which walks the distinct masks in decreasing
    popcount, against pairwise_facet_rows, the all-pairs scan it replaced."""

    def test_graph_polytopes(self):
        rng = random.Random(3203)
        randoms = [random_trivalent_graph(rng, 2 * rng.randint(2, 7) - 2) for _ in range(200)]
        assert {graph.genus for graph in randoms} == set(range(2, 8))
        assert sum(not graph.is_loop_free() for graph in randoms) >= 50
        for graph in [multi_theta(g) for g in range(2, 9)] + randoms:
            h = build_hrep(graph)
            v = enumerate_vertices(graph, h)
            assert facet_defining_rows(h, v) == pairwise_facet_rows(h, v), graph

    def test_hand_built_systems(self):
        # the 4-cube's rows 0-7, then x_0 <= 1 again (row 8, a repeat of
        # row 0), x_0 + x_1 <= 2 (row 9, tight at the 4 corners of a square
        # face: n of them, but strictly inside row 0's 8) and
        # x_0 + x_1 + x_2 + x_3 <= 4 (row 10, tight at 1 corner, fewer than n)
        cube = unit_cube(4)
        rows = cube.rows + (cube.rows[0], Row((1, 1, 0, 0), 2), Row((1, 1, 1, 1), 4))
        h = HPolytope(4, rows)
        v = dd_vertices(h)
        masks = v.row_vertices
        assert [m.bit_count() for m in masks] == [8] * 9 + [4, 1]
        assert masks[8] == masks[0] and masks[9] & masks[0] == masks[9] != masks[0]
        assert facet_defining_rows(h, v) == pairwise_facet_rows(h, v) == tuple(range(8))
        # reversed, the repeat comes first and is the one kept
        h = HPolytope(4, rows[::-1])
        v = dd_vertices(h)
        assert facet_defining_rows(h, v) == pairwise_facet_rows(h, v) == tuple(range(2, 10))

    def test_twelve_cube_from_rays(self):
        # 4096 vertices; row 2e is x_e <= 1, tight where x_e = 1, and row
        # 2e + 1 is -x_e <= 0, tight where x_e = 0
        n = 12
        h = unit_cube(n)
        corners = list(itertools.product((0, 1), repeat=n))
        tight = [sum(1 << 2 * e + 1 - x for e, x in enumerate(p)) for p in corners]
        v = _vpolytope_from_rays(h, [(1, *p) for p in corners], tight)
        assert v.dim == n and v.integer_vertices == (1 << 4096) - 1
        assert facet_defining_rows(h, v) == pairwise_facet_rows(h, v) == tuple(range(2 * n))


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
            got = set(cube_vertex_labellings(graph))
            assert got == set(exhaustive_labellings(graph))

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(11)
        graphs = [random_trivalent_graph(rng, rng.choice((2, 4))) for _ in range(10)]
        graphs += [random_trivalent_graph(rng, 6) for _ in range(10)]
        for graph in graphs:
            got = cube_vertex_labellings(graph)
            assert got == exhaustive_labellings(graph)

    def test_genus_twelve(self):
        corners = {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
        rng = random.Random(12)
        graphs = [multi_theta(12)] + [random_trivalent_graph(rng, 22) for _ in range(3)]
        for graph in graphs:
            labs = cube_vertex_labellings(graph)
            assert len(labs) == 2**12
            assert all(a < b for a, b in zip(labs, labs[1:]))
            for triple in graph.trinion_triples():
                assert all(tuple(x[e] for e in triple.edges) in corners for x in labs)

    def test_loop_forces_partner_zero(self, dumbbell):
        for lab in cube_vertex_labellings(dumbbell):
            assert lab[1] == 0  # bridge edge must be 0 at both loops

    def test_labelling_points_are_polytope_vertices(self, theta3):
        h = build_hrep(theta3)
        verts = set(enumerate_vertices(theta3, h).vertices)
        for lab in cube_vertex_labellings(theta3):
            assert lab in verts  # tuples of ints hash and compare as Fractions

    def test_order_is_lexicographic(self, theta3):
        labs = cube_vertex_labellings(theta3)
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
        out = format_vrep(enumerate_vertices(theta2, build_hrep(theta2)))
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
        out = format_vrep(enumerate_vertices(dumbbell, build_hrep(dumbbell)))
        assert "1 1/2 1 1/2" in out
