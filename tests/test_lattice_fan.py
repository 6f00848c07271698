import random
from collections import Counter
from fractions import Fraction

import pytest

from graphtoric.cli import analyze_graph
from graphtoric.graph_core import TrivalentGraph, multi_theta
from graphtoric.lattice_fan import (
    SINGULAR,
    SMOOTH,
    ConsistencyError,
    DelzantVerdict,
    Lattice,
    apply_loop_free_guard,
    build_lattice,
    delzant_check,
    is_lattice_point,
    is_lattice_polytope,
    map_fan,
    normal_fan,
)
from graphtoric.polytope import HPolytope, build_hrep, enumerate_vertices, facet_defining_rows
from helpers import (
    dd_vertices,
    edge_route_verdict,
    gauss_rank,
    gf2_rank,
    graph_lattice_generators,
    hermite_lattice,
    identity,
    inverse_lattice_member,
    lattice_basis,
    random_hsystem,
    random_trivalent_graph,
    rational_vpolytope,
    trinion_parity_vectors,
    unit_cube,
)

F = Fraction

# the coordinate change that carries the genus-2 normal fan onto the fan
# of 3-dimensional projective space
A_MAP = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


class TestLattice:
    def test_standard_lattice(self):
        L = hermite_lattice([(1, 0), (0, 1)])
        assert L.covolume == 1
        assert is_lattice_point((3, -2), L)
        assert not is_lattice_point((F(1, 2), 0), L)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            hermite_lattice([(1, 1), (2, 2)])

    def test_mixed_length_rejected(self):
        with pytest.raises(ValueError):
            hermite_lattice([(1, 0), (1,)])

    def test_genus_two_covolume_and_membership(self, theta2):
        L = build_lattice(theta2)
        assert L.covolume == F(1, 2)
        assert is_lattice_point((F(1, 2),) * 3, L)
        assert not is_lattice_point((F(1, 2), 0, 0), L)
        assert is_lattice_point((0, 0, 0), L)

    def test_standard_vectors_always_inside(self, theta3, dumbbell, k4):
        for graph in (theta3, dumbbell, k4):
            L = build_lattice(graph)
            n = graph.n_edges
            for i in range(n):
                assert is_lattice_point(tuple(int(i == k) for k in range(n)), L)

    def test_contained_in_half_integer_lattice(self, theta4, dumbbell):
        for graph in (theta4, dumbbell):
            L = build_lattice(graph)
            for row in lattice_basis(L):
                assert all(x.denominator in (1, 2) for x in row)

    def test_covolume_is_a_power_of_two(self):
        rng = random.Random(3)
        for _ in range(10):
            graph = random_trivalent_graph(rng, rng.choice((2, 4)))
            covol = build_lattice(graph).covolume
            assert covol.numerator == 1
            k = covol.denominator.bit_length() - 1
            assert covol.denominator == 2**k
            assert 0 <= k <= 2 * graph.genus - 2

    def test_covolume_matches_parity_rank_oracle(self, theta2, theta3, theta4, dumbbell, k4):
        rng = random.Random(5)
        graphs = [theta2, theta3, theta4, dumbbell, k4]
        graphs += [random_trivalent_graph(rng, 4) for _ in range(5)]
        for graph in graphs:
            covol = build_lattice(graph).covolume
            r = gf2_rank(trinion_parity_vectors(graph))
            assert covol == F(1, 2**r)

    def test_generator_order_irrelevant(self, theta3):
        L = build_lattice(theta3)
        rng = random.Random(9)
        gens = graph_lattice_generators(theta3)
        probes = [tuple(F(rng.randint(0, 4), 2) for _ in range(6)) for _ in range(20)]
        for _ in range(10):
            rng.shuffle(gens)
            other = hermite_lattice(gens)
            assert other.covolume == L.covolume
            for p in probes:
                assert is_lattice_point(p, other) == is_lattice_point(p, L)

    def test_coordinates_length_check(self, theta2):
        with pytest.raises(ValueError):
            is_lattice_point((0, 0), build_lattice(theta2))


def _seeded_graphs(count=300, seed=61):
    """Random trivalent multigraphs of 2 to 12 vertices (genus 2 to 7)."""
    rng = random.Random(seed)
    return [random_trivalent_graph(rng, rng.choice(range(2, 13, 2))) for _ in range(count)]


def _random_point(rng, n, denominators=(1, 2, 4)):
    return tuple(F(rng.randint(-4, 4), rng.choice(denominators)) for _ in range(n))


class TestLatticeOracles:
    """build_lattice's GF(2) basis and integer membership against the HNF
    and inverse-matrix routes they replaced."""

    def test_basis_is_the_hermite_basis(self, theta2, theta3, theta4, dumbbell, k4):
        graphs = [theta2, theta3, theta4, dumbbell, k4] + _seeded_graphs()
        assert sum(not g.is_loop_free() for g in graphs) >= 100
        for graph in graphs:
            L = build_lattice(graph)
            hermite = hermite_lattice(graph_lattice_generators(graph))
            assert lattice_basis(hermite_lattice(lattice_basis(L))) == lattice_basis(hermite)
            assert lattice_basis(L) == lattice_basis(hermite)
            assert L == hermite  # the same scale and integer rows
            assert L.covolume == F(1, 2 ** (graph.n_vertices - 1))

    def test_membership_matches_inverse_route_on_graph_lattices(self):
        rng = random.Random(62)
        verdicts = []
        for graph in _seeded_graphs(count=60, seed=63):
            L = build_lattice(graph)
            n = graph.n_edges
            gens = graph_lattice_generators(graph)
            members = [tuple(sum(x) for x in zip(*rng.sample(gens, 3))) for _ in range(3)]
            for p in members + [_random_point(rng, n) for _ in range(20)]:
                got = is_lattice_point(p, L)
                assert got == inverse_lattice_member(p, L)
                verdicts.append(got)
        assert sum(verdicts) >= 250 and verdicts.count(False) >= 1000

    def test_membership_matches_inverse_route_on_generated_lattices(self):
        rng = random.Random(64)
        verdicts = []
        lattices = 0
        while lattices < 100:
            n = rng.randint(1, 5)
            gens = [_random_point(rng, n, (1, 2, 3, 4)) for _ in range(n + 1)]
            try:
                L = hermite_lattice(gens)
            except ValueError:
                continue
            lattices += 1
            members = [tuple(a + b for a, b in zip(*rng.sample(gens, 2))) for _ in range(2)]
            for p in members + [_random_point(rng, n) for _ in range(10)]:
                got = is_lattice_point(p, L)
                assert got == inverse_lattice_member(p, L)
                verdicts.append(got)
        assert sum(verdicts) >= 500 and verdicts.count(False) >= 400

    def test_lattice_polytope_offender_matches_inverse_route(self):
        # is_lattice_polytope tests the vertices as integer points, in
        # order; the first vertex the inverse route rejects must be the
        # one it reports
        rng = random.Random(65)
        offenders = 0
        for graph in _seeded_graphs(count=40, seed=66):
            L = build_lattice(graph)
            n = graph.n_edges
            gens = graph_lattice_generators(graph)
            points = [tuple(sum(x) for x in zip(*rng.sample(gens, 3))) for _ in range(4)]
            points += [_random_point(rng, n) for _ in range(rng.randint(0, 2))]
            rng.shuffle(points)
            if graph.n_vertices <= 4:
                points += enumerate_vertices(graph, build_hrep(graph)).vertices
            v = rational_vpolytope(n, points, ((),) * len(points), 0)
            bad = next((p for p in points if not inverse_lattice_member(p, L)), None)
            assert is_lattice_polytope(v, L) == (bad is None, bad)
            offenders += bad is not None
        assert 10 <= offenders <= 35

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [1, 0]],  # not upper-triangular
            [[1, 0], [1, 1]],  # lower-triangular
            [[1, 1], [0, 0]],  # zero on the diagonal
            [[1, 0, 0], [0, 1, 0]],  # not square
            [[1]],  # wrong dimension
        ],
    )
    def test_non_triangular_basis_rejected(self, rows):
        with pytest.raises(ValueError):
            Lattice(2, 1, tuple(map(tuple, rows)))

    @pytest.mark.parametrize("scale", [0, -2])
    def test_non_positive_scale_rejected(self, scale):
        with pytest.raises(ValueError):
            Lattice(2, scale, ((1, 0), (0, 1)))


class TestLatticePolytope:
    def test_genus_two_is_lattice_polytope(self, bundles):
        b = bundles["theta2"]
        assert is_lattice_polytope(b.vpoly, b.lattice).ok

    def test_integral_vertices_against_standard_lattice(self, bundles):
        Z3 = hermite_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert is_lattice_polytope(bundles["theta2"].vpoly, Z3).ok

    def test_dumbbell_offender(self, bundles):
        b = bundles["dumbbell"]
        verdict = is_lattice_polytope(b.vpoly, b.lattice)
        assert not verdict.ok
        assert verdict.offending == (F(1, 2), F(1), F(1, 2))

    def test_half_square_against_standard_lattice(self):
        h = HPolytope.from_inequalities(
            2, [((2, 0), 1), ((-1, 0), 0), ((0, 2), 1), ((0, -1), 0)]
        )
        v = dd_vertices(h)
        Z2 = hermite_lattice([(1, 0), (0, 1)])
        verdict = is_lattice_polytope(v, Z2)
        assert not verdict.ok
        assert verdict.offending == (F(0), F(1, 2))


class TestNormalFan:
    def test_genus_two_rays(self, bundles):
        b = bundles["theta2"]
        fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
        assert set(fan.rays) == {(-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)}
        assert len(fan.maximal_cones) == 4
        assert all(len(c) == 3 for c in fan.maximal_cones)

    def test_cube_fan(self):
        h = unit_cube(3)
        v = dd_vertices(h)
        fan = normal_fan(h, v, facet_defining_rows(h, v))
        expected = set()
        for i in range(3):
            e = tuple(int(i == k) for k in range(3))
            expected |= {e, tuple(-x for x in e)}
        assert set(fan.rays) == expected
        assert len(fan.maximal_cones) == 8

    def test_origin_cone_of_genus_three(self, bundles):
        b = bundles["theta3"]
        fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
        assert len(fan.rays) == 16
        origin_index = b.vpoly.vertices.index((F(0),) * 6)
        assert len(fan.maximal_cones[origin_index]) == 12

    def test_cone_count_and_spans(self, bundles):
        for b in bundles.values():
            fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
            assert len(fan.maximal_cones) == len(b.vpoly.vertices)
            for cone in fan.maximal_cones:
                assert gauss_rank([fan.rays[i] for i in cone]) == fan.dim


class TestMapFan:
    def test_identity(self, bundles):
        b = bundles["theta2"]
        fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
        mapped = map_fan(fan, identity(3))
        assert mapped == fan

    def test_projective_space_fan(self, bundles):
        b = bundles["theta2"]
        fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
        mapped = map_fan(fan, A_MAP)
        assert set(mapped.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)}
        assert mapped.maximal_cones == fan.maximal_cones

    def test_cube_under_map(self):
        h = unit_cube(3)
        v = dd_vertices(h)
        fan = map_fan(normal_fan(h, v, facet_defining_rows(h, v)), A_MAP)
        assert set(fan.rays) == {
            (0, 1, 1), (0, -1, -1), (1, 0, 1), (-1, 0, -1), (1, 1, 0), (-1, -1, 0),
        }

    def test_singular_map_rejected(self, bundles):
        b = bundles["theta2"]
        fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
        with pytest.raises(ValueError):
            map_fan(fan, [[1, 1, 1], [1, 1, 1], [0, 0, 1]])

    def test_dimension_mismatch_rejected(self, bundles):
        b = bundles["theta2"]
        fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
        with pytest.raises(ValueError):
            map_fan(fan, identity(2))


class TestDelzantCheck:
    def test_genus_two_smooth(self, bundles):
        b = bundles["theta2"]
        assert b.verdict.overall == SMOOTH
        assert b.verdict.simple and b.verdict.smooth
        assert is_lattice_polytope(b.vpoly, b.lattice).ok

    def test_simplex_standard_lattice_smooth(self):
        h = HPolytope.from_inequalities(
            3, [((1, 1, 1), 1), ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0)]
        )
        v = dd_vertices(h)
        Z3 = hermite_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert delzant_check(h, v, Z3, facet_defining_rows(h, v)).overall == SMOOTH

    @pytest.mark.parametrize("name", ["theta3", "theta4", "k4", "dumbbell"])
    def test_singular_cases(self, bundles, name):
        verdict = bundles[name].verdict
        assert verdict.overall == SINGULAR
        assert not verdict.smooth

    def test_non_simple_short_circuit_shares_witness(self, bundles):
        b = bundles["theta3"]
        verdict = b.verdict
        assert not verdict.simple
        assert verdict.simple_witness == (F(0),) * 6
        assert verdict.simple_witness_facets == 12
        assert verdict.smooth_witness is None

    def test_simple_but_singular_triangle(self):
        # lattice triangle with a vertex of normalized volume 2
        h = HPolytope.from_inequalities(
            2, [((-1, 0), 0), ((0, -1), 0), ((2, 1), 2)]
        )
        v = dd_vertices(h)
        Z2 = hermite_lattice([(1, 0), (0, 1)])
        verdict = delzant_check(h, v, Z2, facet_defining_rows(h, v))
        assert verdict.simple
        assert verdict.overall == SINGULAR
        assert verdict.smooth_witness == (F(1), F(0))
        assert type(verdict.smooth_witness_det) is int
        assert abs(verdict.smooth_witness_det) == 2

    def test_normal_fan_route_matches_edge_route(self):
        # the normal-fan determinants and the edge route agree on the
        # verdict, the witness vertex and whether a witness (|det| != 1)
        # exists, on graph polytopes and on cut cubes against random
        # triangular lattices; the cut cubes of dimension 5-6 have only
        # 1-2 extra rows, and every other one is paired with Z^n (scale 1,
        # unit diagonal), so both verdicts of a simple polytope reach the
        # determinant there too
        rng = random.Random(8)

        def triangular_rows(n, unit):
            return tuple(
                tuple(
                    (1 if unit else rng.randint(1, 3)) if j == i
                    else rng.choice((-2, -1, 1, 2)) if j > i else 0
                    for j in range(n)
                )
                for i in range(n)
            )

        cases = []
        for graph in [multi_theta(2)] + [
            random_trivalent_graph(rng, 2 * rng.randint(1, 3)) for _ in range(60)
        ]:
            h = build_hrep(graph)
            cases.append((h, enumerate_vertices(graph, h), build_lattice(graph)))
        while len(cases) < 201:
            high = len(cases) >= 121
            n = rng.randint(5, 6) if high else rng.randint(2, 4)
            h = random_hsystem(rng, n, extra_rows=rng.randint(1, 2) if high else 3)
            v = dd_vertices(h)
            if v.dim != n:
                continue
            unit = high and len(cases) % 2 == 0
            rows = triangular_rows(n, unit)
            cases.append((h, v, Lattice(n, 1 if unit else rng.randint(1, 3), rows)))
        seen, seen_high = Counter(), Counter()
        for h, v, lattice in cases:
            verdict = delzant_check(h, v, lattice, facet_defining_rows(h, v))
            simple, smooth, witness, witness_det, overall = edge_route_verdict(h, v, lattice)
            assert (verdict.simple, verdict.smooth, verdict.smooth_witness, verdict.overall) == (
                simple, smooth, witness, overall
            )
            assert (verdict.smooth_witness_det is None) == (witness_det is None)
            seen[simple, overall] += 1
            if h.dim >= 5:
                seen_high[simple, overall] += 1
        assert seen[True, SMOOTH] >= 10 and seen[True, SINGULAR] >= 10
        assert seen_high[True, SMOOTH] >= 5 and seen_high[True, SINGULAR] >= 5

    def test_smooth_implies_simple(self, bundles):
        for b in bundles.values():
            if b.verdict.smooth:
                assert b.verdict.simple


def _loop_trinions(graph):
    """L: the trinions whose triple repeats an edge, one per loop."""
    return sum(len(set(t.edges)) < 3 for t in graph.trinion_triples())


# a centre joined to three looped trinions: genus 3 with L = 3
TRIPOD = TrivalentGraph(4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)))


class TestLoopedGraphs:
    """The paper's theorem past loop-free graphs (README, *Graphs with
    loops*): a loop trinion's row -x_b <= 0 on its bridge b is redundant,
    and the origin lies on 6g-6-2L facets, more than 3g-3 from genus 4."""

    def test_random_graphs_of_genus_three_to_six(self):
        rng = random.Random(5)
        graphs = [random_trivalent_graph(rng, 2 * g - 2) for g in range(3, 7) for _ in range(50)]
        assert sum(not g.is_loop_free() for g in graphs) >= len(graphs) // 3
        looped_high = 0
        for graph in graphs:
            g, loops = graph.genus, _loop_trinions(graph)
            assert loops <= g
            report, art = analyze_graph(graph)
            assert report.overall == SINGULAR
            assert report.facet_count == len(art.hrep.rows) - loops
            if g >= 4:
                assert art.verdict.simple_witness == (F(0),) * art.hrep.dim
                assert art.verdict.simple_witness_facets == 6 * g - 6 - 2 * loops
                looped_high += loops > 0
        assert looped_high >= 30

    def test_tripod_origin_is_simple(self):
        report, art = analyze_graph(TRIPOD)
        assert _loop_trinions(TRIPOD) == 3
        assert (report.overall, report.facet_count) == (SINGULAR, 10)
        # the origin sorts first: bit 0 of each facet row's mask
        assert sum(art.vpoly.row_vertices[i] & 1 for i in art.facet_rows) == 6
        assert art.verdict.simple_witness == (0, 1, 1, 0, F(1, 2), F(1, 2))
        assert art.verdict.simple_witness_facets == 8


class TestSingularityReport:
    def test_guard_applied_only_loop_free_high_genus(self, bundles):
        for name, applied in (
            ("theta2", False), ("dumbbell", False), ("theta3", True), ("k4", True)
        ):
            b = bundles[name]
            assert apply_loop_free_guard(b.graph, b.verdict) is applied

    def test_guard_raises_on_contradiction(self, k4):
        fake = DelzantVerdict(
            simple=True,
            simple_witness=None,
            simple_witness_facets=None,
            smooth=True,
            smooth_witness=None,
            smooth_witness_det=None,
            overall=SMOOTH,
        )
        with pytest.raises(ConsistencyError):
            apply_loop_free_guard(k4, fake)

    def test_two_routes_agree_for_genus_two(self, bundles):
        # vertex-side smoothness and the fan identification must agree
        b = bundles["theta2"]
        assert b.verdict.overall == SMOOTH
        mapped = map_fan(normal_fan(b.hrep, b.vpoly, b.facet_rows), A_MAP)
        assert set(mapped.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)}
