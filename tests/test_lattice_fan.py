import random
from collections import Counter
from fractions import Fraction

import pytest

from graphtoric.exactmath import QMatrix
from graphtoric.graph_core import multi_theta
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
from graphtoric.polytope import HPolytope, build_hrep, enumerate_vertices
from helpers import (
    edge_route_verdict,
    gauss_rank,
    gf2_rank,
    graph_lattice_generators,
    inverse_lattice_member,
    random_hsystem,
    random_trivalent_graph,
    rational_vpolytope,
    trinion_parity_vectors,
)

F = Fraction

# the coordinate change that carries the genus-2 normal fan onto the fan
# of 3-dimensional projective space
A_MAP = QMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def unit_cube_h(n):
    ineqs = []
    for i in range(n):
        e = tuple(int(i == k) for k in range(n))
        ineqs.append((e, 1))
        ineqs.append((tuple(-x for x in e), 0))
    return HPolytope.from_inequalities(n, ineqs)


class TestLattice:
    def test_standard_lattice(self):
        L = Lattice.from_generators([(1, 0), (0, 1)])
        assert L.covolume == 1
        assert is_lattice_point((3, -2), L)
        assert not is_lattice_point((F(1, 2), 0), L)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            Lattice.from_generators([(1, 1), (2, 2)])

    def test_mixed_length_rejected(self):
        with pytest.raises(ValueError):
            Lattice.from_generators([(1, 0), (1,)])

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
            for row in L.basis.rows:
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
            other = Lattice.from_generators(gens)
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
            hermite = Lattice.from_generators(graph_lattice_generators(graph))
            assert Lattice.from_generators(L.basis.rows).basis == hermite.basis
            assert L.basis == hermite.basis
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
                L = Lattice.from_generators(gens)
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
                points += enumerate_vertices(build_hrep(graph)).vertices
            v = rational_vpolytope(n, points, ((),) * len(points))
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
        Z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
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
        v = enumerate_vertices(h)
        Z2 = Lattice.from_generators([(1, 0), (0, 1)])
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
        h = unit_cube_h(3)
        fan = normal_fan(h, enumerate_vertices(h))
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
        mapped = map_fan(fan, QMatrix.identity(3))
        assert mapped == fan

    def test_projective_space_fan(self, bundles):
        b = bundles["theta2"]
        fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
        mapped = map_fan(fan, A_MAP)
        assert set(mapped.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)}
        assert mapped.maximal_cones == fan.maximal_cones

    def test_cube_under_map(self):
        h = unit_cube_h(3)
        fan = map_fan(normal_fan(h, enumerate_vertices(h)), A_MAP)
        assert set(fan.rays) == {
            (0, 1, 1), (0, -1, -1), (1, 0, 1), (-1, 0, -1), (1, 1, 0), (-1, -1, 0),
        }

    def test_singular_map_rejected(self, bundles):
        b = bundles["theta2"]
        fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
        with pytest.raises(ValueError):
            map_fan(fan, QMatrix([[1, 1, 1], [1, 1, 1], [0, 0, 1]]))

    def test_dimension_mismatch_rejected(self, bundles):
        b = bundles["theta2"]
        fan = normal_fan(b.hrep, b.vpoly, b.facet_rows)
        with pytest.raises(ValueError):
            map_fan(fan, QMatrix.identity(2))


class TestDelzantCheck:
    def test_genus_two_smooth(self, bundles):
        verdict = bundles["theta2"].verdict
        assert verdict.overall == SMOOTH
        assert verdict.simple and verdict.smooth and verdict.lattice_polytope

    def test_simplex_standard_lattice_smooth(self):
        h = HPolytope.from_inequalities(
            3, [((1, 1, 1), 1), ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0)]
        )
        v = enumerate_vertices(h)
        Z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert delzant_check(h, v, Z3).overall == SMOOTH

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
        v = enumerate_vertices(h)
        Z2 = Lattice.from_generators([(1, 0), (0, 1)])
        verdict = delzant_check(h, v, Z2)
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
            cases.append((h, enumerate_vertices(h), build_lattice(graph)))
        while len(cases) < 201:
            high = len(cases) >= 121
            n = rng.randint(5, 6) if high else rng.randint(2, 4)
            h = random_hsystem(rng, n, extra_rows=rng.randint(1, 2) if high else 3)
            v = enumerate_vertices(h)
            if v.dim != n:
                continue
            unit = high and len(cases) % 2 == 0
            rows = triangular_rows(n, unit)
            cases.append((h, v, Lattice(n, 1 if unit else rng.randint(1, 3), rows)))
        seen, seen_high = Counter(), Counter()
        for h, v, lattice in cases:
            verdict = delzant_check(h, v, lattice)
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
            lattice_polytope=True,
            lattice_offender=None,
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
