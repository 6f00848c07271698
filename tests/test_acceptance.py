"""Acceptance checks: exact, budgeted, one printed line per criterion.

Every expected value is either derived by hand from the defining
inequalities, produced by an independent oracle in helpers.py, or is a
documented structural fact of the construction.  All comparisons are
exact; the time budgets are generous and asserted on wall time.
"""

import random
import sys
import time
from fractions import Fraction

from graphtoric.graph_core import TrivalentGraph, multi_theta
from graphtoric.lattice_fan import (
    SINGULAR,
    SMOOTH,
    build_lattice,
    delzant_check,
    is_lattice_point,
    is_lattice_polytope,
    map_fan,
    normal_fan,
)
from graphtoric.polytope import (
    brute_force_vertices,
    build_hrep,
    contains,
    cube_vertex_labellings,
    enumerate_vertices,
    facet_defining_rows,
    is_simple,
)
from helpers import dd_vertices, gf2_rank, random_hsystem, trinion_parity_vectors
from test_properties import (
    run_boundedness_suite,
    run_hnf_suite,
    run_relabel_suite,
    run_report_determinism_suite,
)

F = Fraction

K4 = TrivalentGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
DUMBBELL = TrivalentGraph(2, ((0, 0), (0, 1), (1, 1)))


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _criterion(number, label, ok, elapsed, budget):
    line = (
        f"{'PASS' if ok and elapsed < budget else 'FAIL'}: "
        f"criterion {number} ({label}) [{elapsed:.3f}s < {budget:g}s]"
    )
    # written past pytest's capture so the line shows on every run
    print(line, file=sys.__stdout__)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_tetrahedron_exactness():
    with _Timer() as t:
        graph = multi_theta(2)
        h = build_hrep(graph)
        v = enumerate_vertices(graph, h)
        facets = facet_defining_rows(h, v)
        ok = set(v.vertices) == {
            (F(0), F(0), F(0)),
            (F(1), F(1), F(0)),
            (F(1), F(0), F(1)),
            (F(0), F(1), F(1)),
        } and len(facets) == 4
    _criterion(1, "tetrahedron exactness", ok, t.elapsed, 1)


def test_criterion_2_cube_vertex_counts():
    with _Timer() as t:
        ok = True
        for g in range(2, 9):
            labs = cube_vertex_labellings(multi_theta(g))
            ok = ok and len(labs) == 2**g
        for g in range(2, 5):
            graph = multi_theta(g)
            labs = cube_vertex_labellings(graph)
            verts = set(enumerate_vertices(graph, build_hrep(graph)).vertices)
            points = set(labs)  # int tuples hash and compare as Fractions
            zero_one = {p for p in verts if all(x in (0, 1) for x in p)}
            ok = ok and points <= verts and points == zero_one
    _criterion(2, "cube vertex counts 2^g and 0/1 bijection", ok, t.elapsed, 10)


def test_criterion_3_origin_non_simplicity_witness():
    with _Timer() as t:
        ok = True
        for g in (3, 4):
            graph = multi_theta(g)
            h = build_hrep(graph)
            v = enumerate_vertices(graph, h)
            facets = set(facet_defining_rows(h, v))
            origin = (F(0),) * h.dim
            ok = ok and origin in v.vertices
            oi = v.vertices.index(origin)
            on_facets = sum(1 for i in v.incidence[oi] if i in facets)
            ok = ok and on_facets == 6 * g - 6 and 6 * g - 6 > 3 * g - 3
            verdict = is_simple(h, v, tuple(facets))
            ok = ok and not verdict.simple and verdict.witness == origin
    _criterion(3, "origin lies on 6g-6 facets, non-simple", ok, t.elapsed, 60)


def test_criterion_4_smoothness_verdicts():
    with _Timer() as t:
        ok = True
        for graph, expected in [
            (multi_theta(2), SMOOTH),
            (multi_theta(3), SINGULAR),
            (multi_theta(4), SINGULAR),
            (K4, SINGULAR),
        ]:
            h = build_hrep(graph)
            v = enumerate_vertices(graph, h)
            verdict = delzant_check(h, v, build_lattice(graph), facet_defining_rows(h, v))
            ok = ok and verdict.overall == expected
    _criterion(4, "smooth at genus 2, singular beyond", ok, t.elapsed, 60)


def test_criterion_5_projective_space_fan():
    with _Timer() as t:
        graph = multi_theta(2)
        h = build_hrep(graph)
        v = enumerate_vertices(graph, h)
        fan = map_fan(normal_fan(h, v, facet_defining_rows(h, v)), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        ok = set(fan.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)}
    _criterion(5, "mapped fan has the projective-space rays", ok, t.elapsed, 1)


def test_criterion_6_all_ones_excluded():
    with _Timer() as t:
        ok = all(
            not contains(build_hrep(multi_theta(g)), (1,) * (3 * g - 3))
            for g in range(2, 7)
        )
    _criterion(6, "all-ones point excluded", ok, t.elapsed, 1)


def test_criterion_7_dimension():
    with _Timer() as t:
        ok = True
        for graph in (multi_theta(2), multi_theta(3), multi_theta(4), K4, DUMBBELL):
            v = enumerate_vertices(graph, build_hrep(graph))
            ok = ok and v.dim == graph.n_edges == 3 * graph.genus - 3
    _criterion(7, "polytopes are full-dimensional", ok, t.elapsed, 60)


def test_criterion_8_oracle_equivalence():
    # the graphs check the closed form, and the hand-built systems the
    # double description that the tests use as its oracle, against the
    # brute-force subset solver
    with _Timer() as t:
        ok = True
        for graph in (multi_theta(2), multi_theta(3), DUMBBELL):
            h = build_hrep(graph)
            ok = ok and enumerate_vertices(graph, h).vertices == brute_force_vertices(h).vertices
        rng = random.Random(808)
        for _ in range(20):
            h = random_hsystem(rng, rng.randint(2, 4))
            ok = ok and dd_vertices(h).vertices == brute_force_vertices(h).vertices
    _criterion(8, "two vertex enumerations agree", ok, t.elapsed, 300)


def test_criterion_9_lattice_facts():
    with _Timer() as t:
        theta2 = multi_theta(2)
        L2 = build_lattice(theta2)
        v2 = enumerate_vertices(theta2, build_hrep(theta2))
        theta3 = multi_theta(3)
        L3 = build_lattice(theta3)
        r = gf2_rank(trinion_parity_vectors(theta3))
        ok = (
            L2.covolume == F(1, 2)
            and is_lattice_point((F(1, 2),) * 3, L2)
            and is_lattice_polytope(v2, L2).ok
            and L3.covolume == F(1, 2**r)
        )
    _criterion(9, "lattice covolumes and membership", ok, t.elapsed, 1)


def test_criterion_10_property_suites():
    with _Timer() as t:
        ok = (
            run_boundedness_suite() >= 100
            and run_hnf_suite() >= 100
            and run_report_determinism_suite() >= 100
            and run_relabel_suite() >= 100
        )
    _criterion(10, "randomized invariant suites", ok, t.elapsed, 300)
