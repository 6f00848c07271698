"""Vertex enumeration against the Fraction and per-ray oracles.

enumerate_vertices starts from an initial cone found by fraction-free
elimination and integer Gauss-Jordan, reads incidence and dimension from
the integer zero-masks of the double description, facet_defining_rows
decides facets from incidence bitmasks, and _adjacent_pairs tests
adjacency with ray bitsets.  The double description keeps a dense ray
table, a ray's id being its position among the current rays, and builds
its row index by one transposition of the zero sets (_transpose).  Each
is checked here against the slower route it replaced (tests/helpers.py)
on graph polytopes and on random cut cubes with redundant rows: the row
index against a per-bit loop at every insertion step, and the adjacent
pairs, in order, against a scan over every third ray.
"""

import math
import random
from fractions import Fraction

import pytest

from graphtoric import polytope
from graphtoric.cli import analyze_graph
from graphtoric.graph_core import TrivalentGraph, multi_theta
from graphtoric.lattice_fan import SINGULAR, SMOOTH, build_lattice
from graphtoric.polytope import (
    HPolytope,
    NotFullDimensional,
    UnboundedPolytope,
    VPolytope,
    brute_force_vertices,
    build_hrep,
    enumerate_vertices,
    facet_defining_rows,
)
from helpers import (
    echelon_facet_rows,
    fraction_calls,
    fraction_initial_cone,
    fraction_vpolytope,
    per_bit_row_index,
    random_trivalent_graph,
    redundant_hsystem,
    scan_adjacent_pairs,
    supporting_hsystem,
)


def _random_graphs():
    rng = random.Random(23)
    # 2, 4 and 6 graph vertices give genus 2, 3 and 4
    return {
        f"random-g{n // 2 + 1}-{k}": random_trivalent_graph(rng, n)
        for n in (2, 4, 6)
        for k in range(3)
    }


GRAPHS = {
    **{f"theta{g}": multi_theta(g) for g in range(2, 6)},
    "dumbbell": TrivalentGraph(2, ((0, 0), (0, 1), (1, 1))),
    "k4": TrivalentGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    **_random_graphs(),
}
HSYSTEM_SEEDS = range(40)


def _hsystem(seed):
    rng = random.Random(seed)
    return redundant_hsystem(rng, rng.randint(2, 4))


def _many_row_system():
    """300 rows in dimension 4: row indices pass 256, so the adjacency
    chains read many 8-row blocks."""
    return supporting_hsystem(random.Random(71), 4, 300, 8)


@pytest.fixture
def adjacency_steps(monkeypatch):
    """Check every _adjacent_pairs call of DD against the per-ray scan,
    the row index from the transposition against a per-bit loop over the
    current zero sets, and that every zero set holds processed rows only;
    the list collects the pair count of each insertion step."""
    real = polytope._adjacent_pairs
    steps = []

    def checked(pos, neg, zmasks, processed, d, tight_rays):
        assert not any(z & ~processed for z in zmasks)
        assert tight_rays == per_bit_row_index(zmasks, processed.bit_length())
        got = list(real(pos, neg, zmasks, processed, d, tight_rays))
        assert got == list(scan_adjacent_pairs(pos, neg, zmasks, processed, d))
        steps.append(len(got))
        return got

    monkeypatch.setattr(polytope, "_adjacent_pairs", checked)
    return steps


def _check_against_oracles(h):
    rows = polytope._homogeneous_rows(h)
    assert polytope._initial_cone(rows, h.dim + 1) == fraction_initial_cone(rows, h.dim + 1)
    v = enumerate_vertices(h)
    assert v == fraction_vpolytope(h, v.vertices)
    assert v.incidence == tuple(tuple(polytope._bits(m)) for m in v.tight)
    # the rows go in in h.rows order; the reversed order gives the same polytope
    flipped = enumerate_vertices(HPolytope(h.dim, h.rows[::-1]))
    assert (flipped.dim, flipped.scale, flipped.points) == (v.dim, v.scale, v.points)
    last = len(h.rows) - 1
    assert flipped.incidence == tuple(tuple(sorted(last - i for i in t)) for t in v.incidence)
    assert v.scale == math.lcm(*(x.denominator for p in v.vertices for x in p))
    assert all(p == tuple(v.scale * x for x in q) for p, q in zip(v.points, v.vertices))
    if v.dim == h.dim:
        assert facet_defining_rows(h, v) == echelon_facet_rows(h, v)
    else:
        with pytest.raises(NotFullDimensional):
            facet_defining_rows(h, v)
    return v


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_polytopes_match_oracles(name, adjacency_steps):
    v = _check_against_oracles(build_hrep(GRAPHS[name]))
    assert v.dim == GRAPHS[name].n_edges
    assert adjacency_steps


@pytest.mark.parametrize("seed", HSYSTEM_SEEDS)
def test_redundant_cut_cubes_match_oracles(seed, adjacency_steps):
    h = _hsystem(seed)
    v = _check_against_oracles(h)
    assert brute_force_vertices(h) == v


def test_many_row_system_matches_oracles(adjacency_steps):
    h = _many_row_system()
    assert len(h.rows) == 300
    v = _check_against_oracles(h)
    assert v.dim == 4
    assert sum(adjacency_steps) >= 200
    # the rows tight at the vertices, as homogeneous row indices (H-row + 1)
    rows = {i + 1 for t in v.incidence for i in t}
    assert max(rows) >= 256 and len({k >> 3 for k in rows}) >= 30


def test_initial_rays_are_tight_on_every_initial_row_but_their_own():
    # enumerate_vertices takes the initial rays' zero sets from this fact
    systems = [build_hrep(graph) for graph in GRAPHS.values()]
    systems += [_hsystem(seed) for seed in HSYSTEM_SEEDS] + [_many_row_system()]
    for h in systems:
        rows = polytope._homogeneous_rows(h)
        initial, rays = polytope._initial_cone(rows, h.dim + 1)
        for k, ray in enumerate(rays):
            for i, j in enumerate(initial):
                dot = polytope._idot(ray, rows[j])
                assert dot > 0 if i == k else dot == 0


def test_cut_cubes_cover_redundant_and_flat_cases():
    # the random systems must exercise what the combinatorial facet test
    # has to get right: non-facet rows tight at some vertices, and
    # polytopes that are not full-dimensional
    redundant_tight = flat = 0
    for seed in HSYSTEM_SEEDS:
        h = _hsystem(seed)
        v = enumerate_vertices(h)
        if v.dim != h.dim:
            flat += 1
            continue
        facets = set(facet_defining_rows(h, v))
        tight = {i for t in v.incidence for i in t}
        redundant_tight += bool(tight - facets)
    assert flat >= 3
    assert redundant_tight >= 10


def test_initial_cone_of_a_slab_is_refused_by_both_routes():
    # 0 <= x <= 1 in the plane is invariant along y: rank 2 < d = 3
    h = HPolytope.from_inequalities(2, [((1, 0), 1), ((-1, 0), 0)])
    rows = polytope._homogeneous_rows(h)
    with pytest.raises(UnboundedPolytope):
        fraction_initial_cone(rows, 3)
    with pytest.raises(UnboundedPolytope):
        polytope._initial_cone(rows, 3)


def test_hrep_and_initial_cone_build_no_fraction():
    assert fraction_calls(lambda: Fraction(1, 2) + 1) > 0  # the counter counts
    assert fraction_calls(build_hrep, multi_theta(8)) == 0
    rows = polytope._homogeneous_rows(build_hrep(multi_theta(6)))
    assert fraction_calls(polytope._initial_cone, rows, len(rows[0])) == 0
    assert fraction_calls(enumerate_vertices, build_hrep(multi_theta(6))) == 0
    assert fraction_calls(build_lattice, multi_theta(12)) == 0
    # skip mode builds its few Fractions (the covolume) whatever the genus
    small, large = multi_theta(3), multi_theta(12)
    assert fraction_calls(analyze_graph, large, True) == fraction_calls(analyze_graph, small, True)


@pytest.mark.parametrize(
    "graph, overall",
    [(multi_theta(4), SINGULAR), (multi_theta(2), SMOOTH)],
    ids=["theta4", "theta2"],
)
def test_analyze_reads_integer_points_only(graph, overall, monkeypatch):
    # the verdict stage works on VPolytope.points; the rational vertices
    # are built only for exports and callers that ask for them.  theta4
    # has a lattice offender, and theta2 reaches the determinant step
    def unread(v):
        raise AssertionError("analyze_graph read VPolytope.vertices")

    monkeypatch.setattr(VPolytope, "vertices", property(unread))
    report, art = analyze_graph(graph)
    assert report.overall == overall
    assert (art.verdict.lattice_offender is None) == art.verdict.smooth == (overall == SMOOTH)


def _transposition_case(name):
    """(masks, width) for the transposition test; widths 9 and 65 are just
    past a byte and a machine word, and the 300-row system's vertex zero
    sets (homogeneous row k+1 is H-row k) are 301 bits wide."""
    if name == "300-rows":
        v = enumerate_vertices(_many_row_system())
        return [t << 1 for t in v.tight], 301
    if name == "all-zero":
        return [0, 0, 0], 4
    width = int(name.split("-")[1])
    rng = random.Random(width)
    return [rng.getrandbits(width) for _ in range(37)] + [1 << (width - 1)], width


@pytest.mark.parametrize("name", ["all-zero", "width-1", "width-9", "width-65", "300-rows"])
def test_transposition_matches_per_bit_loop(name):
    masks, width = _transposition_case(name)
    assert all(m < 1 << width for m in masks)
    got = polytope._transpose(masks, width)
    assert got == per_bit_row_index(masks, width)
    if name == "300-rows":
        assert sum(x != 0 for x in got[256:]) >= 10


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_vertex_denominators_match_fraction_vertices(name):
    graph = GRAPHS[name]
    report, art = analyze_graph(graph)
    vertices = art.vpoly.vertices
    assert report.max_vertex_denominator == max(x.denominator for p in vertices for x in p)
    integer = sum(all(x.denominator == 1 for x in p) for p in vertices)
    assert integer == report.cube_vertex_count == 2**graph.genus


def test_theta7_counts():
    # no other tier-1 test enumerates genus 7, whose double description
    # peaks at 2,620 rays
    report, _ = analyze_graph(multi_theta(7))
    assert (report.vertex_count, report.facet_count) == (2376, 48)
