"""Vertex enumeration against the double description and Fraction oracles.

enumerate_vertices reads a graph polytope's vertices off the graph's
cycle space, and facet_defining_rows decides facets from incidence
bitmasks.  dd_vertices (tests/helpers.py) is a plain double description
that enumerates any H-system: it grows the homogenising cone from
fraction_initial_cone and finds adjacent rays by scan_adjacent_pairs.
The closed form is compared with it field for field (points, scale,
row masks, dimension) on the fixture graphs, multi_theta(2..6) and
seeded random graphs with loops; both are checked against the Fraction
routes (fraction_vpolytope, echelon_facet_rows), and the double
description alone on random cut cubes with redundant rows.  Past the
oracle's reach, multi_theta(7)'s vertex list is certified row by row,
and ray_tuple_vertices, the per-vertex ray route the edge columns
replaced, is compared field for field up to genus 10.  The rows' vertex
masks are checked against per-vertex masks transposed by a loop over
bits, and analyze_graph on singular graphs must run with no
transposition at all.  The block order the vertex stage keeps is checked
against sorted_key_vertices, the sorted-key route it replaced, point by
point and mask by mask after the permutation, and analyze_graph must
run without reading a sorted view.
"""

import dataclasses
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from graphtoric import cli, polytope
from graphtoric.cli import analyze_graph
from graphtoric.exactmath import gf2_echelon, integer_rank
from graphtoric.graph_core import TrivalentGraph, _tree_paths, multi_theta
from graphtoric.lattice_fan import (
    SINGULAR,
    SMOOTH,
    blocks_in_lattice,
    build_lattice,
    is_lattice_point,
    is_lattice_polytope,
)
from graphtoric.polytope import (
    HPolytope,
    NotFullDimensional,
    VPolytope,
    brute_force_vertices,
    build_hrep,
    enumerate_vertices,
    facet_defining_rows,
)
from helpers import (
    UnboundedPolytope,
    contracted_parity_solutions,
    dd_vertices,
    echelon_facet_rows,
    fraction_brute_force_vertices,
    fraction_calls,
    fraction_initial_cone,
    fraction_vpolytope,
    homogeneous_rows,
    parity_labellings,
    per_bit_row_index,
    permuted_mask,
    points_order,
    random_trivalent_graph,
    ray_tuple_vertices,
    redundant_hsystem,
    sorted_key_vertices,
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
    """300 rows in dimension 4: row indices pass 256, so the zero sets
    and tight masks are several machine words wide."""
    return supporting_hsystem(random.Random(71), 4, 300, 8)


def _check_against_oracles(h, v):
    """v, the vertex set of h, against the Fraction routes, and the double
    description with the rows reversed against v."""
    assert v == fraction_vpolytope(h, v.vertices)
    assert v.incidence == tuple(tuple(polytope._bits(m)) for m in v.tight)
    # the rows go in in h.rows order; the reversed order gives the same polytope
    flipped = dd_vertices(HPolytope(h.dim, h.rows[::-1]))
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


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_polytopes_match_oracles(name):
    graph = GRAPHS[name]
    h = build_hrep(graph)
    v = enumerate_vertices(graph, h)
    assert v == dd_vertices(h)
    _check_against_oracles(h, v)
    assert v.dim == graph.n_edges


@pytest.mark.parametrize("g", range(2, 7))
def test_graphs_of_each_genus_match_double_description(g):
    # multi_theta(g) and 20 random graphs, 100 in all, most with loops
    rng = random.Random(3100 + g)
    graphs = [random_trivalent_graph(rng, 2 * g - 2) for _ in range(20)]
    assert sum(not graph.is_loop_free() for graph in graphs) >= 5
    for graph in [multi_theta(g)] + graphs:
        h = build_hrep(graph)
        assert enumerate_vertices(graph, h) == dd_vertices(h)


def test_edge_columns_match_ray_tuples():
    # the column route against the per-vertex ray tuples it replaced, field
    # for field, on multi_theta(2..10) and 60 random graphs of genus 2-9,
    # past the double description's reach
    rng = random.Random(2309)
    randoms = [random_trivalent_graph(rng, 2 * rng.randint(2, 9) - 2) for _ in range(60)]
    assert sum(not graph.is_loop_free() for graph in randoms) >= 15
    assert max(graph.genus for graph in randoms) == 9
    for graph in [multi_theta(g) for g in range(2, 11)] + randoms:
        h = build_hrep(graph)
        assert enumerate_vertices(graph, h) == ray_tuple_vertices(graph, h), graph


def _layout_graphs():
    """The fixtures, multi_theta(2..8) and 30 seeded random graphs of
    genus 2-7, at least 8 of them with loops."""
    rng = random.Random(2501)
    randoms = [random_trivalent_graph(rng, 2 * rng.randint(2, 7) - 2) for _ in range(30)]
    assert sum(not graph.is_loop_free() for graph in randoms) >= 8
    return list(GRAPHS.values()) + [multi_theta(g) for g in range(2, 9)] + randoms


def test_row_layout_matches_per_vertex_oracles():
    # row k's vertex mask is the transposition, by a loop over bits, of
    # the per-vertex row masks: of those evaluated row by row at each
    # point, and of the double description's (up to genus 5) and the ray
    # tuples'; the lazy tight and incidence are those per-vertex masks
    checked_dd = 0
    for graph in _layout_graphs():
        h = build_hrep(graph)
        v = enumerate_vertices(graph, h)
        width, scale = len(h.rows), v.scale
        evaluated = tuple(
            sum(1 << k for k, row in enumerate(h.rows) if polytope._idot(row.a, p) == scale * row.b)
            for p in v.points
        )
        assert v.row_vertices == tuple(per_bit_row_index(evaluated, width)), graph
        oracles = [ray_tuple_vertices(graph, h)]
        if graph.genus <= 5:
            oracles.append(dd_vertices(h))
            checked_dd += 1
        for oracle in oracles:
            assert oracle.points == v.points
            assert v.row_vertices == tuple(per_bit_row_index(oracle.tight, width)), graph
            assert v.tight == oracle.tight == evaluated
            assert v.incidence == oracle.incidence
        assert v.incidence == tuple(tuple(polytope._bits(m)) for m in evaluated)
    assert checked_dd >= 20


def test_sorted_keys_decode_to_sorted_points():
    # the key-order lemma behind the sorted views: byte e of a vertex's
    # key, from the most significant end, is scale*x_e < 256, so the
    # sorted keys, or n-byte rows, decode to the points in tuple order;
    # here each key is built coordinate by coordinate from the
    # labellings, not by the vertex stage's spread
    for graph in _layout_graphs():
        n = graph.n_edges
        found = [
            (s, z)
            for s in polytope._span(0, graph.cycle_basis())
            for z in parity_labellings(graph, s)
        ]
        scale = 2 if any(s for s, _ in found) else 1
        points = [
            tuple((s >> e & 1) + scale * (z >> e & 1) for e in range(n)) for s, z in found
        ]
        keys = [sum(c << 8 * (n - 1 - e) for e, c in enumerate(p)) for p in points]
        decoded = [tuple(k.to_bytes(n, "big")) for k in sorted(keys)]
        assert decoded == sorted(points)
        assert tuple(decoded) == enumerate_vertices(graph, build_hrep(graph)).points, graph


def _component_count(graph, s):
    """The connected components of the edge set s, by a depth-first search
    over the graph vertices its edges touch."""
    neighbours = {}
    for i, (u, v) in enumerate(graph.edges):
        if s >> i & 1:
            neighbours.setdefault(u, []).append(v)
            neighbours.setdefault(v, []).append(u)
    seen, count = set(), 0
    for start in neighbours:
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack += neighbours[x]
    return count


def _cycle_blocks(graph, s):
    """Per cycle of the cycle-space element s, the sorted positions in
    ``graph.cycle_basis()`` of the masks whose edge off the spanning tree
    (the union of the tree paths) lies on that cycle."""
    paths, _ = _tree_paths(graph.n_vertices, graph.edges)
    off_tree = ~functools.reduce(operator.or_, paths)
    owner = {(c & off_tree).bit_length() - 1: i for i, c in enumerate(graph.cycle_basis())}
    ends = {}
    for i, (u, v) in enumerate(graph.edges):
        if s >> i & 1:
            ends.setdefault(u, []).append((v, i))
            ends.setdefault(v, []).append((u, i))
    seen, blocks = set(), []
    for start in ends:
        if start in seen:
            continue
        block, stack = set(), [start]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                for y, i in ends[x]:
                    stack.append(y)
                    if i in owner:
                        block.add(owner[i])
        blocks.append(sorted(block))
    return blocks


def _parity_graphs():
    """multi_theta(2..9) and 10 seeded random graphs per genus 2..9, at
    least 20 of them with loops."""
    rng = random.Random(2209)
    randoms = [random_trivalent_graph(rng, 2 * g - 2) for g in range(2, 10) for _ in range(10)]
    assert sum(not graph.is_loop_free() for graph in randoms) >= 20
    return [multi_theta(g) for g in range(2, 10)] + randoms


def test_parity_solutions_match_contracted_graph_walk():
    # every cycle-space element S of the parity graphs; S with k cycles
    # has 2^(g-k) labellings when k is even and none when k is odd; and
    # the cases the reduction in fundamental-cycle coordinates decides:
    # a cycle of S owning two or more basis masks, and cycles whose
    # basis positions interleave
    shared = interleaved = 0
    for graph in _parity_graphs():
        for s in polytope._span(0, graph.cycle_basis()):
            z = parity_labellings(graph, s)
            k = _component_count(graph, s)
            assert len(z) == (0 if k % 2 else 1 << graph.genus - k), (graph, bin(s))
            assert len(set(z)) == len(z)
            assert set(z) == set(contracted_parity_solutions(graph, s)), (graph, bin(s))
            blocks = _cycle_blocks(graph, s)
            shared += any(len(block) > 1 for block in blocks)
            interleaved += any(
                a[0] < b[-1] and b[0] < a[-1] for a, b in itertools.combinations(blocks, 2)
            )
    assert shared >= 1000 and interleaved >= 1000, (shared, interleaved)


def test_parity_solutions_ignore_the_layout():
    # _parity_solutions on the byte-layout cycles the vertex stage passes
    # and on graph._cycles, for every S of the parity graphs: both give
    # None, or the same T-join once spread and generators of one span (the
    # reduced echelon form is unique to a span); the byte cycles are
    # graph._cycles spread here bit by bit
    for graph in _parity_graphs():
        n = graph.n_edges
        spread = lambda m: sum(1 << 8 * (n - 1 - e) for e in range(n) if m >> e & 1)
        cycles = polytope._byte_cycles(graph)
        assert cycles == [tuple(map(spread, c)) for c in graph._cycles], graph
        for s in polytope._span(0, graph.cycle_basis()):
            bits = polytope._parity_solutions(graph._cycles, s)
            byte = polytope._parity_solutions(cycles, spread(s))
            assert (bits is None) == (byte is None), (graph, bin(s))
            if bits is not None:
                assert byte[0] == spread(bits[0]), (graph, bin(s))
                assert gf2_echelon(byte[1]) == gf2_echelon(map(spread, bits[1])), (graph, bin(s))


@pytest.mark.parametrize("seed", HSYSTEM_SEEDS)
def test_redundant_cut_cubes_match_oracles(seed):
    h = _hsystem(seed)
    v = dd_vertices(h)
    _check_against_oracles(h, v)
    assert brute_force_vertices(h) == v
    assert fraction_brute_force_vertices(h) == v


def test_many_row_system_matches_oracles():
    h = _many_row_system()
    assert len(h.rows) == 300
    v = dd_vertices(h)
    _check_against_oracles(h, v)
    assert v.dim == 4
    # the rows tight at the vertices, as homogeneous row indices (H-row + 1)
    rows = {i + 1 for t in v.incidence for i in t}
    assert max(rows) >= 256 and len({k >> 3 for k in rows}) >= 30


def test_cut_cubes_cover_redundant_and_flat_cases():
    # the random systems must exercise what the combinatorial facet test
    # has to get right: non-facet rows tight at some vertices, and
    # polytopes that are not full-dimensional
    redundant_tight = flat = 0
    for seed in HSYSTEM_SEEDS:
        h = _hsystem(seed)
        v = dd_vertices(h)
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
    with pytest.raises(UnboundedPolytope):
        fraction_initial_cone(homogeneous_rows(h), 3)
    with pytest.raises(UnboundedPolytope):
        dd_vertices(h)


def test_hrep_and_vertex_stage_build_no_fraction():
    assert fraction_calls(lambda: Fraction(1, 2) + 1) > 0  # the counter counts
    assert fraction_calls(build_hrep, multi_theta(8)) == 0
    graph = multi_theta(8)
    assert fraction_calls(enumerate_vertices, graph, build_hrep(graph)) == 0
    assert fraction_calls(build_lattice, multi_theta(12)) == 0
    # skip mode builds its few Fractions (the covolume) whatever the genus
    small, large = multi_theta(3), multi_theta(12)
    assert fraction_calls(analyze_graph, large, True) == fraction_calls(analyze_graph, small, True)


def test_brute_force_builds_no_fraction():
    # one integer elimination per row subset
    assert fraction_calls(brute_force_vertices, build_hrep(multi_theta(3))) == 0


@pytest.mark.parametrize(
    "graph, overall",
    [(multi_theta(4), SINGULAR), (multi_theta(2), SMOOTH)],
    ids=["theta4", "theta2"],
)
def test_analyze_reads_integer_points_only(graph, overall, monkeypatch):
    # the verdict and lattice stages work on VPolytope.points; the
    # rational vertices are built only for exports and callers that ask
    # for them.  theta4 has a lattice offender, and theta2 reaches the
    # determinant step
    def unread(v):
        raise AssertionError("analyze_graph read VPolytope.vertices")

    monkeypatch.setattr(VPolytope, "vertices", property(unread))
    report, art = analyze_graph(graph)
    assert report.overall == overall
    offender = is_lattice_polytope(art.vpoly, art.lattice).offending
    assert report.lattice_polytope == (offender is None) == art.verdict.smooth == (overall == SMOOTH)


TRIPOD = TrivalentGraph(4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)))
SORTED_VIEWS = ("points", "vertices", "row_vertices", "integer_vertices", "tight", "incidence")


@pytest.mark.parametrize(
    "graph", [multi_theta(4), multi_theta(2), TRIPOD], ids=["theta4", "theta2", "tripod"]
)
def test_analyze_reads_no_sorted_view(graph, monkeypatch):
    # every stage reads the block order: theta4's origin is its witness,
    # theta2 reaches the determinant step, and the tripod's simple origin
    # sends is_simple to the bit-sliced counts; the reports are those
    # made with the views readable
    def drop_elapsed(report):
        return dataclasses.replace(report, elapsed_ms=0)

    expected = drop_elapsed(analyze_graph(graph)[0])

    def unread(name):
        def read(v):
            raise AssertionError(f"analyze_graph read VPolytope.{name}")

        return property(read)

    for name in SORTED_VIEWS:
        monkeypatch.setattr(VPolytope, name, unread(name))
    report, art = analyze_graph(graph)
    assert drop_elapsed(report) == expected
    assert not {"_sorted", *SORTED_VIEWS} & art.vpoly.__dict__.keys()


def _block_graphs():
    """multi_theta(2..10) and 200 seeded random graphs of genus 2-8, at
    least 50 of them with loops."""
    rng = random.Random(3301)
    randoms = [random_trivalent_graph(rng, 2 * rng.randint(2, 8) - 2) for _ in range(200)]
    assert {graph.genus for graph in randoms} == set(range(2, 9))
    assert sum(not graph.is_loop_free() for graph in randoms) >= 50
    return [multi_theta(g) for g in range(2, 11)] + randoms


def test_block_order_matches_sorted_keys():
    # the sorted-key route against the block order: the block-ordered
    # points, taken in their argsort, are its points, and each row mask
    # and the integer mask, permuted the same way, are its masks; the
    # views equal it too, and block vertex 0 is the origin
    for graph in _block_graphs():
        h = build_hrep(graph)
        v = enumerate_vertices(graph, h)
        oracle = sorted_key_vertices(graph, h)
        assert tuple(v.block_point(0)) == (0,) * h.dim, graph
        order = points_order(v)
        assert [tuple(v.block_point(i)) for i in order] == list(oracle.points), graph
        assert tuple(permuted_mask(m, order) for m in v.block_masks) == oracle.row_vertices, graph
        assert permuted_mask(v.block_integer, order) == oracle.integer_vertices, graph
        assert (v.dim, v.scale, v.count) == (oracle.dim, oracle.scale, len(oracle.points))
        assert v == oracle, graph


def test_block_starts_mark_spans():
    # each block is its first point XOR the span of the generators read
    # off rows 2^j of the block, so every point of it differs from the
    # first by a 0/1 vector, and the blocks tile the block order
    for graph in _block_graphs()[:60]:
        v = enumerate_vertices(graph, build_hrep(graph))
        ends = [*v.block_starts[1:], v.count]
        assert v.block_starts[0] == 0 and all(a < b for a, b in zip(v.block_starts, ends))
        for start, end in zip(v.block_starts, ends):
            size = end - start
            assert size & size - 1 == 0, graph
            row = lambda i: int.from_bytes(v.block_point(start + i), "big")
            gens = [row(1 << j) ^ row(0) for j in range(size.bit_length() - 1)]
            assert [row(i) for i in range(size)] == polytope._span(row(0), gens), graph
            first = v.block_point(start)
            for i in range(start, end):
                assert all(abs(a - b) == v.scale or a == b for a, b in zip(v.block_point(i), first))


def test_blocks_in_lattice_matches_per_vertex_test():
    # build_lattice's L holds every unit vector, so one point per block
    # decides; is_lattice_polytope tests every vertex
    verdicts = []
    for graph in _block_graphs():
        h = build_hrep(graph)
        v = enumerate_vertices(graph, h)
        lattice = build_lattice(graph)
        n = graph.n_edges
        assert all(is_lattice_point([int(i == j) for j in range(n)], lattice) for i in range(n))
        got = blocks_in_lattice(v, lattice)
        assert got == is_lattice_polytope(v, lattice).ok, graph
        verdicts.append(got)
    assert 10 <= sum(verdicts) <= len(verdicts) - 100


LOOPED_GENUS3 = TrivalentGraph(4, ((0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)))


@pytest.mark.parametrize(
    "graph",
    [multi_theta(g) for g in range(3, 7)] + [LOOPED_GENUS3],
    ids=[f"theta{g}" for g in range(3, 7)] + ["looped-g3"],
)
def test_analyze_transposes_no_incidence(graph, monkeypatch):
    # for a graph of genus 3 or more whose origin is not simple, every
    # stage reads the row layout the vertex stage builds: the per-vertex
    # masks are never needed, so no transposition runs at all
    def drop_elapsed(report):
        return dataclasses.replace(report, elapsed_ms=0)

    expected = drop_elapsed(analyze_graph(graph)[0])
    batch = cli._batch_row(graph.genus) if graph.is_loop_free() else None

    def untransposed(masks, width):
        raise AssertionError("analyze_graph transposed the incidence")

    monkeypatch.setattr(polytope, "_transpose", untransposed)
    report, art = analyze_graph(graph)
    assert drop_elapsed(report) == expected
    assert not report.simple and art.verdict.simple_witness == (0,) * graph.n_edges
    assert "tight" not in art.vpoly.__dict__
    if batch is not None:
        assert cli._batch_row(graph.genus) == batch


def _transposition_case(name):
    """(masks, width) for the transposition test; widths 9 and 65 are just
    past a byte and a machine word, and the 300-row system's vertex masks,
    shifted up one bit as homogeneous zero sets, are 301 bits wide."""
    if name == "300-rows":
        v = dd_vertices(_many_row_system())
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
    # the double description found the same counts when it was the route
    report, _ = analyze_graph(multi_theta(7))
    assert (report.vertex_count, report.facet_count) == (2376, 48)


def test_theta7_vertex_list_is_certified():
    # every listed point satisfies every row, its tight mask is the rows
    # it makes tight, and those rows have rank n, so it is a vertex; with
    # the 2,376 distinct points of test_theta7_counts, the list is the
    # whole vertex set, at a genus the double description oracle does not
    # reach in a test run
    graph = multi_theta(7)
    h = build_hrep(graph)
    v = enumerate_vertices(graph, h)
    assert len(set(v.points)) == len(v.points) == 2376
    for p, tight in zip(v.points, v.tight):
        slack = [row.b * v.scale - polytope._idot(row.a, p) for row in h.rows]
        assert min(slack) >= 0
        assert tight == sum(1 << k for k, x in enumerate(slack) if x == 0)
        assert integer_rank([h.rows[k].a for k in polytope._bits(tight)]) == h.dim
