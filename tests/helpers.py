"""Shared test utilities: random generators and independent oracles.

The oracles here deliberately re-derive results with different
algorithms than the package (a plain double description, which vertex
enumeration used before the closed form, cofactor determinants, abs-pivot
Gaussian elimination, exhaustive labelling search, GF(2) bit elimination,
the Fraction, per-ray and normalising routes that vertex enumeration, the
lattice and the H-representation used before they kept to integers, the
edge route the smoothness test used before it read the normal fan, the
per-vertex scan simplicity used before it read the row masks, the
all-pairs superset scan facets used before they walked the masks in
popcount order, the incidence rebuild the trinion triples came from
before validation kept them, the contracted-graph walk the vertex
labellings came from before they read the graph's own spanning tree,
the stripping line loop that read graph text before parse_graph split
each line once, and the json.dumps route that wrote the JSON report
before to_json wrote it directly) so that agreement is meaningful.
"""

from __future__ import annotations

import cProfile
import fractions
import itertools
import json
import math
import random
from fractions import Fraction

from graphtoric.cli import RATIONAL_FIELDS, REPORT_LAYOUT, AnalysisReport
from graphtoric.exactmath import EchelonBasis, exact, hnf, inverse, primitive, primitive_direction
from graphtoric.graph_core import GraphError, GraphSyntaxError, TrinionTriple, TrivalentGraph, validate
from graphtoric.lattice_fan import SINGULAR, SMOOTH, Lattice
from graphtoric.polytope import (
    HPolytope,
    NotFullDimensional,
    VPolytope,
    _byte_cycles,
    _dimension,
    _parity_solutions,
    _row_masks,
    _span,
    _transpose,
    _vpolytope_from_rays,
    contains,
    facet_defining_rows,
)


class UnboundedPolytope(Exception):
    """The double description met an unbounded inequality system."""


def random_trivalent_graph(rng: random.Random, n_vertices: int) -> TrivalentGraph:
    """Random connected trivalent multigraph on n_vertices (even >= 2).

    Pairs up 3 stubs per vertex; resamples until the result is connected.
    """
    if n_vertices % 2 or n_vertices < 2:
        raise ValueError("need an even vertex count >= 2")
    while True:
        stubs = [v for v in range(n_vertices) for _ in range(3)]
        rng.shuffle(stubs)
        edges = tuple(
            tuple(sorted((stubs[i], stubs[i + 1]))) for i in range(0, len(stubs), 2)
        )
        try:
            return TrivalentGraph(n_vertices, edges)
        except GraphError:
            continue


def large_random_graphs(seed: int, count: int = 30) -> list[TrivalentGraph]:
    """``count`` seeded random trivalent multigraphs of genus 8 to 12, the
    sizes the cheap-facts benchmark times; at least five have a loop and
    at least five a multi-edge (checked here, so a seed without them fails)."""
    rng = random.Random(seed)
    graphs = [random_trivalent_graph(rng, 2 * rng.randint(8, 12) - 2) for _ in range(count)]
    assert sum(not g.is_loop_free() for g in graphs) >= 5
    assert sum(len(set(g.edges)) < len(g.edges) for g in graphs) >= 5
    return graphs


def incidence_triples(graph: TrivalentGraph) -> tuple[TrinionTriple, ...]:
    """The trinion triples rebuilt from the edge list: each vertex's sorted
    incident edge indices (a loop's twice), in the vertex order that
    ``graph.trinion_triples()`` reports."""
    incident: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for index, (u, v) in enumerate(graph.edges):
        incident[u].append(index)
        incident[v].append(index)
    return tuple(
        TrinionTriple(t.vertex, tuple(sorted(incident[t.vertex])))
        for t in graph.trinion_triples()
    )


def unit_cube(n: int) -> HPolytope:
    """The unit cube [0, 1]^n: rows x_i <= 1 and -x_i <= 0."""
    ineqs = []
    for i in range(n):
        e = tuple(int(i == k) for k in range(n))
        ineqs.append((e, 1))
        ineqs.append((tuple(-x for x in e), 0))
    return HPolytope.from_inequalities(n, ineqs)


def random_hsystem(rng: random.Random, n: int, extra_rows: int = 3) -> HPolytope:
    """The unit cube in dimension n cut by extra random integer rows."""
    inequalities = []
    for i in range(n):
        e = tuple(int(i == k) for k in range(n))
        inequalities.append((e, 1))
        inequalities.append((tuple(-x for x in e), 0))
    for _ in range(extra_rows):
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        inequalities.append((a, rng.randint(-2, 2)))
    return HPolytope.from_inequalities(n, inequalities)


def redundant_hsystem(rng: random.Random, n: int) -> HPolytope:
    """A random cut cube through the cube's centre, plus rows it implies.

    Adds the sums of two of its rows (tight where both are, so often on
    a lower face) and one of its rows loosened by 1; about one system in
    four is also pinned to the hyperplane x_0 = 0, so it is not
    full-dimensional.
    """
    centre = (Fraction(1, 2),) * n
    base = random_hsystem(rng, n, extra_rows=rng.randint(1, 3))
    while not contains(base, centre):
        base = random_hsystem(rng, n, extra_rows=rng.randint(1, 3))
    rows = [(r.a, r.b) for r in base.rows]
    extra = []
    for _ in range(3):
        (a1, b1), (a2, b2) = rng.sample(rows, 2)
        extra.append((tuple(x + y for x, y in zip(a1, a2)), b1 + b2))
    a, b = rng.choice(rows)
    extra.append((a, b + 1))
    if rng.random() < 0.25:
        extra.append((tuple(int(k == 0) for k in range(n)), 0))
    return HPolytope.from_inequalities(n, rows + extra)


def supporting_hsystem(rng: random.Random, n: int, n_rows: int, n_points: int) -> HPolytope:
    """Many supporting rows of a few random integer points in [0, 3]^n.

    Each row is a.x <= max a.p over the points, for n_rows distinct
    primitive directions a drawn from [-2, 2]^n, so every row is tight at
    some point and each point that is a vertex carries many of them: a
    highly degenerate system whose tight rows run through the whole row
    range.
    """
    points = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n_points)]
    directions = [a for a in itertools.product(range(-2, 3), repeat=n) if math.gcd(*a) == 1]
    rows = []
    for a in rng.sample(directions, n_rows):
        rows.append((a, max(sum(x * y for x, y in zip(a, p)) for p in points)))
    return HPolytope.from_inequalities(n, rows)


# ---------------------------------------------------------------------------
# Text format and JSON report oracles
# ---------------------------------------------------------------------------

def stripped_line_parse_graph(text: str) -> TrivalentGraph:
    """parse_graph by the line loop it replaced: strip each comment-cut
    line, split it, and test every token with a generator over all()."""
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise GraphSyntaxError(line_no, raw.strip())
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:  # more digits than int() converts
            raise GraphSyntaxError(line_no, raw.strip()) from None
    if not edges:
        raise GraphError("no edges found in graph text")
    return validate(edges)


def json_dumps_report(report: AnalysisReport) -> str:
    """AnalysisReport.to_json by the route it replaced: a dict built from
    REPORT_LAYOUT, written by json.dumps(doc, indent=2)."""
    doc = {}
    for section, keys in REPORT_LAYOUT:
        out = doc if section is None else doc.setdefault(section, {})
        for key, field in keys.items():
            x = getattr(report, field)
            if x is not None and field in RATIONAL_FIELDS:
                x = [str(c) for c in x] if isinstance(x, tuple) else str(x)
            out[key] = x
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# H-representation oracle
# ---------------------------------------------------------------------------

def inequality_hrep(graph: TrivalentGraph) -> HPolytope:
    """The graph polytope by the route build_hrep replaced: the four
    tetrahedron rows per trinion triple (row.x >= 0 stored as -row), each
    normalised and merged by HPolytope.from_inequalities."""
    n = graph.n_edges
    inequalities = []
    for triple in graph.trinion_triples():
        coeffs = [0] * n
        for index in triple.edges:
            coeffs[index] += 1
        inequalities.append((tuple(coeffs), 2))
        for pos in range(3):
            row = [0] * n
            for q, index in enumerate(triple.edges):
                row[index] += -1 if q == pos else 1
            inequalities.append((tuple(-x for x in row), 0))
    return HPolytope.from_inequalities(n, inequalities)


# ---------------------------------------------------------------------------
# Vertex enumeration oracles
# ---------------------------------------------------------------------------

def rational_vpolytope(dim: int, vertices, incidence, n_rows: int) -> VPolytope:
    """A VPolytope holding the given rational vertices, in the given order,
    scaled by the lcm of their denominators, with vertex r's tight row
    indices ``incidence[r]`` set as bit r of those rows' vertex masks, one
    mask for each of the system's ``n_rows`` rows, and bit r of the
    integer-vertex mask set iff every coordinate of vertex r is an
    integer."""
    vertices = [[Fraction(x) for x in p] for p in vertices]
    scale = math.lcm(*(x.denominator for p in vertices for x in p))
    points = tuple(tuple(int(x * scale) for x in p) for p in vertices)
    row_vertices = [0] * n_rows
    for r, rows in enumerate(incidence):
        for k in rows:
            row_vertices[k] |= 1 << r
    integer = sum(1 << r for r, p in enumerate(vertices) if all(x.denominator == 1 for x in p))
    return VPolytope(dim, scale, points, tuple(row_vertices), integer)


def fraction_vpolytope(h: HPolytope, points) -> VPolytope:
    """V-polytope of a point set in Fraction arithmetic.

    Incidence evaluates every row at every point; the dimension is the
    EchelonBasis rank of the differences to the first point.
    """
    verts = sorted({tuple(Fraction(x) for x in p) for p in points})
    incidence = []
    for p in verts:
        incidence.append(tuple(
            i
            for i, row in enumerate(h.rows)
            if sum(c * v for c, v in zip(row.a, p)) == row.b
        ))
    if not verts:
        dim = -1
    else:
        basis = EchelonBasis()
        origin = verts[0]
        for p in verts[1:]:
            basis.add([x - y for x, y in zip(p, origin)])
            if basis.rank == h.dim:
                break
        dim = basis.rank
    return rational_vpolytope(dim, verts, incidence, len(h.rows))


def echelon_facet_rows(h: HPolytope, v: VPolytope) -> tuple[int, ...]:
    """Rows whose tight vertices span affine dimension n-1 (EchelonBasis)."""
    if v.dim != h.dim:
        raise NotFullDimensional(f"polytope has dimension {v.dim} in ambient {h.dim}")
    tight_at: dict[int, list[int]] = {i: [] for i in range(len(h.rows))}
    for vi, tight in enumerate(v.incidence):
        for i in tight:
            tight_at[i].append(vi)
    facets = []
    for i, vis in tight_at.items():
        if len(vis) < h.dim:
            continue
        basis = EchelonBasis()
        origin = v.vertices[vis[0]]
        for vi in vis[1:]:
            basis.add([x - y for x, y in zip(v.vertices[vi], origin)])
            if basis.rank == h.dim - 1:
                facets.append(i)
                break
    return tuple(facets)


def pairwise_facet_rows(h: HPolytope, v: VPolytope) -> tuple[int, ...]:
    """The facet rows by the route facet_defining_rows took before it
    walked the masks in popcount order: every row against every other,
    a row kept iff it is tight at n or more vertices, is the first row
    with its mask, and no other mask is a strict superset of it."""
    masks = v.row_vertices
    return tuple(
        i
        for i, mi in enumerate(masks)
        if mi.bit_count() >= h.dim
        and masks.index(mi) == i
        and not any(mj != mi and mj & mi == mi for mj in masks)
    )


def per_vertex_is_simple(h: HPolytope, v: VPolytope, facet_rows) -> tuple:
    """Simplicity by the route is_simple took before it read the row
    masks: each vertex's per-vertex ``tight`` mask ANDed with the facet
    rows, popcounted.  Returns (simple, witness, witness_facets)."""
    facets = sum(1 << k for k in set(facet_rows))
    for i, tight in enumerate(v.tight):
        count = (tight & facets).bit_count()
        if count != h.dim:
            return False, v.vertex(i), count
    return True, None, None


def walking_is_simple(h: HPolytope, v: VPolytope, facet_rows) -> tuple:
    """Simplicity by the route is_simple took before it counted bit-sliced:
    vertex by vertex in ``points`` order, bit i of each facet row's
    sorted vertex mask summed, up to the first count that is not n.
    Returns (simple, witness, witness_facets)."""
    masks = [v.row_vertices[k] for k in set(facet_rows)]
    for i in range(len(v.points)):
        count = sum(m >> i & 1 for m in masks)
        if count != h.dim:
            return False, v.vertex(i), count
    return True, None, None


def sorted_key_vertices(graph: TrivalentGraph, h: HPolytope) -> VPolytope:
    """The graph polytope's vertices by the route enumerate_vertices took
    before it kept cycle-space blocks: one integer key per vertex, byte e
    from the top holding scale*x_e, expanded per S from its T-join and
    generators (_span), sorted, which sorts the points, and joined into
    one buffer; the points are the buffer cut into n-tuples, and the row
    masks and integer mask are _row_masks of the sorted buffer."""
    n = h.dim
    cycles = _byte_cycles(graph)
    found = [(s, p) for s in _span(0, [c for c, _, _ in cycles]) if (p := _parity_solutions(cycles, s))]
    scale = 2 if any(s for s, _ in found) else 1
    keys, z_shift = [], scale - 1
    for s, (t, gens) in found:
        keys += _span(s | t << z_shift, [c << z_shift for c in gens])
    keys.sort()
    data = b"".join([k.to_bytes(n, "big") for k in keys])
    row_vertices, integer = _row_masks(h, data, scale)
    points = tuple(zip(*[iter(data)] * n))
    return VPolytope(_dimension(h, row_vertices, len(points)), scale, points, row_vertices, integer)


def points_order(v: VPolytope) -> list[int]:
    """The block indices of v's vertices in ``points`` order: the argsort
    of the block-ordered points."""
    return sorted(range(v.count), key=lambda i: tuple(v.block_point(i)))


def permuted_mask(mask: int, order) -> int:
    """The mask whose bit j is bit order[j] of ``mask``, for a mask
    below 2**len(order)."""
    digits = format(mask, f"0{len(order)}b")[::-1]  # bit i is digit i
    return int("".join([digits[i] for i in reversed(order)]) or "0", 2)


def homogeneous_rows(h: HPolytope) -> list[tuple[int, ...]]:
    """The rows of the homogenising cone: t >= 0, then (b, -a) per H-row in
    ``h.rows`` order, so homogeneous row k+1 is H-row k."""
    return [(1,) + (0,) * h.dim] + [(row.b, *(-x for x in row.a)) for row in h.rows]


def dd_vertices(h: HPolytope) -> VPolytope:
    """Vertex enumeration of any H-system by a plain double description.

    The cone {(t, x) : t >= 0, b*t - a.x >= 0} grows one homogeneous row
    at a time, in ``h.rows`` order after t >= 0, from the simplicial cone
    of the first n+1 independent rows (fraction_initial_cone); ray k of
    that cone vanishes on every initial row but the k-th.  Each row keeps
    the rays on its non-negative side, the tight ones gaining the row in
    their zero sets, and adds a primitive combination of each adjacent
    (positive, negative) pair (scan_adjacent_pairs), which vanishes where
    both did.  A surviving ray with t = 0 is a recession direction:
    UnboundedPolytope.
    """
    rows = homogeneous_rows(h)
    d = h.dim + 1
    initial, rays = fraction_initial_cone(rows, d)
    processed = sum(1 << j for j in initial)
    zmasks = [processed & ~(1 << j) for j in initial]
    for j, row in enumerate(rows):
        bit = 1 << j
        if processed & bit:
            continue
        dots = [sum(x * y for x, y in zip(ray, row)) for ray in rays]
        pos = [r for r, dot in enumerate(dots) if dot > 0]
        neg = [r for r, dot in enumerate(dots) if dot < 0]
        new = [
            (primitive([dots[p] * y - dots[q] * x for x, y in zip(rays[p], rays[q])]),
             zmasks[p] & zmasks[q] | bit)
            for p, q in scan_adjacent_pairs(pos, neg, zmasks, processed, d)
        ]
        kept = [(ray, z | bit * (dot == 0)) for ray, z, dot in zip(rays, zmasks, dots) if dot >= 0]
        rays, zmasks = [ray for ray, _ in kept + new], [z for _, z in kept + new]
        processed |= bit
    for ray in rays:
        if ray[0] == 0:
            raise UnboundedPolytope(f"recession direction {ray[1:]} found")
    return _vpolytope_from_rays(h, rays, [z >> 1 for z in zmasks])


def scan_adjacent_pairs(pos, neg, zmasks, processed, d):
    """Double description adjacency by scanning every third ray.

    (p, q) is adjacent iff at least d-2 processed rows vanish on both and
    no third ray, at any position of ``zmasks``, vanishes on all of them.
    """
    for p in pos:
        zp = zmasks[p] & processed
        for q in neg:
            z = zp & zmasks[q]
            if z.bit_count() < d - 2:
                continue
            if any(r != p and r != q and z & ~zr == 0 for r, zr in enumerate(zmasks)):
                continue
            yield p, q


def per_bit_row_index(zmasks, width):
    """The double description's row index by a loop over bits: entry k
    is the set of positions r whose zero set ``zmasks[r]`` holds row k,
    for k < width."""
    index = []
    for k in range(width):
        rays = 0
        for r, z in enumerate(zmasks):
            if z >> k & 1:
                rays |= 1 << r
        index.append(rays)
    return index


def fraction_initial_cone(rows, d):
    """The double description's initial rows and rays by the Fraction route
    it replaced: EchelonBasis picks the first d independent rows, and the
    rays are the primitive columns of their inverse."""
    basis = EchelonBasis()
    initial = []
    for j, row in enumerate(rows):
        if basis.add(row):
            initial.append(j)
            if basis.rank == d:
                break
    if len(initial) < d:
        raise UnboundedPolytope("rows of rank below d")
    binv = inverse([rows[j] for j in initial])
    return initial, [primitive_direction(col) for col in zip(*binv)]


def fraction_brute_force_vertices(h: HPolytope) -> VPolytope:
    """Brute force by the route brute_force_vertices took before Cramer's
    rule: gauss_solve on every n-subset of rows, and each unique solution
    x that satisfies every row, checked in Fractions, becomes the
    primitive homogeneous ray (t, t*x) with its tight rows, also read in
    Fractions."""
    found = {}
    for subset in itertools.combinations(h.rows, h.dim):
        status, x = gauss_solve([row.a for row in subset], [row.b for row in subset])
        if status != "unique":
            continue
        values = [sum(c * v for c, v in zip(row.a, x)) - row.b for row in h.rows]
        if max(values) <= 0:
            found[primitive_direction((1,) + x)] = sum(1 << k for k, d in enumerate(values) if not d)
    return _vpolytope_from_rays(h, list(found), list(found.values()))


def ray_tuple_vertices(graph: TrivalentGraph, h: HPolytope) -> VPolytope:
    """The graph polytope's vertices by the route enumerate_vertices took
    before it built them one edge column at a time: per vertex, the
    primitive homogeneous ray (1, z) for S empty, else (2, 2z + S), built
    coordinate by coordinate and rescaled by _vpolytope_from_rays.  The
    tight rows group the vertices, per row support, by their values 2x on
    it (empty groups dropped), and OR the groups whose values make the
    row tight."""
    n = h.dim
    found = [(s, z) for s in _span(0, graph.cycle_basis()) for z in parity_labellings(graph, s)]
    rays = [
        (2, *((s >> e & 1) + 2 * (z >> e & 1) for e in range(n))) if s
        else (1, *(z >> e & 1 for e in range(n)))
        for s, z in found
    ]
    halves, ones = zip(*found)
    every = (1 << len(rays)) - 1
    at = [(every & ~(a | b), a, b) for a, b in zip(_transpose(halves, n), _transpose(ones, n))]
    groups = {}
    row_rays = []
    for row in h.rows:
        support = tuple(e for e, c in enumerate(row.a) if c)
        if support not in groups:
            by_values = {(): every}
            for e in support:
                by_values = {
                    w + (v,): m for w, rays_w in by_values.items()
                    for v in range(3) if (m := rays_w & at[e][v])
                }
            groups[support] = by_values
        coeffs = [row.a[e] for e in support]
        mask = 0
        for w, m in groups[support].items():
            if sum(c * x for c, x in zip(coeffs, w)) == 2 * row.b:
                mask |= m
        row_rays.append(mask)
    return _vpolytope_from_rays(h, rays, _transpose(row_rays, len(rays)))


def parity_labellings(graph: TrivalentGraph, s: int) -> list[int]:
    """Every labelling z that _parity_solutions describes for the
    cycle-space element s, its T-join XOR each combination of its
    generators; none when it returns None."""
    solutions = _parity_solutions(graph._cycles, s)
    return [] if solutions is None else _span(*solutions)


def contracted_parity_solutions(graph: TrivalentGraph, s: int) -> list[int]:
    """The labellings z of the edges off the cycle-space element s that
    make z + s/2 a vertex, by the route _parity_solutions replaced: build
    G_s, the graph with each cycle of s contracted to its lowest vertex
    and s deleted, and walk it from vertex 0.  z has odd degree at the
    contracted cycles and even degree elsewhere, so there is none when s
    has an odd number of cycles; otherwise z is one T-join, the XOR of the
    walk's paths to the contracted cycles, plus each GF(2) combination of
    G_s's fundamental cycles."""
    node = list(range(graph.n_vertices))

    def find(v):
        while node[v] != v:
            v = node[v]
        return v

    ends = [edge for i, edge in enumerate(graph.edges) if s >> i & 1]
    for u, v in ends:
        low, high = sorted((find(u), find(v)))
        node[high] = low
    cycles = {find(u) for u, _ in ends}
    if len(cycles) % 2:
        return []
    kept = [(i, find(u), find(v)) for i, (u, v) in enumerate(graph.edges) if not s >> i & 1]
    adjacency = [[] for _ in node]
    for i, a, b in kept:
        adjacency[a].append((b, i))
        adjacency[b].append((a, i))
    path = {0: 0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b, i in adjacency[a]:
            if b not in path:
                path[b] = path[a] ^ 1 << i
                stack.append(b)
    t_join = 0
    for c in cycles:
        t_join ^= path[c]
    span = [t_join]
    for i, a, b in kept:
        mask = 1 << i ^ path[a] ^ path[b]
        if mask:  # a tree edge closes no cycle: its mask cancels to 0
            span += [m ^ mask for m in span]
    return span


# ---------------------------------------------------------------------------
# Lattice oracles
# ---------------------------------------------------------------------------

def graph_lattice_generators(graph: TrivalentGraph):
    """The generating set of a graph's lattice: the unit vectors of Z^n,
    then per graph vertex the half-sum of its trinion triple (a loop's
    edge counted twice, so a whole step)."""
    n = graph.n_edges
    generators = [tuple(Fraction(int(i == k)) for i in range(n)) for k in range(n)]
    for triple in graph.trinion_triples():
        generators.append(tuple(Fraction(triple.edges.count(i), 2) for i in range(n)))
    return generators


def hermite_lattice(generators) -> Lattice:
    """The lattice of rational generators of full rank by its row-style
    Hermite basis: hnf of the generators scaled by the lcm of their
    denominators, zero rows dropped.  ValueError for no generators, mixed
    lengths or a rank below n; floats are refused."""
    gens = tuple(tuple(exact(x) for x in g) for g in generators)
    if not gens:
        raise ValueError("no generators")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ValueError("generators of mixed length")
    scale = math.lcm(*(x.denominator for g in gens for x in g))
    h, _ = hnf([[x * scale for x in g] for g in gens])
    rows = tuple(r for r in h if any(r))
    if len(rows) != n:
        raise ValueError(f"generators span rank {len(rows)} < {n}")
    return Lattice(n, scale, rows)


def lattice_basis(lattice: Lattice) -> tuple[tuple[Fraction, ...], ...]:
    """The rational basis a Lattice stands for: its rows over its scale."""
    return tuple(tuple(Fraction(x, lattice.scale) for x in row) for row in lattice.rows)


def edge_route_verdict(h: HPolytope, v: VPolytope, lattice):
    """Smoothness by the edge route delzant_check took before it read the
    normal fan: at each vertex of a simple polytope the neighbours sharing
    n-1 tight facet rows give the n edges, each edge is paired with the
    basis (lattice_basis) and made primitive, and the vertex passes iff
    the cofactor determinant of those rows is +-1.

    Returns (simple, smooth, smooth_witness, smooth_witness_det, overall).
    """
    n = h.dim
    facets = frozenset(facet_defining_rows(h, v))
    tight = [frozenset(t) & facets for t in v.incidence]
    simple = all(len(t) == n for t in tight)
    basis = lattice_basis(lattice)
    witness = witness_det = None
    for i, p in enumerate(v.vertices if simple else ()):
        neighbours = [j for j, t in enumerate(tight) if len(tight[i] & t) == n - 1]
        assert len(neighbours) == n, (p, neighbours)
        rows = [
            primitive_direction(apply(basis, [a - b for a, b in zip(v.vertices[j], p)]))
            for j in neighbours
        ]
        d = cofactor_det(rows)
        if abs(d) != 1:
            witness, witness_det = p, d
            break
    smooth = simple and witness is None
    return simple, smooth, witness, witness_det, SMOOTH if smooth else SINGULAR


def inverse_lattice_member(x, lattice) -> bool:
    """Membership by the coordinates inverse(basis)^T x, all integral."""
    coordinates = apply(list(zip(*inverse(lattice_basis(lattice)))), x)
    return all(c.denominator == 1 for c in coordinates)


# The functions of fractions.py that are one Fraction operation each, as
# the benchmark's tracer counts them.
FRACTION_OPS = frozenset({
    "__new__", "_add", "_sub", "_mul", "_div", "_floordiv", "_divmod", "_mod",
    "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__", "__eq__",
    "_richcmp", "__bool__", "__hash__",
})


def fraction_calls(fn, *args) -> int:
    """Fraction operator calls made by fn(*args), counted with cProfile."""
    profiler = cProfile.Profile()
    profiler.runcall(fn, *args)
    return sum(
        entry.callcount
        for entry in profiler.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_filename == fractions.__file__
        and entry.code.co_name in FRACTION_OPS
    )


# ---------------------------------------------------------------------------
# Linear algebra oracles
# ---------------------------------------------------------------------------

def apply(m, v) -> tuple:
    """The rows of a matrix m times the column vector v."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def matmul(a, b) -> tuple:
    """The matrix product a*b, of matrices given by their rows."""
    columns = tuple(zip(*b))
    return tuple(apply(columns, row) for row in a)


def identity(n: int) -> tuple:
    """The n by n identity matrix, as rows."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def cofactor_det(rows) -> Fraction:
    """Determinant by recursive cofactor expansion along the first row."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def gauss_rref(rows):
    """Reduced row echelon form with largest-absolute-value pivoting.

    Returns (rref rows, pivot column list).  The pivot rule differs from
    the package's first-nonzero rule on purpose.
    """
    a = [[Fraction(x) for x in r] for r in rows]
    if not a:
        return a, []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        best = max(range(r, len(a)), key=lambda i: abs(a[i][c]), default=None)
        if best is None or a[best][c] == 0:
            continue
        a[r], a[best] = a[best], a[r]
        # zero entries are left as they are: dividing one, or subtracting
        # a multiple of one, changes nothing
        p = a[r][c]
        top = a[r] = [x / p if x else x for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y if y else x for x, y in zip(a[i], top)]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def gauss_rank(rows) -> int:
    return len(gauss_rref(rows)[1])


def gauss_solve(rows, rhs):
    """Solve A x = rhs; returns ('unique', x) | ('inconsistent', None) |
    ('underdetermined', None), mirroring the package statuses."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = gauss_rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return "inconsistent", None
    if len(pivots) < ncols:
        return "underdetermined", None
    x = [Fraction(0)] * ncols
    for row, c in zip(rref, pivots):
        x[c] = row[-1]
    return "unique", tuple(x)


def gf2_rank(vectors) -> int:
    """Rank over the two-element field, vectors given as 0/1 iterables."""
    masks = []
    for vec in vectors:
        m = 0
        for j, x in enumerate(vec):
            if x % 2:
                m |= 1 << j
        masks.append(m)
    rank = 0
    for m in masks:
        for b in masks[:rank]:
            m = min(m, m ^ b)
        if m:
            masks[rank] = m
            rank += 1
    return rank


def trinion_parity_vectors(graph: TrivalentGraph):
    """Per graph vertex: the mod-2 edge incidence of its trinion triple
    (so a loop edge contributes 0)."""
    out = []
    for triple in graph.trinion_triples():
        vec = [0] * graph.n_edges
        for e in triple.edges:
            vec[e] ^= 1
        out.append(vec)
    return out


def exhaustive_labellings(graph: TrivalentGraph):
    """All admissible 0/1 edge labellings by brute force over 2^m."""
    corners = {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    triples = [t.edges for t in graph.trinion_triples()]
    out = []
    for bits in itertools.product((0, 1), repeat=graph.n_edges):
        if all(tuple(bits[e] for e in t) in corners for t in triples):
            out.append(bits)
    return out
