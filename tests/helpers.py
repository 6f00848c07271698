"""Shared test utilities: random generators and independent oracles.

The oracles here deliberately re-derive results with different
algorithms than the package (cofactor determinants, abs-pivot Gaussian
elimination, exhaustive labelling search, GF(2) bit elimination, the
Fraction, per-ray and normalising routes that vertex enumeration, the
lattice and the H-representation used before they kept to integers, and
the edge route the smoothness test used before it read the normal fan)
so that agreement is meaningful.
"""

from __future__ import annotations

import cProfile
import fractions
import itertools
import math
import random
from fractions import Fraction

from graphtoric.exactmath import EchelonBasis, QMatrix, inverse, primitive_direction
from graphtoric.graph_core import GraphError, TrivalentGraph
from graphtoric.lattice_fan import SINGULAR, SMOOTH
from graphtoric.polytope import (
    HPolytope,
    NotFullDimensional,
    UnboundedPolytope,
    VPolytope,
    contains,
    facet_defining_rows,
)


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
    highly degenerate system whose tight rows run through the whole,
    sorted, row range.
    """
    points = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n_points)]
    directions = [a for a in itertools.product(range(-2, 3), repeat=n) if math.gcd(*a) == 1]
    rows = []
    for a in rng.sample(directions, n_rows):
        rows.append((a, max(sum(x * y for x, y in zip(a, p)) for p in points)))
    return HPolytope.from_inequalities(n, rows)


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

def rational_vpolytope(dim: int, vertices, incidence) -> VPolytope:
    """A VPolytope holding the given rational vertices, in the given order,
    scaled by the lcm of their denominators."""
    vertices = [[Fraction(x) for x in p] for p in vertices]
    scale = math.lcm(*(x.denominator for p in vertices for x in p))
    points = tuple(tuple(int(x * scale) for x in p) for p in vertices)
    return VPolytope(dim, scale, points, tuple(incidence))


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
    return rational_vpolytope(dim, verts, incidence)


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


def scan_adjacent_pairs(pos, neg, zmasks, processed, d, live):
    """Double description adjacency by scanning every third live ray.

    (p, q) is adjacent iff at least d-2 processed rows vanish on both and
    no third ray of the bitset ``live`` vanishes on all of them.
    """
    alive = [r for r in range(live.bit_length()) if live >> r & 1]
    for p in pos:
        zp = zmasks[p] & processed
        for q in neg:
            z = zp & zmasks[q]
            if z.bit_count() < d - 2:
                continue
            if any(r != p and r != q and z & ~zmasks[r] == 0 for r in alive):
                continue
            yield p, q


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
    binv = inverse(QMatrix([rows[j] for j in initial]))
    return initial, [primitive_direction(col) for col in zip(*binv.rows)]


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


def edge_route_verdict(h: HPolytope, v: VPolytope, lattice):
    """Smoothness by the edge route delzant_check took before it read the
    normal fan: at each vertex of a simple polytope the neighbours sharing
    n-1 tight facet rows give the n edges, each edge is paired with the
    basis (``basis.apply``) and made primitive, and the vertex passes iff
    the cofactor determinant of those rows is +-1.

    Returns (simple, smooth, smooth_witness, smooth_witness_det, overall).
    """
    n = h.dim
    facets = frozenset(facet_defining_rows(h, v))
    tight = [frozenset(t) & facets for t in v.incidence]
    simple = all(len(t) == n for t in tight)
    witness = witness_det = None
    for i, p in enumerate(v.vertices if simple else ()):
        neighbours = [j for j, t in enumerate(tight) if len(tight[i] & t) == n - 1]
        assert len(neighbours) == n, (p, neighbours)
        rows = [
            primitive_direction(lattice.basis.apply([a - b for a, b in zip(v.vertices[j], p)]))
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
    coordinates = inverse(lattice.basis).transpose().apply(x)
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
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
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
