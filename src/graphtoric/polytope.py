"""Exact polytopes: H-representation, vertex enumeration, incidence.

The central construction takes a trivalent graph and intersects, for every
vertex of the graph, the pullback of the pair-of-pants tetrahedron

    x1 + x2 + x3 <= 2,   x1 + x2 - x3 >= 0,
    x1 - x2 + x3 >= 0,  -x1 + x2 + x3 >= 0

under the projection onto that vertex's triple of edge coordinates.  The
result is a full-dimensional polytope inside the unit cube [0,1]^(3g-3).

A row is just its inequality a.x <= b, with integer data, gcd-reduced.
Both builders merge equal rows and nothing downstream merges them again;
a row repeated in a hand-built system counts as one facet (see
facet_defining_rows).  A repeated index in a trinion triple (a loop)
folds into a coefficient of 2.  Vertex enumeration is exact: the
reference algorithm is the double description method on the homogenising
cone, cross-checked by a brute-force tight-subset oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from math import gcd, lcm
from operator import and_
from typing import Callable, Iterable, NamedTuple, Sequence

from .exactmath import QMatrix, UNIQUE, primitive, primitive_direction, scaled, solve
from .graph_core import TrivalentGraph


class NotFullDimensional(Exception):
    """Operation requires a polytope of full affine dimension."""


class UnboundedPolytope(Exception):
    """Vertex enumeration hit an unbounded inequality system."""


class Row(NamedTuple):
    """One inequality a.x <= b with integer data."""

    a: tuple[int, ...]
    b: int


@dataclass(frozen=True)
class HPolytope:
    """An inequality system A.x <= b with normalized integer rows of length
    ``dim`` (else ValueError), in the order vertex enumeration inserts them."""

    dim: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row.a) != self.dim:
                raise ValueError(f"row {row.a} has length {len(row.a)}, expected {self.dim}")

    @classmethod
    def from_inequalities(cls, dim: int, inequalities: Iterable) -> "HPolytope":
        """Build from (a, b) items; rows may be rational.

        Each row is scaled to integers, gcd-reduced, and exact duplicates
        are merged, in first-seen order.  Trivial rows 0.x <= b with b >= 0
        are dropped.
        """
        rows = (_normalize_row(a, b) for a, b in inequalities)
        return cls(dim, tuple(dict.fromkeys(row for row in rows if row is not None)))


def _normalize_row(a: Sequence, b) -> Row | None:
    *ints, rb = scaled((*a, b))[1]
    g = gcd(*ints, rb)
    if g == 0:
        return None  # 0 <= 0
    if all(x == 0 for x in ints):
        return None if rb > 0 else Row(tuple(ints), -1)  # keep only 0 <= -1 markers
    return Row(tuple(x // g for x in ints), rb // g)


def build_hrep(graph: TrivalentGraph) -> HPolytope:
    """H-representation of the moment polytope of a trivalent graph.

    Emits the four tetrahedron rows per trinion triple, with a loop's
    repeated index summed into a single coefficient.  Each row has a +-1
    entry, so it is primitive; duplicates (a multi-edge gives some twice)
    merge, in first-seen order.
    """
    n = graph.n_edges
    rows: dict[Row, None] = {}
    for triple in graph.trinion_triples():
        coeffs = [0] * n
        for index in triple.edges:
            coeffs[index] += 1
        rows[Row(tuple(coeffs), 2)] = None
        for pos in range(3):
            # the row x_pos - (the other two) <= 0, i.e. the triangle inequality
            row = [0] * n
            for q, index in enumerate(triple.edges):
                row[index] += 1 if q == pos else -1
            rows[Row(tuple(row), 0)] = None
    return HPolytope(n, tuple(rows))


def contains(h: HPolytope, x: Sequence) -> bool:
    """Exact membership test, in integers: k*x with k > 0 against k*b."""
    k, y = scaled(x)
    if len(y) != h.dim:
        raise ValueError(f"point has length {len(y)}, expected {h.dim}")
    return all(_idot(row.a, y) <= row.b * k for row in h.rows)


@dataclass(frozen=True)
class VPolytope:
    """Exact vertex set with incidence, kept in integers: ``points[i]`` is
    ``scale`` times vertex i, ``scale`` the lcm of all vertex denominators
    (1 when there are none), and the points are sorted, which is the
    lexicographic order of the vertices.  ``vertices`` is the rational
    tuple they stand for, built on first use.

    ``tight[i]`` is a row bitmask: bit k is set iff H-row k is tight at
    vertex i.  ``incidence[i]``, the same rows as an ascending index
    tuple, is built on first use.  ``dim`` is the affine dimension of the
    vertex set (-1 when empty).  When the polytope is full-dimensional,
    the incidence alone decides the facets: row i defines a facet iff it
    is tight at n or more vertices, no other row is tight at a strict
    superset of them, and no earlier row is tight at exactly them (a
    repeated or scaled row names the same facet; see facet_defining_rows).
    """

    dim: int
    scale: int
    points: tuple[tuple[int, ...], ...]
    tight: tuple[int, ...]

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(map(self._fraction, p)) for p in self.points)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_bits(mask)) for mask in self.tight)

    def vertex(self, i: int) -> tuple[Fraction, ...]:
        return tuple(map(self._fraction, self.points[i]))

    @cached_property
    def _fraction(self) -> Callable[[int], Fraction]:
        """c -> c/scale, one Fraction per distinct coordinate, shared by
        ``vertices`` and the witnesses ``vertex`` builds."""
        scale = self.scale
        return cache(lambda c: Fraction(c, scale))


def _homogeneous_rows(h: HPolytope) -> list[tuple[int, ...]]:
    """The rows of the homogenising cone: t >= 0, then (b, -a) per H-row in
    ``h.rows`` order, not merged again (the builders merge equal H-rows),
    so homogeneous row k+1 is H-row k."""
    return [(1,) + (0,) * h.dim] + [(row.b, *(-x for x in row.a)) for row in h.rows]


def _vpolytope_from_rays(
    rows: Sequence[tuple[int, ...]], rays: Sequence[tuple[int, ...]], zmasks: Sequence[int]
) -> VPolytope:
    """The V-polytope of primitive homogeneous rays (t, t*x) with t > 0.

    ``zmasks[r]`` is the set of homogeneous rows that vanish on ray r: never
    row 0 (t >= 0), and row k is H-row k-1, so shifted down one bit it is
    the vertex's ``tight`` mask.
    The scale is the lcm L of all t, which is the lcm of all vertex
    denominators because each ray is primitive, and vertex x is kept as
    the integer point L*x.  The affine dimension of a polytope is n minus
    the rank of its implicit equalities, the rows tight at every vertex.
    """
    if not rays:
        return VPolytope(-1, 1, (), ())
    scale = lcm(*(ray[0] for ray in rays))
    points = [tuple(c * (scale // ray[0]) for c in ray[1:]) for ray in rays]
    order = sorted(range(len(rays)), key=points.__getitem__)
    tight = tuple(zmasks[r] >> 1 for r in order)
    equalities = [rows[k] for k in _bits(reduce(and_, zmasks))]
    dim = len(rows[0]) - 1 - _integer_rank(equalities)
    return VPolytope(dim, scale, tuple(points[r] for r in order), tight)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _echelon_insert(basis: list[tuple[int, Sequence[int]]], vec: Sequence[int], width: int) -> bool:
    """Clear vec at each pivot of ``basis`` (sorted by pivot; rows primitive,
    zero left of the pivot) by integer cross-multiplication, then add it and
    return True if any of its first ``width`` entries is left nonzero."""
    for piv, row in basis:
        if vec[piv]:
            a, b = row[piv], vec[piv]
            vec = [a * x - b * y for x, y in zip(vec, row)]
    piv = next((i for i in range(width) if vec[i]), None)
    if piv is not None:
        basis.append((piv, primitive(vec)))
        basis.sort(key=lambda t: t[0])
    return piv is not None


def _integer_rank(vectors: Iterable[Sequence[int]]) -> int:
    basis: list[tuple[int, Sequence[int]]] = []
    for vec in vectors:
        if _echelon_insert(basis, vec, len(vec)) and len(basis) == len(vec):
            break
    return len(basis)


def _initial_cone(rows: Sequence[Sequence[int]], d: int) -> tuple[list[int], list[tuple]]:
    """The first d independent rows B, in order, and the primitive rays of
    their cone: ray k is column k of inv(B), tight on every row but the k-th.

    Each row enters with a unit vector appended, so a basis row reads U | T
    with T*B = U.  Inserted again from the last pivot up, U loses all but its
    diagonal D (integer Gauss-Jordan), leaving T = D*inv(B)."""
    basis: list[tuple[int, Sequence[int]]] = []
    initial: list[int] = []
    for j, row in enumerate(rows):
        if _echelon_insert(basis, [*row, *(int(k == len(initial)) for k in range(d))], d):
            initial.append(j)
            if len(initial) == d:
                break
    if len(initial) < d:
        raise UnboundedPolytope(
            "inequality system is invariant along a direction; it has no vertices"
        )
    diagonal: list[tuple[int, Sequence[int]]] = []
    for _, row in reversed(basis):
        _echelon_insert(diagonal, row, d)
    scale = lcm(*(row[piv] for piv, row in diagonal))
    scaled_inverse = [[x * (scale // row[piv]) for x in row[d:]] for piv, row in diagonal]
    return initial, [primitive(col) for col in zip(*scaled_inverse)]


# ---------------------------------------------------------------------------
# Double description vertex enumeration
# ---------------------------------------------------------------------------

def enumerate_vertices(h: HPolytope) -> VPolytope:
    """Exact vertex enumeration by the double description method.

    The system is homogenised to the cone {(t, x) : t >= 0, b*t - a.x >= 0}
    in dimension n+1 and the extreme rays are grown one inequality at a
    time in ``h.rows`` order after t >= 0 (the order sets the size of the
    intermediate cones, not the answer), from the simplicial cone of the
    first n+1 independent rows (fraction-free elimination, then integer
    Gauss-Jordan; see _initial_cone).  Rays are primitive integer
    vectors, so all arithmetic stays in Z.

    ``rays`` and ``zmasks`` hold the current cone only: a ray's id is its
    list position, and its zero set holds the processed rows that vanish
    on it.  Inserting row j takes the row's dot product with each ray,
    reading only the row's nonzero entries, and sorts the ray into
    positive, negative or tight.  When there are both positive and
    negative rays, the row index ``tight_rays[k]`` (the ids whose zero set
    holds row k) is built from the zero sets by one transposition, and
    each adjacent (positive, negative) pair makes a new ray.  A new ray
    is a positive combination of two rays feasible on every processed
    row, so there it vanishes exactly on their common zeros.  Then the
    list is rebuilt: the positive and tight rays in their order, the tight
    ones gaining bit j, then the new rays in pair order.  Initial ray k is
    tight on every initial row but the k-th.  Rays with t > 0 are the
    polytope vertices; a surviving ray with t = 0 means the polytope is
    unbounded, which is reported as an error.
    """
    rows = _homogeneous_rows(h)
    d = h.dim + 1
    initial, rays = _initial_cone(rows, d)
    processed = sum(1 << j for j in initial)
    zmasks = [processed & ~(1 << j) for j in initial]

    for j, row in enumerate(rows):
        bit = 1 << j
        if processed & bit:
            continue
        nonzero = [(i, x) for i, x in enumerate(row) if x]
        dots, pos, neg, kept_rays, kept_zmasks = [], [], [], [], []
        for r, ray in enumerate(rays):
            dot = sum(ray[i] * x for i, x in nonzero)
            dots.append(dot)
            if dot < 0:
                neg.append(r)
                continue
            if dot:
                pos.append(r)
                kept_zmasks.append(zmasks[r])
            else:
                kept_zmasks.append(zmasks[r] | bit)
            kept_rays.append(ray)
        if pos and neg:
            tight_rays = _transpose(zmasks, processed.bit_length())
            for p, q in _adjacent_pairs(pos, neg, zmasks, processed, d, tight_rays):
                alpha, beta = dots[p], dots[q]
                vec = [alpha * y - beta * x for x, y in zip(rays[p], rays[q])]
                g = gcd(*vec)
                kept_rays.append(tuple(x // g for x in vec))
                kept_zmasks.append(zmasks[p] & zmasks[q] | bit)
        rays, zmasks = kept_rays, kept_zmasks
        processed |= bit

    for ray in rays:
        if ray[0] == 0:
            raise UnboundedPolytope(f"recession direction {ray[1:]} found")
    return _vpolytope_from_rays(rows, rays, zmasks)


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """Entry k has bit r set iff masks[r] has bit k, for k < width; the
    masks, at least one, must each be below 2**width.

    The masks are written as width-digit binary strings, last mask first,
    and joined, so row k is every width-th digit from digit width-1-k."""
    spec = f"0{width}b"
    s = "".join([format(m, spec) for m in reversed(masks)])
    return [int(s[width - 1 - k :: width], 2) for k in range(width)]


def _adjacent_pairs(pos, neg, zmasks, processed, d, tight_rays):
    """Yield (p, q) whose rays span a 2-face of the current cone.

    Combinatorial adjacency test for pointed cones (Fukuda & Prodon,
    1996): the common zero set z of p and q must not lie in the zero set
    of any third ray of the cone, whose ids are the positions of
    ``zmasks``.  The rays tight on all of z are the AND of
    ``tight_rays[k]`` over k in z, and the pair is adjacent iff that AND
    is exactly {p, q}.  The AND is taken one 8-row block of z at a time:
    the AND over each (block offset, bits) slice met is computed once per
    call and kept in ``table`` (the Four-Russians method).  Pairs with
    fewer than d-2 common tight rows cannot be adjacent and are skipped
    outright, and so is a candidate whose z lies in the zero set of the
    third ray that blocked p's last rejected partner, or q's.
    """
    size = (processed.bit_length() + 7) // 8
    every = (1 << len(zmasks)) - 1
    table: dict[int, int] = {}
    q_blocker: dict[int, int] = {}
    for p in pos:
        zp = zmasks[p]
        blocker = None
        for q in neg:
            z = zp & zmasks[q]
            if z.bit_count() < d - 2:
                continue
            if blocker is not None and blocker != q and not z & ~zmasks[blocker]:
                continue
            b = q_blocker.get(q)
            if b is not None and b != p and not z & ~zmasks[b]:
                continue
            pair = 1 << p | 1 << q
            common = every
            for offset, bits in enumerate(z.to_bytes(size, "little")):
                if bits:
                    key = offset << 8 | bits
                    block = table.get(key)
                    if block is None:
                        block = every
                        for k in _bits(bits << 8 * offset):
                            block &= tight_rays[k]
                        table[key] = block
                    common &= block
                    if common == pair:
                        break
            if common == pair:
                yield p, q
            else:
                third = common & ~pair
                blocker = q_blocker[q] = (third & -third).bit_length() - 1


def brute_force_vertices(h: HPolytope) -> VPolytope:
    """Independent enumeration oracle: solve every n-subset of tight rows.

    A candidate survives if its tight system has a unique solution that
    satisfies all rows.  Exponential in the row count; intended for
    dimensions up to about 6.  Each solution becomes the primitive
    homogeneous ray (t, t*x) and goes through the same builder as the
    double description rays.
    """
    rows = _homogeneous_rows(h)
    found = set()
    for subset in itertools.combinations(h.rows, h.dim):
        result = solve(QMatrix([row.a for row in subset]), [row.b for row in subset])
        if result.status == UNIQUE and contains(h, result.solution):
            found.add(primitive_direction((1,) + result.solution))
    rays = list(found)
    zmasks = [sum(1 << k for k, row in enumerate(rows) if not _idot(ray, row)) for ray in rays]
    return _vpolytope_from_rays(rows, rays, zmasks)


# ---------------------------------------------------------------------------
# Facets and simplicity
# ---------------------------------------------------------------------------

def facet_defining_rows(h: HPolytope, v: VPolytope) -> tuple[int, ...]:
    """Indices of rows whose tight vertex set spans a facet.

    Combinatorial criterion, valid for a full-dimensional polytope: row i
    is a facet iff it is tight at n or more vertices and no other row is
    tight at a strict superset of those vertices.  Rows tight at the same
    n or more vertices lie on the same facet hyperplane (a repeated or
    scaled row), so only the first of them is kept.  Only the incidence
    is read: one transposition of the vertices' ``tight`` masks gives
    each row's mask of tight vertices.  A mask naming a row at or beyond
    ``len(h.rows)`` means ``v`` is another system's: ValueError.
    """
    if v.dim != h.dim:
        raise NotFullDimensional(f"polytope has dimension {v.dim} in ambient {h.dim}")
    if max(v.tight) >> len(h.rows):
        raise ValueError(f"vertex set names rows beyond the system's {len(h.rows)}")
    masks = _transpose(v.tight, len(h.rows))
    return tuple(
        i
        for i, mi in enumerate(masks)
        if mi.bit_count() >= h.dim
        and masks.index(mi) == i
        and not any(mj != mi and mj & mi == mi for mj in masks)
    )


@dataclass(frozen=True)
class SimplicityVerdict:
    """Whether exactly n facets meet at every vertex; if not, the first
    offending vertex (lexicographic) and its facet count."""

    simple: bool
    witness: tuple[Fraction, ...] | None = None
    witness_facets: int | None = None


def is_simple(h: HPolytope, v: VPolytope, facet_rows: tuple[int, ...]) -> SimplicityVerdict:
    """Whether every vertex lies on exactly n facets, counted as the
    popcount of its ``tight`` mask restricted to ``facet_rows``, the
    result of facet_defining_rows(h, v); a repeated index counts once."""
    facets = sum(1 << k for k in set(facet_rows))
    for i, tight in enumerate(v.tight):
        count = (tight & facets).bit_count()
        if count != h.dim:
            return SimplicityVerdict(False, v.vertex(i), count)
    return SimplicityVerdict(True)


# ---------------------------------------------------------------------------
# Cube-vertex labellings
# ---------------------------------------------------------------------------

def cube_vertex_labellings(graph: TrivalentGraph) -> list[tuple[int, ...]]:
    """All admissible 0/1 edge labellings, one label per edge, sorted.

    A labelling is admissible when every trinion triple (loops doubled)
    is a corner of the pair-of-pants tetrahedron, that is, holds an even
    number of ones, so the admissible labellings are the graph's GF(2)
    cycle space: the 2^g sums of ``graph.cycle_basis()``.  Every
    labelling read as a 0/1 point is a vertex of the polytope lying on
    the unit cube.
    """
    span = [0]
    for cycle in graph.cycle_basis():
        span += [mask ^ cycle for mask in span]
    m = graph.n_edges
    return sorted(tuple((mask >> i) & 1 for i in range(m)) for mask in span)


# ---------------------------------------------------------------------------
# Exact text export (cdd polyhedra format)
# ---------------------------------------------------------------------------

def format_hrep(h: HPolytope) -> str:
    """cdd-style H-format: each row is  b  -a1 ... -an  (b - a.x >= 0)."""
    lines = ["H-representation", "begin", f"{len(h.rows)} {h.dim + 1} rational"]
    for row in h.rows:
        lines.append(" ".join([str(row.b)] + [str(-x) for x in row.a]))
    lines.extend(["end", ""])
    return "\n".join(lines)


def format_vrep(v: VPolytope) -> str:
    """cdd-style V-format: each vertex is  1  v1 ... vn."""
    width = len(v.vertices[0]) + 1 if v.vertices else 1
    lines = ["V-representation", "begin", f"{len(v.vertices)} {width} rational"]
    for vertex in v.vertices:
        lines.append(" ".join(["1"] + [str(x) for x in vertex]))
    lines.extend(["end", ""])
    return "\n".join(lines)

