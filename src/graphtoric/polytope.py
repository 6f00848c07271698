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

from .exactmath import QMatrix, UNIQUE, exact, primitive, primitive_direction, solve
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
    """An inequality system A.x <= b with normalized integer rows."""

    dim: int
    rows: tuple[Row, ...]

    @classmethod
    def from_inequalities(cls, dim: int, inequalities: Iterable) -> "HPolytope":
        """Build from (a, b) items; rows may be rational.

        Each row is scaled to integers, gcd-reduced, and exact duplicates
        are merged, in first-seen order.  Trivial rows 0.x <= b with b >= 0
        are dropped.  A row whose length is not ``dim`` raises ValueError.
        """
        rows = (_normalize_row(dim, a, b) for a, b in inequalities)
        return cls(dim, tuple(dict.fromkeys(row for row in rows if row is not None)))


def _normalize_row(dim: int, a: Sequence, b) -> Row | None:
    if len(a) != dim:
        raise ValueError(f"row {tuple(a)} has length {len(a)}, expected {dim}")
    row = [exact(x) for x in (*a, b)]
    mult = lcm(*(x.denominator for x in row))
    *ints, rb = [x.numerator * (mult // x.denominator) for x in row]
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
    """Exact membership test."""
    point = [exact(v) for v in x]
    if len(point) != h.dim:
        raise ValueError(f"point has length {len(point)}, expected {h.dim}")
    return all(
        sum(c * v for c, v in zip(row.a, point)) <= row.b for row in h.rows
    )


@dataclass(frozen=True)
class VPolytope:
    """Exact vertex set with incidence, kept in integers: ``points[i]`` is
    ``scale`` times vertex i, ``scale`` the lcm of all vertex denominators
    (1 when there are none), and the points are sorted, which is the
    lexicographic order of the vertices.  ``vertices`` is the rational
    tuple they stand for, built on first use.

    ``incidence[i]`` lists the indices of all H-rows tight at vertex i;
    ``dim`` is the affine dimension of the vertex set (-1 when empty).
    When the polytope is full-dimensional, the incidence alone decides the
    facets: row i defines a facet iff it is tight at n or more vertices,
    no other row is tight at a strict superset of them, and no earlier row
    is tight at exactly them (a repeated or scaled row names the same
    facet; see facet_defining_rows).
    """

    dim: int
    scale: int
    points: tuple[tuple[int, ...], ...]
    incidence: tuple[tuple[int, ...], ...]

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(map(self._fraction, p)) for p in self.points)

    def vertex(self, i: int) -> tuple[Fraction, ...]:
        return tuple(map(self._fraction, self.points[i]))

    @cached_property
    def _fraction(self) -> Callable[[int], Fraction]:
        """c -> c/scale, one Fraction per distinct coordinate, shared by
        ``vertices`` and the witnesses ``vertex`` builds."""
        scale = self.scale
        return cache(lambda c: Fraction(c, scale))


def _homogeneous_rows(h: HPolytope) -> tuple[list[tuple[int, ...]], list[int]]:
    """The rows of the homogenising cone, sorted: t >= 0 and one row
    (b, -a) per H-row, not merged again (the builders merge equal H-rows);
    and per row the index of its H-row, -1 for t >= 0.
    """
    keyed = sorted(
        [((1,) + (0,) * h.dim, -1)]
        + [((row.b, *(-x for x in row.a)), i) for i, row in enumerate(h.rows)]
    )
    return [row for row, _ in keyed], [i for _, i in keyed]


def _vpolytope_from_rays(
    rows: Sequence[tuple[int, ...]],
    row_of: Sequence[int],
    rays: Sequence[tuple[int, ...]],
    zmasks: Sequence[int],
) -> VPolytope:
    """The V-polytope of primitive homogeneous rays (t, t*x) with t > 0.

    ``zmasks[r]`` is the set of homogeneous rows that vanish on ray r;
    mapping each through ``row_of`` gives the incidence.  The t >= 0 row
    vanishes on no such ray, so every mapped index is an H-row.
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
    incidence = tuple(tuple(sorted(row_of[k] for k in _bits(zmasks[r]))) for r in order)
    equalities = [rows[k] for k in _bits(reduce(and_, zmasks))]
    dim = len(rows[0]) - 1 - _integer_rank(equalities)
    return VPolytope(dim, scale, tuple(points[r] for r in order), incidence)


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
    time, in lexicographic row order, from the simplicial cone of the
    first n+1 independent rows (fraction-free elimination, then integer
    Gauss-Jordan; see _initial_cone).  Rays are primitive integer
    vectors, so all arithmetic stays in Z.

    Each ray keeps the id it was made with, so id order is list order;
    ``live`` is the bitset of current ids and ``tight_rays[k]`` that of
    the ids tight on processed row k, kept for the whole run.  A ray made
    from (p, q) is a positive combination of two rays feasible on every
    processed row, so there it vanishes exactly on their common zeros.
    Its dots are computed only on the pending rows, last row first, so
    that a prefix slice drops each inserted row.  Initial ray k is tight
    on every initial row but the k-th, so its zero set there is known,
    and its dots with the pending rows read only their nonzero entries.
    Rays with t > 0 are the polytope vertices; a surviving ray with t = 0
    means the polytope is unbounded, which is reported as an error.
    """
    rows, row_of = _homogeneous_rows(h)
    d = h.dim + 1
    initial, rays = _initial_cone(rows, d)
    processed = sum(1 << j for j in initial)
    pending = [j for j in range(len(rows)) if not processed >> j & 1][::-1]
    sparse = [[(i, x) for i, x in enumerate(rows[j]) if x] for j in pending]
    dots = [[sum(ray[i] * x for i, x in row) for row in sparse] for ray in rays]
    zmasks = [processed & ~(1 << j) | _zero_mask(dot, pending) for j, dot in zip(initial, dots)]
    alive, live = list(range(d)), (1 << d) - 1
    tight_rays = {j: live & ~(1 << k) for k, j in enumerate(initial)}

    for c in reversed(range(len(pending))):
        j = pending[c]
        pos = [r for r in alive if dots[r][c] > 0]
        neg = [r for r in alive if dots[r][c] < 0]
        alive = [r for r in alive if dots[r][c] >= 0]
        tight = sum(1 << r for r in alive if not dots[r][c])
        if neg:
            for p, q in _adjacent_pairs(pos, neg, zmasks, processed, d, tight_rays, live):
                alpha, beta = dots[p][c], dots[q][c]
                vec = [alpha * y - beta * x for x, y in zip(rays[p], rays[q])]
                g = gcd(*vec)
                dot = [(alpha * y - beta * x) // g for x, y in zip(dots[p][:c], dots[q][:c])]
                zmask = zmasks[p] & zmasks[q] & processed
                for k in _bits(zmask):
                    tight_rays[k] |= 1 << len(rays)
                tight |= 1 << len(rays)
                alive.append(len(rays))
                rays.append(tuple(x // g for x in vec))
                dots.append(dot)
                zmasks.append(zmask | 1 << j | _zero_mask(dot, pending))
            for q in neg:
                rays[q] = dots[q] = None
            live = sum(1 << r for r in alive)
        tight_rays[j] = tight
        processed |= 1 << j

    for r in alive:
        if rays[r][0] == 0:
            raise UnboundedPolytope(f"recession direction {rays[r][1:]} found")
    return _vpolytope_from_rays(
        rows, row_of, [rays[r] for r in alive], [zmasks[r] for r in alive]
    )


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _zero_mask(dot: Sequence[int], index: Sequence[int]) -> int:
    """Bitmask of the rows index[i] at which dot[i] is zero."""
    mask = 0
    for row, val in zip(index, dot):
        if val == 0:
            mask |= 1 << row
    return mask


def _adjacent_pairs(pos, neg, zmasks, processed, d, tight_rays, live):
    """Yield (p, q) whose rays span a 2-face of the current cone.

    Combinatorial adjacency test for pointed cones (Fukuda & Prodon,
    1996): the common zero set z of p and q among processed rows must not
    be contained in the zero set of any third live ray.  The live rays
    tight on all of z are the AND of ``live`` and ``tight_rays[k]`` over
    k in z, and the pair is adjacent iff that AND is exactly {p, q}.
    The AND is taken one 8-row block of z at a time: the AND over each
    (block offset, bits) slice met is computed once per call and kept in
    ``table`` (the Four-Russians method).  Pairs with fewer than d-2
    common tight rows cannot be adjacent and are skipped outright, and so
    is a candidate whose z lies in the zero set of the third ray that
    blocked p's last rejected partner, or q's.
    """
    size = (processed.bit_length() + 7) // 8
    table: dict[int, int] = {}
    q_blocker: dict[int, int] = {}
    for p in pos:
        zp = zmasks[p] & processed
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
            common = live
            for offset, bits in enumerate(z.to_bytes(size, "little")):
                if bits:
                    key = offset << 8 | bits
                    block = table.get(key)
                    if block is None:
                        block = live
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
    n = h.dim
    rows, row_of = _homogeneous_rows(h)
    found = set()
    rhs = [row.b for row in h.rows]
    for subset in itertools.combinations(range(len(h.rows)), n):
        result = solve(
            QMatrix([h.rows[i].a for i in subset]), [rhs[i] for i in subset]
        )
        if result.status == UNIQUE and contains(h, result.solution):
            found.add(primitive_direction((1,) + result.solution))
    rays = list(found)
    zmasks = [_zero_mask([_idot(ray, row) for row in rows], range(len(rows))) for ray in rays]
    return _vpolytope_from_rays(rows, row_of, rays, zmasks)


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
    bitmasks are read.
    """
    if v.dim != h.dim:
        raise NotFullDimensional(f"polytope has dimension {v.dim} in ambient {h.dim}")
    masks = [0] * len(h.rows)
    for vi, tight in enumerate(v.incidence):
        for i in tight:
            masks[i] |= 1 << vi
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


def is_simple(
    h: HPolytope, v: VPolytope, facet_rows: tuple[int, ...] | None = None
) -> SimplicityVerdict:
    if facet_rows is None:
        facet_rows = facet_defining_rows(h, v)
    facet_set = set(facet_rows)
    for i, tight in enumerate(v.incidence):
        count = sum(1 for k in tight if k in facet_set)
        if count != h.dim:
            return SimplicityVerdict(False, v.vertex(i), count)
    return SimplicityVerdict(True)


# ---------------------------------------------------------------------------
# Cube-vertex labellings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeLabelling:
    """A 0/1 label per edge whose every trinion triple (loops doubled) is
    a corner of the pair-of-pants tetrahedron."""

    labels: tuple[int, ...]

    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x) for x in self.labels)


def cube_vertex_labellings(graph: TrivalentGraph) -> list[EdgeLabelling]:
    """All admissible 0/1 edge labellings, in lexicographic label order.

    A triple is a tetrahedron corner exactly when it holds an even number
    of ones, so the admissible labellings are the graph's GF(2) cycle
    space: the 2^g sums of ``graph.cycle_basis()``.  Every labelling read
    as a 0/1 point is a vertex of the polytope lying on the unit cube.
    """
    span = [0]
    for cycle in graph.cycle_basis():
        span += [mask ^ cycle for mask in span]
    m = graph.n_edges
    labels = sorted(tuple((mask >> i) & 1 for i in range(m)) for mask in span)
    return [EdgeLabelling(x) for x in labels]


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

