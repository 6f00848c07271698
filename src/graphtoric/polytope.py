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
folds into a coefficient of 2.  A graph polytope's vertices come in
closed form from the graph's spanning tree and GF(2) cycle space
(enumerate_vertices), cross-checked by a brute-force tight-subset oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache, reduce
from math import gcd, lcm
from operator import or_, xor
from typing import Callable, Iterable, NamedTuple, Sequence

from .exactmath import fraction_free_reduce, integer_rank, primitive, scaled
from .graph_core import TrivalentGraph


class NotFullDimensional(Exception):
    """Operation requires a polytope of full affine dimension."""


class Row(NamedTuple):
    """One inequality a.x <= b with integer data."""

    a: tuple[int, ...]
    b: int


@dataclass(frozen=True)
class HPolytope:
    """An inequality system A.x <= b with normalized integer rows of length
    ``dim`` (else ValueError); row k is bit k of a vertex's ``tight`` mask."""

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


@dataclass(frozen=True, init=False)
class VPolytope:
    """Exact vertex set with incidence, kept in integers: ``points[i]`` is
    ``scale`` times vertex i, ``scale`` the lcm of all vertex denominators
    (1 when there are none), and the points are sorted, which is the
    lexicographic order of the vertices.  ``vertices`` is the rational
    tuple they stand for, built on first use.  ``integer_vertices`` has
    bit i set iff vertex i is integral, that is, ``scale`` divides every
    coordinate of ``points[i]``.

    ``row_vertices[k]``, one per H-row, has bit i set iff row k is tight
    at vertex i; its transposition ``tight`` (vertex i's row mask) and the
    index tuples ``incidence`` are built on first use.  ``dim`` is the
    affine dimension (-1 when empty).  When the polytope is
    full-dimensional, the incidence alone decides the facets: row k is a
    facet iff it is tight at n or more vertices, no other row is tight at
    a strict superset of them, and no earlier row is tight at exactly them
    (a repeated or scaled row names the same facet; facet_defining_rows).

    Those five fields are the public views, and equality compares them.
    ``VPolytope(dim, scale, points, row_vertices, integer_vertices)``
    holds them as given.  The pipeline's stages read the block order
    instead: ``count`` vertices, ``block_masks`` and ``block_integer``
    (the row masks and the integer mask, bit i for block vertex i),
    ``block_starts`` (the first index of each block: a block's vertices
    differ from its first by 0/1 integer vectors), ``block_point``,
    ``block_vertex`` and ``first``.  A polytope built from its points
    keeps them in their own order, each vertex a block.
    enumerate_vertices keeps its vertices in cycle-space blocks, n bytes
    each, vertex 0 the origin; the views are built from those bytes on
    first read, sorted once.
    """

    dim: int
    scale: int
    points: tuple[tuple[int, ...], ...]
    row_vertices: tuple[int, ...]
    integer_vertices: int

    def __init__(self, dim, scale, points, row_vertices, integer_vertices):
        row_vertices = tuple(row_vertices)
        self.__dict__.update(
            dim=dim, scale=scale, points=points, row_vertices=row_vertices,
            integer_vertices=integer_vertices, count=len(points), block_masks=row_vertices,
            block_integer=integer_vertices, block_starts=range(len(points)), _h=None, _data=None,
        )

    @classmethod
    def _from_blocks(cls, dim, scale, h, data, masks, integer, starts) -> "VPolytope":
        """The polytope of ``h``'s vertices given in block order as
        ``data``, n bytes per point, vertex 0 the origin, with their row
        masks and integer mask in that order; the views wait for a
        reader."""
        v = cls.__new__(cls)
        v.__dict__.update(
            dim=dim, scale=scale, count=len(data) // h.dim, block_masks=tuple(masks),
            block_integer=integer, block_starts=tuple(starts), _h=h, _data=data,
        )
        return v

    @cached_property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*[iter(self._sorted)] * self._h.dim))

    @cached_property
    def row_vertices(self) -> tuple[int, ...]:
        return tuple(self._sorted_masks[0])

    @cached_property
    def integer_vertices(self) -> int:
        return self._sorted_masks[1]

    @cached_property
    def _sorted(self) -> bytes:
        """The block-ordered points, sorted: n bytes scale*x_e < 256 per
        point compare as the points do."""
        data, n = self._data, self._h.dim
        return b"".join(sorted([data[i : i + n] for i in range(0, len(data), n)]))

    @cached_property
    def _sorted_masks(self) -> tuple[list[int], int]:
        return _row_masks(self._h, self._sorted, self.scale)

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(map(self._fraction, p)) for p in self.points)

    @cached_property
    def tight(self) -> tuple[int, ...]:
        return tuple(_transpose(self.row_vertices or (0,), self.count))

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_bits(mask)) for mask in self.tight)

    def vertex(self, i: int) -> tuple[Fraction, ...]:
        return tuple(map(self._fraction, self.points[i]))

    def block_vertex(self, i: int) -> tuple[Fraction, ...]:
        """Vertex i of the block order."""
        return tuple(map(self._fraction, self.block_point(i)))

    def first(self, indices: Iterable[int]) -> int:
        """Of some block indices, the one whose vertex comes first in
        ``points``: the least index when the block order is the points
        order, else the index of the least point."""
        return min(indices, key=None if self._data is None else self.block_point)

    def block_point(self, i: int) -> Sequence[int]:
        """scale times vertex i of the block order, as ints."""
        if self._data is None:
            return self.points[i]
        n = self._h.dim
        return self._data[i * n : i * n + n]

    @cached_property
    def _fraction(self) -> Callable[[int], Fraction]:
        """c -> c/scale, one Fraction per distinct coordinate, shared by
        ``vertices`` and the witnesses ``vertex`` builds."""
        scale = self.scale
        return cache(lambda c: Fraction(c, scale))


def _vpolytope_from_rays(h: HPolytope, rays: Sequence[tuple[int, ...]], tight: Sequence[int]) -> VPolytope:
    """The V-polytope of primitive homogeneous rays (t, t*x), t > 0, with
    ``tight[r]`` the mask of the rows of ``h`` tight at ray r.  The scale L
    is the lcm of all t, so of all vertex denominators as each ray is
    primitive; vertex x is the point L*x, its mask transposed into rows,
    and it is integral iff L divides every coordinate of L*x."""
    if not rays:
        return VPolytope(-1, 1, (), (0,) * len(h.rows), 0)
    scale = lcm(*(ray[0] for ray in rays))
    points = [tuple(c * (scale // ray[0]) for c in ray[1:]) for ray in rays]
    points, tight = zip(*sorted(zip(points, tight)))
    integer = sum(1 << i for i, p in enumerate(points) if gcd(scale, *p) == scale)
    row_vertices = _transpose(tight, len(h.rows))
    return VPolytope(_dimension(h, row_vertices, len(points)), scale, points, row_vertices, integer)


def _dimension(h: HPolytope, row_vertices: Sequence[int], count: int) -> int:
    """The affine dimension of ``count`` > 0 vertices of ``h`` with vertex
    masks ``row_vertices``, one per row, in any one vertex order: n minus
    the rank of the implicit equalities, the rows tight at every vertex."""
    every = (1 << count) - 1
    return h.dim - integer_rank([row.a for row, mask in zip(h.rows, row_vertices) if mask == every])


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# Vertices in closed form
# ---------------------------------------------------------------------------

def enumerate_vertices(graph: TrivalentGraph, h: HPolytope) -> VPolytope:
    """The vertices of the graph polytope ``h = build_hrep(graph)`` (a
    ValueError if the dimensions differ), in closed form: x is a vertex iff
    S = {e : x_e = 1/2} is in the cycle space and the other coordinates
    are a labelling z that _parity_solutions reads off the fundamental
    cycles for S (README).  The scale is 2 if some S is not empty, else 1.
    Vertex x is an n-byte row whose byte e is scale*x_e.  The edge masks
    are kept in that byte layout throughout (_byte_cycles), so S, the
    T-joins and the generators come out as row bytes, and each passing S
    is one block of rows (_block), in cycle-space order: the first block,
    S empty with T-join 0, starts with the origin.  The row masks and the
    integer vertices come from _row_masks, in that block order."""
    n = h.dim
    if n != graph.n_edges:
        raise ValueError(f"system has dimension {n}, the graph {graph.n_edges} edges")
    cycles = _byte_cycles(graph)
    found = [(s, p) for s in _span(0, [c for c, _, _ in cycles]) if (p := _parity_solutions(cycles, s))]
    scale = 2 if any(s for s, _ in found) else 1
    z_shift = scale - 1  # the byte of edge e holds s_e + scale*z_e
    data = b"".join([
        _block(s | t << z_shift, [c << z_shift for c in gens], n) for s, (t, gens) in found
    ])
    starts = itertools.accumulate([1 << len(gens) for _, (_, gens) in found[:-1]], initial=0)
    masks, integer = _row_masks(h, data, scale)
    dim = _dimension(h, masks, len(data) // n)
    return VPolytope._from_blocks(dim, scale, h, data, masks, integer, starts)


def _block(base: int, generators: Sequence[int], n: int) -> bytes:
    """base XOR each GF(2) combination of the generators, in _span order,
    as n-byte big-endian rows: each generator doubles the rows, the old
    ones first, then a copy with the generator, repeated once per row by
    doubling, XORed in."""
    block, width = base, 8 * n
    for c in generators:
        step = 8 * n
        while step < width:
            c |= c << step
            step *= 2
        block = block << width | block ^ c
        width *= 2
    return block.to_bytes(width // 8, "big")


def _byte_cycles(graph: TrivalentGraph) -> list[tuple[int, int, int]]:
    """``graph._cycles`` in the row layout: bit e of each edge mask moves
    to the lowest bit of byte e, counted from the top of n bytes.  Only
    the 2g-2 tree paths are spread; the map is linear over XOR, so each
    cycle is its non-tree byte XOR the paths to its ends (a tree edge's
    cancels to 0 and is dropped, as in ``_cycles``)."""
    n = graph.n_edges
    spec, zeros = f"0{n}b", int.from_bytes(b"0" * n, "big")
    # bit e of m -> a 1 in byte e of n bytes: m's binary digits, reversed, as bytes
    paths = [int.from_bytes(format(p, spec)[::-1].encode(), "big") - zeros for p in graph._paths]
    return [
        (c, f, paths[u])
        for i, (u, v) in enumerate(graph.edges)
        if (c := (f := 1 << 8 * (n - 1 - i)) ^ paths[u] ^ paths[v])
    ]


# byte w -> b"1" iff w is even
_EVEN = bytes(b"10"[w & 1] for w in range(256))


def _row_masks(h: HPolytope, data: bytes, scale: int) -> tuple[list[int], int]:
    """The row masks and the integer-vertex mask of the points scale*x
    in ``data``, n bytes each, scale 1 or 2: bit i of row k's mask
    is set iff row k is tight at vertex i, and bit i of the integer mask
    iff vertex i is integral.  Lane e holds scale*x_e <= 2, one byte per
    vertex, vertex 0 lowest.  A row's support e_0 < e_1 < ... (at most 4
    edges, else ValueError) packs lane e_j into bits 2j and 2j+1 of a code
    byte per vertex, rebuilt only when the support changes (once per
    trinion of a loop-free build_hrep).  A table maps each code byte to
    b"1" iff the row is tight at its fields, so the translated code,
    vertex 0 last, is the mask in base 2.  At scale 1 every vertex is
    integral; at scale 2 vertex i is iff byte i of the OR of the lanes is
    even, read off by one more translation."""
    n, count = h.dim, len(data) // h.dim
    lanes = [int.from_bytes(data[e::n], "little") for e in range(n)]
    masks, support, code = [], None, b""
    for k, row in enumerate(h.rows):
        edges = list(itertools.compress(range(n), row.a))
        if edges != support:
            if len(edges) > 4:
                raise ValueError(f"row {k} {row} has {len(edges)} edges; a support code holds 4")
            support = edges
            code = sum(lanes[e] << 2 * j for j, e in enumerate(edges)).to_bytes(count, "big")
        table = _tight_table(tuple(filter(None, row.a)), scale * row.b)  # the support's coefficients
        masks.append(int(code.translate(table), 2))
    if scale == 1:
        return masks, (1 << count) - 1
    odd = reduce(or_, lanes).to_bytes(count, "big")
    return masks, int(odd.translate(_EVEN), 2)


@lru_cache(maxsize=256)
def _tight_table(coeffs: tuple[int, ...], target: int) -> bytes:
    """Code byte w -> b"1" iff coeffs.w = target, w_j its 2-bit field j."""
    dot = lambda w: sum(c * (w >> 2 * j & 3) for j, c in enumerate(coeffs))
    return bytes(b"01"[dot(w) == target] for w in range(256))


def _parity_solutions(cycles: Sequence[tuple[int, int, int]], s: int) -> tuple[int, list[int]] | None:
    """The 0/1 labellings z of the edges off the cycle-space element s that
    make x = z + s/2 a vertex, as (t_join, generators), z being t_join XOR
    a sum of generators: one pass over the fundamental cycles, given as
    (mask, non-tree edge, tree path to its first end) like
    ``graph._cycles``, finds the k cycles of s, the T-join and the g-k
    independent generators (README, *The labellings*), all edge masks in
    the cycles' own layout (one bit or one byte per edge; spreading is
    linear over XOR, and whether a mask reduces to 0, and the generators'
    span, do not depend on the pivot); odd k gives None."""
    generators, echelon, closed = [], [], []
    for c, f, path in cycles:
        c &= ~s
        if f & s:
            # c has no non-tree edge; reducing to 0 closes a cycle of s
            for low, mask in echelon:
                if c & low:
                    c ^= mask
            if not c:
                closed.append(path)
                continue
            echelon.append((c & -c, c))
        generators.append(c)
    return None if len(closed) % 2 else (reduce(xor, closed, 0) & ~s, generators)


def _span(base: int, generators: Iterable[int]) -> list[int]:
    """base XOR each GF(2) combination of the generators, as bitmasks."""
    span = [base]
    for mask in generators:
        span += [m ^ mask for m in span]
    return span


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


def brute_force_vertices(h: HPolytope) -> VPolytope:
    """Independent enumeration oracle: Cramer's rule, in integers, on
    every n-subset of rows.

    One fraction_free_reduce of A | b decides whether A is nonsingular
    (its first n pivot columns are 0..n-1) and leaves it p*I | p*x, so
    (p, p*x) is the homogeneous ray of the point where A.x = b meets.
    Made primitive with a positive first entry, the ray (t, t*x) survives
    if it satisfies every row, and goes through the same builder as the
    closed form's rays.  Exponential in the row count; intended for
    dimensions up to about 6.
    """
    n, nonsingular = h.dim, list(range(h.dim))
    found = {}  # ray -> the mask of its tight rows
    for subset in itertools.combinations(h.rows, n):
        a = [[*row.a, row.b] for row in subset]
        pivots, _, p = fraction_free_reduce(a)
        if pivots[:n] != nonsingular:
            continue
        ray = primitive([p] + [row[n] for row in a])
        if p < 0:
            ray = tuple(-c for c in ray)
        slack = [row.b * ray[0] - _idot(row.a, ray[1:]) for row in h.rows]
        if min(slack, default=0) >= 0:
            found[ray] = sum(1 << k for k, s in enumerate(slack) if not s)
    return _vpolytope_from_rays(h, list(found), list(found.values()))


# ---------------------------------------------------------------------------
# Facets and simplicity
# ---------------------------------------------------------------------------

def facet_defining_rows(h: HPolytope, v: VPolytope) -> tuple[int, ...]:
    """Indices of rows whose tight vertex set spans a facet.

    Combinatorial criterion, valid for a full-dimensional polytope: row i
    is a facet iff it is tight at n or more vertices and no other row is
    tight at a strict superset of those vertices.  Rows tight at the same
    n or more vertices lie on the same facet hyperplane (a repeated or
    scaled row), so only the first of them is kept.  The distinct masks
    are walked in decreasing popcount, so a strict superset of a mask,
    which has more vertices, comes before it; a mask is kept iff no kept
    mask contains it, since whatever contains it is contained in a kept
    one.  Only the row masks are read, in block order (``v.block_masks``;
    the test does not depend on the vertex order); a count other than
    ``len(h.rows)``, or a vertex past ``v.count``, means ``v`` is another
    system's: ValueError.
    """
    if v.dim != h.dim:
        raise NotFullDimensional(f"polytope has dimension {v.dim} in ambient {h.dim}")
    masks, count = v.block_masks, v.count
    if len(masks) != len(h.rows) or max(masks, default=0) >> count:
        raise ValueError(f"{len(masks)} row masks over {count} vertices for {len(h.rows)} rows")
    first: dict[int, int] = {}
    for i, m in enumerate(masks):
        first.setdefault(m, i)
    kept: list[int] = []
    for m in sorted([m for m in first if m.bit_count() >= h.dim], key=int.bit_count, reverse=True):
        if m not in map(m.__and__, kept):
            kept.append(m)
    return tuple(sorted(first[m] for m in kept))


@dataclass(frozen=True)
class SimplicityVerdict:
    """Whether exactly n facets meet at every vertex; if not, the first
    offending vertex (lexicographic) and its facet count."""

    simple: bool
    witness: tuple[Fraction, ...] | None = None
    witness_facets: int | None = None


def is_simple(h: HPolytope, v: VPolytope, facet_rows: tuple[int, ...]) -> SimplicityVerdict:
    """Whether every vertex lies on exactly n of ``facet_rows`` (counted
    once each), the result of facet_defining_rows(h, v).  Vertex 0 of the
    block order, first in ``points`` too, is counted first, bit 0 of those
    rows' vertex masks summed; for a loop-free graph of genus >= 3 it is
    the origin, and it offends.  Only when it passes are all the counts
    taken at once (_count_is), and the witness is the first offending
    vertex in ``points`` (VPolytope.first)."""
    masks = [v.block_masks[k] for k in set(facet_rows)]
    n = h.dim
    if v.count and (at_origin := sum(m & 1 for m in masks)) != n:
        return SimplicityVerdict(False, v.block_vertex(0), at_origin)
    offending = (1 << v.count) - 1 & ~_count_is(masks, n)
    if not offending:
        return SimplicityVerdict(True)
    i = v.first(_bits(offending))
    return SimplicityVerdict(False, v.block_vertex(i), sum(m >> i & 1 for m in masks))


def _count_is(masks: Sequence[int], n: int) -> int:
    """The mask of the positions i at which exactly n of the masks have
    bit i set: the counts are kept bit-sliced, plane j holding bit j of
    every position's count, and each mask is one ripple-carry add."""
    planes: list[int] = []
    for carry in masks:
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    if n >> len(planes):
        return 0  # no count reaches n
    equal = -1
    for j, plane in enumerate(planes):
        equal &= plane if n >> j & 1 else ~plane
    return equal


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
    span = _span(0, graph.cycle_basis())
    return sorted(tuple(mask >> i & 1 for i in range(graph.n_edges)) for mask in span)


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

