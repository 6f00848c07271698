"""Lattices, normal fans, and the smoothness verdict for graph polytopes.

The lattice attached to a trivalent graph is generated by the standard
basis of Z^n together with one half-sum vector per graph vertex, built
from that vertex's trinion triple (a loop contributes its edge twice, so
the half-sum picks up a whole step in the loop coordinate).  Twice the
lattice is {y in Z^n : y mod 2 lies in the GF(2) span of the trinion
parity masks}, the graph's cut space, so a reduced GF(2) echelon basis
of the masks gives the triangular basis directly, and the covolume is
2^-(|V|-1).  Lattices are kept in integers (a scale s and the rows of s
times the basis); membership is forward substitution through them.

Smoothness is decided on the normal fan (Cox, Little and Schenck, Toric
Varieties, 2011).  At each vertex of a simple polytope the n primitive
inward normals of the tight facets are written in coordinates of the
lattice basis, made primitive, and the vertex is smooth exactly when the
resulting n x n integer matrix has determinant +-1.  A non-simple vertex
rules out smoothness outright, so the check short-circuits there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exactmath import det, gf2_echelon, integer_det, primitive, primitive_direction, scaled
from .graph_core import TrivalentGraph
from .polytope import HPolytope, VPolytope, _bits, _idot, _transpose, is_simple

SMOOTH = "SMOOTH"
SINGULAR = "SINGULAR"


class ConsistencyError(Exception):
    """Two routes that must agree produced different answers; this is an
    internal error, never a statement about the input."""


@dataclass(frozen=True)
class Lattice:
    """A full-rank lattice in Q^n with an upper-triangular basis, kept in
    integers: ``rows`` are the rows of ``scale`` times the basis, one basis
    vector per row, zero left of a nonzero diagonal.
    """

    dim: int
    scale: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.dim
        bad = "basis must be square, upper-triangular, with a nonzero diagonal"
        if self.scale < 1 or len(self.rows) != n:
            raise ValueError(bad)
        # a loop, not any() over a generator, whose resume per row cost more
        for i, row in enumerate(self.rows):
            if len(row) != n or not row[i] or any(row[:i]):
                raise ValueError(bad)

    @cached_property
    def covolume(self) -> Fraction:
        return Fraction(abs(prod(row[i] for i, row in enumerate(self.rows))), self.scale**self.dim)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # a mask's binary digits as 0/1 bytes


def build_lattice(graph: TrivalentGraph) -> Lattice:
    """Lattice of a trivalent graph: Z^n plus the trinion half-sums.  Twice
    its basis is c at the pivot (lowest bit) of each mask c of gf2_echelon
    of the trinion parity masks, and 2e_j elsewhere.  A loop's edge is in
    its triple twice, so it cancels from the mask."""
    n = graph.n_edges
    echelon = gf2_echelon(1 << a ^ 1 << b ^ 1 << c for _, (a, b, c) in graph.trinion_triples())
    digits = f"0{n}b"
    unit = (0,) * (n - 1) + (2,) + (0,) * (n - 1)  # row j is unit[n-1-j : 2n-1-j]
    rows = tuple(
        tuple(format(echelon[j], digits)[::-1].encode().translate(_BIT_BYTES))
        if j in echelon else unit[n - 1 - j : 2 * n - 1 - j]
        for j in range(n)
    )
    return Lattice(n, 2, rows)


def is_lattice_point(x: Sequence, lattice: Lattice) -> bool:
    """Whether rational x is an integer combination of the basis rows."""
    k, y = scaled(x)
    return _first_non_member([y], k, lattice) is None


def _coordinates(
    points: Iterable[Sequence[int]], m: int, k: int, lattice: Lattice
) -> Iterator[list[int] | None]:
    """Per integer point y, lazily, the integer c with c*k*rows = m*y, or
    None when a division leaves a remainder: forward substitution through
    k*rows, made once, reading only the nonzero entries right of each
    diagonal."""
    steps = [
        (i, k * row[i], [(j, k * b) for j, b in enumerate(row[i + 1 :], i + 1) if b])
        for i, row in enumerate(lattice.rows)
    ]
    for p in points:
        if len(p) != lattice.dim:
            raise ValueError(f"point has length {len(p)}, expected {lattice.dim}")
        y, c = [m * x for x in p], []
        for i, pivot, tail in steps:
            q, r = divmod(y[i], pivot)
            if r:
                c = None
                break
            c.append(q)
            for j, b in tail:
                y[j] -= q * b
        yield c


def _first_non_member(points: Iterable[Sequence[int]], k: int, lattice: Lattice) -> int | None:
    """The index of the first integer point y with y/k not in the lattice,
    or None: y/k is a member iff s*y has integer coordinates against
    k*s*basis = k*rows, s the lattice's scale."""
    coordinates = _coordinates(points, lattice.scale, k, lattice)
    return next((i for i, c in enumerate(coordinates) if c is None), None)


class LatticePolytopeVerdict(NamedTuple):
    ok: bool
    offending: tuple[Fraction, ...] | None


def is_lattice_polytope(v: VPolytope, lattice: Lattice) -> LatticePolytopeVerdict:
    """True iff every vertex lies in the lattice; else first bad vertex.

    The vertices are tested against ``lattice`` itself, for a graph the
    lattice L of build_lattice, not against its dual L*, the lattice
    M = L* that delzant_check's choice N = L would give the vertices.
    The two differ from multi_theta(3) on, whose vertices all lie in L
    but not all in L*.  delzant_check does not call it: the answer is a
    fact of the report, not part of the smoothness verdict.  Every
    vertex is tested, in ``points`` order, so it is the oracle of
    blocks_in_lattice, the test analyze_graph makes."""
    bad = _first_non_member(v.points, v.scale, lattice)
    return LatticePolytopeVerdict(bad is None, None if bad is None else v.vertex(bad))


def blocks_in_lattice(v: VPolytope, lattice: Lattice) -> bool:
    """Whether every vertex of ``v`` lies in ``lattice``, which must
    contain Z^n, as build_lattice's L does by construction: one point is
    tested per block of ``v`` (VPolytope.block_starts), its first, since
    the block's other vertices differ from it by 0/1 integer vectors."""
    return _first_non_member(map(v.block_point, v.block_starts), v.scale, lattice) is None


# ---------------------------------------------------------------------------
# Normal fan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fan:
    """Rays are primitive integer vectors; each maximal cone lists the
    ray indices tight at one polytope vertex."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    maximal_cones: tuple[tuple[int, ...], ...]


def normal_fan(h: HPolytope, v: VPolytope, facet_rows: tuple[int, ...]) -> Fan:
    """Fan of the inward normals of ``facet_rows``, the result of
    facet_defining_rows(h, v); one maximal cone per vertex, in ``points``
    order, read from the vertex's ``tight`` mask restricted to those
    rows."""
    return _fan(h, v.tight, facet_rows)


def _fan(h: HPolytope, tight: Iterable[int], facet_rows: tuple[int, ...]) -> Fan:
    """normal_fan with one cone per row mask of ``tight``, in its order."""
    ray_ids: dict[tuple[int, ...], int] = {}
    ray_of_row = {
        i: ray_ids.setdefault(primitive([-x for x in h.rows[i].a]), len(ray_ids))
        for i in facet_rows
    }
    facets = sum(1 << i for i in ray_of_row)
    cones = tuple(tuple(sorted(ray_of_row[i] for i in _bits(t & facets))) for t in tight)
    return Fan(h.dim, tuple(ray_ids), cones)


def map_fan(fan: Fan, m: Sequence[Sequence]) -> Fan:
    """Apply an invertible linear map, given by the rows of m, to every
    ray; cones carry over.  ValueError unless m is an invertible
    fan.dim x fan.dim matrix; TypeError on a float."""
    if det(m) == 0 or len(m) != fan.dim:
        raise ValueError(f"map must be an invertible {fan.dim}x{fan.dim} matrix")
    rays = tuple(primitive_direction([_idot(row, r) for row in m]) for r in fan.rays)
    return Fan(fan.dim, rays, fan.maximal_cones)


# ---------------------------------------------------------------------------
# Delzant verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelzantVerdict:
    """Outcome of the Delzant test, and of nothing else.

    ``overall`` is SMOOTH iff the polytope is simple and every vertex
    passes the determinant test.  ``smooth_witness_det`` is the
    determinant of the primitive inward facet normals at
    ``smooth_witness``, in lattice coordinates (see delzant_check): the
    index of that vertex's normal cone in the lattice, up to sign.
    """

    simple: bool
    simple_witness: tuple[Fraction, ...] | None
    simple_witness_facets: int | None
    smooth: bool
    smooth_witness: tuple[Fraction, ...] | None
    smooth_witness_det: int | None
    overall: str


def delzant_check(
    h: HPolytope, v: VPolytope, lattice: Lattice, facet_rows: tuple[int, ...]
) -> DelzantVerdict:
    """The Delzant test alone: simplicity, then the determinant test on
    the normal fan, both read from ``facet_rows``, the result of
    facet_defining_rows(h, v).  It does not ask is_lattice_polytope.

    At a simple vertex the primitive inward normals of the n tight facets,
    written in coordinates of the lattice basis and made primitive, must
    form a matrix of determinant +-1.  The normals are written in
    ``lattice``, so it serves as the lattice N of the normal fan (for a
    graph, N = L of build_lattice, and the vertices' lattice is M = L*;
    see is_lattice_polytope).  A normal u has the coordinates c
    with c*rows = D*u, D the absolute product of the diagonal of the
    triangular rows, so every division of the forward substitution is
    exact (Cramer's rule); the determinant is over Z, and a zero one is
    an internal fault (ConsistencyError).  The cones are taken in block
    order (VPolytope.block_masks); the witness is vertex 0 if it offends,
    being first in ``points`` too, and else the first vertex in
    ``points`` (VPolytope.first) whose determinant is not +-1.
    Non-simple polytopes are SINGULAR immediately, with the simplicity
    witness carried through.
    """
    simplicity = is_simple(h, v, facet_rows)
    witness = witness_det = None
    if simplicity.simple:
        fan = _fan(h, _transpose(v.block_masks or (0,), v.count), facet_rows)
        diagonal = abs(prod(row[i] for i, row in enumerate(lattice.rows)))
        coords = [primitive(c) for c in _coordinates(fan.rays, diagonal, 1, lattice)]
        offending = {}
        for i, cone in enumerate(fan.maximal_cones):
            d_value = integer_det([list(coords[r]) for r in cone])
            if not d_value:
                raise ConsistencyError(
                    f"the facet normals at simple vertex {v.block_vertex(i)} are dependent"
                )
            if abs(d_value) != 1:
                offending[i] = d_value
                if i == 0:
                    break
        if offending:
            i = v.first(offending)
            witness, witness_det = v.block_vertex(i), offending[i]
    smooth = simplicity.simple and witness is None
    return DelzantVerdict(
        simple=simplicity.simple,
        simple_witness=simplicity.witness,
        simple_witness_facets=simplicity.witness_facets,
        smooth=smooth,
        smooth_witness=witness,
        smooth_witness_det=witness_det,
        overall=SMOOTH if smooth else SINGULAR,
    )


# ---------------------------------------------------------------------------
# The loop-free guard
# ---------------------------------------------------------------------------

def apply_loop_free_guard(graph: TrivalentGraph, verdict: DelzantVerdict) -> bool:
    """For loop-free graphs of genus >= 3 the verdict must be SINGULAR;
    a SMOOTH result there means an implementation bug, not new data.
    Returns whether the guard applied; raises ConsistencyError on breach.
    """
    applies = graph.is_loop_free() and graph.genus >= 3
    if applies and verdict.overall != SINGULAR:
        raise ConsistencyError(
            f"loop-free graph of genus {graph.genus} judged {verdict.overall}; "
            "this contradicts the non-simplicity of its origin vertex"
        )
    return applies
