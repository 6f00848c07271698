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
from math import lcm, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exactmath import QMatrix, det, exact, hnf, integer_det, primitive, primitive_direction
from .graph_core import TrivalentGraph
from .polytope import HPolytope, VPolytope, facet_defining_rows, is_simple

SMOOTH = "SMOOTH"
SINGULAR = "SINGULAR"


class ConsistencyError(Exception):
    """Two routes that must agree produced different answers; this is an
    internal error, never a statement about the input."""


@dataclass(frozen=True)
class Lattice:
    """A full-rank lattice in Q^n with an upper-triangular basis, kept in
    integers: ``rows`` are the rows of ``scale`` times the basis, one basis
    vector per row, zero left of a nonzero diagonal.  ``basis`` is the
    rational matrix they stand for, built on first use.
    """

    dim: int
    scale: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.scale < 1 or len(self.rows) != self.dim or any(
            len(row) != self.dim or not row[i] or any(row[:i])
            for i, row in enumerate(self.rows)
        ):
            raise ValueError("basis must be square, upper-triangular, with a nonzero diagonal")

    @classmethod
    def from_generators(cls, generators: Sequence[Sequence]) -> "Lattice":
        gens = tuple(tuple(exact(x) for x in g) for g in generators)
        if not gens:
            raise ValueError("no generators")
        n = len(gens[0])
        if any(len(g) != n for g in gens):
            raise ValueError("generators of mixed length")
        scale = lcm(*(x.denominator for g in gens for x in g))
        h, _ = hnf(QMatrix([[x * scale for x in g] for g in gens]))
        rows = [r for r in h.rows if any(r)]
        if len(rows) != n:
            raise ValueError(f"generators span rank {len(rows)} < {n}")
        return cls(n, scale, tuple(tuple(x.numerator for x in r) for r in rows))

    @cached_property
    def basis(self) -> QMatrix:
        return QMatrix([[Fraction(x, self.scale) for x in row] for row in self.rows])

    @cached_property
    def covolume(self) -> Fraction:
        return Fraction(abs(prod(row[i] for i, row in enumerate(self.rows))), self.scale**self.dim)


def build_lattice(graph: TrivalentGraph) -> Lattice:
    """Lattice of a trivalent graph: Z^n plus the trinion half-sums.  Twice
    its basis is c at the pivot (lowest bit) of each mask c of the reduced
    GF(2) echelon basis of the trinion parity masks, and 2e_j elsewhere."""
    n = graph.n_edges
    echelon: dict[int, int] = {}  # pivot -> mask, each clear at the other pivots
    for triple in graph.trinion_triples():
        mask = sum(1 << i for i in triple.edges if triple.edges.count(i) == 1)  # loops drop out
        for pivot, other in echelon.items():
            if mask >> pivot & 1:
                mask ^= other
        if mask:
            pivot = (mask & -mask).bit_length() - 1
            echelon = {q: m ^ mask if m >> pivot & 1 else m for q, m in echelon.items()}
            echelon[pivot] = mask
    rows = [tuple(echelon[j] >> i & 1 if j in echelon else 2 * (i == j) for i in range(n))
            for j in range(n)]
    return Lattice(n, 2, tuple(rows))


def is_lattice_point(x: Sequence, lattice: Lattice) -> bool:
    """Whether rational x is an integer combination of the basis rows."""
    x = [exact(c) for c in x]
    k = lcm(*(c.denominator for c in x))
    return _first_non_member([[c.numerator * (k // c.denominator) for c in x]], k, lattice) is None


def _coordinates(
    points: Iterable[Sequence[int]], m: int, k: int, lattice: Lattice
) -> Iterator[list[int] | None]:
    """Per integer point y, lazily, the integer c with c*k*rows = m*y, or
    None when a division leaves a remainder: forward substitution through
    k*rows, made once, reading only the nonzero entries right of each
    diagonal."""
    steps = [
        (i, k * row[i], [(j, k * b) for j, b in enumerate(row) if j > i and b])
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


def _first_non_member(points: Sequence[Sequence[int]], k: int, lattice: Lattice) -> int | None:
    """The index of the first integer point y with y/k not in the lattice,
    or None: y/k is a member iff s*y has integer coordinates against
    k*s*basis = k*rows, s the lattice's scale."""
    coordinates = _coordinates(points, lattice.scale, k, lattice)
    return next((i for i, c in enumerate(coordinates) if c is None), None)


class LatticePolytopeVerdict(NamedTuple):
    ok: bool
    offending: tuple[Fraction, ...] | None


def is_lattice_polytope(v: VPolytope, lattice: Lattice) -> LatticePolytopeVerdict:
    """True iff every vertex lies in the lattice; else first bad vertex."""
    bad = _first_non_member(v.points, v.scale, lattice)
    return LatticePolytopeVerdict(bad is None, None if bad is None else v.vertex(bad))


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


def normal_fan(
    h: HPolytope, v: VPolytope, facet_rows: tuple[int, ...] | None = None
) -> Fan:
    """Fan of inward facet normals; one maximal cone per vertex."""
    if facet_rows is None:
        facet_rows = facet_defining_rows(h, v)
    ray_ids: dict[tuple[int, ...], int] = {}
    ray_of_row = {
        i: ray_ids.setdefault(primitive([-x for x in h.rows[i].a]), len(ray_ids))
        for i in facet_rows
    }
    cones = tuple(
        tuple(sorted(ray_of_row[i] for i in tight if i in ray_of_row))
        for tight in v.incidence
    )
    return Fan(h.dim, tuple(ray_ids), cones)


def map_fan(fan: Fan, m: QMatrix) -> Fan:
    """Apply an invertible linear map to every ray; cones carry over."""
    if not m.is_square or m.nrows != fan.dim:
        raise ValueError(f"map must be {fan.dim}x{fan.dim}")
    if det(m) == 0:
        raise ValueError("map is singular")
    rays = tuple(primitive_direction(m.apply(r)) for r in fan.rays)
    return Fan(fan.dim, rays, fan.maximal_cones)


# ---------------------------------------------------------------------------
# Delzant verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelzantVerdict:
    """Outcome of the smoothness test.

    ``overall`` is SMOOTH iff the polytope is simple and every vertex
    passes the determinant test; ``lattice_polytope`` is informational
    and does not enter the overall verdict.  ``smooth_witness_det`` is
    the determinant of the primitive inward facet normals at
    ``smooth_witness``, in lattice coordinates (see delzant_check): the
    index of that vertex's normal cone in the lattice, up to sign.
    """

    simple: bool
    simple_witness: tuple[Fraction, ...] | None
    simple_witness_facets: int | None
    lattice_polytope: bool
    lattice_offender: tuple[Fraction, ...] | None
    smooth: bool
    smooth_witness: tuple[Fraction, ...] | None
    smooth_witness_det: int | None
    overall: str


def delzant_check(
    h: HPolytope,
    v: VPolytope,
    lattice: Lattice,
    facet_rows: tuple[int, ...] | None = None,
) -> DelzantVerdict:
    """Simplicity, then the determinant test on the normal fan.

    At a simple vertex the primitive inward normals of the n tight facets,
    written in coordinates of the lattice basis and made primitive, must
    form a matrix of determinant +-1.  A normal u has the coordinates c
    with c*rows = D*u, D the absolute product of the diagonal of the
    triangular rows, so every division of the forward substitution is
    exact (Cramer's rule); the determinant is over Z, and a zero one is
    an internal fault (ConsistencyError).  The witness is the first
    vertex, in ``points`` order, whose determinant is not +-1.
    Non-simple polytopes are SINGULAR immediately, with the simplicity
    witness carried through.
    """
    if facet_rows is None:
        facet_rows = facet_defining_rows(h, v)
    simplicity = is_simple(h, v, facet_rows)
    lp = is_lattice_polytope(v, lattice)
    witness = witness_det = None
    if simplicity.simple:
        fan = normal_fan(h, v, facet_rows)
        diagonal = abs(prod(row[i] for i, row in enumerate(lattice.rows)))
        coords = [primitive(c) for c in _coordinates(fan.rays, diagonal, 1, lattice)]
        for i, cone in enumerate(fan.maximal_cones):
            d_value = integer_det([list(coords[r]) for r in cone])
            if not d_value:
                raise ConsistencyError(
                    f"the facet normals at simple vertex {v.vertex(i)} are dependent"
                )
            if abs(d_value) != 1:
                witness, witness_det = v.vertex(i), d_value
                break
    smooth = simplicity.simple and witness is None
    return DelzantVerdict(
        simple=simplicity.simple,
        simple_witness=simplicity.witness,
        simple_witness_facets=simplicity.witness_facets,
        lattice_polytope=lp.ok,
        lattice_offender=lp.offending,
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
