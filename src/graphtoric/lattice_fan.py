"""Lattices, normal fans, and the smoothness verdict for graph polytopes.

The lattice attached to a trivalent graph is generated by the standard
basis of Z^n together with one half-sum vector per graph vertex, built
from that vertex's trinion triple (a loop contributes its edge twice, so
the half-sum picks up a whole step in the loop coordinate).  Twice the
lattice is {y in Z^n : y mod 2 lies in the GF(2) span of the trinion
parity masks}, the graph's cut space, so a reduced GF(2) echelon basis
of the masks gives the triangular basis directly, and the covolume is
2^-(|V|-1).  Membership is integer forward substitution through the
triangular basis.

Smoothness is decided on the polytope side.  At each vertex of a simple
polytope the edge directions to its neighbours are expressed through the
lattice pairing (inner product with each reduced basis vector), reduced
to primitive integer vectors, and the vertex is smooth exactly when the
resulting n x n matrix has determinant +-1.  A non-simple vertex rules
out smoothness outright, so the check short-circuits there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import NamedTuple, Sequence

from .exactmath import QMatrix, det, hnf, primitive_direction
from .graph_core import TrivalentGraph
from .polytope import HPolytope, VPolytope, facet_defining_rows, is_simple

SMOOTH = "SMOOTH"
SINGULAR = "SINGULAR"


class ConsistencyError(Exception):
    """Two routes that must agree produced different answers; this is an
    internal error, never a statement about the input."""


@dataclass(frozen=True)
class Lattice:
    """A full-rank lattice in Q^n with an upper-triangular basis.

    ``generators`` is the raw generating set; ``basis`` holds one basis
    vector per row, zero left of a nonzero diagonal.  Both span the same
    group.
    """

    dim: int
    generators: tuple[tuple[Fraction, ...], ...]
    basis: QMatrix

    def __post_init__(self):
        if self.basis.nrows != self.dim or any(
            len(row) != self.dim or not row[i].numerator or any(x.numerator for x in row[:i])
            for i, row in enumerate(self.basis.rows)
        ):
            raise ValueError("basis must be square, upper-triangular, with a nonzero diagonal")

    @classmethod
    def from_generators(cls, generators: Sequence[Sequence]) -> "Lattice":
        gens = tuple(tuple(Fraction(x) for x in g) for g in generators)
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
        basis = QMatrix([[x / scale for x in r] for r in rows])
        return cls(n, gens, basis)

    @cached_property
    def _integer_basis(self) -> tuple[int, list[list[int]]]:
        s = lcm(*(x.denominator for row in self.basis.rows for x in row))
        return s, [[x.numerator * (s // x.denominator) for x in row] for row in self.basis.rows]

    @cached_property
    def covolume(self) -> Fraction:
        return abs(prod(row[i] for i, row in enumerate(self.basis.rows)))


def build_lattice(graph: TrivalentGraph) -> Lattice:
    """Lattice of a trivalent graph: Z^n plus the trinion half-sums.  Its
    basis is c/2 at the pivot (lowest bit) of each mask c of the reduced GF(2)
    echelon basis of the trinion parity masks, and e_j at every other j."""
    n = graph.n_edges
    value = (Fraction(0), Fraction(1, 2), Fraction(1))  # by the count of halves
    generators = [tuple(value[2 * (i == k)] for i in range(n)) for k in range(n)]
    echelon: dict[int, int] = {}  # pivot -> mask, each clear at the other pivots
    for triple in graph.trinion_triples():
        halves = [triple.edges.count(i) for i in range(n)]
        generators.append(tuple(value[c] for c in halves))
        mask = sum(1 << i for i, c in enumerate(halves) if c == 1)
        for pivot, other in echelon.items():
            if mask >> pivot & 1:
                mask ^= other
        if mask:
            pivot = (mask & -mask).bit_length() - 1
            echelon = {q: m ^ mask if m >> pivot & 1 else m for q, m in echelon.items()}
            echelon[pivot] = mask
    half = {j: tuple(value[m >> i & 1] for i in range(n)) for j, m in echelon.items()}
    return Lattice(n, tuple(generators), QMatrix(half.get(j, generators[j]) for j in range(n)))


def is_lattice_point(x: Sequence, lattice: Lattice) -> bool:
    """Whether rational x is an integer combination of the basis rows: forward
    substitution through k*s*basis in Z, k and s the lcm of the denominators
    of x and of the basis."""
    if len(x) != lattice.dim:
        raise ValueError(f"point has length {len(x)}, expected {lattice.dim}")
    s, rows = lattice._integer_basis
    k = lcm(*(v.denominator for v in x))
    y = [v.numerator * (k // v.denominator) * s for v in x]
    for i, row in enumerate(rows):
        c, r = divmod(y[i], k * row[i])
        if r:
            return False
        y = [a - c * k * b for a, b in zip(y, row)]
    return True


class LatticePolytopeVerdict(NamedTuple):
    ok: bool
    offending: tuple[Fraction, ...] | None


def is_lattice_polytope(v: VPolytope, lattice: Lattice) -> LatticePolytopeVerdict:
    """True iff every vertex lies in the lattice; else first bad vertex."""
    bad = next((p for p in v.vertices if not is_lattice_point(p, lattice)), None)
    return LatticePolytopeVerdict(bad is None, bad)


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
    ray_of_row: dict[int, int] = {}
    rays: list[tuple[int, ...]] = []
    for i in facet_rows:
        ray = primitive_direction([-x for x in h.rows[i].a])
        if ray not in rays:
            rays.append(ray)
        ray_of_row[i] = rays.index(ray)
    cones = tuple(
        tuple(sorted(ray_of_row[i] for i in tight if i in ray_of_row))
        for tight in v.incidence
    )
    return Fan(h.dim, tuple(rays), cones)


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
    and does not enter the overall verdict.
    """

    simple: bool
    simple_witness: tuple[Fraction, ...] | None
    simple_witness_facets: int | None
    lattice_polytope: bool
    lattice_offender: tuple[Fraction, ...] | None
    smooth: bool
    smooth_witness: tuple[Fraction, ...] | None
    smooth_witness_det: Fraction | None
    overall: str


def _edge_neighbours(v: VPolytope, facet_set: frozenset[int], n: int) -> list[list[int]]:
    """neighbours[i] = vertex indices sharing n-1 tight facet rows with
    vertex i.  Valid where vertex i is simple."""
    tight = [frozenset(t) & facet_set for t in v.incidence]
    out: list[list[int]] = []
    for i in range(len(v.vertices)):
        out.append(
            [j for j in range(len(v.vertices)) if j != i and len(tight[i] & tight[j]) == n - 1]
        )
    return out


def delzant_check(
    h: HPolytope,
    v: VPolytope,
    lattice: Lattice,
    facet_rows: tuple[int, ...] | None = None,
) -> DelzantVerdict:
    """Simplicity, then the per-vertex edge determinant test.

    At a simple vertex the n primitive edge directions, written in
    lattice pairing coordinates, must form a matrix of determinant +-1.
    Non-simple polytopes are SINGULAR immediately, with the simplicity
    witness carried through.
    """
    if facet_rows is None:
        facet_rows = facet_defining_rows(h, v)
    simplicity = is_simple(h, v, facet_rows)
    lp = is_lattice_polytope(v, lattice)
    if not simplicity.simple:
        return DelzantVerdict(
            simple=False,
            simple_witness=simplicity.witness,
            simple_witness_facets=simplicity.witness_facets,
            lattice_polytope=lp.ok,
            lattice_offender=lp.offending,
            smooth=False,
            smooth_witness=None,
            smooth_witness_det=None,
            overall=SINGULAR,
        )
    n = h.dim
    neighbours = _edge_neighbours(v, frozenset(facet_rows), n)
    smooth = True
    witness = None
    witness_det = None
    for i, vertex in enumerate(v.vertices):
        if len(neighbours[i]) != n:
            raise ConsistencyError(
                f"simple vertex {vertex} has {len(neighbours[i])} edges, expected {n}"
            )
        edge_rows = []
        for j in neighbours[i]:
            d = [a - b for a, b in zip(v.vertices[j], vertex)]
            edge_rows.append(primitive_direction(lattice.basis.apply(d)))
        d_value = det(QMatrix(edge_rows))
        if abs(d_value) != 1:
            smooth = False
            witness = vertex
            witness_det = d_value
            break
    return DelzantVerdict(
        simple=True,
        simple_witness=None,
        simple_witness_facets=None,
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
