"""Correctness checks made apart from the program.

Nothing here calls graphtoric's algebra: rows, labellings, ranks,
determinants and lattice indices are re-derived from the edge list with
plain integers; ranks by exact fraction-free elimination.  The one
deliberate use of the program, comparing small census graphs with its
own independent brute-force enumerator, is made by run.py.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd, lcm

# Exhaustive 0/1 search over all 2^n edge labels up to this dimension.
EXHAUSTIVE_DIM = 12


class CheckFailed(Exception):
    """An output of the program disagrees with an independent result."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Plain integer algebra
# ---------------------------------------------------------------------------

def exact_rank(vectors) -> int:
    """Rank over Q by fraction-free elimination on integer rows."""
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col]
            if c:
                r = [p[col] * x - c * y for x, y in zip(rows[i], p)]
                g = gcd(*r)
                rows[i] = [x // g for x in r] if g else r
        rank += 1
    return rank


def int_det(rows) -> int:
    """Determinant of an integer matrix by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gf2_rank(masks) -> int:
    basis: list[int] = []
    for m in masks:
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
    return len(basis)


def scaled(point) -> tuple[int, tuple[int, ...]]:
    """(D, D*point) with D the common denominator."""
    d = lcm(*(x.denominator for x in point))
    return d, tuple(int(x * d) for x in point)


# ---------------------------------------------------------------------------
# Facts re-derived from the edge list
# ---------------------------------------------------------------------------

def triples(n_vertices: int, edges) -> list[list[int]]:
    """Incident edge indices per vertex, a loop's index listed twice."""
    out: list[list[int]] = [[] for _ in range(n_vertices)]
    for index, (u, v) in enumerate(edges):
        out[u].append(index)
        out[v].append(index)
    return out


def own_rows(n: int, trips) -> set[tuple[tuple[int, ...], int]]:
    """The tetrahedron inequalities a.x <= b, gcd-reduced."""
    rows = set()
    for t in trips:
        total = [0] * n
        for e in t:
            total[e] += 1
        rows.add(_reduce(total, 2))
        for skip in range(3):
            a = [0] * n
            for q, e in enumerate(t):
                a[e] += 1 if q == skip else -1  # -(x_a + x_b - x_c) <= 0
            rows.add(_reduce(a, 0))
    return rows


def _reduce(a, b):
    g = gcd(*a, b)
    return tuple(x // g for x in a), b // g


def own_labellings(n: int, trips) -> set[tuple[int, ...]]:
    """0/1 labels with an even label sum at every vertex (loops twice),
    found by a search that fixes edges in breadth-first order so each
    vertex is checked as soon as its edges are labelled."""
    order: list[int] = []
    for t in trips:
        for e in t:
            if e not in order:
                order.append(e)
    last_at: dict[int, list[list[int]]] = {}
    for t in trips:
        last_at.setdefault(max(order.index(e) for e in t), []).append(t)
    labels = [0] * n
    out: set[tuple[int, ...]] = set()

    def extend(k: int) -> None:
        if k == len(order):
            out.add(tuple(labels))
            return
        for value in (0, 1):
            labels[order[k]] = value
            if all(sum(labels[e] for e in t) % 2 == 0 for t in last_at.get(k, ())):
                extend(k + 1)

    extend(0)
    return out


def exhaustive_labellings(n: int, trips) -> set[tuple[int, ...]]:
    return {
        bits
        for bits in itertools.product((0, 1), repeat=n)
        if all(sum(bits[e] for e in t) % 2 == 0 for t in trips)
    }


def parity_rank(n: int, trips) -> int:
    """GF(2) rank of the trinion parity vectors (a loop cancels)."""
    masks = []
    for t in trips:
        m = 0
        for e in t:
            m ^= 1 << e
        masks.append(m)
    return gf2_rank(masks)


# ---------------------------------------------------------------------------
# The check of one analysed graph
# ---------------------------------------------------------------------------

def check_job(job, report, artifacts, json_text, copy=None) -> None:
    """Raise CheckFailed unless every output of one job is right.

    ``copy``, when given, holds the vertex and facet counts recorded in
    reference.json.
    """
    graph = job.graph
    n = graph.n_edges
    g = job.genus
    trips = triples(graph.n_vertices, graph.edges)
    rows = own_rows(n, trips)
    r = parity_rank(n, trips)
    loop_free = all(u != v for u, v in graph.edges)

    expect(report.genus == g and n == 3 * g - 3, "genus or dimension")
    expect(report.loop_free == loop_free, "loop-free flag")
    expect(report.ambient_dim == n, "ambient dimension")
    h = artifacts.hrep
    program_rows = [(row.a, row.b) for row in h.rows]
    expect(set(program_rows) == rows and len(program_rows) == len(rows), "H-rep rows")
    expect(report.covolume == Fraction(1, 2**r), f"covolume != 2^-{r}")
    expect(report.cube_vertex_count == 2**g, "cube vertex count != 2^g")
    labellings = own_labellings(n, trips)
    expect(len(labellings) == 2**g, "independent labelling count != 2^g")
    if n <= EXHAUSTIVE_DIM:
        expect(exhaustive_labellings(n, trips) == labellings, "exhaustive 0/1 search")
    if json_text is not None:
        _check_json(json_text, report, r)

    if job.skip_vertex_enum:
        expect(artifacts.vpoly is None and report.vertex_count is None, "skipped enumeration")
        return

    v = artifacts.vpoly
    verts = v.vertices
    expect(len(set(verts)) == len(verts) == report.vertex_count, "vertex count")
    rows_list = list(rows)
    tight_sets = []
    max_den = 1
    for idx, x in enumerate(verts):
        d, p = scaled(x)
        max_den = max(max_den, d)
        tight = []
        for k, (a, b) in enumerate(rows_list):
            s = sum(ai * pi for ai, pi in zip(a, p))
            expect(s <= b * d, f"vertex {idx} violates a row")
            if s == b * d:
                tight.append(k)
        expect(exact_rank([rows_list[k][0] for k in tight]) >= n, f"vertex {idx} has < n tight rows")
        program_tight = {program_rows[i] for i in v.incidence[idx]}
        expect(program_tight == {rows_list[k] for k in tight}, f"incidence of vertex {idx}")
        tight_sets.append(frozenset(tight))
    expect(report.max_vertex_denominator == max_den, "max vertex denominator")
    expect(report.affine_dim == n == v.dim, "affine dimension")
    zero_one = {
        tuple(int(c) for c in x) for x in verts if all(c in (0, 1) for c in x)
    }
    expect(zero_one == labellings, "0/1 vertices != labellings")

    facets = _own_facets(n, verts, rows_list, tight_sets)
    expect(len(facets) == report.facet_count, "facet count")
    expect(
        {program_rows[i] for i in artifacts.facet_rows} == {rows_list[k] for k in facets},
        "facet rows",
    )
    facet_count = [len(t & facets) for t in tight_sets]
    simple = all(c == n for c in facet_count)
    expect(report.simple == simple, "simplicity")
    if loop_free and g >= 3:
        origin = tuple(Fraction(0) for _ in range(n))
        expect(origin in verts, "origin is not a vertex")
        expect(facet_count[verts.index(origin)] == 6 * g - 6, "origin not on 6g-6 facets")
        expect(report.overall == "SINGULAR", "loop-free g >= 3 not SINGULAR")
    if loop_free and g == 2:
        expect(report.overall == "SMOOTH", "theta graph of genus 2 not SMOOTH")
    if simple:
        smooth = _own_delzant(n, verts, tight_sets, facets, trips, r)
        expect(report.overall == ("SMOOTH" if smooth else "SINGULAR"), "Delzant verdict")
    else:
        expect(report.overall == "SINGULAR" and report.smooth is False, "non-simple verdict")
    if copy is not None:
        expect(copy == {"vertices": len(verts), "facets": len(facets)}, "counts in reference.json")


def _own_facets(n, verts, rows_list, tight_sets) -> frozenset[int]:
    """Rows whose tight vertices span an affine hyperplane."""
    facets = set()
    for k in range(len(rows_list)):
        on = [verts[i] for i, t in enumerate(tight_sets) if k in t]
        if len(on) < n:
            continue
        d0, p0 = scaled(on[0])
        diffs = []
        for x in on[1:]:
            d, p = scaled(x)
            diffs.append([d0 * a - d * b for a, b in zip(p, p0)])
        if exact_rank(diffs) >= n - 1:
            facets.add(k)
    return frozenset(facets)


def _own_delzant(n, verts, tight_sets, facets, trips, r) -> bool:
    """Smoothness of a simple polytope: at each vertex the primitive edge
    vectors of the dual lattice L* must span a cell of volume 2^r, the
    index of L* in Z^n.  L* is the set of integer vectors whose label
    sum is even at every vertex of the graph."""
    on = [t & facets for t in tight_sets]
    for i, x in enumerate(verts):
        edges = []
        for j, y in enumerate(verts):
            if j != i and len(on[i] & on[j]) == n - 1:
                d, p = scaled(tuple(b - a for a, b in zip(x, y)))
                g = gcd(*p)
                p = [c // g for c in p]
                if any(sum(p[e] for e in t) % 2 for t in trips):
                    p = [2 * c for c in p]
                edges.append(p)
        expect(len(edges) == n, f"simple vertex {i} has {len(edges)} edges")
        if abs(int_det(edges)) != 2**r:
            return False
    return True


def _check_json(text: str, report, r: int) -> None:
    d = json.loads(text)
    expect(d["graph"]["genus"] == report.genus, "JSON genus")
    expect(d["lattice"]["covolume"] == ("1" if r == 0 else f"1/{2**r}"), "JSON covolume")
    expect(d["polytope"]["vertex_count"] == report.vertex_count, "JSON vertex count")
    expect(d["polytope"]["facet_count"] == report.facet_count, "JSON facet count")
    expect(d["polytope"]["cube_vertex_count"] == 2**report.genus, "JSON cube vertices")
    expect(d["verdict"]["overall"] == report.overall, "JSON verdict")
