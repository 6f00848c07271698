"""Randomized invariant suites.

Each suite is a plain function returning the number of cases it ran, so
the acceptance tests can execute the same loops under a time budget.
All randomness is seeded; reruns are identical.
"""

import dataclasses
import random
from fractions import Fraction

from graphtoric.cli import analyze_graph
from graphtoric.exactmath import det, hnf
from graphtoric.polytope import build_hrep, enumerate_vertices
from helpers import gauss_rank, matmul, random_trivalent_graph

F = Fraction


def run_boundedness_suite(cases=100, seed=101) -> int:
    """Every vertex of a graph polytope lies in the unit cube, and the
    origin is always among the vertices."""
    rng = random.Random(seed)
    for i in range(cases):
        graph = random_trivalent_graph(rng, 4 if i % 2 else 2)
        v = enumerate_vertices(graph, build_hrep(graph))
        origin = (F(0),) * graph.n_edges
        assert origin in v.vertices
        for p in v.vertices:
            assert all(0 <= x <= 1 for x in p)
    return cases


def run_hnf_suite(cases=100, seed=202) -> int:
    """U*m = H, U unimodular, row space preserved, pivots reduced."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(n)]
        h, u = hnf(rows)
        assert matmul(u, rows) == h
        assert abs(det(u)) == 1
        assert gauss_rank(rows) == gauss_rank([list(r) for r in rows] + [list(r) for r in h])
        nonzero = [r for r in h if any(r)]
        pivot_cols = []
        for r in nonzero:
            c = next(i for i, x in enumerate(r) if x)
            assert r[c] > 0
            pivot_cols.append(c)
        assert pivot_cols == sorted(pivot_cols)
        for ri, r in enumerate(nonzero):
            for other in nonzero[ri + 1 :]:
                c = next(i for i, x in enumerate(other) if x)
                assert 0 <= r[c] < other[c]
        if n == cols:
            assert det(u) * det(rows) == det(h)
    return cases


def _comparable(report):
    return dataclasses.replace(report, elapsed_ms=0, simple_witness=None)


def run_report_determinism_suite(cases=100, seed=303) -> int:
    """Re-running the pipeline reproduces the identical report, and the
    JSON form round-trips losslessly."""
    from graphtoric.cli import AnalysisReport

    rng = random.Random(seed)
    for i in range(cases):
        graph = random_trivalent_graph(rng, 4 if i % 2 else 2)
        first, _ = analyze_graph(graph)
        second, _ = analyze_graph(graph)
        assert _comparable(first) == _comparable(second)
        assert first.to_json() == dataclasses.replace(
            second, elapsed_ms=first.elapsed_ms
        ).to_json()
        assert AnalysisReport.from_json(first.to_json()) == first
    return cases


def run_relabel_suite(cases=100, seed=404) -> int:
    """Permuting the edge order of a graph permutes coordinates only;
    every reported fact except witnesses is unchanged."""
    rng = random.Random(seed)
    for i in range(cases):
        graph = random_trivalent_graph(rng, 4 if i % 2 else 2)
        perm = rng.sample(range(graph.n_edges), graph.n_edges)
        shuffled = dataclasses.replace(
            graph, edges=tuple(graph.edges[j] for j in perm)
        )
        base, _ = analyze_graph(graph)
        other, _ = analyze_graph(shuffled)
        assert _comparable(base) == _comparable(other)
    return cases


def test_boundedness_suite():
    assert run_boundedness_suite() >= 100


def test_hnf_suite():
    assert run_hnf_suite() >= 100


def test_report_determinism_suite():
    assert run_report_determinism_suite() >= 100


def test_relabel_suite():
    assert run_relabel_suite() >= 100
