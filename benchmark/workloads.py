"""Seeded inputs of the three workloads.

Every input is a function of (workload name, seed) alone; the program
only ever sees the generated graphs.  ``build_jobs`` is also what the
fresh interpreters of the set-up measurement run, so set-up time covers
generating, validating and serialising exactly these graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from graphtoric.graph_core import (
    TrivalentGraph,
    multi_theta,
    parse_graph,
    serialize_graph,
    validate,
)

WORKLOADS = ("theta-ladder", "random-census", "cheap-facts")

# theta-ladder: the paper's DM_g family; g = 6 dominates a pass.
THETA_LADDER = range(2, 7)
# random-census: genus -> graphs per pass.  Many small calls; genus 2
# brings the loop rows with coefficient 2 and the SMOOTH determinant
# path.  A job takes about 2 ms at genus 2, 12-16 ms at genus 3 and
# 45-100 ms at genus 4, so with as many genus-2 as genus-4 graphs the
# median job is the middle genus-3 job: job_s.p50 is a small call,
# where per-call overhead shows, and pass_s is mostly genus 4.  The
# genus-4 graphs a seed draws set pass_s: with 20 of them it spread by
# 8.6% over ten seeds, so there are 40.  Genus 5
# is left out: its cost varies by +-25% with the graph and its edge
# order, so a dozen of them moved pass_s by 10% from one seed to the
# next; theta-5 in theta-ladder covers that size.
CENSUS = {2: 40, 3: 60, 4: 40}
# cheap-facts: vertex enumeration skipped, labellings/HNF/H-rep remain.
# Random graphs: genus -> count.  The median job lies in the middle of
# the block of genus 9: about as many jobs are faster (genus 8) as are
# slower (genus 10 to 12, and the theta graphs).  With equal counts the
# median fell between two blocks and moved by 20% from one seed to the
# next.  Genus 9 because its cost varies least from graph to graph: the
# quartiles of 30 random graphs lay 14% apart at genus 9, 26% at genus
# 10 and 33% at genus 11.
CHEAP_THETA = range(8, 11)
CHEAP_RANDOM = {8: 8, 9: 20, 10: 3, 11: 2, 12: 2}


@dataclass(frozen=True)
class Job:
    """One graph to analyse.

    ``text`` is set for jobs that start from the file format; those jobs
    parse it and end in a JSON report.  Otherwise ``graph`` is analysed
    directly.
    """

    label: str
    genus: int
    graph: TrivalentGraph
    text: str | None = None
    skip_vertex_enum: bool = False


def random_edges(rng: random.Random, genus: int) -> list[tuple[int, int]]:
    """A uniformly paired stub configuration on 2g-2 vertices, redrawn
    until connected.  Loops and multi-edges are kept."""
    n = 2 * genus - 2
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [tuple(sorted(stubs[i : i + 2])) for i in range(0, 3 * n, 2)]
        if _connected(n, edges):
            return edges


def breadth_first(n: int, edges) -> list[tuple[int, int]]:
    """The same graph with vertices renumbered in breadth-first order
    from vertex 0 and the edge list sorted.

    In stub order the labelling search on a random genus-12 graph takes
    from 0.1 s to 4.5 s, which would swamp the HNF and H-rep work these
    graphs are in cheap-facts for; multi_theta keeps the search's bad
    case in that workload.
    """
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    order = [0]
    for x in order:
        for y in adjacent[x]:
            if y not in order:
                order.append(y)
    new = {v: i for i, v in enumerate(order)}
    return sorted(tuple(sorted((new[u], new[v]))) for u, v in edges)


def _connected(n: int, edges) -> bool:
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for y in adjacent[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def from_text(edges) -> tuple[TrivalentGraph, str]:
    """The graph on ``edges`` serialised, and read back through
    parse_graph, which validates it; returns (graph, text)."""
    text = serialize_graph(validate(edges))
    return parse_graph(text), text


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of one pass, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    if workload == "theta-ladder":
        for g in THETA_LADDER:
            graph, _ = from_text(multi_theta(g).edges)
            jobs.append(Job(f"theta-{g}", g, graph))
    elif workload == "random-census":
        for g, count in CENSUS.items():
            for i in range(count):
                graph, text = from_text(random_edges(rng, g))
                jobs.append(Job(f"census-g{g}-{i}", g, graph, text=text))
    elif workload == "cheap-facts":
        for g in CHEAP_THETA:
            graph, _ = from_text(multi_theta(g).edges)
            jobs.append(Job(f"theta-{g}", g, graph, skip_vertex_enum=True))
        for g, count in CHEAP_RANDOM.items():
            for i in range(count):
                graph, _ = from_text(breadth_first(2 * g - 2, random_edges(rng, g)))
                jobs.append(Job(f"random-g{g}-{i}", g, graph, skip_vertex_enum=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs
