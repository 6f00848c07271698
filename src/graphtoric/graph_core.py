"""Connected trivalent graphs with loops and multi-edges allowed.

A loop counts twice toward the degree of its vertex, so a trivalent graph
of genus g = |E| - |V| + 1 always has 3g-3 edges and 2g-2 vertices.  Each
vertex stands for a pair of pants (trinion) and each edge for one of the
3g-3 curves along which the trinions of a genus-g surface are glued; the
per-vertex triples of incident edge indices drive everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import Iterable, NamedTuple


class GraphError(Exception):
    """Invalid trivalent graph data."""


class DegreeViolation(GraphError):
    def __init__(self, vertex: int, degree: int):
        super().__init__(f"vertex {vertex} has degree {degree}, expected 3")
        self.vertex = vertex
        self.degree = degree


class Disconnected(GraphError):
    def __init__(self):
        super().__init__("graph is not connected")


class GenusTooSmall(GraphError):
    def __init__(self, genus: int):
        super().__init__(f"genus {genus} is below the minimum of 2")
        self.genus = genus


class GraphSyntaxError(GraphError):
    def __init__(self, line_no: int, text: str):
        super().__init__(f"line {line_no}: expected two non-negative integers, got {text!r}")
        self.line_no = line_no


class TrinionTriple(NamedTuple):
    """Sorted edge indices of the three boundary circles at one vertex.

    A loop's index appears twice, so the multiset of all triples contains
    every edge index exactly twice.
    """

    vertex: int
    edges: tuple[int, int, int]


@dataclass(frozen=True)
class TrivalentGraph:
    """A validated trivalent graph; immutable after construction.

    Vertices are 0..n_vertices-1 and an edge is an unordered endpoint
    pair; the edge index is the position in ``edges``.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    # from validation's walk: each vertex's tree-path mask (cycle_basis and
    # the vertex stage read it), and the triples in the walk's order
    _paths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _triples: tuple[TrinionTriple, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", _integer_edges(self.edges))
        if self.n_vertices <= 0:
            raise GraphError("graph has no vertices")
        # Degrees live in a dict, so a huge vertex id costs no memory.  The
        # scan stops within 2|E|+1 steps when some degree is wrong, and
        # otherwise n <= 2|E| bounds every list sized by n below.
        degree: dict[int, int] = {}
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside the vertex range")
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for vertex in range(self.n_vertices):
            if degree.get(vertex, 0) != 3:
                raise DegreeViolation(vertex, degree.get(vertex, 0))
        paths, triples = _tree_paths(self.n_vertices, self.edges)
        if None in paths:
            raise Disconnected()
        object.__setattr__(self, "_paths", tuple(paths))
        object.__setattr__(self, "_triples", triples)
        if self.genus < 2:
            raise GenusTooSmall(self.genus)

    @property
    def genus(self) -> int:
        return len(self.edges) - self.n_vertices + 1

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_loop_free(self) -> bool:
        return all(u != v for u, v in self.edges)

    def cycle_basis(self) -> list[int]:
        """The fundamental cycles of the spanning tree, as edge bitmasks.

        A non-tree edge closes one cycle with the tree paths to its ends,
        and a loop is a cycle on its own.  Each mask holds only its own
        non-tree edge, so the genus many masks are independent and span,
        over GF(2), the edge sets meeting each vertex evenly (loops twice).
        """
        return [mask for mask, _, _ in self._cycles]

    @cached_property
    def _cycles(self) -> tuple[tuple[int, int, int], ...]:
        """Per fundamental cycle: (mask, non-tree edge bit, tree path to its first end)."""
        p = self._paths
        cycles = [((1 << i) ^ p[u] ^ p[v], 1 << i, p[u]) for i, (u, v) in enumerate(self.edges)]
        return tuple(c for c in cycles if c[0])

    def trinion_triples(self) -> tuple[TrinionTriple, ...]:
        """One sorted triple of incident edge indices per vertex, in walk
        order: vertex 0, then each vertex as the spanning-tree walk first
        reaches it, so each is adjacent to an earlier one.  Validation
        builds the tuple once."""
        return self._triples


def validate(edges: Iterable[tuple[int, int]]) -> TrivalentGraph:
    """Build a TrivalentGraph from raw endpoint pairs.

    The vertex set is {0, ..., m}, m the largest endpoint, so a vertex id
    missing from the edge list surfaces as DegreeViolation(v, 0).  For an
    explicit vertex count, build ``TrivalentGraph(n, edges)`` directly.
    """
    edge_list = _integer_edges(edges)
    if not edge_list:
        raise GraphError("graph has no edges")
    return TrivalentGraph(max(map(max, edge_list)) + 1, edge_list)


def _integer_edges(edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Endpoint pairs as int pairs, by operator.index: a float, a string or
    any other non-integer endpoint is a GraphError, never truncated."""
    pairs = []
    for u, v in edges:
        try:
            pairs.append((index(u), index(v)))
        except TypeError:
            raise GraphError(f"edge ({u!r}, {v!r}) has a non-integer endpoint") from None
    return tuple(pairs)


def multi_theta(g: int) -> TrivalentGraph:
    """The genus-g graph of a vertical oval crossed by g-1 horizontal edges.

    Vertices form two columns of g-1, numbered left column top-down then
    right column top-down.  The oval runs down the left column, across,
    up the right column and back, so the top and the bottom vertex pairs
    carry double edges; for g=2 the whole thing collapses to two vertices
    joined by a triple edge.  Edge order: oval edges along the traversal,
    then horizontal edges top-down.
    """
    if g < 2:
        raise GenusTooSmall(g)
    k = g - 1
    left = list(range(k))
    right = list(range(k, 2 * k))
    cycle = left + right[::-1]
    oval = [
        (min(a, b), max(a, b))
        for a, b in zip(cycle, cycle[1:] + cycle[:1])
    ]
    horizontal = [(left[i], right[i]) for i in range(k)]
    return TrivalentGraph(2 * k, tuple(oval + horizontal))


def parse_graph(text: str) -> TrivalentGraph:
    """Parse the plain text edge-list format.

    One edge per line as two whitespace-separated non-negative integers
    written in ASCII digits; blank lines and ``#`` comments, which may hold
    any text, are ignored; the edge index is the 0-based position among
    the edge lines.
    """
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        # only the tokens must be ASCII digits (isdigit alone also takes
        # superscripts and other scripts' digits); a comment may hold any text
        if len(parts) != 2 or not (
            parts[0].isdigit() and parts[1].isdigit() and parts[0].isascii() and parts[1].isascii()
        ):
            raise GraphSyntaxError(line_no, raw.strip())
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:  # more digits than int() converts
            raise GraphSyntaxError(line_no, raw.strip()) from None
    if not edges:
        raise GraphError("no edges found in graph text")
    return validate(edges)


def serialize_graph(graph: TrivalentGraph) -> str:
    """Inverse of parse_graph on validated graphs; edge order preserved."""
    return "".join(f"{u} {v}\n" for u, v in graph.edges)


def _tree_paths(
    n: int, edges: tuple[tuple[int, int], ...]
) -> tuple[list[int | None], tuple[TrinionTriple, ...]]:
    """Per vertex, the bitmask of the spanning-tree edges on its path from
    vertex 0, or None when the walk from vertex 0 does not reach it; and
    each reached vertex's trinion triple, in the order the walk reaches it."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for index, (u, v) in enumerate(edges):
        adjacency[u].append((v, index))
        adjacency[v].append((u, index))
    path: list[int | None] = [None] * n
    path[0] = 0
    walk = [0]
    stack = [0]  # depth-first: the walk order is the row order build_hrep writes
    while stack:
        x = stack.pop()
        for y, index in adjacency[x]:
            if path[y] is None:
                path[y] = path[x] ^ (1 << index)
                walk.append(y)
                stack.append(y)
    # adjacency[x] holds x's three edges in index order, a loop's twice
    triples = []
    for x in walk:
        (_, a), (_, b), (_, c) = adjacency[x]
        triples.append(TrinionTriple(x, (a, b, c)))
    return path, tuple(triples)
