"""Exact moment polytopes, lattices, and toric smoothness verdicts for
trivalent graphs.

A trivalent graph of genus g determines an inequality system in
dimension 3g-3 (one tetrahedron block per graph vertex), a lattice
refining Z^n by trinion half-sums, and a normal fan.  This package
computes all three exactly over the rationals and decides whether the
associated toric variety is smooth.
"""

from .exactmath import det, hnf, inverse, primitive, primitive_direction
from .graph_core import (
    DegreeViolation,
    Disconnected,
    GenusTooSmall,
    GraphError,
    GraphSyntaxError,
    TrivalentGraph,
    TrinionTriple,
    multi_theta,
    parse_graph,
    serialize_graph,
    validate,
)
from .lattice_fan import (
    ConsistencyError,
    DelzantVerdict,
    Fan,
    Lattice,
    LatticePolytopeVerdict,
    build_lattice,
    delzant_check,
    is_lattice_point,
    is_lattice_polytope,
    map_fan,
    normal_fan,
)
from .polytope import (
    HPolytope,
    NotFullDimensional,
    SimplicityVerdict,
    VPolytope,
    brute_force_vertices,
    build_hrep,
    contains,
    cube_vertex_labellings,
    enumerate_vertices,
    facet_defining_rows,
    format_hrep,
    format_vrep,
    is_simple,
)
from .cli import AnalysisReport, analyze_graph

__all__ = [
    "AnalysisReport",
    "ConsistencyError",
    "DegreeViolation",
    "DelzantVerdict",
    "Disconnected",
    "Fan",
    "GenusTooSmall",
    "GraphError",
    "GraphSyntaxError",
    "HPolytope",
    "Lattice",
    "LatticePolytopeVerdict",
    "NotFullDimensional",
    "SimplicityVerdict",
    "TrinionTriple",
    "TrivalentGraph",
    "VPolytope",
    "analyze_graph",
    "brute_force_vertices",
    "build_hrep",
    "build_lattice",
    "contains",
    "cube_vertex_labellings",
    "delzant_check",
    "det",
    "enumerate_vertices",
    "facet_defining_rows",
    "format_hrep",
    "format_vrep",
    "hnf",
    "inverse",
    "is_lattice_point",
    "is_lattice_polytope",
    "is_simple",
    "map_fan",
    "multi_theta",
    "normal_fan",
    "parse_graph",
    "primitive",
    "primitive_direction",
    "serialize_graph",
    "validate",
]
