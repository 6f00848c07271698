import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graphtoric.cli import analyze_graph
from graphtoric.graph_core import TrivalentGraph, multi_theta


@pytest.fixture(scope="session")
def theta2():
    return multi_theta(2)


@pytest.fixture(scope="session")
def theta3():
    return multi_theta(3)


@pytest.fixture(scope="session")
def theta4():
    return multi_theta(4)


@pytest.fixture(scope="session")
def dumbbell():
    return TrivalentGraph(2, ((0, 0), (0, 1), (1, 1)))


@pytest.fixture(scope="session")
def k4():
    return TrivalentGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


class Bundle:
    """One graph taken through the whole pipeline (analyze_graph), once."""

    def __init__(self, graph):
        _, art = analyze_graph(graph)
        self.graph = art.graph
        self.h = art.hrep
        self.v = art.vpoly
        self.facet_rows = art.facet_rows
        self.lattice = art.lattice
        self.verdict = art.verdict


@pytest.fixture(scope="session")
def bundles(theta2, theta3, theta4, dumbbell, k4):
    return {
        "theta2": Bundle(theta2),
        "theta3": Bundle(theta3),
        "theta4": Bundle(theta4),
        "dumbbell": Bundle(dumbbell),
        "k4": Bundle(k4),
    }
