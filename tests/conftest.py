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


@pytest.fixture(scope="session")
def bundles(theta2, theta3, theta4, dumbbell, k4):
    """Each graph's AnalysisArtifacts, taken through analyze_graph once."""
    graphs = dict(theta2=theta2, theta3=theta3, theta4=theta4, dumbbell=dumbbell, k4=k4)
    return {name: analyze_graph(graph)[1] for name, graph in graphs.items()}
