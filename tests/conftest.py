"""Shared fixtures for the test suite.

The instance builders and hypothesis strategies live in
:mod:`tests.strategies`; they are re-exported here so existing
``from .conftest import ...`` imports keep working.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.coloring import Graph

from .strategies import (make_random_cnf, make_random_graph, small_cnfs,
                         small_graphs)

__all__ = ["make_random_cnf", "make_random_graph", "small_cnfs",
           "small_graphs", "triangle", "square", "pentagon"]


@pytest.fixture
def no_live_workers():
    """Fail the test if a worker process it started is still alive after
    it: every pool must stop all its workers before its call returns.
    Survivors are killed, so one leak does not fail the tests after it."""
    yield
    survivors = multiprocessing.active_children()
    for child in survivors:
        child.kill()
        child.join(timeout=5)
    assert not survivors, f"worker processes outlived the test: {survivors}"


@pytest.fixture
def triangle() -> Graph:
    """K3 — chromatic number 3."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def square() -> Graph:
    """C4 — bipartite, chromatic number 2."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def pentagon() -> Graph:
    """C5 — odd cycle, chromatic number 3, clique number 2."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
