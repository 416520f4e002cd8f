"""Tests for greedy colorings, clique bounds and the exact oracle."""

import pytest
from hypothesis import given, settings

from repro.coloring import (chromatic_number, clique_lower_bound,
                            complete_graph, cycle_graph, dsatur_coloring,
                            find_coloring, greedy_clique, greedy_coloring,
                            greedy_num_colors, is_colorable, Graph)
from repro.fpga import mcnc
from repro.fpga.detailed import build_conflict_graph
from .strategies import make_random_graph, small_graphs


def reference_dsatur(graph):
    """DSATUR as a plain O(V^2) scan: colour the uncoloured vertex of
    most distinct neighbour colours, then highest degree, then lowest id,
    with the smallest colour its neighbours leave free."""
    coloring = {}
    saturation = [set() for _ in range(graph.num_vertices)]
    uncolored = set(range(graph.num_vertices))
    while uncolored:
        v = max(uncolored,
                key=lambda u: (len(saturation[u]), graph.degree(u), -u))
        color = 0
        while color in saturation[v]:
            color += 1
        coloring[v] = color
        uncolored.remove(v)
        for u in graph.neighbors(v):
            saturation[u].add(color)
    return coloring


class TestGreedyColoring:
    def test_produces_proper_coloring(self, pentagon):
        coloring = greedy_coloring(pentagon)
        for u, v in pentagon.edges():
            assert coloring[u] != coloring[v]

    def test_respects_custom_order(self):
        graph = Graph(3, [(0, 1)])
        coloring = greedy_coloring(graph, order=[2, 1, 0])
        assert set(coloring) == {0, 1, 2}

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            greedy_coloring(Graph(3), order=[0, 1])

    @given(small_graphs())
    def test_always_proper(self, graph):
        coloring = greedy_coloring(graph)
        for u, v in graph.edges():
            assert coloring[u] != coloring[v]


class TestDsatur:
    def test_bipartite_uses_two_colors(self, square):
        assert max(dsatur_coloring(square).values()) + 1 == 2

    def test_complete_graph_uses_n(self):
        assert greedy_num_colors(complete_graph(5)) == 5

    def test_empty_graph(self):
        assert greedy_num_colors(Graph(0)) == 0
        assert greedy_num_colors(Graph(3)) == 1

    @given(small_graphs())
    def test_proper_and_upper_bounds_chromatic(self, graph):
        coloring = dsatur_coloring(graph)
        for u, v in graph.edges():
            assert coloring[u] != coloring[v]
        if graph.num_vertices:
            assert greedy_num_colors(graph) >= chromatic_number(graph)


class TestDsaturMatchesReference:
    """The width search's upper bound must not move: DSATUR picks the
    same vertex, and so the same colouring, as the reference scan."""

    def test_random_graphs(self):
        for seed in range(200):
            graph = make_random_graph(5 + seed % 40,
                                      (1 + seed % 9) / 10, seed)
            assert dsatur_coloring(graph) == reference_dsatur(graph)

    def test_routing_conflict_graphs(self):
        for name in mcnc.ALL_BENCHMARKS:
            for scale in (0.5, 1.0):
                graph = build_conflict_graph(mcnc.load_routing(name, scale))
                assert dsatur_coloring(graph) == reference_dsatur(graph)

    def test_mcnc_upper_bounds_pinned(self):
        bounds = [greedy_num_colors(build_conflict_graph(
            mcnc.load_routing(name))) for name in mcnc.ALL_BENCHMARKS]
        assert bounds == [7, 8, 9, 8, 11, 9, 9, 9, 6, 5, 7, 6]


class TestClique:
    def test_complete_graph(self):
        assert clique_lower_bound(complete_graph(6)) == 6

    def test_cycle(self, pentagon):
        assert clique_lower_bound(pentagon) == 2

    @given(small_graphs())
    def test_clique_is_clique_and_bounds_chromatic(self, graph):
        clique = greedy_clique(graph)
        assert graph.subgraph_is_clique(clique)
        if graph.num_vertices:
            assert len(clique) <= chromatic_number(graph)


class TestExactOracle:
    def test_triangle(self, triangle):
        assert chromatic_number(triangle) == 3
        assert not is_colorable(triangle, 2)
        assert is_colorable(triangle, 3)

    def test_odd_cycle_needs_three(self, pentagon):
        assert chromatic_number(pentagon) == 3

    def test_even_cycle_needs_two(self, square):
        assert chromatic_number(square) == 2

    def test_complete_graph(self):
        assert chromatic_number(complete_graph(5)) == 5

    def test_empty_and_edgeless(self):
        assert chromatic_number(Graph(0)) == 0
        assert chromatic_number(Graph(4)) == 1

    def test_found_coloring_is_proper(self, pentagon):
        coloring = find_coloring(pentagon, 3)
        assert coloring is not None
        for u, v in pentagon.edges():
            assert coloring[u] != coloring[v]

    def test_infeasible_returns_none(self, triangle):
        assert find_coloring(triangle, 2) is None

    def test_refuses_large_graphs(self):
        with pytest.raises(ValueError):
            find_coloring(Graph(20), 2)

    def test_rejects_zero_colors(self, triangle):
        with pytest.raises(ValueError):
            find_coloring(triangle, 0)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_vertices=7))
    def test_monotone_in_colors(self, graph):
        chi = chromatic_number(graph)
        assert not is_colorable(graph, chi - 1) if chi > 1 else True
        assert is_colorable(graph, chi)
        assert is_colorable(graph, chi + 1)
