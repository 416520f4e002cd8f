"""Tests for strategies, the solving pipeline, and minimum-colors search."""

import pytest

from repro.coloring import ColoringProblem, complete_graph, cycle_graph
from repro.core import (BEST_SINGLE_STRATEGY, Strategy, minimum_colors,
                        solve_coloring)
from .strategies import make_random_graph


class TestStrategy:
    def test_label(self):
        assert Strategy("muldirect").label == "muldirect"
        assert Strategy("ITE-log", "s1").label == "ITE-log/s1"

    def test_validation_is_eager(self):
        with pytest.raises(ValueError):
            Strategy("nonsense")
        with pytest.raises(ValueError):
            Strategy("muldirect", "s9")
        with pytest.raises(ValueError):
            Strategy("muldirect", "s1", solver="chaff")

    def test_solver_config(self):
        config = Strategy("muldirect", solver="minisat_like", seed=7).solver_config()
        assert config.name == "minisat_like"
        assert config.seed == 7

    def test_paper_constants(self):
        assert BEST_SINGLE_STRATEGY.encoding == "ITE-linear-2+muldirect"
        assert BEST_SINGLE_STRATEGY.symmetry == "s1"

    def test_frozen(self):
        strategy = Strategy("muldirect")
        with pytest.raises(AttributeError):
            strategy.encoding = "log"


class TestSolveColoring:
    def test_sat_outcome(self):
        problem = ColoringProblem(cycle_graph(5), 3)
        outcome = solve_coloring(problem, Strategy("ITE-log", "s1"))
        assert outcome.is_sat
        assert problem.is_valid_coloring(outcome.coloring)
        assert outcome.num_vars > 0
        assert outcome.num_clauses > 0
        assert outcome.solve_time >= 0
        assert outcome.encode_time >= 0

    def test_unsat_outcome(self):
        problem = ColoringProblem(complete_graph(4), 3)
        outcome = solve_coloring(problem, Strategy("muldirect", "b1"))
        assert not outcome.is_sat
        assert outcome.coloring is None

    def test_total_time_includes_graph_time(self):
        problem = ColoringProblem(cycle_graph(4), 2)
        outcome = solve_coloring(problem, Strategy("log"), graph_time=1.5)
        assert outcome.total_time >= 1.5

    @pytest.mark.parametrize("solver", ["minisat_like", "siege_like"])
    def test_both_solver_presets(self, solver):
        problem = ColoringProblem(complete_graph(5), 4)
        outcome = solve_coloring(problem, Strategy("direct", solver=solver))
        assert not outcome.is_sat
        assert outcome.solver_stats["solver"] == solver


class TestMinimumColors:
    def test_complete_graph(self):
        problem = ColoringProblem(complete_graph(5), 1)
        assert minimum_colors(problem, Strategy("ITE-log", "s1")) == 5

    def test_odd_cycle(self):
        problem = ColoringProblem(cycle_graph(7), 1)
        assert minimum_colors(problem, Strategy("muldirect", "b1")) == 3

    def test_matches_oracle_on_random_graphs(self):
        from repro.coloring import chromatic_number
        strategy = Strategy("ITE-linear-2+muldirect", "s1")
        for seed in range(8):
            graph = make_random_graph(8, 0.5, seed=seed + 50)
            problem = ColoringProblem(graph, 1)
            assert minimum_colors(problem, strategy) == chromatic_number(graph)

    def test_empty_graph(self):
        from repro.coloring import Graph
        problem = ColoringProblem(Graph(0), 1)
        assert minimum_colors(problem, Strategy("log")) == 0

    def test_respects_explicit_bounds(self):
        problem = ColoringProblem(complete_graph(4), 1)
        assert minimum_colors(problem, Strategy("direct"), lower=4, upper=6) == 4

    @pytest.mark.parametrize("encoding", ["muldirect", "log", "ITE-linear",
                                          "ITE-log-2+muldirect"])
    def test_across_encodings(self, encoding):
        from repro.coloring import chromatic_number
        graph = make_random_graph(8, 0.5, 21)
        problem = ColoringProblem(graph, 1)
        assert minimum_colors(problem, Strategy(encoding, "s1")) \
            == chromatic_number(graph)

    def test_undecided_probe_raises(self, monkeypatch):
        # Clique bound 3, DSATUR bound 4, chromatic number 3: the one
        # probe, K=3, crashes.  Taking its ERROR as UNSAT would answer 4.
        from repro.sat.solver.cdcl import BudgetExceeded
        monkeypatch.setenv("REPRO_FAULTS", "seed=1; crash@solver")
        problem = ColoringProblem(make_random_graph(8, 0.35, 196), 1)
        with pytest.raises(BudgetExceeded,
                           match=r"stopped: ERROR \(W in \[3, 4\]\)"):
            minimum_colors(problem, Strategy("ITE-log", "s1"))
