"""Budget and cancellation semantics of the solving API.

The contract under test (docs/api.md):

* ``SolveConfig.conflict_budget`` / ``propagation_budget`` /
  ``wall_clock_limit`` stop the search *cooperatively* at conflict or
  decision boundaries, returning BUDGET_EXHAUSTED / TIMEOUT with valid
  partial stats.
* A :class:`CancelToken` stops a solve from outside (status TIMEOUT).
* With no budget set, the search takes the exact unbudgeted code path
  (pinned bit-exactly by tests/test_solver_trajectories.py).
"""

import threading
import time

import pytest

from repro.bench.throughput import pigeonhole
from repro.coloring import ColoringProblem, complete_graph, cycle_graph
from repro.core import Strategy, solve_coloring
from repro.sat import CancelToken, SolveLimits, SolveStatus
from repro.sat.solver import CDCLSolver, SolverConfig

#: The CDCL engine under test, by test ID.
ENGINES = {"arena": CDCLSolver}


@pytest.fixture(params=ENGINES)
def engine(request):
    return ENGINES[request.param]


class TestConflictBudget:
    def test_stops_within_budget_with_partial_stats(self, engine):
        budget = 50
        solver = engine(pigeonhole(7),
                        SolverConfig(seed=1, conflict_budget=budget))
        result = solver.solve()
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        assert not result.is_sat and result.model is None
        assert result.stats["conflicts"] == budget
        assert result.stats["decisions"] > 0
        assert result.stats["propagations"] > 0
        assert result.stats["stop_reason"] == f"conflict budget {budget}"
        assert result.stats["solve_time"] >= 0.0

    def test_budget_larger_than_needed_solves_normally(self, engine):
        config = SolverConfig(seed=1, conflict_budget=10**9)
        result = engine(pigeonhole(4), config).solve()
        assert result.status is SolveStatus.UNSAT
        assert "stop_reason" not in result.stats

    def test_report_carries_status_and_reason(self, engine):
        config = SolverConfig(seed=1, conflict_budget=5)
        report = engine(pigeonhole(7), config).solve().report()
        assert report.status is SolveStatus.BUDGET_EXHAUSTED
        assert report.conflicts == 5
        assert "conflict budget" in report.detail


class TestPropagationBudget:
    def test_stops_soon_after_budget(self, engine):
        budget = 1000
        config = SolverConfig(seed=1, propagation_budget=budget)
        result = engine(pigeonhole(7), config).solve()
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        assert result.stats["propagations"] >= budget
        assert result.stats["stop_reason"] == f"propagation budget {budget}"


@pytest.mark.slow
class TestWallClock:
    def test_timeout_on_hard_instance(self, engine):
        # Acceptance criterion: pigeonhole(9) runs for minutes
        # unbudgeted; with wall_clock_limit=1.0 the call must come back
        # promptly with TIMEOUT and consistent partial stats.
        config = SolverConfig(seed=1, wall_clock_limit=1.0)
        start = time.perf_counter()
        result = engine(pigeonhole(9), config).solve()
        elapsed = time.perf_counter() - start
        assert result.status is SolveStatus.TIMEOUT
        assert elapsed < 2.0  # ~1.2s nominal; headroom for slow CI
        assert result.stats["stop_reason"] == "wall-clock limit"
        assert result.stats["conflicts"] > 0
        assert result.stats["solve_time"] == pytest.approx(elapsed, abs=0.5)


class TestCancelToken:
    def test_pre_cancelled_token_stops_immediately(self, engine):
        token = CancelToken()
        token.cancel()
        config = SolverConfig(seed=1)
        result = engine(pigeonhole(8), config).solve(cancel=token)
        assert result.status is SolveStatus.TIMEOUT
        assert result.stats["stop_reason"] == "cancelled"
        assert result.stats["conflicts"] <= 1

    def test_cancel_from_another_thread(self, engine):
        token = CancelToken()
        config = SolverConfig(seed=1)
        solver = engine(pigeonhole(9), config)
        timer = threading.Timer(0.2, token.cancel)
        timer.start()
        try:
            start = time.perf_counter()
            result = solver.solve(cancel=token)
            elapsed = time.perf_counter() - start
        finally:
            timer.cancel()
        assert result.status is SolveStatus.TIMEOUT
        assert result.stats["stop_reason"] == "cancelled"
        assert 0.1 < elapsed < 5.0


class TestSolveLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveLimits(conflict_budget=0)
        with pytest.raises(ValueError):
            SolveLimits(wall_clock_limit=-1.0)

    def test_merge_keeps_tighter_bound_per_axis(self):
        a = SolveLimits(conflict_budget=100, wall_clock_limit=10.0)
        b = SolveLimits(conflict_budget=50, propagation_budget=1000)
        merged = a.merge(b)
        assert merged.conflict_budget == 50
        assert merged.propagation_budget == 1000
        assert merged.wall_clock_limit == 10.0

    def test_with_wall_clock_tightens_only(self):
        limits = SolveLimits(wall_clock_limit=5.0)
        assert limits.with_wall_clock(2.0).wall_clock_limit == 2.0
        assert limits.with_wall_clock(60.0).wall_clock_limit == 5.0
        assert limits.with_wall_clock(None) is limits

    def test_as_config_kwargs_round_trip(self):
        limits = SolveLimits(conflict_budget=7, wall_clock_limit=1.5)
        config = SolverConfig(**limits.as_config_kwargs())
        assert config.conflict_budget == 7
        assert config.wall_clock_limit == 1.5
        assert config.budgeted


class TestPipelineBudgets:
    def test_solve_coloring_budget_exhausted(self):
        problem = ColoringProblem(complete_graph(11), 10)
        outcome = solve_coloring(problem, Strategy("muldirect", "none"),
                                 limits=SolveLimits(conflict_budget=30))
        assert outcome.status is SolveStatus.BUDGET_EXHAUSTED
        assert not outcome.is_sat
        assert outcome.coloring is None
        assert outcome.solver_stats["conflicts"] == 30
        assert outcome.report.status is SolveStatus.BUDGET_EXHAUSTED

    def test_solve_coloring_unbudgeted_unchanged(self):
        problem = ColoringProblem(cycle_graph(7), 3)
        outcome = solve_coloring(problem, Strategy("muldirect", "s1"))
        assert outcome.status is SolveStatus.SAT
        assert problem.is_valid_coloring(outcome.coloring)

    def test_wall_clock_covers_encoding(self):
        # An already-expired deadline must yield TIMEOUT without
        # starting the search at all.
        problem = ColoringProblem(cycle_graph(7), 3)
        token = CancelToken()
        token.cancel()
        outcome = solve_coloring(problem, Strategy("muldirect", "s1"),
                                 limits=SolveLimits(wall_clock_limit=100.0),
                                 cancel=token)
        assert outcome.status is SolveStatus.TIMEOUT
        assert outcome.solve_time == 0.0
