"""Tests for portfolio execution and the virtual-portfolio model."""

import os
import time

import pytest

from repro.coloring import ColoringProblem, complete_graph, cycle_graph
from repro.core import (PORTFOLIO_2, PORTFOLIO_3, Strategy,
                        portfolio_speedup, run_portfolio,
                        virtual_portfolio_time)
from repro.core import portfolio as portfolio_module
from repro.core.pipeline import solve_coloring
from repro.sat import SolveLimits, SolveStatus


@pytest.fixture(autouse=True)
def _no_worker_outlives_a_test(no_live_workers):
    """No worker process of any pool outlives a test (see conftest)."""


class TestPaperPortfolios:
    def test_members(self):
        assert len(PORTFOLIO_2) == 2
        assert len(PORTFOLIO_3) == 3
        assert PORTFOLIO_2[0].label == "ITE-linear-2+muldirect/s1"
        assert PORTFOLIO_3[2].label == "ITE-linear-2+direct/s1#2"
        assert all(s.symmetry == "s1" for s in PORTFOLIO_3)
        # Members carry distinct seeds (search-trajectory diversity).
        assert len({s.seed for s in PORTFOLIO_3}) == 3

    def test_labels_unique_across_solver_and_seed(self):
        a = Strategy("muldirect", "s1", solver="siege_like")
        b = Strategy("muldirect", "s1", solver="minisat_like")
        c = Strategy("muldirect", "s1", seed=3)
        assert len({a.label, b.label, c.label}) == 3


class TestRunPortfolio:
    def test_sat_instance(self):
        problem = ColoringProblem(cycle_graph(9), 3)
        result = run_portfolio(problem, list(PORTFOLIO_3))
        assert result.status is SolveStatus.SAT
        assert result.decided
        assert result.outcome.is_sat
        assert result.num_strategies == 3
        assert result.winner in PORTFOLIO_3
        assert problem.is_valid_coloring(result.outcome.coloring)
        assert result.report.status is SolveStatus.SAT
        assert result.winner.label in result.report.detail

    def test_unsat_instance(self):
        problem = ColoringProblem(complete_graph(5), 4)
        result = run_portfolio(problem, list(PORTFOLIO_2))
        assert result.status is SolveStatus.UNSAT
        assert not result.outcome.is_sat

    def test_single_strategy_portfolio(self):
        problem = ColoringProblem(cycle_graph(5), 3)
        strategy = Strategy("muldirect", "s1")
        result = run_portfolio(problem, [strategy])
        assert result.winner == strategy
        assert result.member_status[strategy.label] is SolveStatus.SAT

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            run_portfolio(ColoringProblem(cycle_graph(5), 3), [])


@pytest.mark.slow
class TestPortfolioDeadlines:
    """Bounded races: every member stopping is a representable outcome."""

    # K11 with 10 colors and *no* symmetry breaking is pigeonhole-hard:
    # far beyond these deadlines for every member, yet small to encode.
    def setup_method(self):
        self.problem = ColoringProblem(complete_graph(11), 10)
        self.members = [Strategy("muldirect", "none"),
                        Strategy("muldirect", "none", seed=2)]

    def test_all_members_time_out(self):
        # No member decides within the deadline; the race must come
        # back with TIMEOUT for everyone, not raise or hang.
        start = time.perf_counter()
        result = run_portfolio(self.problem, self.members, timeout=0.4)
        elapsed = time.perf_counter() - start
        assert result.status is SolveStatus.TIMEOUT
        assert result.winner is None and result.outcome is None
        assert not result.decided
        assert len(result.member_status) == 2
        assert all(s is SolveStatus.TIMEOUT
                   for s in result.member_status.values())
        assert elapsed < 10.0  # cooperative wind-down, no hard kill path

    def test_all_members_exhaust_conflict_budget(self):
        limits = SolveLimits(conflict_budget=10)
        result = run_portfolio(self.problem, self.members, limits=limits)
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        assert result.winner is None
        assert all(s is SolveStatus.BUDGET_EXHAUSTED
                   for s in result.member_status.values())

    def test_winner_inside_deadline(self):
        problem = ColoringProblem(cycle_graph(9), 3)
        result = run_portfolio(problem, list(PORTFOLIO_2), timeout=60.0)
        assert result.status is SolveStatus.SAT
        assert result.winner is not None


# Seeds recognised by _sick_solve to inject worker misbehaviour.  The
# patch relies on fork-start workers inheriting the parent's (patched)
# module state, so these tests are skipped where fork is unavailable.
_RAISE_SEED = 90001
_DIE_SEED = 90002
_HANG_SEED = 90003


def _sick_solve(problem, strategy, graph_time=0.0, **kwargs):
    if strategy.seed == _RAISE_SEED:
        raise ValueError("injected failure")
    if strategy.seed == _DIE_SEED:
        os._exit(17)  # vanish without reporting, like a crash/OOM kill
    if strategy.seed == _HANG_SEED:
        time.sleep(600)  # stuck outside the solver: ignores the token
    return solve_coloring(problem, strategy, graph_time=graph_time, **kwargs)


fork_only = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="failure injection requires fork-start workers")


@fork_only
class TestSickMembers:
    """The first-to-finish race must survive failing and dying workers."""

    @pytest.fixture(autouse=True)
    def _patch_worker_solve(self, monkeypatch):
        monkeypatch.setattr(portfolio_module, "solve_coloring", _sick_solve)

    def setup_method(self):
        self.problem = ColoringProblem(cycle_graph(9), 3)
        self.healthy = Strategy("muldirect", "s1")

    def test_failing_member_does_not_win(self):
        # The failer reports (an error) long before the healthy member
        # solves; the race must keep waiting and return the real answer.
        failer = Strategy("muldirect", "s1", seed=_RAISE_SEED)
        result = run_portfolio(self.problem, [failer, self.healthy])
        assert result.winner == self.healthy
        assert result.outcome.is_sat

    def test_dead_worker_cannot_hang_the_race(self):
        dier = Strategy("muldirect", "s1", seed=_DIE_SEED)
        result = run_portfolio(self.problem, [dier, self.healthy],
                               timeout=60.0)
        assert result.winner == self.healthy
        assert result.outcome.is_sat

    def test_all_members_failing_is_error_status(self):
        failers = [Strategy("muldirect", "s1", seed=_RAISE_SEED),
                   Strategy("muldirect", "b1", seed=_RAISE_SEED)]
        result = run_portfolio(self.problem, failers)
        assert result.status is SolveStatus.ERROR
        assert result.winner is None and result.outcome is None
        assert len(result.failures) == 2
        assert all("injected failure" in reason
                   for reason in result.failures.values())

    def test_lone_dead_worker_reports_error_not_hangs(self):
        dier = Strategy("muldirect", "s1", seed=_DIE_SEED)
        start = time.perf_counter()
        result = run_portfolio(self.problem, [dier], timeout=60.0)
        # Detected by liveness polling, far inside the 60s timeout.
        assert time.perf_counter() - start < 30.0
        assert result.status is SolveStatus.ERROR
        assert "died without reporting" in result.failures[dier.label]

    def test_uncooperative_hanger_is_terminated_as_timeout(self):
        hanger = Strategy("muldirect", "s1", seed=_HANG_SEED)
        start = time.perf_counter()
        result = run_portfolio(self.problem, [hanger], timeout=0.5)
        # Cancel grace, then hard termination — well under the sleep.
        assert time.perf_counter() - start < 30.0
        assert result.status is SolveStatus.TIMEOUT
        assert result.member_status[hanger.label] is SolveStatus.TIMEOUT


class TestVirtualPortfolio:
    def setup_method(self):
        self.a = Strategy("muldirect", "s1")
        self.b = Strategy("ITE-log", "s1")
        self.times = {
            "x": {self.a: 10.0, self.b: 2.0},
            "y": {self.a: 1.0, self.b: 5.0},
        }

    def test_takes_minimum_per_instance(self):
        result = virtual_portfolio_time(self.times, [self.a, self.b])
        assert result == {"x": 2.0, "y": 1.0}

    def test_missing_measurement_rejected(self):
        with pytest.raises(ValueError):
            virtual_portfolio_time({"x": {self.a: 1.0}}, [self.a, self.b])

    def test_speedup(self):
        # reference a: total 11; portfolio total 3 -> 11/3
        speedup = portfolio_speedup(self.times, [self.a, self.b], self.a)
        assert speedup == pytest.approx(11.0 / 3.0)

    def test_portfolio_never_slower_than_member(self):
        speedup = portfolio_speedup(self.times, [self.a, self.b], self.b)
        assert speedup >= 1.0
