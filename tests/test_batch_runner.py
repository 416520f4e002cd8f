"""Tests for the concurrent batch runner (repro.bench.batch)."""

import multiprocessing
import os
import time

import pytest

from repro.bench import BatchJob, jobs_for, run_batch
from repro.bench import batch as batch_module
from repro.coloring import ColoringProblem, complete_graph, cycle_graph
from repro.core import Strategy
from repro.sat import CancelToken, SolveLimits, SolveStatus


@pytest.fixture(autouse=True)
def _no_worker_outlives_a_test(no_live_workers):
    """No worker process of any pool outlives a test (see conftest)."""


def _easy_jobs(count=4):
    strategies = [Strategy("muldirect", "s1"), Strategy("direct", "s1")]
    jobs = []
    for i in range(count):
        problem = ColoringProblem(cycle_graph(5 + 2 * i), 3)
        for strategy in strategies:
            jobs.append(BatchJob(instance=f"cycle{5 + 2 * i}",
                                 problem=problem, strategy=strategy))
    return jobs


def _hard_job(instance="k11", seed=1):
    # Pigeonhole-hard without symmetry breaking: far beyond any deadline
    # used here.
    return BatchJob(instance=instance,
                    problem=ColoringProblem(complete_graph(11), 10),
                    strategy=Strategy("muldirect", "none", seed=seed))


class TestRunBatch:
    def test_all_jobs_complete(self):
        jobs = _easy_jobs()
        result = run_batch(jobs, max_workers=3)
        assert result.complete and not result.cancelled
        assert not result.pending
        assert len(result.results) == len(jobs)
        for job_result in result.results:
            assert job_result.status is SolveStatus.SAT
            assert job_result.outcome.is_sat
            assert job_result.attempts == 1

    def test_results_addressable_by_key(self):
        jobs = _easy_jobs(count=2)
        result = run_batch(jobs, max_workers=2)
        for job in jobs:
            outcome = result.outcome(job.instance, job.strategy)
            assert outcome.is_sat

    def test_status_counts(self):
        jobs = _easy_jobs(count=2)
        result = run_batch(jobs, max_workers=2)
        counts = result.status_counts()
        assert counts[SolveStatus.SAT] == len(jobs)

    def test_unsat_jobs_reported(self):
        job = BatchJob(instance="k5",
                       problem=ColoringProblem(complete_graph(5), 4),
                       strategy=Strategy("muldirect", "s1"))
        result = run_batch([job])
        assert result.results[0].status is SolveStatus.UNSAT
        assert result.complete

    def test_empty_batch(self):
        result = run_batch([])
        assert result.results == [] and result.pending == []
        assert result.complete and not result.cancelled

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            run_batch(_easy_jobs(1), max_workers=0)
        with pytest.raises(ValueError):
            run_batch(_easy_jobs(1), max_attempts=0)

    def test_jobs_for_builds_cross_product(self):
        class _FakeCSP:
            problem = ColoringProblem(cycle_graph(5), 3)
            build_time = 0.1

        class _FakeInstance:
            name = "fake"
            csp = _FakeCSP()

        strategies = [Strategy("muldirect", "s1"), Strategy("direct", "s1")]
        jobs = jobs_for([_FakeInstance()], strategies)
        assert len(jobs) == 2
        assert {j.key for j in jobs} == {
            ("fake", strategies[0].label), ("fake", strategies[1].label)}
        assert all(j.graph_time == 0.1 for j in jobs)


@pytest.mark.slow
class TestBatchDeadlines:
    def test_per_job_timeout_is_cooperative(self):
        jobs = [_hard_job(seed=s) for s in (1, 2)]
        start = time.perf_counter()
        result = run_batch(jobs, max_workers=2, job_timeout=0.4)
        elapsed = time.perf_counter() - start
        assert len(result.results) == 2
        for job_result in result.results:
            assert job_result.status is SolveStatus.TIMEOUT
            # Cooperative stop: the worker reported partial stats
            # itself instead of being hard-killed.
            assert job_result.outcome is not None
            assert job_result.outcome.solver_stats.get("conflicts", 0) > 0
        assert not result.cancelled  # job deadlines don't stop the batch
        assert elapsed < 10.0

    def test_conflict_budget_applies_per_job(self):
        result = run_batch([_hard_job()], limits=SolveLimits(conflict_budget=20))
        job_result = result.results[0]
        assert job_result.status is SolveStatus.BUDGET_EXHAUSTED
        assert job_result.outcome.solver_stats["conflicts"] == 20

    def test_batch_deadline_yields_partial_results(self):
        # One worker, several hard jobs: the batch deadline must stop
        # scheduling, wind down the in-flight job, and report the rest
        # as pending.
        jobs = [_hard_job(instance=f"k11-{i}", seed=i) for i in range(1, 5)]
        result = run_batch(jobs, max_workers=1, timeout=0.5)
        assert result.cancelled
        assert result.pending  # later jobs never started
        assert len(result.results) + len(result.pending) == len(jobs)
        for job_result in result.results:
            assert job_result.status is SolveStatus.TIMEOUT

    def test_pre_cancelled_token_runs_nothing(self):
        token = CancelToken()
        token.cancel()
        jobs = _easy_jobs(count=2)
        result = run_batch(jobs, cancel=token)
        assert result.cancelled
        assert not result.results
        assert [j.key for j in result.pending] == [j.key for j in jobs]


# Failure injection relies on fork-start workers inheriting the patched
# module state, exactly like the portfolio sick-member tests.
_DIE_SEED = 90002

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="failure injection requires fork-start workers")


def _flaky_solve(problem, strategy, graph_time=0.0, **kwargs):
    if strategy.seed == _DIE_SEED:
        os._exit(17)  # die unreported, like a crash/OOM kill
    from repro.core.pipeline import solve_coloring
    return solve_coloring(problem, strategy, graph_time=graph_time, **kwargs)


@fork_only
class TestCrashHandling:
    @pytest.fixture(autouse=True)
    def _patch_worker_solve(self, monkeypatch):
        monkeypatch.setattr(batch_module, "solve_coloring", _flaky_solve)

    def test_crashing_job_is_retried_then_error(self):
        job = BatchJob(instance="crasher",
                       problem=ColoringProblem(cycle_graph(5), 3),
                       strategy=Strategy("muldirect", "s1", seed=_DIE_SEED))
        result = run_batch([job], max_attempts=3)
        job_result = result.results[0]
        assert job_result.status is SolveStatus.ERROR
        assert job_result.attempts == 3
        assert "died without reporting" in job_result.error

    def test_crash_does_not_poison_healthy_jobs(self):
        crasher = BatchJob(instance="crasher",
                           problem=ColoringProblem(cycle_graph(5), 3),
                           strategy=Strategy("muldirect", "s1",
                                             seed=_DIE_SEED))
        healthy = BatchJob(instance="healthy",
                           problem=ColoringProblem(cycle_graph(9), 3),
                           strategy=Strategy("muldirect", "s1"))
        result = run_batch([crasher, healthy], max_workers=2, max_attempts=2)
        by_instance = {r.job.instance: r for r in result.results}
        assert by_instance["healthy"].status is SolveStatus.SAT
        assert by_instance["crasher"].status is SolveStatus.ERROR
        assert by_instance["crasher"].attempts == 2

    def test_audit_exception_is_retried_then_error(self, monkeypatch):
        # The audit runs in the worker: an exception it raises fails the
        # attempt like any other, and never escapes run_batch.
        from repro.reliability import audit as audit_module

        def _exploding_audit(problem, outcome, **kwargs):
            raise RuntimeError("audit exploded")

        monkeypatch.setattr(audit_module, "audit_outcome", _exploding_audit)
        jobs = [BatchJob(f"cycle{n}", ColoringProblem(cycle_graph(n), 3),
                         Strategy("muldirect", "s1")) for n in (5, 7, 9)]
        result = run_batch(jobs, max_workers=2, audit=True, max_attempts=2)
        assert not result.pending and len(result.results) == len(jobs)
        for job_result in result.results:
            assert job_result.status is SolveStatus.ERROR
            assert job_result.attempts == 2
            assert "audit exploded" in job_result.error
