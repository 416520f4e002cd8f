"""Tests for the distributed solving subsystem (repro.dist)."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.bench import batch as batch_module
from repro.coloring import ColoringProblem, cycle_graph
from repro.core import Strategy
from repro.dist import BatchJob, run_sharded, shard_of
from repro.qa.generators import conflict_instances
from repro.reliability.faults import FaultPlan
from repro.reliability.quarantine import QuarantinePolicy
from repro.sat.status import SolveStatus


@pytest.fixture(autouse=True)
def _no_worker_outlives_a_test(no_live_workers):
    """No worker process of any pool outlives a test (see conftest)."""


DIRECT = Strategy("direct", "s1")
#: Not matched by the ``match=direct/s1`` faults that crash DIRECT jobs.
MULDIRECT = Strategy("muldirect", "s1")
FAST_QUARANTINE = QuarantinePolicy(threshold=3, base_backoff=0.05,
                                   max_backoff=0.2)

def _conflict_suite(count=3, num_vertices=24):
    return list(conflict_instances(7, count, num_vertices=num_vertices,
                                   edge_probability=0.4, clique_size=5))


def _jobs(count=3, strategy=DIRECT):
    return [BatchJob(inst.name, inst.problem, strategy)
            for inst in _conflict_suite(count)]


# ----------------------------------------------------------------------
# Work-stealing shard scheduler
# ----------------------------------------------------------------------

class TestShardScheduler:
    def test_shard_of_is_stable(self):
        assert shard_of("foo", 4) == shard_of("foo", 4)
        assert 0 <= shard_of("foo", 4) < 4

    def test_all_jobs_complete_across_shards(self):
        jobs = _jobs(4)
        result = run_sharded(jobs, num_shards=2, workers_per_shard=2)
        assert len(result.results) == len(jobs) and not result.pending
        assert all(r.status is SolveStatus.UNSAT for r in result.results)
        launched = sum(s["launched"] for s in result.shards.values())
        assert launched == len(jobs)

    def test_idle_shard_steals_from_backlog(self):
        insts = _conflict_suite(8)
        skewed = [i for i in insts if shard_of(i.name, 2) == 0]
        assert len(skewed) >= 2, "suite must put >=2 instances on shard0"
        jobs = [BatchJob(i.name, i.problem, DIRECT) for i in skewed]
        result = run_sharded(jobs, num_shards=2, workers_per_shard=1)
        assert result.steals >= 1
        assert result.shards["shard1"]["stolen"] == result.steals
        assert len(result.results) == len(jobs) and not result.pending

    def test_crashed_shard_worker_requeues_zero_lost(self):
        # Every DIRECT attempt crashes its worker, the retry too; the
        # MULDIRECT jobs share those workers and must lose nothing.
        jobs = _jobs(3) + _jobs(3, MULDIRECT)
        result = run_sharded(
            jobs, num_shards=2, workers_per_shard=1,
            quarantine=FAST_QUARANTINE,
            faults=FaultPlan.parse("seed=3; crash@dist_shard:match=direct/s1"))
        assert len(result.results) == len(jobs) and not result.pending
        for r in result.results:
            if r.job.strategy == MULDIRECT:
                assert r.status is SolveStatus.UNSAT and r.attempts == 1
            else:
                assert r.status is SolveStatus.ERROR and r.attempts == 2
        assert sum(s["requeued"] for s in result.shards.values()) >= 3

    def test_single_shard_degenerates_to_flat_batch(self):
        from repro.bench.batch import run_batch
        jobs = _jobs(2)
        result = run_sharded(jobs, num_shards=1, max_workers=2)
        assert result.steals == 0
        assert len(result.results) == len(jobs)
        # run_batch is this scheduler with one shard.
        flat = run_batch(jobs, max_workers=2)
        assert {r.key: r.status for r in flat.results} == \
            {r.key: r.status for r in result.results}
        assert flat.steals == 0
        assert flat.shards["shard0"]["launched"] == len(jobs)

    def test_dedup_fans_duplicates_back_out(self):
        jobs = _jobs(2)
        duplicated = jobs + [BatchJob(jobs[0].instance, jobs[0].problem,
                                      jobs[0].strategy)]
        result = run_sharded(duplicated, num_shards=2, workers_per_shard=1)
        assert len(result.results) == 3
        launched = sum(s["launched"] for s in result.shards.values())
        assert launched == 2  # the duplicate never dispatched

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_sharded([], num_shards=0)
        with pytest.raises(ValueError):
            run_sharded([], max_attempts=0)
        with pytest.raises(ValueError):
            run_sharded([], max_workers=0)
        with pytest.raises(ValueError):
            run_sharded([], workers_per_shard=0)


# ----------------------------------------------------------------------
# Worker slots: one process per slot for the whole call
# ----------------------------------------------------------------------

#: Strategy seed whose attempts wait for their cancel token.
_WAIT_SEED = 90003


def _pid_solve(problem, strategy, graph_time=0.0, **kwargs):
    """Test double of the worker's solve: records the serving pid and
    whether the attempt's cancel token was already set when it began;
    an attempt with seed ``_WAIT_SEED`` first waits for its token."""
    from repro.core.pipeline import solve_coloring
    cancel = kwargs["cancel"]
    cancelled_at_start = cancel.cancelled
    if strategy.seed == _WAIT_SEED:
        while not cancel.cancelled:
            time.sleep(0.01)
    outcome = solve_coloring(problem, strategy, graph_time=graph_time,
                             **kwargs)
    outcome.solver_stats.update(pid=os.getpid(),
                                cancelled_at_start=cancelled_at_start)
    return outcome


def _cycles(strategy, sizes):
    return [BatchJob(f"cycle{n}", ColoringProblem(cycle_graph(n), 3),
                     strategy) for n in sizes]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the solve double reaches fork-start workers only")
class TestSchedulerSlots:
    @pytest.fixture(autouse=True)
    def _pid_double(self, monkeypatch):
        monkeypatch.setattr(batch_module, "solve_coloring", _pid_solve)
        monkeypatch.setattr(batch_module, "_CANCEL_GRACE_SECONDS", 0.5)

    def test_each_slot_forks_one_worker_for_the_call(self):
        jobs = _cycles(DIRECT, range(5, 17, 2))
        result = run_sharded(jobs, num_shards=2, max_workers=2)
        assert len(result.results) == 6 and not result.pending
        assert all(r.status is SolveStatus.SAT for r in result.results)
        pids = {r.outcome.solver_stats["pid"] for r in result.results}
        assert len(pids) <= 2 and os.getpid() not in pids

    def test_killed_worker_is_replaced_at_the_next_launch(self):
        jobs = (_cycles(DIRECT, [11])
                + _cycles(Strategy("muldirect", "s1"), [5, 7, 9]))
        start = time.perf_counter()
        result = run_sharded(
            jobs, num_shards=1, max_workers=1, job_timeout=0.3,
            faults=FaultPlan.parse("seed=1; hang@worker:match=direct/*"))
        elapsed = time.perf_counter() - start
        by_instance = {r.job.instance: r for r in result.results}
        assert by_instance["cycle11"].status is SolveStatus.TIMEOUT
        rest = [by_instance[f"cycle{n}"] for n in (5, 7, 9)]
        assert all(r.status is SolveStatus.SAT for r in rest)
        pids = {r.outcome.solver_stats["pid"] for r in rest}
        assert len(pids) == 1 and os.getpid() not in pids
        assert elapsed < 3.0

    def test_crash_right_after_a_report_loses_no_report(self):
        # DIRECT and MULDIRECT cycles alternate on one worker, and every
        # DIRECT attempt crashes at its start, on the worker whose
        # MULDIRECT job has only just reported: that report, and every
        # later one, must still arrive.
        jobs = [job for n in range(5, 17, 2)
                for job in _cycles(DIRECT, [n]) + _cycles(MULDIRECT, [n])]
        result = run_sharded(
            jobs, num_shards=1, max_workers=1, job_timeout=5,
            quarantine=FAST_QUARANTINE,
            faults=FaultPlan.parse("seed=1; crash@worker:match=direct/s1"))
        assert len(result.results) == len(jobs) and not result.pending
        for job_result in result.results:
            if job_result.job.strategy == MULDIRECT:
                assert job_result.status is SolveStatus.SAT
                assert job_result.attempts == 1
            else:
                assert job_result.status is SolveStatus.ERROR
                assert job_result.attempts == 2

    def test_cancel_of_one_attempt_never_reaches_the_next(self):
        waiter = BatchJob("waiter", ColoringProblem(cycle_graph(5), 3),
                          Strategy("direct", "s1", seed=_WAIT_SEED))
        jobs = [waiter] + _cycles(DIRECT, [7])
        result = run_sharded(jobs, num_shards=1, max_workers=1,
                             job_timeout=0.3)
        by_instance = {r.job.instance: r for r in result.results}
        waited, after = by_instance["waiter"], by_instance["cycle7"]
        assert waited.status is SolveStatus.TIMEOUT
        assert after.status is SolveStatus.SAT
        assert after.outcome.solver_stats["cancelled_at_start"] is False
        # The waiter stopped cooperatively, so its worker served both.
        assert (waited.outcome.solver_stats["pid"]
                == after.outcome.solver_stats["pid"])

    def test_workers_exit_when_the_scheduler_is_killed(self):
        # A SIGKILLed scheduler never sends the stop sentinel: its
        # workers, one idle and one mid-attempt, must still exit.
        script = textwrap.dedent("""
            import os, time
            from repro.bench import BatchJob, run_batch
            from repro.bench import batch as batch_module
            from repro.coloring import ColoringProblem, cycle_graph
            from repro.core import Strategy
            from repro.core.pipeline import solve_coloring

            def announcing_solve(problem, strategy, **kwargs):
                # One write per line: print() issues the number and the
                # newline as two writes when stdout is unbuffered, and
                # the two workers' lines could interleave.
                os.write(1, f"{os.getpid()}\\n".encode())
                if strategy.seed == 2:
                    time.sleep(1.0)
                return solve_coloring(problem, strategy, **kwargs)

            batch_module.solve_coloring = announcing_solve
            run_batch([BatchJob(f"cycle{5 + 2 * seed}",
                                ColoringProblem(cycle_graph(5 + 2 * seed), 3),
                                Strategy("direct", "s1", seed=seed))
                       for seed in (1, 2)], max_workers=2)
            time.sleep(60)  # never reached before the kill
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]))
        scheduler = subprocess.Popen([sys.executable, "-c", script],
                                     stdout=subprocess.PIPE, env=env,
                                     text=True)
        try:
            workers = [int(scheduler.stdout.readline()) for _ in range(2)]
        finally:
            scheduler.kill()
            scheduler.wait(timeout=10)
            scheduler.stdout.close()

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().split(")")[-1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in workers if running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors

    def test_workers_exit_when_the_scheduler_is_killed_mid_send(self):
        # A worker blocked sending a report larger than the pipe buffer
        # to a scheduler that stopped reading, then is SIGKILLed, must
        # still exit, as must its idle sibling.
        script = textwrap.dedent("""
            import os, time
            from repro.bench import BatchJob, run_batch
            from repro.bench import batch as batch_module
            from repro.coloring import ColoringProblem, cycle_graph
            from repro.core import Strategy
            from repro.core.pipeline import solve_coloring

            def announcing_solve(problem, strategy, **kwargs):
                os.write(1, f"{os.getpid()}\\n".encode())
                outcome = solve_coloring(problem, strategy, **kwargs)
                if strategy.seed == 2:
                    time.sleep(0.3)
                    outcome.solver_stats["ballast"] = "x" * (4 << 20)
                return outcome

            batch_module.solve_coloring = announcing_solve
            run_batch([BatchJob(f"cycle{5 + 2 * seed}",
                                ColoringProblem(cycle_graph(5 + 2 * seed), 3),
                                Strategy("direct", "s1", seed=seed))
                       for seed in (1, 2)], max_workers=2)
            time.sleep(60)  # never reached before the kill
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]))
        scheduler = subprocess.Popen([sys.executable, "-c", script],
                                     stdout=subprocess.PIPE, env=env,
                                     text=True)
        try:
            workers = [int(scheduler.stdout.readline()) for _ in range(2)]
            # Stop reading, so the 4 MB report fills the pipe buffer and
            # its sender blocks mid-send; then kill the scheduler.
            scheduler.send_signal(signal.SIGSTOP)
            time.sleep(1.0)
        finally:
            scheduler.kill()
            scheduler.wait(timeout=10)
            scheduler.stdout.close()

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().split(")")[-1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 3
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in workers if running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors


# ----------------------------------------------------------------------
# Batch dedup (repro.bench.batch satellite)
# ----------------------------------------------------------------------

class TestBatchDedup:
    def test_run_batch_dedups_identical_jobs(self):
        from repro.bench.batch import run_batch
        inst = _conflict_suite(1)[0]
        jobs = [BatchJob(inst.name, inst.problem, DIRECT)
                for _ in range(3)]
        result = run_batch(jobs, max_workers=2)
        assert len(result.results) == 3
        assert all(r.status is SolveStatus.UNSAT for r in result.results)
        # All three carry the same wall time: one solve, fanned out.
        assert len({r.wall_time for r in result.results}) == 1

    def test_dedup_merges_same_content_across_names(self):
        # Content addressing, not name matching: distinct instance
        # names with identical (graph, colors, strategy) dedup too.
        from repro.bench.batch import run_batch
        problem = ColoringProblem(cycle_graph(5), 3)
        jobs = [BatchJob("c5-a", problem, DIRECT),
                BatchJob("c5-b", problem, DIRECT)]
        result = run_batch(jobs, max_workers=2)
        assert {r.job.instance for r in result.results} == {"c5-a", "c5-b"}
        assert len({r.wall_time for r in result.results}) == 1

    def test_dedup_opt_out(self):
        from repro.bench.batch import run_batch
        problem = ColoringProblem(cycle_graph(5), 3)
        jobs = [BatchJob("c5-a", problem, DIRECT),
                BatchJob("c5-b", problem, DIRECT)]
        result = run_batch(jobs, max_workers=2, dedup=False)
        assert len(result.results) == 2
        assert len({r.wall_time for r in result.results}) == 2
        # Same (instance, strategy) key: both jobs still run and settle.
        same_name = [BatchJob("c5", problem, DIRECT),
                     BatchJob("c5", problem, DIRECT)]
        result = run_batch(same_name, max_workers=2, dedup=False)
        assert len(result.results) == 2 and not result.pending
        assert all(r.status is SolveStatus.SAT for r in result.results)
