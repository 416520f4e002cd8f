"""The worker pool (repro.core.pool) under conditions its owners create:
an event loop's signal handlers, a task that runs a pool of its own,
and an interpreter that exits with the pool still open."""

import asyncio
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.coloring import ColoringProblem
from repro.coloring.instances import wheel_graph
from repro.core import Strategy, run_portfolio
from repro.core.pool import WorkerPool
from repro.sat import SolveStatus


@pytest.fixture(autouse=True)
def _no_worker_outlives_a_test(no_live_workers):
    """No worker process of any pool outlives a test (see conftest)."""


def _sleep(seconds, cancel):
    time.sleep(seconds)  # deaf to its cancel token
    return seconds


def _race(colors, cancel):
    """A task that runs a pool of its own: a two-strategy portfolio."""
    result = run_portfolio(ColoringProblem(wheel_graph(7), colors),
                           [Strategy("direct", "s1"),
                            Strategy("ITE-log", "s1")])
    return result.status, result.winner.label


def _wait_one(pool):
    while True:
        done = pool.wait()
        if done:
            return done[0]


class TestDeadlineKill:
    def test_kill_lands_at_once_under_an_event_loops_signal_handler(self):
        # The worker forks after the loop installed its SIGTERM handler.
        # It must not inherit that handler (which would swallow the
        # signal) nor the loop's wakeup fd (which would relay a signal
        # aimed at the worker to the owner's handler).
        fired = []
        grace, timeout = 0.3, 0.5

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, fired.append, "TERM")
            pool = WorkerPool(1, _sleep, grace=grace)
            try:
                started = time.perf_counter()
                pool.submit(0, 30, timeout=timeout)
                done = _wait_one(pool)
                elapsed = time.perf_counter() - started
                survivors = multiprocessing.active_children()
            finally:
                pool.close()
            await asyncio.sleep(0.2)  # a relayed signal would fire here
            return done, elapsed, survivors

        done, elapsed, survivors = asyncio.run(scenario())
        assert done.killed
        assert elapsed <= timeout + grace + 1.0
        assert survivors == []
        assert fired == []


class TestNestedPools:
    def test_a_task_may_run_a_pool_of_its_own(self):
        pool = WorkerPool(1, _race)
        try:
            answers = {}
            for colors in (3, 4):
                pool.submit(0, colors)
                done = _wait_one(pool)
                assert done.error is None
                answers[colors] = done.result
        finally:
            pool.close()
        labels = {"direct/s1", "ITE-log/s1"}
        assert answers[3][0] is SolveStatus.UNSAT and answers[3][1] in labels
        assert answers[4][0] is SolveStatus.SAT and answers[4][1] in labels

    def test_a_pool_left_open_does_not_hold_up_interpreter_exit(self):
        # Non-daemon workers are joined at exit: the pool's exit handler
        # must stop them first, or the join waits forever.
        script = textwrap.dedent("""
            from repro.core.pool import WorkerPool

            def echo(task, cancel):
                return task

            pool = WorkerPool(1, echo)
            pool.submit(0, "ready")
            print(pool.wait(timeout=10.0)[0].result, flush=True)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   timeout=20)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "ready"
