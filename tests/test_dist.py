"""Tests for the distributed solving subsystem (repro.dist)."""

import json
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
from repro.coloring import ColoringProblem, complete_graph, cycle_graph
from repro.core import Strategy
from repro.core.encodings.registry import get_encoding
from repro.core.symmetry.clauses import apply_symmetry
from repro.dist import (BatchJob, ClauseImportFilter, LoopbackChannel,
                        ShareConfig, cube_tree, run_cooperative, run_cubed,
                        run_jobs, run_sharded, seed_diverse_members,
                        shard_of)
from repro.dist.sharing import ClauseHub
from repro.qa.generators import conflict_instances
from repro.reliability.faults import FaultPlan
from repro.reliability.quarantine import QuarantinePolicy
from repro.sat import CDCLSolver
from repro.sat.solver.config import preset
from repro.sat.status import SolveStatus


@pytest.fixture(autouse=True)
def _no_worker_outlives_a_test(no_live_workers):
    """No worker process of any pool outlives a test (see conftest)."""


DIRECT = Strategy("direct", "s1")
#: Not matched by the ``match=direct/s1`` faults that crash DIRECT jobs.
MULDIRECT = Strategy("muldirect", "s1")
FAST_QUARANTINE = QuarantinePolicy(threshold=3, base_backoff=0.05,
                                   max_backoff=0.2)

FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "solver_trajectories.json")
    .read_text(encoding="utf-8"))


def _conflict_suite(count=3, num_vertices=24):
    return list(conflict_instances(7, count, num_vertices=num_vertices,
                                   edge_probability=0.4, clique_size=5))


def _jobs(count=3, strategy=DIRECT):
    return [BatchJob(inst.name, inst.problem, strategy)
            for inst in _conflict_suite(count)]


# ----------------------------------------------------------------------
# Import filter
# ----------------------------------------------------------------------

class TestClauseImportFilter:
    def _filter(self, num_vars=50, **kwargs):
        return ClauseImportFilter(num_vars, ShareConfig(**kwargs))

    def test_admits_well_formed_clause(self):
        f = self._filter()
        assert f.admit(("peer", (1, -2, 3), 2)) == ((1, -2, 3), 2)
        assert f.admitted == 1 and f.rejected == 0

    def test_rejects_zero_literal(self):
        # The exact shape the corrupt_share fault produces.
        f = self._filter()
        assert f.admit(("peer", (1, 0, 3), 2)) is None
        assert f.rejected == 1

    def test_rejects_malformed_shapes(self):
        f = self._filter()
        for payload in [None, 17, "clause", (1, 2), ("peer", (), 1),
                        ("peer", (1, 2), "lbd"), ("peer", ("x", 2), 1),
                        ("peer", (1.5, 2), 1), ("peer", (1, 2), 0)]:
            assert f.admit(payload) is None, payload
        assert f.admitted == 0

    def test_rejects_out_of_range_variable(self):
        f = self._filter(num_vars=10)
        assert f.admit(("peer", (5, -11), 2)) is None
        assert f.admit(("peer", (5, -10), 2)) is not None

    def test_rejects_tautology_dedups_duplicates(self):
        f = self._filter()
        assert f.admit(("peer", (4, -4), 1)) is None
        assert f.admit(("peer", (5, 5, -6), 2)) == ((5, -6), 2)

    def test_rejects_over_length_and_over_lbd(self):
        f = self._filter(export_max_length=3, export_max_lbd=2)
        assert f.admit(("peer", (1, 2, 3, 4), 2)) is None
        assert f.admit(("peer", (1, 2, 3), 3)) is None
        # Units always pass the LBD cap.
        assert f.admit(("peer", (9,), 99)) == ((9,), 1)

    def test_dedups_across_origins(self):
        f = self._filter()
        assert f.admit(("a", (1, -2), 1)) is not None
        assert f.admit(("b", (-2, 1), 1)) is None  # same sorted key

    def test_unknown_num_vars_skips_range_check(self):
        f = ClauseImportFilter(None)
        assert f.admit(("peer", (10 ** 6, -2), 2)) is not None


# ----------------------------------------------------------------------
# Solver-side sharing hooks
# ----------------------------------------------------------------------

def _encoded_cnf(problem, strategy=DIRECT):
    encoded = get_encoding(strategy.encoding).encode(problem)
    apply_symmetry(encoded, strategy.symmetry)
    return encoded.cnf


class TestSolverSharing:
    def _unsat_problem(self):
        return ColoringProblem(complete_graph(6), 5)

    @pytest.mark.parametrize("engine_cls", [CDCLSolver])
    def test_sharing_disabled_is_trajectory_neutral(self, engine_cls):
        cnf = _encoded_cnf(self._unsat_problem())
        plain = engine_cls(cnf.copy(), preset("siege_like"))
        plain_result = plain.solve()
        config = preset("siege_like")
        config.clause_channel = LoopbackChannel(num_vars=cnf.num_vars)
        shared = engine_cls(cnf.copy(), config)
        shared_result = shared.solve()
        assert plain_result.status is shared_result.status
        assert plain.stats["decisions"] == shared.stats["decisions"]
        assert plain.stats["conflicts"] == shared.stats["conflicts"]

    def test_exports_respect_caps(self):
        cnf = _encoded_cnf(self._unsat_problem())
        channel = LoopbackChannel(num_vars=cnf.num_vars,
                                  config=ShareConfig(export_max_length=4,
                                                     export_max_lbd=3))
        config = preset("siege_like")
        config.clause_channel = channel
        solver = CDCLSolver(cnf, config)
        solver.solve()
        assert solver.stats["shared_exported"] == len(channel.exported)
        for lits, lbd in channel.exported:
            assert 1 <= len(lits) <= 4
            assert all(lit != 0 for lit in lits)

    def test_corrupt_clause_rejected_never_learned(self):
        # A conflict-suite instance: enough conflicts that the solver
        # restarts, which is when imports are taken.
        inst = next(iter(conflict_instances(
            7, 1, num_vertices=48, edge_probability=0.42, clique_size=8)))
        cnf = _encoded_cnf(inst.problem)
        config = preset("siege_like")
        config.restart_base = 2  # force early restarts: imports happen
        channel = LoopbackChannel(num_vars=cnf.num_vars)
        channel.feed_raw(("peer", (3, 0, -5), 1))   # zeroed literal
        channel.feed_raw(("peer", (cnf.num_vars + 7,), 1))  # bad var
        channel.feed_raw("garbage")
        config.clause_channel = channel
        solver = CDCLSolver(cnf, config)
        result = solver.solve()
        assert result.status is SolveStatus.UNSAT
        assert channel.rejected == 3
        assert solver.stats["shared_imported"] == 0

    def test_unbudgeted_arena_trajectories_match_fixture(self):
        """The pinned pre-sharing trajectories still hold with the
        sharing hooks compiled in but no channel configured."""
        from repro.bench.throughput import random_3sat
        name, (nv, nc, seed) = "3sat-40v-160c-s0", (40, 160, 0)
        for preset_name in ("minisat_like", "siege_like"):
            solver = CDCLSolver(random_3sat(nv, nc, seed),
                                preset(preset_name))
            result = solver.solve()
            assert [bool(result.is_sat), int(solver.stats["decisions"]),
                    int(solver.stats["conflicts"])] \
                == FIXTURES["random"][name][preset_name]


# ----------------------------------------------------------------------
# Hub + cooperative portfolio
# ----------------------------------------------------------------------

class TestClauseHub:
    def test_pump_fans_out_except_origin(self):
        hub = ClauseHub(["a", "b", "c"], num_vars=20)
        a, b, c = (hub.endpoint(m) for m in "abc")
        assert a.export((1, -2), 1)
        import time
        deadline = time.time() + 2.0
        moved = 0
        while moved == 0 and time.time() < deadline:
            moved = hub.pump()  # mp queues need a moment to flush
        assert moved == 1
        time.sleep(0.05)
        assert a.take() == []
        assert b.take() == [((1, -2), 1)]
        assert c.take() == [((1, -2), 1)]
        hub.close()

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            ClauseHub(["a", "a"])


class TestCooperativePortfolio:
    def test_seed_diverse_members(self):
        members = seed_diverse_members(DIRECT, 3)
        assert len({m.seed for m in members}) == 3
        assert len({m.label for m in members}) == 3
        assert {m.encoding for m in members} == {"direct"}

    def test_legacy_engine_refused(self):
        with pytest.raises(ValueError):
            seed_diverse_members(DIRECT, 2, engines=["legacy"])

    def test_mixed_encoding_share_refused(self):
        from repro.core.portfolio import run_portfolio
        problem = ColoringProblem(cycle_graph(5), 3)
        with pytest.raises(ValueError):
            run_portfolio(problem,
                          [Strategy("direct", "s1"),
                           Strategy("muldirect", "s1")], share=True)

    def test_cooperative_unsat(self):
        problem = ColoringProblem(complete_graph(7), 6)
        result = run_cooperative(problem, DIRECT, members=2, timeout=60)
        assert result.status is SolveStatus.UNSAT

    def test_cooperative_sat_decodes(self):
        problem = ColoringProblem(cycle_graph(9), 3)
        result = run_cooperative(problem, DIRECT, members=2, timeout=60)
        assert result.status is SolveStatus.SAT
        assert problem.is_valid_coloring(result.outcome.coloring)


# ----------------------------------------------------------------------
# Cube-and-conquer
# ----------------------------------------------------------------------

class TestCubes:
    def test_cube_tree_deterministic(self):
        problem = _conflict_suite(1)[0].problem
        t1 = cube_tree(problem, "s1", min_cubes=8)
        t2 = cube_tree(problem, "s1", min_cubes=8)
        assert t1 == t2
        assert len(t1.cubes) >= 8

    def test_cube_tree_none_symmetry_applies_color_caps(self):
        problem = ColoringProblem(cycle_graph(8), 4)
        tree = cube_tree(problem, "none", min_cubes=4)
        # i-th cube vertex branches colors 0..i (Van Gelder normal form).
        for cube in tree.cubes:
            for depth, (_, color) in enumerate(cube.assignment):
                assert color <= depth

    def test_cube_tree_prunes_adjacent_equal_colors(self):
        problem = ColoringProblem(complete_graph(6), 5)
        tree = cube_tree(problem, "none", min_cubes=8)
        assert tree.pruned > 0
        for cube in tree.cubes:
            colors = {}
            for vertex, color in cube.assignment:
                colors[vertex] = color
            for u, cu in colors.items():
                for v, cv in colors.items():
                    if u != v and problem.graph.has_edge(u, v):
                        assert cu != cv

    def test_serial_cube_run_deterministic_winner(self):
        problem = ColoringProblem(cycle_graph(9), 3)
        r1 = run_cubed(problem, DIRECT, max_workers=1)
        r2 = run_cubed(problem, DIRECT, max_workers=1)
        assert r1.status is SolveStatus.SAT is r2.status
        assert r1.winner == r2.winner
        assert r1.plan == r2.plan
        assert problem.is_valid_coloring(r1.coloring)

    def test_cubed_unsat_needs_every_cube_refuted(self):
        problem = ColoringProblem(complete_graph(6), 5)
        result = run_cubed(problem, DIRECT, max_workers=1)
        assert result.status is SolveStatus.UNSAT
        assert result.cubes_closed == len(result.plan.cubes)
        assert all(s is SolveStatus.UNSAT
                   for s in result.cube_status.values())

    def test_parallel_cubed_agrees_with_serial(self):
        inst = _conflict_suite(1)[0]
        serial = run_cubed(inst.problem, DIRECT, max_workers=1)
        parallel = run_cubed(inst.problem, DIRECT, max_workers=2)
        assert serial.status is SolveStatus.UNSAT
        assert parallel.status is SolveStatus.UNSAT

    def test_parallel_sat_early_cancels_with_valid_coloring(self):
        problem = ColoringProblem(cycle_graph(11), 3)
        result = run_cubed(problem, DIRECT, max_workers=2, timeout=60)
        assert result.status is SolveStatus.SAT
        assert problem.is_valid_coloring(result.coloring)

    def test_crashed_cube_worker_loses_no_cube(self):
        inst = _conflict_suite(1)[0]
        result = run_cubed(
            inst.problem, DIRECT, max_workers=2, timeout=120,
            faults=FaultPlan.parse("seed=5; crash@dist_shard"))
        # Both workers die instantly; every cube is re-solved in the
        # parent and the verdict still lands.
        assert result.status is SolveStatus.UNSAT
        assert result.cubes_closed == len(result.plan.cubes)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the solve_cube double reaches fork-start workers only")
    def test_worker_killed_right_after_a_report_loses_no_report(
            self, monkeypatch, tmp_path):
        # Every worker process dies at the start of its second cube,
        # right after reporting its first: only the cube in flight at a
        # crash may be solved again, and each report sent before a
        # crash keeps its verdict.
        from repro.core.incremental import AssumptionJobSolver
        solve_cube = AssumptionJobSolver.solve_cube
        parent = os.getpid()
        log = str(tmp_path / "solved")
        calls = []  # per process: each fork starts from the parent's []

        def crash_on_second_call(solver, assumptions):
            if os.getpid() != parent:
                calls.append(assumptions)
                if len(calls) == 2:
                    os._exit(3)
            report = solve_cube(solver, assumptions)
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{sorted(assumptions)}\n".encode())
            finally:
                os.close(fd)
            return report

        monkeypatch.setattr(AssumptionJobSolver, "solve_cube",
                            crash_on_second_call)
        inst = _conflict_suite(1)[0]
        result = run_cubed(inst.problem, DIRECT, max_workers=2, timeout=120)
        assert result.status is SolveStatus.UNSAT
        assert result.cubes_closed == len(result.plan.cubes)
        solved = Path(log).read_text().splitlines()
        assert sorted(solved) == sorted(set(solved))
        assert len(solved) == len(result.plan.cubes)

    def test_hung_cube_workers_are_killed_after_the_deadline(self):
        inst = _conflict_suite(1)[0]
        start = time.perf_counter()
        result = run_cubed(inst.problem, DIRECT, max_workers=2, timeout=0.5,
                           faults=FaultPlan.parse("seed=5; hang@dist_shard"))
        # Deadline, then the grace period, then the kill: no parent
        # re-solve past the deadline.
        assert time.perf_counter() - start < 10.0
        assert result.status is SolveStatus.TIMEOUT
        assert result.cubes_closed == 0


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


# ----------------------------------------------------------------------
# run_jobs policy facade
# ----------------------------------------------------------------------

class TestRunJobs:
    def test_one_worker_runs_monolithic(self):
        result = run_jobs(_jobs(2), workers=1)
        assert len(result.results) == 2
        assert all(r.status is SolveStatus.UNSAT for r in result.results)
        assert all("cubes" not in r.outcome.solver_stats
                   for r in result.results)

    def test_multi_worker_routes_through_cubes(self):
        result = run_jobs(_jobs(2), workers=2)
        assert len(result.results) == 2
        assert all(r.status is SolveStatus.UNSAT for r in result.results)
        assert all(r.outcome.solver_stats["cubes"] >= 2
                   for r in result.results)

    def test_cube_off_uses_shards(self):
        result = run_jobs(_jobs(2), workers=2, cube="off")
        assert isinstance(result, type(run_sharded([], num_shards=1)))
        assert len(result.results) == 2

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([], cube="sometimes")
        with pytest.raises(ValueError):
            run_jobs([], workers=0)
