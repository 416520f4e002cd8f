"""Chaos tests: injected faults must degrade gracefully, never lie.

Every fault kind from :mod:`repro.reliability.faults`, fired into the
pipeline, the portfolio and the batch runner, must terminate within the
configured deadlines with a structured :class:`SolveStatus` — no hangs,
no unhandled exceptions — and the audit layer must flag every seeded
``wrong_model`` / ``truncated_proof`` fault while passing all unfaulted
answers.  A ``corrupt_hint`` fault costs the proof checker a hint miss,
never the verdict.
"""

import os
import re
import time

import pytest

from repro.bench import BatchJob, run_batch
from repro.bench import batch as batch_module
from repro.coloring import ColoringProblem, complete_graph, cycle_graph
from repro.core import Strategy, run_portfolio, solve_coloring
from repro.core import portfolio as portfolio_module
from repro.errors import ParseError
from repro.reliability import (CRASH_EXIT_CODE, AuditVerdict, FaultInjector,
                               FaultPlan, FaultSpec, InjectedFault,
                               QuarantinePolicy, QuarantineTracker,
                               audit_outcome, audit_solve)
from repro.sat import CNF, SolveStatus, solve
from repro.sat.solver.config import SolverConfig


@pytest.fixture(autouse=True)
def _no_worker_outlives_a_test(no_live_workers):
    """No worker process of any pool outlives a test (see conftest)."""


#: Quick SAT instance: 5-cycle, 3 colors.
SAT_PROBLEM = ColoringProblem(cycle_graph(5), 3)
#: Quick UNSAT instance that still requires search (non-trivial proof).
UNSAT_PROBLEM = ColoringProblem(complete_graph(5), 4)
#: The "direct" encoding has exactly-one clauses per vertex, so a model
#: with a flipped variable always falsifies the re-encoded CNF — the
#: audit guarantee for ``wrong_model`` holds for it unconditionally.
DIRECT = Strategy("direct", "none")

#: Chaos deadline used by the termination tests; 2× this is the bound.
DEADLINE = 2.0

#: Base chaos seed — `make chaos` pins it; vary it to explore other
#: deterministic fault trajectories (every assertion is seed-robust).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

FAST_QUARANTINE = QuarantinePolicy(base_backoff=0.05, max_backoff=0.2)


def _plan(text):
    return FaultPlan.parse(text)


class TestFaultPlanAPI:
    def test_parse_round_trip(self):
        plan = _plan("seed=7; crash@worker; wrong_model:p=0.5,max=2")
        assert plan.seed == 7
        assert [s.kind for s in plan.specs] == ["crash", "wrong_model"]
        assert FaultPlan.parse(plan.to_text()) == plan

    def test_parse_rejects_garbage(self):
        for text in ("seed=x", "frobnicate", "crash@nowhere",
                     "crash:p=high", "crash:whatever=1", "crash:p",
                     "corrupt_share", "drop_share", "crash@clause_channel"):
            with pytest.raises(ParseError):
                FaultPlan.parse(text)

    def test_resolve_semantics(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=3; crash")
        env_plan = FaultPlan.resolve(None)
        assert env_plan is not None and env_plan.seed == 3
        assert FaultPlan.resolve(False) is None
        explicit = _plan("seed=9; hang")
        # An explicit plan is used as-is: the environment never merges in.
        assert FaultPlan.resolve(explicit) == explicit
        assert FaultPlan.resolve(FaultPlan()) is None

    def test_narrow_resolves_match_patterns(self):
        plan = _plan("crash:match=direct*; hang:match=other*")
        narrowed = plan.narrow("direct/s1")
        assert [s.kind for s in narrowed.specs] == ["crash"]
        assert narrowed.specs[0].match == "*"

    def test_injector_is_deterministic_across_instances(self):
        plan = _plan("seed=5; wrong_model:p=0.5")
        picks = [FaultInjector(plan, label="run").wrong_model_var(1000)
                 for _ in range(3)]
        assert picks[0] == picks[1] == picks[2]
        other = FaultInjector(plan.with_seed(6),
                              label="run").wrong_model_var(1000)
        # Not a guarantee for every pair of seeds, but these differ.
        assert other != picks[0]

    def test_max_fires_caps_firing(self):
        injector = FaultInjector(_plan("slowdown:max=2,s=0.5"))
        delays = [injector.slowdown_delay() for _ in range(5)]
        assert delays == [0.5, 0.5, 0.0, 0.0, 0.0]

    def test_site_filter(self):
        injector = FaultInjector(_plan("crash@worker"), sites=("solver",))
        injector.maybe_crash()  # worker-site spec must not fire here
        with pytest.raises(InjectedFault):
            FaultInjector(_plan("crash@worker"),
                          sites=("worker",)).maybe_crash()


class TestPipelineFaults:
    """Single-process injection through solve_coloring."""

    def test_crash_degrades_to_error(self):
        outcome = solve_coloring(SAT_PROBLEM, DIRECT,
                                 faults=_plan(f"seed={CHAOS_SEED}; crash@solver"))
        assert outcome.status is SolveStatus.ERROR
        assert "InjectedFault" in outcome.solver_stats["stop_reason"]

    def test_hang_respects_explicit_seconds(self):
        start = time.perf_counter()
        outcome = solve_coloring(SAT_PROBLEM, DIRECT,
                                 faults=_plan(f"seed={CHAOS_SEED}; hang:s=0.2"))
        elapsed = time.perf_counter() - start
        assert outcome.status is SolveStatus.SAT
        assert 0.2 <= elapsed < 5.0

    def test_slowdown_still_terminates(self):
        outcome = solve_coloring(UNSAT_PROBLEM, DIRECT,
                                 faults=_plan(f"seed={CHAOS_SEED}; slowdown:s=0.001"))
        assert outcome.status is SolveStatus.UNSAT

    def test_corrupt_input_is_recorded(self):
        outcome = solve_coloring(SAT_PROBLEM, DIRECT,
                                 faults=_plan(f"seed={CHAOS_SEED}; corrupt_input"))
        assert isinstance(outcome.status, SolveStatus)
        assert "corrupt_input@encode" in str(
            outcome.solver_stats.get("injected_faults", ""))

    def test_env_plan_activates_and_false_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=2; crash@solver")
        faulted = solve_coloring(SAT_PROBLEM, DIRECT)
        assert faulted.status is SolveStatus.ERROR
        clean = solve_coloring(SAT_PROBLEM, DIRECT, faults=False)
        assert clean.status is SolveStatus.SAT


class TestAuditDetection:
    """The headline guarantee: seeded wrong_model / truncated_proof
    faults are flagged 100% of the time; unfaulted answers pass."""

    @pytest.mark.parametrize("seed",
                             range(CHAOS_SEED, CHAOS_SEED + 12))
    def test_wrong_model_always_detected(self, seed):
        outcome = solve_coloring(SAT_PROBLEM, DIRECT, keep_model=True,
                                 faults=_plan(f"seed={seed}; wrong_model"))
        if outcome.status is SolveStatus.ERROR:
            # The pipeline's own decode check caught the bad model.
            assert "stop_reason" in outcome.solver_stats
            return
        report = audit_outcome(SAT_PROBLEM, outcome)
        assert report.failed, report.summary()

    @pytest.mark.parametrize("seed",
                             range(CHAOS_SEED, CHAOS_SEED + 8))
    def test_truncated_proof_always_detected(self, seed):
        outcome = solve_coloring(
            UNSAT_PROBLEM, DIRECT, proof_log=True,
            faults=_plan(f"seed={seed}; truncated_proof"))
        assert outcome.status is SolveStatus.UNSAT
        report = audit_outcome(UNSAT_PROBLEM, outcome)
        assert report.failed
        assert any(check.name == "proof-replay"
                   for check in report.failures)

    @pytest.mark.parametrize("seed",
                             range(CHAOS_SEED, CHAOS_SEED + 8))
    def test_corrupt_hint_costs_a_miss_not_the_verdict(self, seed):
        outcome = solve_coloring(
            UNSAT_PROBLEM, DIRECT, proof_log=True,
            faults=_plan(f"seed={seed}; corrupt_hint"))
        assert outcome.status is SolveStatus.UNSAT
        assert "corrupt_hint" in str(
            outcome.solver_stats.get("injected_faults", ""))
        report = audit_outcome(UNSAT_PROBLEM, outcome)
        assert report.verdict is AuditVerdict.PASS, report.summary()
        replay, = [check for check in report.checks
                   if check.name == "proof-replay"]
        misses = re.search(r"(\d+) hint misses", replay.detail)
        assert int(misses.group(1)) >= 1, replay.detail

    def test_unfaulted_sat_passes_audit(self):
        outcome = solve_coloring(SAT_PROBLEM, DIRECT, keep_model=True,
                                 faults=False)
        report = audit_outcome(SAT_PROBLEM, outcome)
        assert report.verdict is AuditVerdict.PASS, report.summary()

    def test_unfaulted_unsat_proof_passes_audit(self):
        outcome = solve_coloring(UNSAT_PROBLEM, DIRECT, proof_log=True,
                                 faults=False)
        report = audit_outcome(UNSAT_PROBLEM, outcome)
        assert report.verdict is AuditVerdict.PASS, report.summary()

    def test_unfaulted_unsat_cross_check_passes_audit(self):
        # No proof on the outcome: the audit re-solves with proof
        # logging on and replays the new proof.
        outcome = solve_coloring(UNSAT_PROBLEM, DIRECT, faults=False)
        report = audit_outcome(UNSAT_PROBLEM, outcome)
        assert report.verdict is AuditVerdict.PASS
        assert any(check.name == "proof-replay"
                   and check.verdict is AuditVerdict.PASS
                   for check in report.checks)

    def test_undecided_outcome_is_skipped_not_passed(self):
        from repro.sat import SolveLimits
        problem = ColoringProblem(complete_graph(11), 10)
        outcome = solve_coloring(problem, Strategy("muldirect", "none"),
                                 faults=False,
                                 limits=SolveLimits(conflict_budget=5))
        assert not outcome.status.decided
        report = audit_outcome(problem, outcome)
        assert report.verdict is AuditVerdict.SKIPPED

    def test_audit_solve_flags_bad_raw_model(self):
        from repro.sat import Model
        from repro.sat.model import SolveResult
        cnf = CNF([(1,), (-1, 2)])
        result = solve(cnf, SolverConfig())
        assert result.status is SolveStatus.SAT
        assert audit_solve(cnf, result).verdict is AuditVerdict.PASS
        values = [result.model.value(v) for v in (1, 2)]
        values[0] = not values[0]  # flip var 1: falsifies the unit clause
        bad = SolveResult(SolveStatus.SAT, Model(values),
                          dict(result.stats))
        assert audit_solve(cnf, bad).failed

    def test_unsat_claim_without_proof_is_rechecked(self):
        from repro.bench.throughput import pigeonhole
        from repro.sat.model import SolveResult
        claim = SolveResult(SolveStatus.UNSAT, stats={})
        # A satisfiable formula claimed UNSAT: the re-solve's model
        # refutes the claim.
        lie = audit_solve(CNF([(1, 2), (-1,)]), claim)
        assert [(c.name, c.verdict) for c in lie.checks] == [
            ("unsat-recheck", AuditVerdict.FAIL)]
        # A re-solve that runs out of budget proves nothing either way.
        unknown = audit_solve(pigeonhole(8), claim, cross_check_conflicts=5)
        assert [(c.name, c.verdict) for c in unknown.checks] == [
            ("unsat-recheck", AuditVerdict.SKIPPED)]


class TestPortfolioChaos:
    """Every fault kind, fired into a real multiprocessing race, must
    end within 2× the deadline with a structured status."""

    @pytest.fixture(autouse=True)
    def _short_grace(self, monkeypatch):
        monkeypatch.setattr(portfolio_module, "_CANCEL_GRACE_SECONDS", 0.5)
        monkeypatch.setattr(batch_module, "_CANCEL_GRACE_SECONDS", 0.5)

    @pytest.mark.parametrize("spec,expected", [
        ("crash@worker", SolveStatus.ERROR),
        ("crash@solver", SolveStatus.ERROR),
        ("hang@worker", SolveStatus.TIMEOUT),
        ("slowdown:s=0.002", SolveStatus.SAT),
        ("wrong_model", SolveStatus.ERROR),
        ("corrupt_input", None),  # may change the answer; must not hang
    ])
    def test_fault_kinds_terminate_in_deadline(self, spec, expected):
        start = time.perf_counter()
        result = run_portfolio(SAT_PROBLEM, [DIRECT], timeout=DEADLINE,
                               faults=_plan(f"seed={CHAOS_SEED}; {spec}"), audit=True)
        elapsed = time.perf_counter() - start
        assert elapsed < 2 * DEADLINE, f"{spec} overran: {elapsed:.1f}s"
        assert isinstance(result.status, SolveStatus)
        if expected is not None:
            assert result.status is expected, (spec, result.member_status,
                                               result.failures)

    def test_truncated_proof_cannot_win(self):
        result = run_portfolio(UNSAT_PROBLEM, [DIRECT], timeout=DEADLINE,
                               faults=_plan(f"seed={CHAOS_SEED}; truncated_proof"),
                               audit=True)
        assert result.status is SolveStatus.ERROR
        assert "audit failed" in result.failures[DIRECT.label]
        assert result.audits[DIRECT.label].failed

    def test_worker_crash_is_reported_with_exit_code(self):
        result = run_portfolio(SAT_PROBLEM, [DIRECT], timeout=DEADLINE,
                               faults=_plan(f"seed={CHAOS_SEED}; crash@worker"))
        assert result.status is SolveStatus.ERROR
        assert f"exit code {CRASH_EXIT_CODE}" \
            in result.failures[DIRECT.label]

    def test_loser_ignoring_cancellation_is_hard_terminated(self):
        """A hung loser must not delay the winner's answer past the
        cancellation grace period (the CancelToken backstop)."""
        healthy = Strategy("muldirect", "s1", seed=1)
        start = time.perf_counter()
        result = run_portfolio(
            SAT_PROBLEM, [DIRECT, healthy], timeout=10.0,
            faults=_plan(f"seed={CHAOS_SEED}; hang@worker:match=direct"))
        elapsed = time.perf_counter() - start
        assert result.status is SolveStatus.SAT
        assert result.winner.label == healthy.label
        # winner answers in well under a second; the hung member costs at
        # most the grace period before being terminated.
        assert elapsed < 5.0

    def test_wrong_model_winner_demoted_race_continues(self):
        healthy = Strategy("muldirect", "s1", seed=1)
        result = run_portfolio(
            SAT_PROBLEM, [DIRECT, healthy], timeout=10.0, audit=True,
            faults=_plan(f"seed={CHAOS_SEED + 5}; wrong_model:match=direct"))
        assert result.status is SolveStatus.SAT
        assert result.winner.label == healthy.label


class TestBatchChaos:
    @pytest.fixture(autouse=True)
    def _short_grace(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_CANCEL_GRACE_SECONDS", 0.5)

    def _run(self, job, **kwargs):
        kwargs.setdefault("max_workers", 2)
        kwargs.setdefault("quarantine", FAST_QUARANTINE)
        return run_batch([job], **kwargs)

    @pytest.mark.parametrize("spec", [
        "crash@worker", "crash@solver", "hang@worker", "slowdown:s=0.002",
        "wrong_model", "truncated_proof", "corrupt_hint", "corrupt_input",
    ])
    def test_fault_kinds_terminate_in_deadline(self, spec):
        problem = (UNSAT_PROBLEM if spec in ("truncated_proof", "corrupt_hint")
                   else SAT_PROBLEM)
        job = BatchJob("chaos", problem, DIRECT)
        start = time.perf_counter()
        result = self._run(job, job_timeout=DEADLINE, timeout=2 * DEADLINE,
                           faults=_plan(f"seed={CHAOS_SEED}; {spec}"), audit=True,
                           max_attempts=1)
        elapsed = time.perf_counter() - start
        assert elapsed < 2 * (2 * DEADLINE), f"{spec} overran: {elapsed:.1f}s"
        assert len(result.results) == 1
        assert isinstance(result.results[0].status, SolveStatus)

    def test_hang_past_job_deadline_is_hard_terminated(self):
        """Regression: a worker sleeping past its per-job deadline (and
        ignoring the cancel token) must be killed and reported TIMEOUT,
        not waited on."""
        job = BatchJob("hang", SAT_PROBLEM, DIRECT)
        start = time.perf_counter()
        result = self._run(job, job_timeout=0.3, max_attempts=1,
                           faults=_plan(f"seed={CHAOS_SEED}; hang@worker"))
        elapsed = time.perf_counter() - start
        record = result.results[0]
        assert record.status is SolveStatus.TIMEOUT
        assert elapsed < 3.0
        assert not result.pending

    def test_audit_failure_is_retried_then_error(self):
        job = BatchJob("liar", SAT_PROBLEM, DIRECT)
        result = self._run(job, faults=_plan(f"seed={CHAOS_SEED + 5}; wrong_model"),
                           audit=True, max_attempts=2)
        record = result.results[0]
        assert record.status is SolveStatus.ERROR
        assert record.attempts == 2
        health = result.quarantine[DIRECT.label]
        assert health["offences"] >= 2

    def test_quarantine_backoff_delays_retry(self):
        job = BatchJob("backoff", SAT_PROBLEM, DIRECT)
        start = time.perf_counter()
        result = self._run(
            job, faults=_plan(f"seed={CHAOS_SEED}; crash@solver"),
            quarantine=QuarantinePolicy(threshold=1, base_backoff=0.3,
                                        max_backoff=1.0))
        elapsed = time.perf_counter() - start
        record = result.results[0]
        assert record.status is SolveStatus.ERROR and record.attempts == 2
        assert elapsed >= 0.3  # the retry waited out the backoff

    def test_faults_false_disables_env_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1; crash@worker")
        job = BatchJob("clean", SAT_PROBLEM, DIRECT)
        result = self._run(job, faults=False)
        assert result.results[0].status is SolveStatus.SAT
        assert result.results[0].attempts == 1


class TestQuarantineTracker:
    def test_backoff_grows_and_caps(self):
        policy = QuarantinePolicy(threshold=1, base_backoff=1.0,
                                  backoff_factor=2.0, max_backoff=5.0)
        tracker = QuarantineTracker(policy)
        backoffs = [tracker.record_offence("s", "boom", now=0.0)
                    for _ in range(5)]
        assert backoffs == [1.0, 2.0, 4.0, 5.0, 5.0]
        assert tracker.quarantined("s", 0.5)
        assert not tracker.quarantined("s", 100.0)

    def test_success_resets_offences(self):
        tracker = QuarantineTracker(QuarantinePolicy(threshold=1))
        tracker.record_offence("s", "boom", now=0.0)
        tracker.record_success("s")
        assert not tracker.quarantined("s", 0.0)
        assert tracker.health("s").offences == 0
        assert tracker.health("s").total_offences == 1

    def test_below_threshold_no_quarantine(self):
        tracker = QuarantineTracker(QuarantinePolicy(threshold=2))
        assert tracker.record_offence("s", "boom", now=0.0) == 0.0
        assert not tracker.quarantined("s", 0.0)
