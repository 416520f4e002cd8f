"""Portfolios of parallel strategies (paper §6, last paragraphs).

Each strategy — an (encoding, symmetry heuristic) pair — runs on its own
core; the first to answer wins and the rest are terminated.  Two flavours:

* :func:`run_portfolio` — real ``multiprocessing`` execution, one process
  per strategy, first *decided* answer wins.  Losers are stopped
  cooperatively: every worker shares a :class:`CancelToken`, which its
  solver observes at conflict boundaries, so a beaten member winds down
  and reports instead of being killed mid-propagation (hard termination
  remains as a backstop for workers stuck outside the solver, e.g. in
  encoding).  Deadlines are first-class: a portfolio where *every*
  member times out returns ``status=SolveStatus.TIMEOUT`` with each
  member's individual status, rather than raising.
* :func:`virtual_portfolio_time` — the analytical model: on an ideal
  multicore machine the portfolio's time on an instance is the *minimum*
  of the member strategies' times.  The paper's 1.84× / 2.30× figures are
  exactly this quantity computed from Table 2 measurements, and the
  benchmark harness reproduces them the same way.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from .. import obs
from ..coloring.problem import ColoringProblem
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..sat.status import CancelToken, SolveLimits, SolveReport, SolveStatus
from .pipeline import ColoringOutcome, solve_coloring
from .strategy import Strategy


@dataclass
class PortfolioResult:
    """Outcome of a first-to-finish portfolio run.

    ``status`` is the race's aggregate verdict: the winner's SAT/UNSAT
    when some member decided, TIMEOUT when every member hit the
    deadline, BUDGET_EXHAUSTED when budgets (not the clock) stopped them
    all, and ERROR when every member failed.  ``winner`` and ``outcome``
    are None unless the race was decided.
    """

    status: SolveStatus
    winner: Optional[Strategy]
    outcome: Optional[ColoringOutcome]
    wall_time: float
    num_strategies: int
    #: Per-member verdicts, by strategy label (ERROR for crashes).
    member_status: Dict[str, SolveStatus] = field(default_factory=dict)
    #: Failure details for members with status ERROR, by label.
    failures: Dict[str, str] = field(default_factory=dict)
    #: Audit reports per decided member, by label (``audit=True`` runs
    #: only).  A member whose answer failed its audit is demoted to
    #: ERROR and cannot win the race.
    audits: Dict[str, object] = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.status.decided

    @property
    def report(self) -> SolveReport:
        """The race as the shared :class:`SolveReport` shape (the
        winner's solver stats when decided)."""
        stats = self.outcome.solver_stats if self.outcome is not None else {}
        detail = (f"winner {self.winner.label}" if self.winner is not None
                  else "; ".join(f"{label}: {status}" for label, status
                                 in self.member_status.items()))
        report = SolveReport.from_stats(self.status, stats, detail=detail)
        report.wall_time = self.wall_time
        return report


def _worker_injector(faults, strategy: Strategy, extra_sites=()):
    """The worker-site fault injector for this process, or None.

    Worker-site faults (``crash@worker``, ``hang@worker``) fire *in the
    worker process, outside the solver* — a crash kills the process
    without a report, a hang ignores the cancel token — exercising the
    parent's liveness polling and hard-termination backstops.
    ``extra_sites`` lets other process-pool layers reuse this resolution
    (the job scheduler's and the cube workers answer to ``dist_shard``
    as well).
    """
    import os
    if faults is None and not os.environ.get("REPRO_FAULTS"):
        return None
    from ..reliability.faults import FaultInjector, FaultPlan
    plan = FaultPlan.resolve(faults)
    if plan is None:
        return None
    plan = plan.narrow(strategy.label)
    if plan.empty:
        return None
    return FaultInjector(plan, label=strategy.label,
                         sites=("worker",) + tuple(extra_sites))


def _worker(problem: ColoringProblem, strategy: Strategy, queue: "mp.Queue",
            cancel_event, limits: Optional[SolveLimits],
            faults=None, audit: bool = False, channel=None) -> None:
    # Fresh observability state for this process (fork inherits the
    # parent's buffers); the worker's spans and metrics travel back on
    # the result queue rather than being written here.
    obs.worker_begin()
    try:
        injector = _worker_injector(faults, strategy)
        if injector is not None:
            injector.maybe_exit()
            injector.maybe_hang()
        cancel = CancelToken(cancel_event) if cancel_event is not None else None
        # Only pass the reliability kwargs when they deviate from the
        # defaults, so test doubles with the historical solve_coloring
        # signature keep working.
        kwargs = {}
        if faults is not None:
            kwargs["faults"] = faults
        if audit:
            kwargs.update(keep_model=True, proof_log=True)
        if channel is not None:
            # Chaos faults on the channel itself (drop_share /
            # corrupt_share) activate on the worker's own endpoint.
            channel.bind_faults(faults, strategy.label)
            kwargs["clause_channel"] = channel
        outcome = solve_coloring(problem, strategy, limits=limits,
                                 cancel=cancel, **kwargs)
        queue.put((strategy, outcome, None, obs.drain_telemetry()))
    except Exception as error:  # surface failures instead of hanging
        queue.put((strategy, None, repr(error), obs.drain_telemetry()))


#: Queue-wait interval for the race loop: short enough that a crashed
#: worker is noticed promptly, long enough not to busy-wait.
_POLL_SECONDS = 0.05

#: Grace period granted to in-flight results after the last live worker
#: exits, before the race is declared lost (a child's queue feeder may
#: still be flushing its answer through the pipe when it dies).
_DRAIN_SECONDS = 0.5

#: After the cancel token is set (a winner emerged or the deadline
#: passed), how long cooperative members get to wind down and report
#: before the stragglers are hard-terminated.  Covers workers stuck
#: outside the solver loop (e.g. still encoding), which cannot observe
#: the token.
_CANCEL_GRACE_SECONDS = 2.0


def run_portfolio(problem: ColoringProblem, strategies: Sequence[Strategy],
                  timeout: Optional[float] = None,
                  limits: Optional[SolveLimits] = None,
                  audit: bool = False, faults=None,
                  share=None) -> PortfolioResult:
    """Run every strategy in parallel; the first decided answer wins.

    ``timeout`` is the race deadline in seconds (shorthand for — and
    merged into — ``limits.wall_clock_limit``); ``limits`` bounds every
    member individually.  On a winner, the shared cancel token is set
    and the losers stop at their next conflict boundary; a worker that
    ignores the token past a grace period is terminated.

    The race is robust to sick members: a strategy that raises is
    recorded with status ERROR (its failure cannot win the race while
    healthy members are still solving), and a worker that dies without
    reporting — killed, crashed interpreter, out-of-memory — is detected
    by liveness polling rather than waited on forever.  Every outcome is
    representable: all members timing out yields ``status=TIMEOUT``, all
    failing yields ``status=ERROR`` (with per-member details in
    ``failures``) — no exception is raised either way.

    With ``audit=True`` every decided answer is re-verified in the
    parent (:func:`repro.reliability.audit.audit_outcome` — the model
    against a re-encoding, the coloring against the problem, UNSAT via
    proof replay) before it may win; an answer that fails its audit is
    demoted to ERROR and the race continues with the remaining members.
    ``faults`` injects faults into the members (see
    :mod:`repro.reliability.faults`): None activates only the
    ``REPRO_FAULTS`` environment plan, a ``FaultPlan`` is used as
    given, ``False`` disables injection.

    ``share`` upgrades the race to a *cooperative* portfolio: members
    exchange short learned clauses through a bounded channel
    (:mod:`repro.dist.sharing`), so the eventual winner benefits from
    every loser's conflict analysis instead of discarding it.  Pass
    True for the default :class:`~repro.dist.sharing.ShareConfig` or a
    config instance to tune the caps.  Sharing is only sound between
    members solving the *same* CNF, so every strategy must agree on
    (encoding, symmetry); mixed portfolios must race uncooperatively.
    With ``share=None`` (the default) nothing here changes and member
    trajectories are bit-identical to the pre-sharing racer.
    """
    if not strategies:
        raise ValueError("a portfolio needs at least one strategy")
    hub = None
    if share is not None and share is not False and len(strategies) > 1:
        shapes = {(s.encoding, s.symmetry) for s in strategies}
        if len(shapes) > 1:
            raise ValueError(
                "clause sharing needs a uniform (encoding, symmetry) "
                f"across members, got {sorted(shapes)}; run mixed "
                "portfolios with share=None")
        from ..dist.sharing import ClauseHub, ShareConfig
        config = share if isinstance(share, ShareConfig) else None
        hub = ClauseHub([s.label for s in strategies], config=config)
    with trace.span("portfolio.race", members=len(strategies),
                    strategies=",".join(s.label for s in strategies),
                    audit=audit, sharing=hub is not None) as race_span:
        try:
            result = _race_in_span(race_span, problem, strategies, timeout,
                                   limits, audit, faults, hub)
        finally:
            if hub is not None:
                hub.close()
        race_span.set("status", str(result.status))
        if result.winner is not None:
            race_span.set("winner", result.winner.label)
        if obs_metrics.enabled():
            registry = obs_metrics.registry()
            registry.inc("portfolio.races")
            registry.inc("portfolio.decided" if result.decided
                         else "portfolio.undecided")
            registry.observe("portfolio.wall_time", result.wall_time)
        return result


def _race_in_span(race_span, problem: ColoringProblem,
                  strategies: Sequence[Strategy],
                  timeout: Optional[float], limits: Optional[SolveLimits],
                  audit: bool, faults, hub=None) -> PortfolioResult:
    """:func:`run_portfolio` body, inside its already-open race span.

    Every lifecycle transition of the race — members launched, answers
    reported, the winner emerging, audit demotions, deadline expiry,
    cooperative cancellation and hard termination of stragglers —
    becomes a span event, and the telemetry each worker ships back on
    the result queue (its own span tree plus a metrics snapshot) is
    grafted under this span, so ``repro trace`` renders the whole race
    as one tree.
    """
    member_limits = (limits or SolveLimits()).with_wall_clock(timeout)
    context = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                             else "spawn")
    queue: "mp.Queue" = context.Queue()
    cancel_event = context.Event()
    start = time.perf_counter()
    deadline = None if timeout is None else start + timeout
    hard_deadline: Optional[float] = None
    processes: Dict[str, "mp.Process"] = {}
    for strategy in strategies:
        channel = hub.endpoint(strategy.label) if hub is not None else None
        processes[strategy.label] = context.Process(
            target=_worker,
            args=(problem, strategy, queue, cancel_event, member_limits,
                  faults, audit, channel),
            daemon=True)
    for process in processes.values():
        process.start()
    trace.event("race.started", members=len(processes))

    member_status: Dict[str, SolveStatus] = {}
    failures: Dict[str, str] = {}
    audits: Dict[str, object] = {}
    winner: Optional[Strategy] = None
    outcome: Optional[ColoringOutcome] = None

    def _record(strategy: Strategy, result: Optional[ColoringOutcome],
                error: Optional[str], telemetry=None) -> None:
        nonlocal winner, outcome
        label = strategy.label
        obs.ingest_telemetry(telemetry, race_span.span_id)
        if error is not None:
            member_status[label] = SolveStatus.ERROR
            failures[label] = error
            trace.event("member.failed", label=label, error=error)
            return
        if audit and result.status.decided:
            from ..reliability.audit import audit_outcome
            report = audit_outcome(problem, result)
            audits[label] = report
            if report.failed:
                # A wrong answer must not win: demote the member and
                # let the rest of the race continue.
                member_status[label] = SolveStatus.ERROR
                failures[label] = "audit failed: " + "; ".join(
                    f"{check.name} ({check.detail})"
                    for check in report.failures)
                trace.event("member.demoted", label=label,
                            reason=failures[label])
                return
        if result.status.decided and winner is None:
            winner, outcome = strategy, result
            trace.event("member.won", label=label,
                        status=str(result.status))
        else:
            trace.event("member.reported", label=label,
                        status=str(result.status))
        member_status[label] = result.status

    try:
        while winner is None and len(member_status) < len(processes):
            if hub is not None:
                # Fan exported clauses out to peer inboxes; bounded per
                # iteration so the poll cadence is unaffected.
                hub.pump()
            now = time.perf_counter()
            if deadline is not None and now >= deadline \
                    and not cancel_event.is_set():
                # Deadline: ask everyone still running to wind down and
                # report (cooperatively — their TIMEOUT results carry
                # partial stats), with a hard stop as backstop.
                cancel_event.set()
                hard_deadline = now + _CANCEL_GRACE_SECONDS
                trace.event("race.deadline", timeout=timeout)
            if hard_deadline is not None and now >= hard_deadline:
                for label, process in processes.items():
                    if label not in member_status:
                        if process.is_alive():
                            process.terminate()
                            trace.event("member.terminated", label=label,
                                        reason="ignored cancel past grace")
                        member_status[label] = SolveStatus.TIMEOUT
                break
            try:
                item = queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                # A worker that died before reporting can never answer;
                # record it so the race is not held hostage by a corpse.
                for label, process in processes.items():
                    if label not in member_status and not process.is_alive():
                        process.join()
                        # One last drain: its answer may still be in
                        # the pipe from the child's queue feeder.
                        try:
                            item = queue.get(timeout=_DRAIN_SECONDS)
                        except queue_module.Empty:
                            member_status[label] = SolveStatus.ERROR
                            failures[label] = (
                                f"worker died without reporting "
                                f"(exit code {process.exitcode})")
                            trace.event("member.died", label=label,
                                        exit_code=process.exitcode)
                        else:
                            _record(*_unpack(item))
                        break
                continue
            _record(*_unpack(item))
        wall_time = time.perf_counter() - start
    finally:
        # Stop the losers: cooperative first, terminate stragglers.
        if winner is not None:
            trace.event("race.cancel_losers", winner=winner.label)
        cancel_event.set()
        grace_until = time.perf_counter() + _CANCEL_GRACE_SECONDS
        for process in processes.values():
            remaining = grace_until - time.perf_counter()
            if remaining > 0:
                process.join(timeout=remaining)
        for label, process in processes.items():
            if process.is_alive():
                process.terminate()
                trace.event("member.terminated", label=label,
                            reason="straggler after race end")
        for process in processes.values():
            process.join(timeout=5)
        # Losers that wound down cooperatively after the winner emerged
        # may still have telemetry (and results) in the pipe: drain it
        # so their spans are not lost, without changing the verdict.
        while True:
            try:
                item = queue.get_nowait()
            except queue_module.Empty:
                break
            strategy, result, error, telemetry = _unpack(item)
            obs.ingest_telemetry(telemetry, race_span.span_id)
            label = strategy.label
            if label not in member_status and error is None \
                    and result is not None:
                member_status[label] = result.status
                trace.event("member.reported", label=label,
                            status=str(result.status))

    if winner is not None:
        status = outcome.status
    elif any(s is SolveStatus.TIMEOUT for s in member_status.values()):
        status = SolveStatus.TIMEOUT
    elif any(s is SolveStatus.BUDGET_EXHAUSTED
             for s in member_status.values()):
        status = SolveStatus.BUDGET_EXHAUSTED
    else:
        status = SolveStatus.ERROR
    return PortfolioResult(status=status, winner=winner, outcome=outcome,
                           wall_time=wall_time,
                           num_strategies=len(strategies),
                           member_status=member_status, failures=failures,
                           audits=audits)


def _unpack(item):
    """Unpack a result-queue item: ``(strategy, outcome, error)`` from
    historical senders (test doubles), plus the telemetry slot the
    current workers append."""
    strategy, result, error = item[0], item[1], item[2]
    telemetry = item[3] if len(item) > 3 else None
    return strategy, result, error, telemetry


def virtual_portfolio_time(
        times: Mapping[str, Mapping[Strategy, float]],
        strategies: Sequence[Strategy]) -> Dict[str, float]:
    """Per-instance portfolio time = min over member strategies.

    ``times`` maps instance name → {strategy: measured time}.  Raises if a
    member strategy has no measurement for some instance.
    """
    result: Dict[str, float] = {}
    for instance, per_strategy in times.items():
        member_times = []
        for strategy in strategies:
            if strategy not in per_strategy:
                raise ValueError(
                    f"no measurement for {strategy.label} on {instance}")
            member_times.append(per_strategy[strategy])
        result[instance] = min(member_times)
    return result


def portfolio_speedup(times: Mapping[str, Mapping[Strategy, float]],
                      portfolio: Sequence[Strategy],
                      reference: Strategy) -> float:
    """Total-time speedup of a portfolio over a single reference strategy
    (how the paper reports 1.84× and 2.30×)."""
    portfolio_times = virtual_portfolio_time(times, portfolio)
    reference_total = sum(per_strategy[reference]
                          for per_strategy in times.values())
    portfolio_total = sum(portfolio_times.values())
    if portfolio_total <= 0:
        raise ValueError("portfolio total time is not positive")
    return reference_total / portfolio_total
