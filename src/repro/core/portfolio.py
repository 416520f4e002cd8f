"""Portfolios of parallel strategies (paper §6, last paragraphs).

Each strategy — an (encoding, symmetry heuristic) pair — runs on its own
core; the first to answer wins and the rest are terminated.  Two flavours:

* :func:`run_portfolio` — real ``multiprocessing`` execution: a race
  policy over the package's one :class:`~repro.core.pool.WorkerPool`,
  one slot (one process) per strategy, first *decided* answer wins.
  Losers are stopped cooperatively: each slot's :class:`CancelToken` is
  observed by its solver at conflict boundaries, so a beaten member
  winds down and reports instead of being killed mid-propagation (the
  pool's kill after a grace period remains as a backstop for workers
  stuck outside the solver, e.g. in encoding).  Deadlines are
  first-class: a portfolio where *every* member times out returns
  ``status=SolveStatus.TIMEOUT`` with each member's individual status,
  rather than raising.
* :func:`virtual_portfolio_time` — the analytical model: on an ideal
  multicore machine the portfolio's time on an instance is the *minimum*
  of the member strategies' times.  The paper's 1.84× / 2.30× figures are
  exactly this quantity computed from Table 2 measurements, and the
  benchmark harness reproduces them the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from ..coloring.problem import ColoringProblem
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..sat.status import SolveLimits, SolveReport, SolveStatus
from .pipeline import ColoringOutcome, solve_coloring
from .pool import CANCEL_GRACE_SECONDS, Finished, WorkerPool, solve_attempt
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


#: How long members still running after the race is decided or its
#: deadline passes get to report before they are killed (a module
#: attribute, so tests can shorten it).
_CANCEL_GRACE_SECONDS = CANCEL_GRACE_SECONDS


def run_portfolio(problem: ColoringProblem, strategies: Sequence[Strategy],
                  timeout: Optional[float] = None,
                  limits: Optional[SolveLimits] = None,
                  audit: bool = False, faults=None,
                  share=None) -> PortfolioResult:
    """Run every strategy in parallel; the first decided answer wins.

    ``timeout`` is the race deadline in seconds (shorthand for — and
    merged into — ``limits.wall_clock_limit``); ``limits`` bounds every
    member individually.  On a winner, the losers' cancel tokens are
    set and they stop at their next conflict boundary; a worker that
    ignores its token past a grace period is killed.

    The race is robust to sick members: a strategy that raises is
    recorded with status ERROR (its failure cannot win the race while
    healthy members are still solving), and a worker that dies without
    reporting — killed, crashed interpreter, out-of-memory — is seen the
    moment its process exits rather than waited on forever.  Every
    outcome is representable: all members timing out yields
    ``status=TIMEOUT``, all failing yields ``status=ERROR`` (with
    per-member details in ``failures``) — no exception is raised either
    way.

    With ``audit=True`` each member's worker re-verifies its own
    decided answer right after the solve
    (:func:`repro.reliability.audit.audit_outcome` — the model against
    a re-encoding, the coloring against the problem, UNSAT via proof
    replay), so the first decided answer that *passes* its audit wins;
    an answer that fails its audit is demoted to ERROR and the race
    continues with the remaining members.
    ``faults`` injects faults into the members (see
    :mod:`repro.reliability.faults`): None activates only the
    ``REPRO_FAULTS`` environment plan, a ``FaultPlan`` is used as
    given, ``False`` disables injection.  Worker-site faults fire once
    per member attempt.

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
    """:func:`run_portfolio` body, inside its already-open race span: a
    race policy over a :class:`WorkerPool` with one slot per member.

    Every lifecycle transition of the race — members launched, answers
    reported, the winner emerging, audit demotions, deadline expiry,
    cooperative cancellation and killed stragglers — becomes a span
    event, and the telemetry each worker ships back (its own span tree
    plus a metrics snapshot) is grafted under this span, so ``repro
    trace`` renders the whole race as one tree.
    """
    member_limits = (limits or SolveLimits()).with_wall_clock(timeout)
    start = time.perf_counter()
    deadline = None if timeout is None else start + timeout
    # The task is the member's strategy; its clause endpoint reaches its
    # worker at fork, and so does this module's solve_coloring binding.
    pool = WorkerPool(
        len(strategies), solve_attempt,
        args=(solve_coloring, problem, member_limits, faults, audit),
        slot_args=[(hub.endpoint(s.label) if hub is not None else None,)
                   for s in strategies],
        grace=_CANCEL_GRACE_SECONDS, span_id=race_span.span_id)

    member_status: Dict[str, SolveStatus] = {}
    failures: Dict[str, str] = {}
    audits: Dict[str, object] = {}
    winner: Optional[Strategy] = None
    outcome: Optional[ColoringOutcome] = None
    wall_time: Optional[float] = None
    timed_out = False

    def _record(done: Finished) -> None:
        nonlocal winner, outcome, wall_time
        label = done.tag.label
        if done.killed:
            trace.event("member.terminated", label=label,
                        reason="ignored cancel past grace" if winner is None
                        else "straggler after race end")
            if winner is None:
                member_status[label] = SolveStatus.TIMEOUT
            return
        result, report = done.result or (None, None)
        if report is not None:
            audits[label] = report
        if done.error is not None:
            failures[label] = done.error
        if done.exit_code is not None:
            # A worker that died before reporting can never answer.
            trace.event("member.died", label=label, exit_code=done.exit_code)
        elif done.error is not None:
            trace.event("member.failed", label=label, error=done.error)
        elif report is not None and report.failed:
            # A wrong answer must not win: demote the member and let the
            # rest of the race continue.
            failures[label] = "audit failed: " + "; ".join(
                f"{check.name} ({check.detail})" for check in report.failures)
            trace.event("member.demoted", label=label, reason=failures[label])
        elif result.status.decided and winner is None:
            winner, outcome = done.tag, result
            wall_time = time.perf_counter() - start
            trace.event("member.won", label=label, status=str(result.status))
            # The losers stop cooperatively, or are killed past grace.
            trace.event("race.cancel_losers", winner=label)
            pool.cancel()
        else:
            trace.event("member.reported", label=label,
                        status=str(result.status))
        member_status[label] = (SolveStatus.ERROR if label in failures
                                else result.status)

    try:
        for slot, strategy in enumerate(strategies):
            pool.submit(slot, strategy, tag=strategy)
        trace.event("race.started", members=len(strategies))
        while pool.busy:
            if hub is not None:
                # Fan exported clauses out to peer inboxes; bounded per
                # iteration so the poll cadence is unaffected.
                hub.pump()
            if deadline is not None and winner is None and not timed_out \
                    and time.perf_counter() >= deadline:
                # Deadline: ask everyone still running to wind down and
                # report (cooperatively — their TIMEOUT results carry
                # partial stats), with a kill as backstop.
                timed_out = True
                trace.event("race.deadline", timeout=timeout)
                pool.cancel()
            for done in pool.wait():
                _record(done)
    finally:
        pool.close()
    if wall_time is None:
        wall_time = time.perf_counter() - start

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
