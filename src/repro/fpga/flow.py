"""End-to-end detailed-routing flow.

Ties the layers together exactly as the paper's tool flow does:

    global routing → conflict graph (DIMACS .col) → CNF (chosen encoding,
    optional symmetry breaking) → CDCL → track assignment / unroutability
    proof,

with the three-way timing split reported in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..core.pipeline import ColoringOutcome, least_colorable, solve_coloring
from ..core.strategy import Strategy
from ..sat.status import CancelToken, SolveLimits, SolveReport, SolveStatus
from .detailed import RoutingCSP, build_routing_csp
from .global_route import GlobalRouting
from .tracks import (TrackAssignment, assignment_from_coloring,
                     verify_track_assignment)


@dataclass
class DetailedRoutingResult:
    """Outcome of one detailed-routing attempt at a fixed channel width."""

    csp: RoutingCSP
    strategy: Strategy
    routable: bool
    assignment: Optional[TrackAssignment]
    outcome: ColoringOutcome

    @property
    def width(self) -> int:
        return self.csp.width

    @property
    def status(self) -> SolveStatus:
        """The underlying solve's status.  ``routable`` is only
        meaningful when this is decided (SAT/UNSAT); a budgeted attempt
        may be TIMEOUT or BUDGET_EXHAUSTED instead."""
        return self.outcome.status

    @property
    def report(self) -> SolveReport:
        return self.outcome.report

    @property
    def total_time(self) -> float:
        """graph-coloring generation + CNF translation + SAT solving."""
        return self.outcome.total_time


def detailed_route(routing: GlobalRouting, width: int,
                   strategy: Strategy,
                   limits: Optional[SolveLimits] = None,
                   cancel: Optional[CancelToken] = None,
                   ) -> DetailedRoutingResult:
    """Attempt a detailed routing with ``width`` tracks per channel.

    A SAT answer yields a verified :class:`TrackAssignment`; an UNSAT
    answer is a *proof* that this global routing has no detailed routing at
    this width — the capability the paper highlights over one-net-at-a-time
    routers.  A SAT answer whose decoded routing is illegal comes back as
    ERROR, with the first violation as its ``stop_reason``.  ``limits`` /
    ``cancel`` bound the attempt; check ``result.status`` before trusting
    ``routable`` on a bounded run.
    """
    csp = build_routing_csp(routing, width)
    outcome = solve_coloring(csp.problem, strategy, graph_time=csp.build_time,
                             limits=limits, cancel=cancel)
    assignment = None
    if outcome.is_sat:
        assignment = assignment_from_coloring(csp, outcome.coloring)
        violations = verify_track_assignment(assignment)
        if violations:
            assignment = None
            outcome = replace(
                outcome, status=SolveStatus.ERROR, coloring=None,
                solver_stats={**outcome.solver_stats, "stop_reason":
                              "decoded track assignment is illegal: "
                              + violations[0]})
    return DetailedRoutingResult(csp=csp, strategy=strategy,
                                 routable=outcome.is_sat,
                                 assignment=assignment, outcome=outcome)


def minimum_channel_width(routing: GlobalRouting, strategy: Strategy,
                          lower: Optional[int] = None,
                          upper: Optional[int] = None,
                          limits: Optional[SolveLimits] = None,
                          cancel: Optional[CancelToken] = None) -> int:
    """Smallest W admitting a detailed routing, by SAT binary search.

    Bracketed by the clique lower bound and the DSATUR upper bound on the
    conflict graph, then narrowed with exact SAT answers; each probe is a
    :func:`detailed_route`, so a routable answer is also checked for
    track legality.  ``W - 1`` is then provably unroutable — how the
    benchmark harness constructs the challenging UNSAT configurations of
    Table 2.

    ``limits.wall_clock_limit`` bounds the *whole* search (each probe
    gets the remaining time); conflict/propagation budgets apply per
    probe.  A probe that stops undecided (including an ERROR) aborts
    the search with :class:`BudgetExceeded`; see
    :func:`~repro.core.pipeline.least_colorable`.
    """
    graph = build_routing_csp(routing, 1).problem.graph

    def probe(width: int, probe_limits: Optional[SolveLimits]) -> SolveStatus:
        return detailed_route(routing, width, strategy, limits=probe_limits,
                              cancel=cancel).status

    return least_colorable(graph, probe, lower, upper, limits)
