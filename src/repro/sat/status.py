"""The shared result contract: statuses, budgets, reports, cancellation.

Every layer that runs a solver — the raw CDCL engine, the coloring
pipeline, the incremental width search, the portfolio race, the batch
runner and the CLI — answers with the same vocabulary defined here:

* :class:`SolveStatus` — the five-way outcome that replaces bare
  ``satisfiable`` booleans.  TIMEOUT / BUDGET_EXHAUSTED / ERROR are
  first-class results, not exceptions, which is what makes portfolio
  members and benchmark jobs killable without losing their partial
  statistics.
* :class:`SolveLimits` — the caller-side resource budget (conflicts,
  propagations, wall-clock seconds) applied to one solve call.
* :class:`CancelToken` — cooperative cancellation: the controller sets
  it, the solver observes it at conflict/decision boundaries and
  returns a TIMEOUT result promptly with its state intact.
* :class:`SolveReport` — the flat summary shape every orchestration
  layer exposes, so the pipeline, portfolio, CLI and bench harness all
  consume one result contract.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional


class SolveStatus(Enum):
    """Outcome of a (possibly resource-bounded) solve.

    ``SAT`` and ``UNSAT`` are *decided* answers; the other three mean
    the question is still open:

    * ``TIMEOUT`` — the wall-clock limit elapsed, or the run was
      cancelled by a :class:`CancelToken` (a deadline imposed from
      outside rather than from the config).
    * ``BUDGET_EXHAUSTED`` — a conflict or propagation budget ran out.
    * ``ERROR`` — the run failed (worker crash, exception); details in
      the report's ``detail`` field.
    """

    SAT = "SAT"
    UNSAT = "UNSAT"
    TIMEOUT = "TIMEOUT"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"
    ERROR = "ERROR"

    @property
    def decided(self) -> bool:
        """True for the two definitive answers, SAT and UNSAT."""
        return self in (SolveStatus.SAT, SolveStatus.UNSAT)

    @property
    def exit_code(self) -> int:
        """DIMACS solver exit-code convention.

        10 = SAT, 20 = UNSAT, 0 = unknown (timeout / budget), and 2 for
        ERROR (matching the CLI's usage-error code).
        """
        if self is SolveStatus.SAT:
            return 10
        if self is SolveStatus.UNSAT:
            return 20
        if self is SolveStatus.ERROR:
            return 2
        return 0

    @classmethod
    def from_bool(cls, satisfiable: bool) -> "SolveStatus":
        """Lift a legacy ``satisfiable`` boolean into a status.

        .. deprecated:: 1.6
           Part of the pre-status compatibility layer.  Write
           ``SolveStatus.SAT`` / ``SolveStatus.UNSAT`` directly — the
           boolean form cannot express the three undecided statuses.
           See the migration table in ``docs/api.md``.
        """
        warnings.warn(
            "SolveStatus.from_bool() is deprecated; use SolveStatus.SAT "
            "or SolveStatus.UNSAT directly (docs/api.md has the "
            "migration table)", DeprecationWarning, stacklevel=2)
        return cls.SAT if satisfiable else cls.UNSAT

    def __str__(self) -> str:
        return self.value


class CancelToken:
    """A cooperative cancellation flag shared by a controller and workers.

    The controller calls :meth:`cancel`; solvers poll :attr:`cancelled`
    at conflict and decision boundaries and wind down with a TIMEOUT
    result instead of being killed mid-propagation.  The default backing
    event is a :class:`threading.Event`; pass a
    ``multiprocessing.Event`` (see :meth:`for_context`) to share the
    token across processes — the portfolio and batch runners do exactly
    that to stop losers promptly.
    """

    def __init__(self, event=None) -> None:
        self._event = event if event is not None else threading.Event()

    @classmethod
    def for_context(cls, context) -> "CancelToken":
        """A token backed by ``context.Event()`` of a multiprocessing
        context, shareable with fork/spawn workers."""
        return cls(context.Event())

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread/process-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.is_set()

    @property
    def event(self):
        """The backing event (for handing to worker processes)."""
        return self._event

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"CancelToken({state})"


@dataclass(frozen=True)
class SolveLimits:
    """Resource budget for one solve call.

    All fields are optional; ``None`` means unlimited.  Budgets are
    checked on conflict boundaries (and the wall clock additionally on
    decision boundaries), so the hot BCP path is untouched and an
    unbudgeted solve follows a bit-identical trajectory.

    Attributes
    ----------
    conflict_budget:
        Stop with BUDGET_EXHAUSTED once this many conflicts occurred
        *within the call* (per-query for incremental solving).
    propagation_budget:
        Same, counted in propagated literals.
    wall_clock_limit:
        Stop with TIMEOUT after this many seconds.
    """

    conflict_budget: Optional[int] = None
    propagation_budget: Optional[int] = None
    wall_clock_limit: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("conflict_budget", "propagation_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.wall_clock_limit is not None and self.wall_clock_limit <= 0:
            raise ValueError("wall_clock_limit must be positive")

    @property
    def unlimited(self) -> bool:
        return (self.conflict_budget is None
                and self.propagation_budget is None
                and self.wall_clock_limit is None)

    def as_config_kwargs(self) -> Dict[str, object]:
        """The non-None fields as ``SolverConfig`` override kwargs."""
        kwargs: Dict[str, object] = {}
        if self.conflict_budget is not None:
            kwargs["conflict_budget"] = self.conflict_budget
        if self.propagation_budget is not None:
            kwargs["propagation_budget"] = self.propagation_budget
        if self.wall_clock_limit is not None:
            kwargs["wall_clock_limit"] = self.wall_clock_limit
        return kwargs

    def merge(self, other: Optional["SolveLimits"]) -> "SolveLimits":
        """Combine two budgets, keeping the tighter bound per axis."""
        if other is None:
            return self

        def tighter(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return SolveLimits(
            conflict_budget=tighter(self.conflict_budget,
                                    other.conflict_budget),
            propagation_budget=tighter(self.propagation_budget,
                                       other.propagation_budget),
            wall_clock_limit=tighter(self.wall_clock_limit,
                                     other.wall_clock_limit))

    def with_wall_clock(self, seconds: Optional[float]) -> "SolveLimits":
        """This budget with the wall clock tightened to ``seconds``
        (a no-op when ``seconds`` is None)."""
        if seconds is None:
            return self
        return self.merge(SolveLimits(wall_clock_limit=seconds))


@dataclass
class SolveReport:
    """Flat, serialisable summary of one solve — the shared shape the
    pipeline, portfolio, batch runner and CLI all hand to callers."""

    status: SolveStatus
    wall_time: float = 0.0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    solver: str = ""
    #: Human-readable amplification: stop reason, error message, winner.
    detail: str = ""
    #: The full stats dict of the underlying run, when available.
    stats: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_stats(cls, status: SolveStatus, stats: Optional[Dict],
                   detail: str = "") -> "SolveReport":
        """Build a report from a solver ``stats`` dict."""
        stats = dict(stats or {})
        return cls(
            status=status,
            wall_time=float(stats.get("solve_time", 0.0)),
            conflicts=int(stats.get("conflicts", 0)),
            decisions=int(stats.get("decisions", 0)),
            propagations=int(stats.get("propagations", 0)),
            restarts=int(stats.get("restarts", 0)),
            solver=str(stats.get("solver", "")),
            detail=detail or str(stats.get("stop_reason", "")),
            stats=stats,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (status by name, stats dict included)."""
        return {
            "status": self.status.value,
            "wall_time": self.wall_time,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "solver": self.solver,
            "detail": self.detail,
        }

    def __repr__(self) -> str:
        return (f"SolveReport({self.status}, {self.wall_time:.3f}s, "
                f"{self.conflicts} conflicts)")
