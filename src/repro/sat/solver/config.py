"""Solver configuration and the two presets used in the experiments.

The paper solved its CNF instances with two off-the-shelf CDCL solvers,
``siege_v4`` and ``MiniSat``, and reports that siege was at least 2x faster
on the (hard) unsatisfiable instances while MiniSat had a small edge on the
(easy) satisfiable ones.  We reproduce the *two-solver* methodology with two
presets of our own CDCL core that differ in restart policy, polarity policy
and randomisation — the axes along which siege and MiniSat actually
differed — rather than shipping two separate engines.  The core is one
engine, the clause-arena :class:`~repro.sat.solver.cdcl.CDCLSolver`,
with one search configuration per preset: its learned-clause database
is always reduced by Glucose-style LBD tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class SolverConfig:
    """Tunable parameters of the CDCL solver.

    Attributes
    ----------
    var_decay:
        Multiplicative VSIDS decay applied after each conflict (the
        activity *increment* is divided by this, MiniSat-style).
    clause_decay:
        Decay for learned-clause activities, the tie-breaker of DB
        reduction within an LBD.
    restart_policy:
        ``"luby"`` (MiniSat 2.x) or ``"geometric"`` (early MiniSat/siege).
    restart_base:
        Conflicts per Luby unit, or the first geometric interval.
    restart_factor:
        Growth factor for the geometric policy.
    default_phase:
        Polarity for never-before-assigned variables: ``"false"``,
        ``"true"`` or ``"random"``.  Previously assigned variables always
        reuse their saved phase.
    random_decision_freq:
        Probability that a decision picks a uniformly random unassigned
        variable instead of the VSIDS maximum (siege-style diversification).
    seed:
        Seed for the solver's private RNG (decisions are deterministic
        given the seed).
    max_learnts_factor:
        Initial learned-clause limit as a fraction of original clauses.
    max_learnts_growth:
        Growth factor applied to the learned-clause limit at each restart.
    max_conflicts:
        Optional *hard* conflict budget; exceeding it raises
        :class:`~repro.sat.solver.cdcl.BudgetExceeded`.  Prefer
        ``conflict_budget`` for the non-raising, status-based variant.
    max_decisions:
        Optional hard decision budget, enforced the same way.
    conflict_budget:
        Soft per-call conflict budget: after this many conflicts within
        one ``solve()`` call the solver stops and returns a result with
        ``status=SolveStatus.BUDGET_EXHAUSTED`` and valid partial
        stats.  Checked on conflict boundaries only, so the hot BCP
        path is untouched and an unbudgeted run is bit-identical.
    propagation_budget:
        Soft per-call propagation budget, same semantics (checked on
        conflict boundaries).
    wall_clock_limit:
        Soft per-call deadline in seconds; exceeding it returns
        ``status=SolveStatus.TIMEOUT``.  Checked on conflict and
        decision boundaries.
    fault_plan:
        Fault-injection control (see :mod:`repro.reliability.faults`):
        ``None`` (default) activates only faults configured via the
        ``REPRO_FAULTS`` environment variable, a
        :class:`~repro.reliability.faults.FaultPlan` adds explicit
        faults on top, and ``False`` disables injection entirely (used
        by the audit layer so its re-solves cannot be faulted).  With
        no plan active the solver takes the exact same code path as
        before this field existed.
    proof_log:
        When True, the solver records every learned clause (a DRUP-style
        clausal proof).  On UNSAT the recorded sequence, terminated by the
        empty clause, can be independently verified with
        :func:`repro.sat.proof.check_rup_proof` — turning "provably
        unroutable" into a checkable certificate.
    phase_timing:
        Record a per-phase wall-time split (``time_propagate``,
        ``time_analyze`` and ``time_reduce`` in ``stats``).  Off by
        default: the checks cost a few percent but never change the
        trajectory.
    name:
        Human-readable preset name, reported in statistics.
    """

    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_policy: str = "luby"
    restart_base: int = 100
    restart_factor: float = 1.5
    default_phase: str = "false"
    random_decision_freq: float = 0.0
    seed: int = 0
    max_learnts_factor: float = 0.33
    max_learnts_growth: float = 1.1
    max_conflicts: Optional[int] = None
    max_decisions: Optional[int] = None
    conflict_budget: Optional[int] = None
    propagation_budget: Optional[int] = None
    wall_clock_limit: Optional[float] = None
    proof_log: bool = False
    phase_timing: bool = False
    name: str = "cdcl"
    #: None = env-configured faults only; FaultPlan = add these faults;
    #: False = injection disabled (audit re-solves).  ``object`` rather
    #: than an Optional[FaultPlan] annotation keeps this module free of
    #: reliability imports (the engine resolves it lazily).
    fault_plan: object = None

    def __post_init__(self) -> None:
        if self.restart_policy not in ("luby", "geometric"):
            raise ValueError(f"unknown restart policy {self.restart_policy!r}")
        if self.default_phase not in ("false", "true", "random"):
            raise ValueError(f"unknown default phase {self.default_phase!r}")
        if not 0.0 <= self.random_decision_freq <= 1.0:
            raise ValueError("random_decision_freq must be in [0, 1]")
        if not 0.0 < self.var_decay <= 1.0:
            raise ValueError("var_decay must be in (0, 1]")
        for name in ("conflict_budget", "propagation_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.wall_clock_limit is not None and self.wall_clock_limit <= 0:
            raise ValueError("wall_clock_limit must be positive")

    @property
    def budgeted(self) -> bool:
        """True when any soft budget (status-returning) is configured."""
        return (self.conflict_budget is not None
                or self.propagation_budget is not None
                or self.wall_clock_limit is not None)


def minisat_like(seed: int = 0, **overrides) -> SolverConfig:
    """MiniSat-flavoured preset: Luby restarts, saved phases, no randomness."""
    params = dict(var_decay=0.95, restart_policy="luby", restart_base=100,
                  default_phase="false", random_decision_freq=0.0,
                  seed=seed, name="minisat_like")
    params.update(overrides)
    return SolverConfig(**params)


def siege_like(seed: int = 0, **overrides) -> SolverConfig:
    """Siege-flavoured preset: aggressive geometric restarts plus a small
    random-decision rate, which on our instances (as in the paper) pays off
    on hard unsatisfiable formulas."""
    params = dict(var_decay=0.90, restart_policy="geometric",
                  restart_base=120, restart_factor=1.2,
                  default_phase="false", random_decision_freq=0.02,
                  seed=seed, name="siege_like")
    params.update(overrides)
    return SolverConfig(**params)


PRESETS = {
    "minisat_like": minisat_like,
    "siege_like": siege_like,
}


def preset(name: str, seed: int = 0, **overrides) -> SolverConfig:
    """Look up a preset by name (``minisat_like`` or ``siege_like``)."""
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown solver preset {name!r} (known: {known})") from None
    return factory(seed=seed, **overrides)
