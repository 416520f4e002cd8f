"""Cross-encoding / cross-engine differential solving.

The paper's premise makes every instance its own oracle: every
registered CSP-to-SAT encoding (the paper's 15 plus the modern
at-most-one and partial-order families), every symmetry-breaking
variant and both engine configurations (plain and inprocessing) are
equivalent reformulations of the same coloring problem, so
*any* SAT/UNSAT disagreement between two strategies is a bug by
construction.  This module solves one instance under a configurable
(encoding × symmetry × engine) matrix and cross-checks:

* **status agreement** — all decided answers must coincide;
* **ground truth** — when the instance is small enough for the
  brute-force oracle (or the generator knew the answer by
  construction), every decided answer must match it;
* **answer integrity** — every SAT model is re-audited against a
  re-encoding of the problem and every UNSAT answer's recorded proof is
  replayed, via :mod:`repro.reliability.audit`;
* **no degradations** — an ERROR status (a model that failed to decode,
  an improper decoded coloring) is itself a failure signature.

Each violated check becomes a :class:`FailureSignature` — a small,
comparable description of *what* disagreed — which the shrinker
(:mod:`repro.qa.shrink`) preserves while minimizing the instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..coloring.problem import ColoringProblem
from ..core.encodings.registry import (ALL_ENCODINGS, EXTENSION_ENCODINGS,
                                       MODERN_ENCODINGS, REGISTRY_ENCODINGS,
                                       TABLE2_ENCODINGS)
from ..core.pipeline import ColoringOutcome, solve_coloring
from ..core.strategy import Strategy
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..reliability.audit import AuditReport, audit_outcome
from ..sat.status import SolveLimits, SolveStatus
from .generators import MAX_ORACLE_VERTICES, QAInstance

#: Per-strategy solve budget inside the differential runner: generous for
#: the tiny generated instances, but a hard stop against a pathological
#: (instance, strategy) pair starving the rest of the matrix.
DEFAULT_SOLVE_LIMITS = SolveLimits(conflict_budget=50_000,
                                   wall_clock_limit=10.0)

#: Named strategy-matrix presets for the CLI (``--matrix quick``).
MATRIX_PRESETS = ("full", "quick", "engines")


@dataclass(frozen=True)
class StrategyMatrix:
    """The (encoding × symmetry × engine) grid of strategies to race.

    Parsed from a ``--matrix`` spec: either a preset name (``full``,
    ``quick``, ``engines``) or ``;``-separated dimensions::

        encodings=registry|all|table2|extensions|modern|<name>,...;
        symmetry=none,b1,s1,c1;
        engine=arena,arena+inprocess

    Unspecified dimensions keep the ``full`` defaults.  ``full`` now
    means the *whole registry* — the paper's 15 plus the seqdirect,
    modern at-most-one and partial-order families — so every newly
    registered encoding is differentially checked by default.
    """

    encodings: Tuple[str, ...] = tuple(REGISTRY_ENCODINGS)
    symmetries: Tuple[str, ...] = ("none", "s1")
    engines: Tuple[str, ...] = ("arena", "arena+inprocess")

    def strategies(self) -> List[Strategy]:
        """Materialise the grid (validates every name eagerly)."""
        grid = [Strategy(encoding, symmetry, engine=engine)
                for encoding in self.encodings
                for symmetry in self.symmetries
                for engine in self.engines]
        if not grid:
            raise ValueError("empty strategy matrix")
        return grid

    @property
    def size(self) -> int:
        return len(self.encodings) * len(self.symmetries) * len(self.engines)

    def describe(self) -> str:
        return (f"{len(self.encodings)} encodings x "
                f"{len(self.symmetries)} symmetry x "
                f"{len(self.engines)} engines = {self.size} strategies")

    @classmethod
    def parse(cls, spec: Optional[str]) -> "StrategyMatrix":
        if not spec or spec == "full":
            return cls()
        if spec == "quick":
            # The fuzz-smoke matrix: inprocessing on vs off rides along
            # on every quick run, so the flag set added for the
            # conflict-heavy suite is differentially checked for free.
            # One representative of each new family (commander AMO,
            # POP, POP-H) rides along too — a smoke run must exercise
            # the auxiliary-variable and threshold-ladder code paths.
            return cls(encodings=tuple(TABLE2_ENCODINGS)
                       + ("cmddirect", "pop", "pop-h"),
                       symmetries=("none", "s1"),
                       engines=("arena", "arena+inprocess"))
        if spec == "engines":
            # Pure engine differential: one encoding, every engine.
            return cls(encodings=("muldirect",), symmetries=("none", "s1"),
                       engines=("arena", "arena+inprocess"))
        kwargs: Dict[str, Tuple[str, ...]] = {}
        for item in spec.split(";"):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            key = key.strip().lower()
            if not sep:
                raise ValueError(f"malformed matrix dimension {item!r} "
                                 f"(want key=value)")
            names = tuple(name.strip() for name in value.split(",")
                          if name.strip())
            if key in ("encoding", "encodings"):
                expanded: List[str] = []
                for name in names:
                    if name == "all":
                        expanded.extend(ALL_ENCODINGS)
                    elif name == "registry":
                        expanded.extend(REGISTRY_ENCODINGS)
                    elif name == "table2":
                        expanded.extend(TABLE2_ENCODINGS)
                    elif name == "extensions":
                        expanded.extend(EXTENSION_ENCODINGS)
                    elif name == "modern":
                        expanded.extend(MODERN_ENCODINGS)
                    else:
                        expanded.append(name)
                kwargs["encodings"] = tuple(dict.fromkeys(expanded))
            elif key in ("symmetry", "symmetries"):
                kwargs["symmetries"] = names
            elif key in ("engine", "engines"):
                kwargs["engines"] = names
            else:
                raise ValueError(f"unknown matrix dimension {key!r} "
                                 f"(known: encodings, symmetry, engine)")
        matrix = cls(**kwargs)
        matrix.strategies()  # validate names eagerly
        return matrix


@dataclass(frozen=True)
class FailureSignature:
    """A comparable description of one differential failure.

    ``members`` pins the offending strategies *and* what each answered
    (label → status string, or the failed audit check), so the shrinker
    can require the exact same disagreement on a reduced instance.
    """

    kind: str  # status-disagreement | oracle-mismatch | solve-error
    #         # | audit-failure | metamorphic
    members: Tuple[Tuple[str, str], ...]
    detail: str = ""

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.members)

    def __str__(self) -> str:
        parts = ", ".join(f"{label}={what}" for label, what in self.members)
        text = f"{self.kind}: {parts}"
        if self.detail:
            text += f" ({self.detail})"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "detail": self.detail,
                "members": [{"strategy": label, "answer": what}
                            for label, what in self.members]}


@dataclass
class DifferentialResult:
    """Everything one differential run learned about one instance."""

    problem: ColoringProblem
    strategies: List[Strategy]
    outcomes: Dict[str, ColoringOutcome] = field(default_factory=dict)
    audits: Dict[str, AuditReport] = field(default_factory=dict)
    oracle: Optional[bool] = None
    failures: List[FailureSignature] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def consensus(self) -> Optional[SolveStatus]:
        """The agreed decided status, or None (undecided or disputed)."""
        decided = {outcome.status for outcome in self.outcomes.values()
                   if outcome.status.decided}
        if len(decided) == 1:
            return decided.pop()
        return None

    def summary(self) -> str:
        head = (f"differential {'OK' if self.ok else 'FAIL'}: "
                f"{len(self.outcomes)} strategies, "
                f"consensus={self.consensus}")
        lines = [head] + [f"  - {failure}" for failure in self.failures]
        return "\n".join(lines)


def _compute_oracle(problem: ColoringProblem) -> Optional[bool]:
    """Brute-force ground truth for oracle-sized instances."""
    if problem.num_vertices > MAX_ORACLE_VERTICES:
        return None
    from ..coloring.brute import is_colorable
    return is_colorable(problem.graph, problem.num_colors)


def run_differential(problem: ColoringProblem,
                     strategies: Sequence[Strategy], *,
                     limits: Optional[SolveLimits] = DEFAULT_SOLVE_LIMITS,
                     audit: bool = True,
                     oracle: Optional[bool] = None,
                     use_oracle: bool = True,
                     faults=None) -> DifferentialResult:
    """Solve ``problem`` under every strategy and cross-check the answers.

    ``oracle`` supplies ground truth when the caller knows it (a
    generator that built the instance to be UNSAT); otherwise the
    brute-force oracle is consulted for small instances unless
    ``use_oracle`` is False.  ``faults`` is forwarded to the pipeline —
    a fuzzing campaign injects an encoding bug there and this runner
    must flag it.  Auditing always runs with faults disabled (the audit
    layer's own rule), so a faulted strategy cannot fault its audit.
    """
    labels = [strategy.label for strategy in strategies]
    if len(set(labels)) != len(labels):
        raise ValueError("strategy matrix contains duplicate labels")
    result = DifferentialResult(problem=problem, strategies=list(strategies))
    start = time.perf_counter()
    with trace.span("qa.differential", strategies=len(strategies),
                    vertices=problem.num_vertices,
                    colors=problem.num_colors) as span:
        if oracle is None and use_oracle:
            oracle = _compute_oracle(problem)
        result.oracle = oracle
        for strategy in strategies:
            outcome = solve_coloring(problem, strategy, limits=limits,
                                     faults=faults, keep_model=True,
                                     proof_log=True)
            result.outcomes[strategy.label] = outcome
            if obs_metrics.enabled():
                obs_metrics.registry().inc("qa.solves")
            if audit and outcome.status.decided:
                result.audits[strategy.label] = audit_outcome(
                    problem, outcome)
        result.failures = _cross_check(result)
        result.wall_time = time.perf_counter() - start
        span.set("failures", len(result.failures))
        if result.failures and trace.enabled():
            for failure in result.failures:
                trace.event("qa.disagreement", kind=failure.kind,
                            detail=str(failure))
        if obs_metrics.enabled():
            registry = obs_metrics.registry()
            registry.inc("qa.differential_runs")
            registry.inc("qa.failures", len(result.failures))
            registry.observe("qa.differential_time", result.wall_time)
    return result


def _cross_check(result: DifferentialResult) -> List[FailureSignature]:
    """Derive the failure signatures of one finished differential run."""
    failures: List[FailureSignature] = []
    outcomes = result.outcomes

    errors = [(label, str(outcome.status))
              for label, outcome in outcomes.items()
              if outcome.status is SolveStatus.ERROR]
    if errors:
        details = [str(outcomes[label].solver_stats.get("stop_reason", ""))
                   for label, _ in errors]
        failures.append(FailureSignature(
            kind="solve-error", members=tuple(errors),
            detail="; ".join(filter(None, details))[:200]))

    sat = [label for label, outcome in outcomes.items()
           if outcome.status is SolveStatus.SAT]
    unsat = [label for label, outcome in outcomes.items()
             if outcome.status is SolveStatus.UNSAT]
    if sat and unsat:
        members = tuple([(label, "SAT") for label in sat]
                        + [(label, "UNSAT") for label in unsat])
        failures.append(FailureSignature(
            kind="status-disagreement", members=members,
            detail=f"{len(sat)} SAT vs {len(unsat)} UNSAT"))

    if result.oracle is not None:
        expected = SolveStatus.SAT if result.oracle else SolveStatus.UNSAT
        wrong = [(label, str(outcome.status))
                 for label, outcome in outcomes.items()
                 if outcome.status.decided and outcome.status is not expected]
        if wrong:
            failures.append(FailureSignature(
                kind="oracle-mismatch", members=tuple(wrong),
                detail=f"ground truth is {expected}"))

    bad_audits = [(label, report.failures[0].name)
                  for label, report in result.audits.items()
                  if report.failed]
    if bad_audits:
        details = [check.detail
                   for report in result.audits.values()
                   for check in report.failures]
        failures.append(FailureSignature(
            kind="audit-failure", members=tuple(bad_audits),
            detail="; ".join(filter(None, details))[:200]))

    return failures


def recheck_failure(problem: ColoringProblem,
                    strategies: Sequence[Strategy],
                    signature: FailureSignature, *,
                    limits: Optional[SolveLimits] = DEFAULT_SOLVE_LIMITS,
                    faults=None) -> bool:
    """Does ``signature`` reproduce on ``problem``?  (The shrinker's
    predicate.)

    Only the strategies named by the signature are re-run, and the
    reduced instance must reproduce the *same* failure: same kind, same
    strategies, same per-strategy answers.  The oracle is recomputed —
    a reduced instance has its own ground truth.
    """
    involved = [strategy for strategy in strategies
                if strategy.label in set(signature.labels)]
    if not involved:
        return False
    audit = signature.kind == "audit-failure"
    rerun = run_differential(problem, involved, limits=limits, audit=audit,
                             use_oracle=signature.kind == "oracle-mismatch",
                             faults=faults)
    for failure in rerun.failures:
        if failure.kind != signature.kind:
            continue
        if signature.kind == "audit-failure":
            # The failing check may legitimately change as the instance
            # shrinks (e.g. which clause is falsified); require the same
            # strategies to keep failing their audits.
            if set(failure.labels) >= set(signature.labels):
                return True
        elif set(signature.members) <= set(failure.members):
            return True
    return False
