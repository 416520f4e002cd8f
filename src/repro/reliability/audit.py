"""End-to-end auditing of solver answers.

Every layer of the stack returns an *answer* — a raw
:class:`~repro.sat.model.SolveResult`, a decoded
:class:`~repro.core.pipeline.ColoringOutcome`, a
:class:`~repro.fpga.flow.DetailedRoutingResult` — and every answer can
be wrong: a faulted solver (see :mod:`repro.reliability.faults`), a
buggy encoding, a corrupted worker.  The auditors here re-derive each
claim from first principles:

* **SAT** answers: the model must satisfy every clause of the CNF, the
  decoded coloring must be proper, and a decoded routing must respect
  track exclusivity (via the independent verifier in
  :mod:`repro.fpga.tracks`).
* **UNSAT** answers: replay the recorded proof (``proof_log``) through
  the independent RUP checker in :mod:`repro.sat.proof`.  An answer
  without a proof is *rechecked*: a budgeted re-solve with proof
  logging on and faults disabled, whose own proof is replayed the same
  way; the audit fails if the re-solve finds a model.

Each audit produces an :class:`AuditReport`: a list of named
:class:`AuditCheck` results and an overall verdict (FAIL if any check
failed, else SKIPPED if nothing was checkable, else PASS).  The
portfolio and batch runners consume these reports to reject wrong
winners and quarantine misbehaving strategies
(:mod:`repro.reliability.quarantine`).

Auditors never raise on a *bad answer* — a wrong model yields a FAIL
verdict, not an exception — and their internal re-solves always run
with fault injection disabled (``faults=False``) so a chaos plan cannot
fault the audit itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..obs import trace
from ..sat.cnf import CNF
from ..sat.model import Model, SolveResult
from ..sat.proof import solve_with_proof, verify_rup_proof
from ..sat.solver.config import SolverConfig
from ..sat.status import SolveStatus

#: Conflict budget of the re-solve that rechecks an UNSAT answer
#: without a proof.  Deliberately modest: the recheck is a smoke
#: detector, not a re-run of the experiment — an inconclusive check is
#: reported as SKIPPED, never as a pass.
DEFAULT_CROSS_CHECK_CONFLICTS = 20000


class AuditVerdict(Enum):
    """Outcome of one audit check (or of a whole report)."""

    PASS = "PASS"
    FAIL = "FAIL"
    #: Nothing checkable: an undecided status, a missing model/proof,
    #: or an inconclusive (budget-exhausted) recheck.
    SKIPPED = "SKIPPED"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AuditCheck:
    """One named re-verification step and its verdict."""

    name: str
    verdict: AuditVerdict
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {self.verdict}{suffix}"


@dataclass
class AuditReport:
    """Structured result of auditing one answer.

    ``verdict`` is FAIL when any check failed; PASS when at least one
    check passed and none failed; SKIPPED when nothing was checkable
    (e.g. the answer was TIMEOUT — there is no claim to audit).
    """

    subject: str = ""
    checks: List[AuditCheck] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def verdict(self) -> AuditVerdict:
        verdicts = [check.verdict for check in self.checks]
        if AuditVerdict.FAIL in verdicts:
            return AuditVerdict.FAIL
        if AuditVerdict.PASS in verdicts:
            return AuditVerdict.PASS
        return AuditVerdict.SKIPPED

    @property
    def passed(self) -> bool:
        """True iff the answer survived auditing (no failed check)."""
        return self.verdict is not AuditVerdict.FAIL

    @property
    def failed(self) -> bool:
        return self.verdict is AuditVerdict.FAIL

    @property
    def failures(self) -> List[AuditCheck]:
        return [check for check in self.checks
                if check.verdict is AuditVerdict.FAIL]

    def add(self, name: str, ok: Optional[bool], detail: str = "") -> None:
        """Record one check (``ok=None`` records a SKIPPED check)."""
        verdict = (AuditVerdict.SKIPPED if ok is None
                   else AuditVerdict.PASS if ok else AuditVerdict.FAIL)
        self.checks.append(AuditCheck(name, verdict, detail))

    def extend(self, other: "AuditReport") -> None:
        self.checks.extend(other.checks)
        self.wall_time += other.wall_time

    def summary(self) -> str:
        """One line per check, preceded by the overall verdict."""
        head = f"audit {self.verdict}"
        if self.subject:
            head += f" [{self.subject}]"
        return "\n".join([head] + [f"  - {check}" for check in self.checks])

    def to_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "verdict": self.verdict.value,
            "wall_time": self.wall_time,
            "checks": [{"name": check.name,
                        "verdict": check.verdict.value,
                        "detail": check.detail}
                       for check in self.checks],
        }


def _observe_checks(checks: Sequence[AuditCheck]) -> None:
    """Mirror audit checks into the observability layer: one
    ``audit.check`` span event and one per-verdict counter each.  Must
    run while the audit's span is still open so the events attach to it;
    a no-op when tracing and metrics are both disabled."""
    if trace.enabled():
        for check in checks:
            trace.event("audit.check", check=check.name,
                        verdict=str(check.verdict),
                        **({"detail": check.detail} if check.detail else {}))
    if obs_metrics.enabled():
        registry = obs_metrics.registry()
        for check in checks:
            registry.inc(f"audit.checks.{check.verdict}".lower())


def _observe_report(report: AuditReport, audit_span) -> None:
    """Close out one audit's observability: verdict attribute on the
    span, check events, and the per-verdict report counter."""
    audit_span.set("verdict", str(report.verdict))
    _observe_checks(report.checks)
    if obs_metrics.enabled():
        obs_metrics.registry().inc(f"audit.{report.verdict}".lower())


def _check_model(report: AuditReport, cnf: CNF,
                 model: Optional[Model]) -> None:
    """SAT-side check: the model satisfies every clause of the CNF."""
    if model is None:
        report.add("model-present", False, "SAT answer carries no model")
        return
    if model.num_vars < cnf.num_vars:
        report.add("model-satisfies-cnf", False,
                   f"model covers {model.num_vars} of {cnf.num_vars} "
                   f"variables")
        return
    index = model.falsified_clause(cnf)
    if index >= 0:
        report.add("model-satisfies-cnf", False,
                   f"clause {index} falsified: {cnf.clauses[index]}")
        return
    report.add("model-satisfies-cnf", True,
               f"{cnf.num_clauses} clauses satisfied")


def _check_proof(report: AuditReport, cnf: CNF,
                 proof: Sequence[Sequence[int]], audit_span,
                 hints=None) -> None:
    """UNSAT-side check: replay the recorded proof through the
    independent RUP checker, hinted when the solver logged hints (a
    hint that reaches no conflict is a miss and its step gets the full
    RUP check)."""
    outcome = verify_rup_proof(cnf, proof, hints=hints)
    detail = (f"{outcome.steps} steps verified ({outcome.hinted} hinted, "
              f"{outcome.hint_misses} hint misses)" if outcome.ok
              else outcome.error)
    report.add("proof-replay", outcome.ok, detail)
    audit_span.set("proof_steps", outcome.steps)
    audit_span.set("hinted_steps", outcome.hinted)
    audit_span.set("hint_misses", outcome.hint_misses)
    if obs_metrics.enabled():
        registry = obs_metrics.registry()
        registry.inc("proof.hinted_steps", outcome.hinted)
        registry.inc("proof.hint_misses", outcome.hint_misses)


def _recheck_unsat(report: AuditReport, cnf: CNF, conflict_budget: int,
                   audit_span) -> None:
    """UNSAT-side check of an answer that carries no proof: a budgeted
    re-solve with proof logging on and faults off, whose new proof is
    replayed by :func:`_check_proof`.

    A model that satisfies the formula refutes the UNSAT claim (FAIL);
    an exhausted budget is recorded as SKIPPED — inconclusive is not a
    pass.
    """
    result, proof = solve_with_proof(cnf, SolverConfig(
        conflict_budget=conflict_budget, fault_plan=False,
        name="audit-recheck"))
    if result.status is SolveStatus.UNSAT:
        _check_proof(report, cnf, proof, audit_span)
    elif result.status is SolveStatus.SAT and result.model.satisfies(cnf):
        report.add("unsat-recheck", False,
                   "re-solve found a model for the formula claimed UNSAT")
    else:
        report.add("unsat-recheck", None,
                   f"re-solve inconclusive: {result.status} after "
                   f"{int(result.stats.get('conflicts', 0))} conflicts")


def audit_solve(cnf: CNF, result: SolveResult,
                proof: Optional[Sequence[Sequence[int]]] = None, *,
                subject: str = "",
                cross_check: bool = True,
                cross_check_conflicts: int = DEFAULT_CROSS_CHECK_CONFLICTS
                ) -> AuditReport:
    """Audit a raw solver answer against the CNF it was asked about.

    SAT → the model must satisfy the formula.  UNSAT → replay ``proof``
    when given, else (``cross_check``) recheck with a re-solve of at
    most ``cross_check_conflicts`` conflicts and replay its proof.
    Undecided statuses have no claim to audit and yield SKIPPED.
    """
    start = time.perf_counter()
    report = AuditReport(subject=subject)
    with trace.span("audit", kind="solve", subject=subject,
                    status=str(result.status)) as audit_span:
        if result.status is SolveStatus.SAT:
            _check_model(report, cnf, result.model)
        elif result.status is SolveStatus.UNSAT:
            if proof is not None:
                _check_proof(report, cnf, proof, audit_span)
            elif cross_check:
                _recheck_unsat(report, cnf, cross_check_conflicts,
                               audit_span)
            else:
                report.add("unsat-claim", None,
                           "no proof recorded and cross-check disabled")
        else:
            report.add("status", None,
                       f"nothing to audit for {result.status}")
        report.wall_time = time.perf_counter() - start
        _observe_report(report, audit_span)
    return report


def _encode(problem, strategy) -> CNF:
    """Re-encode ``problem`` exactly as the pipeline did (encoding is
    deterministic given the strategy)."""
    from ..core.encodings.registry import get_encoding
    from ..core.symmetry.clauses import apply_symmetry
    encoded = get_encoding(strategy.encoding).encode(problem)
    apply_symmetry(encoded, strategy.symmetry)
    return encoded.cnf


def audit_outcome(problem, outcome, *,
                  cross_check: bool = True,
                  cross_check_conflicts: int = DEFAULT_CROSS_CHECK_CONFLICTS
                  ) -> AuditReport:
    """Audit a pipeline :class:`ColoringOutcome` end to end.

    SAT → the decoded coloring must be proper; when the outcome retained
    its model (``solve_coloring(..., keep_model=True)``), the model is
    additionally checked against a re-encoding of the problem.  UNSAT →
    proof replay when the outcome carries a proof, else a recheck of
    the re-encoded formula (see :func:`audit_solve`).
    """
    start = time.perf_counter()
    strategy = outcome.strategy
    report = AuditReport(subject=strategy.label)
    with trace.span("audit", kind="outcome", subject=strategy.label,
                    status=str(outcome.status)) as audit_span:
        if outcome.status is SolveStatus.SAT:
            coloring = outcome.coloring
            if coloring is None:
                report.add("coloring-present", False,
                           "SAT answer carries no coloring")
            else:
                ok = problem.is_valid_coloring(coloring)
                report.add("coloring-proper", ok,
                           "" if ok else "decoded coloring has a conflict "
                                         "or an out-of-range color")
            model = getattr(outcome, "model", None)
            if model is not None:
                _check_model(report, _encode(problem, strategy), model)
        elif outcome.status is SolveStatus.UNSAT:
            proof = getattr(outcome, "proof", None)
            if proof is not None:
                _check_proof(report, _encode(problem, strategy), proof,
                             audit_span,
                             getattr(outcome, "proof_hints", None))
            elif cross_check:
                _recheck_unsat(report, _encode(problem, strategy),
                               cross_check_conflicts, audit_span)
            else:
                report.add("unsat-claim", None,
                           "no proof recorded and cross-check disabled")
        else:
            detail = str(outcome.solver_stats.get("stop_reason", ""))
            report.add("status", None,
                       f"nothing to audit for {outcome.status}"
                       + (f" ({detail})" if detail else ""))
        report.wall_time = time.perf_counter() - start
        _observe_report(report, audit_span)
    return report


def audit_routing(result, *,
                  cross_check: bool = True,
                  cross_check_conflicts: int = DEFAULT_CROSS_CHECK_CONFLICTS
                  ) -> AuditReport:
    """Audit a :class:`DetailedRoutingResult`: the underlying coloring
    outcome plus routing-level track exclusivity on the decoded
    assignment (via the independent verifier)."""
    report = audit_outcome(result.csp.problem, result.outcome,
                           cross_check=cross_check,
                           cross_check_conflicts=cross_check_conflicts)
    start = time.perf_counter()
    checked = len(report.checks)
    with trace.span("audit.routing", subject=report.subject) as audit_span:
        if result.status is SolveStatus.SAT:
            if result.assignment is None:
                report.add("track-exclusivity", False,
                           "routable answer carries no track assignment")
            else:
                from ..fpga.tracks import verify_track_assignment
                violations = verify_track_assignment(result.assignment)
                report.add("track-exclusivity", not violations,
                           "; ".join(violations[:3]))
        report.wall_time += time.perf_counter() - start
        audit_span.set("verdict", str(report.verdict))
        # Only the routing-level checks: the inner audit_outcome span
        # already observed the rest.
        _observe_checks(report.checks[checked:])
    return report


def audit_result(result, *, problem=None, cnf: Optional[CNF] = None,
                 proof: Optional[Sequence[Sequence[int]]] = None,
                 **options) -> AuditReport:
    """Audit any answer the stack produces, dispatching on its type.

    * :class:`SolveResult` — requires ``cnf`` (and optionally ``proof``).
    * :class:`ColoringOutcome` — requires ``problem``.
    * :class:`DetailedRoutingResult` — self-contained.
    """
    if isinstance(result, SolveResult):
        if cnf is None:
            raise ValueError("auditing a SolveResult requires cnf=")
        return audit_solve(cnf, result, proof, **options)
    from ..core.pipeline import ColoringOutcome
    if isinstance(result, ColoringOutcome):
        if problem is None:
            raise ValueError("auditing a ColoringOutcome requires problem=")
        return audit_outcome(problem, result, **options)
    from ..fpga.flow import DetailedRoutingResult
    if isinstance(result, DetailedRoutingResult):
        return audit_routing(result, **options)
    raise TypeError(f"don't know how to audit {type(result).__name__}")
