"""Reliability engineering for the reproduction harness.

Two halves, designed to be used together:

* :mod:`repro.reliability.faults` — deterministic, seedable fault
  injection (:class:`FaultPlan` / :class:`FaultInjector`) wired into
  the CDCL engine, the pipeline's encode step, and the portfolio /
  batch worker processes.  Activated per-call or via the
  ``REPRO_FAULTS`` environment variable.
* :mod:`repro.reliability.audit` — end-to-end re-verification of every
  answer (:func:`audit_result` and friends), producing structured
  :class:`AuditReport` objects; :mod:`repro.reliability.quarantine`
  turns repeated failures into capped exponential backoff.

See ``docs/reliability.md`` for the guarantees and a chaos-testing
quickstart.
"""

from .audit import (AuditCheck, AuditReport, AuditVerdict, audit_outcome,
                    audit_result, audit_routing, audit_solve)
from .faults import (CRASH_EXIT_CODE, ENV_VAR, FAULT_KINDS, FAULT_SITES,
                     FaultInjector, FaultPlan, FaultSpec, InjectedFault)
from .quarantine import QuarantinePolicy, QuarantineTracker, StrategyHealth

__all__ = [
    "AuditCheck", "AuditReport", "AuditVerdict",
    "audit_outcome", "audit_result", "audit_routing", "audit_solve",
    "CRASH_EXIT_CODE", "ENV_VAR", "FAULT_KINDS", "FAULT_SITES",
    "FaultInjector", "FaultPlan", "FaultSpec", "InjectedFault",
    "QuarantinePolicy", "QuarantineTracker", "StrategyHealth",
]
