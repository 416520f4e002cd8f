"""repro.serve — the solver as a long-running service.

A thin asyncio front end (:class:`~repro.serve.server.SolveService`)
accepts :class:`repro.api.SolveRequest` wire payloads over a JSON-lines
TCP protocol, runs them on the package's one worker pool
(:class:`repro.core.pool.WorkerPool`, kept for the life of the service
and driven from its event loop), and answers
with :class:`repro.api.SolveResponse` payloads.  Between the two sits
the piece that makes a service worthwhile for benchmark-style workloads
(the same instances resubmitted across sweeps, CI runs and parameter
studies): a **content-addressed result cache**
(:class:`~repro.serve.cache.ResultCache`) keyed by the SHA-256 of the
canonical instance bytes plus (K, strategies, limits).  Fills are
audit-verified (:mod:`repro.reliability.audit`) before they may be
served to anyone else; hits skip the pool entirely.

Admission control (:class:`~repro.serve.admission.AdmissionController`)
bounds the queue, caps per-client concurrency, clamps every job's
budget under a server-wide :class:`~repro.sat.status.SolveLimits`
ceiling, and quarantines clients whose jobs keep erroring — reusing
:class:`repro.reliability.quarantine.QuarantineTracker` unchanged.

Operational counters (hits, misses, evictions, fills, admission
rejections, per-status job counts) land in :mod:`repro.obs.metrics`
under the ``serve.*`` prefix and are served by the ``metrics`` op — the
``/metrics``-style dump endpoint.

The service is built to *stay up* (see ``docs/serving.md`` →
"Resilience"): the pool SIGKILLs a job still running past its
wall-clock budget plus the pool's grace period and forks a fresh worker
for the slot's next job; a durable
write-ahead :class:`~repro.serve.journal.RequestJournal` makes every
admitted request survive a server crash (replayed on the next boot
through the same audit-guarded cache-fill path); ``SIGTERM`` and the
``shutdown`` op drain instead of dropping in-flight work; and
:class:`~repro.serve.resilience.ResilientClient` wraps
:class:`~repro.serve.client.ServeClient` with per-request deadlines,
jittered-backoff retries (safe — submission is idempotent by content
address) and a half-open circuit breaker.

See ``docs/serving.md`` for the architecture and the cache-invalidation
rules, ``repro serve`` / ``repro submit`` for the CLI,
``python -m repro.serve.smoke`` for the end-to-end smoke check and
``python -m repro.serve.chaos`` for the crash/recovery chaos suite.
"""

from .admission import AdmissionController, AdmissionDecision, AdmissionPolicy
from .cache import ResultCache
from .client import ServeClient, ServeError, ServeRejected
from .journal import MAX_RECOVERY_ATTEMPTS, PendingEntry, RequestJournal
from .resilience import (CircuitBreaker, CircuitOpenError, ResilientClient,
                         RetryPolicy)
from .server import SolveService

__all__ = [
    "AdmissionController", "AdmissionDecision", "AdmissionPolicy",
    "CircuitBreaker", "CircuitOpenError", "MAX_RECOVERY_ATTEMPTS",
    "PendingEntry", "RequestJournal", "ResilientClient", "ResultCache",
    "RetryPolicy", "ServeClient", "ServeError", "ServeRejected",
    "SolveService",
]
