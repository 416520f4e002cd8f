"""Client-side resilience primitives for the solve service.

:class:`RetryPolicy` (capped exponential backoff with deterministic
seeded jitter) and :class:`CircuitBreaker` (closed → open → half-open)
power :class:`ResilientClient`, a drop-in ``ServeClient`` wrapper with
per-request deadlines, reconnect-on-broken-pipe and idempotent
resubmission (see ``docs/serving.md``, "Resilience").  Retrying a solve
is *safe* because submission is content-addressed: a duplicate of an
in-flight request coalesces server-side and a duplicate of a finished
one is a cache hit.

The server side of resilience is the worker pool's deadline kill
(:class:`repro.core.pool.WorkerPool`, driven by
:class:`repro.serve.server.SolveService`) and the write-ahead
:class:`repro.serve.journal.RequestJournal`.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..obs import metrics as obs_metrics
from ..reliability.faults import FaultInjector, FaultPlan
from .client import ServeClient, ServeError, ServeRejected


def _count(name: str, value: int = 1) -> None:
    if obs_metrics.enabled():
        obs_metrics.registry().inc(name, value)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    ``backoff(attempt, rng)`` for attempt 1, 2, … is
    ``base_backoff * backoff_factor ** (attempt - 1)`` capped at
    ``max_backoff``, scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]``.  Jitter decorrelates clients that all
    lost the same server at the same moment; the seeded RNG keeps chaos
    tests bit-reproducible.
    """

    max_attempts: int = 4
    base_backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def rng(self) -> random.Random:
        """A fresh jitter RNG for one client (deterministic per seed)."""
        return random.Random(self.seed)

    def backoff(self, attempt: int,
                rng: Optional[random.Random] = None) -> float:
        """Sleep before retry number ``attempt + 1`` (attempts count
        from 1)."""
        duration = min(self.base_backoff
                       * self.backoff_factor ** max(0, attempt - 1),
                       self.max_backoff)
        if self.jitter and rng is not None:
            duration *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return duration


class CircuitOpenError(ServeError):
    """The circuit breaker is open: the server failed repeatedly and
    the cool-down has not elapsed — fail fast instead of queueing
    doomed connection attempts."""


class CircuitBreaker:
    """Half-open circuit breaker over consecutive transport failures.

    closed → (``failure_threshold`` consecutive failures) → open →
    (``reset_timeout`` elapsed) → half-open → one probe: success closes
    the circuit, failure re-opens it with a fresh cool-down.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._half_open = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._half_open:
            return "half_open"
        if self._clock() - self._opened_at >= self.reset_timeout:
            return "half_open"  # the next allow() takes the probe slot
        return "open"

    def allow(self) -> bool:
        """May one call go through right now?"""
        if self._opened_at is None:
            return True
        if self._half_open:
            return False  # a probe is already in flight
        if self._clock() - self._opened_at >= self.reset_timeout:
            self._half_open = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._half_open = False

    def record_failure(self) -> None:
        self._failures += 1
        if self._half_open or self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
            self._half_open = False
            _count("serve.client.circuit_opened")

    def remaining_cooldown(self) -> float:
        if self._opened_at is None or self._half_open:
            return 0.0
        return max(0.0, self.reset_timeout
                   - (self._clock() - self._opened_at))


#: Extra socket-timeout slack on top of a request's wall-clock budget:
#: queueing, encode time and network latency are not solver time.
NETWORK_GRACE = 5.0


class ResilientClient:
    """A ``ServeClient`` that survives the failures ``ServeClient``
    documents: dead connections, flaky networks, restarting servers.

    Per request it: (1) consults the circuit breaker, (2) derives the
    socket timeout from the request's deadline (the request's own
    wall-clock budget plus :data:`NETWORK_GRACE` when no explicit
    deadline is given — slow solves no longer look like dead servers),
    (3) retries transport failures under the
    :class:`RetryPolicy`, reconnecting each time.  Retries are safe
    because submission is idempotent by content address: a duplicate of
    an in-flight request coalesces server-side, a duplicate of a
    finished one hits the cache.

    Admission rejections (:class:`ServeRejected`) are *not* transport
    failures — the server is alive and said no — so they propagate
    immediately and count as breaker successes.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7227,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 timeout: float = 300.0,
                 connect_timeout: float = 5.0,
                 faults=None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.host = host
        self.port = port
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._clock = clock
        self._sleep = sleep
        self._rng = self.retry.rng()
        self._client: Optional[ServeClient] = None
        plan = FaultPlan.resolve(faults)
        self._injector = (FaultInjector(plan, label="client",
                                        sites=("conn",))
                          if plan is not None else None)
        self.attempts = 0
        self.retries = 0
        self.reconnects = 0

    # -- connection management ----------------------------------------

    def _ensure_client(self) -> ServeClient:
        if self._client is None:
            self._client = ServeClient(self.host, self.port,
                                       timeout=self.connect_timeout)
            self.reconnects += 1
        return self._client

    def _drop_connection(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                client.close()
            except OSError:
                pass

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the retry loop ------------------------------------------------

    def _call_with_retries(self, operation, op_timeout: float,
                           deadline: Optional[float]):
        """Run ``operation(client, timeout)`` under breaker + retries.

        ``deadline`` bounds the *whole* loop (attempts + backoffs) in
        seconds from now; ``op_timeout`` bounds each attempt's socket
        operations.
        """
        end = self._clock() + deadline if deadline is not None else None
        last_error: Optional[Exception] = None
        attempt = 0
        while True:
            attempt += 1
            self.attempts += 1
            if not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit open for {self.host}:{self.port} "
                    f"({self.breaker.remaining_cooldown():.1f}s cooldown "
                    f"remaining)")
            if self._injector is not None:
                delay = self._injector.slow_client_delay()
                if delay > 0.0:
                    self._sleep(delay)
            remaining = (end - self._clock()) if end is not None else None
            if remaining is not None and remaining <= 0:
                self.breaker.record_failure()
                raise ServeError(
                    f"request deadline exhausted after {attempt - 1} "
                    f"attempt(s)") from last_error
            timeout = op_timeout
            if remaining is not None:
                timeout = min(timeout, remaining)
            try:
                client = self._ensure_client()
                result = operation(client, timeout)
            except ServeRejected:
                # The server is alive and answered; not a circuit event
                # worth opening for, and retrying inside the rejection
                # window would just burn the backoff budget.
                self.breaker.record_success()
                raise
            except (ServeError, ConnectionError, socket.timeout,
                    OSError, ValueError) as error:
                last_error = error
                self.breaker.record_failure()
                self._drop_connection()
                _count("serve.client.failures")
                if attempt >= self.retry.max_attempts:
                    raise ServeError(
                        f"request failed after {attempt} attempt(s): "
                        f"{error}") from error
                backoff = self.retry.backoff(attempt, self._rng)
                if end is not None \
                        and self._clock() + backoff >= end:
                    raise ServeError(
                        f"request deadline exhausted after {attempt} "
                        f"attempt(s): {error}") from error
                self.retries += 1
                _count("serve.client.retries")
                self._sleep(backoff)
            else:
                self.breaker.record_success()
                return result

    # -- operations ----------------------------------------------------

    def solve(self, request, deadline: Optional[float] = None):
        """Submit one request with retries; blocks for its response.

        ``deadline`` bounds the whole call in seconds.  When omitted it
        is derived from the request's own wall-clock budget (plus
        :data:`NETWORK_GRACE`) so the socket timeout tracks how long
        the solve is *allowed* to take; an unbudgeted request falls
        back to the client-wide ``timeout``.
        """
        limits = getattr(request, "limits", None)
        wall = getattr(limits, "wall_clock_limit", None)
        if deadline is None and wall is not None:
            deadline = wall + NETWORK_GRACE
        op_timeout = deadline if deadline is not None else self.timeout
        return self._call_with_retries(
            lambda client, timeout: client.solve(request, deadline=timeout),
            op_timeout, deadline)

    def ping(self) -> Dict:
        return self._call_with_retries(
            lambda client, timeout: client.ping(timeout=timeout),
            self.connect_timeout, None)

    def metrics(self) -> Dict:
        return self._call_with_retries(
            lambda client, timeout: client.metrics(timeout=timeout),
            self.timeout, None)

    def shutdown(self) -> None:
        """Best-effort shutdown request (no retries — a dead server is
        already shut down)."""
        try:
            self._ensure_client().shutdown()
        except (ServeError, OSError):
            pass
        finally:
            self._drop_connection()
