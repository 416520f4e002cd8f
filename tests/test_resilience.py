"""Resilience primitives (repro.serve.resilience) and their wiring.

Retry / breaker units run against fake clocks — no processes, no
sleeps.  The end-to-end classes boot a real service on a loopback port
and exercise the failure paths the chaos suite hits at larger scale: a
dropped connection under a retrying client, a dead server tripping the
circuit breaker, and a crashed worker replaced by its pool slot.
"""

import socket

import pytest

from repro.api import SolveRequest
from repro.reliability.faults import FaultPlan
from repro.reliability.quarantine import QuarantinePolicy
from repro.sat.status import SolveStatus
from repro.serve import (AdmissionController, AdmissionPolicy,
                         CircuitBreaker, CircuitOpenError, ResilientClient,
                         RetryPolicy, ServeClient, ServeRejected)
from tests.test_serve import start_service, triangle


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_backoff=0.1, backoff_factor=2.0,
                             max_backoff=0.5, jitter=0.0)
        assert [policy.backoff(n) for n in range(1, 6)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_is_deterministic_per_seed_and_bounded(self):
        policy = RetryPolicy(jitter=0.5, seed=42)
        first = [policy.backoff(n, policy.rng()) for n in range(1, 6)]
        second = [policy.backoff(n, policy.rng()) for n in range(1, 6)]
        assert first == second  # seeded: chaos runs reproduce
        for attempt, duration in enumerate(first, start=1):
            nominal = min(policy.base_backoff
                          * policy.backoff_factor ** (attempt - 1),
                          policy.max_backoff)
            assert 0.5 * nominal <= duration <= 1.5 * nominal

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-1.0)


class TestCircuitBreaker:
    def test_closed_to_open_to_half_open_to_closed(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0,
                                 clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()  # third consecutive failure: trip
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.remaining_cooldown() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()       # the single probe slot
        assert not breaker.allow()   # a probe is already in flight
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.remaining_cooldown() == pytest.approx(5.0)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two in a row

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1.0)


class TestQuarantineDecay:
    def test_interleaved_successes_keep_resetting_offences(self):
        controller = AdmissionController(AdmissionPolicy(
            quarantine=QuarantinePolicy(threshold=2, base_backoff=60.0)))
        # ERROR, success, ERROR, success, ... — the streak never
        # reaches the threshold, so the client is never locked out.
        for _ in range(4):
            assert controller.admit("alice", 3).admitted
            controller.begin("alice")
            controller.finish("alice", SolveStatus.ERROR, "worker crash")
            assert controller.admit("alice", 3).admitted
            controller.begin("alice")
            controller.finish("alice", SolveStatus.SAT)
        # Two *consecutive* errors do trip the quarantine.
        for _ in range(2):
            assert controller.admit("alice", 3).admitted
            controller.begin("alice")
            controller.finish("alice", SolveStatus.ERROR, "worker crash")
        decision = controller.admit("alice", 3)
        assert not decision.admitted and "quarantined" in decision.reason


def free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestResilientClientEndToEnd:
    def test_retries_through_a_dropped_connection(self):
        # The server drops every exchange on its first accepted
        # connection (deterministic: the injector label is conn#1);
        # the retrying client must reconnect and land the solve.
        service, thread = start_service(
            port=0, workers=1,
            faults=FaultPlan.parse("seed=3; conn_drop@conn:match=conn#1"))
        try:
            with ResilientClient(
                    port=service.port,
                    retry=RetryPolicy(max_attempts=4, base_backoff=0.01,
                                      max_backoff=0.05, seed=1)) as client:
                response = client.solve(
                    SolveRequest(graph=triangle(), colors=3))
                assert response.status is SolveStatus.SAT
                assert client.retries >= 1
                assert client.reconnects >= 2
                assert client.breaker.state == "closed"
        finally:
            with ServeClient(port=service.port) as client:
                client.shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_circuit_opens_against_a_dead_server(self):
        client = ResilientClient(
            port=free_port(), connect_timeout=0.5,
            retry=RetryPolicy(max_attempts=6, base_backoff=0.001,
                              max_backoff=0.002, jitter=0.0),
            breaker=CircuitBreaker(failure_threshold=2,
                                   reset_timeout=60.0))
        # Attempts 1 and 2 fail on connect, tripping the breaker;
        # attempt 3 is refused by the open circuit — fail fast, well
        # before the retry budget runs out.
        with pytest.raises(CircuitOpenError):
            client.ping()
        assert client.breaker.state == "open"
        assert client.attempts == 3

    def test_rejection_is_not_a_transport_failure(self):
        service, thread = start_service(
            port=0, workers=1,
            policy=AdmissionPolicy(max_vertices=2))
        try:
            with ResilientClient(
                    port=service.port,
                    retry=RetryPolicy(max_attempts=3, base_backoff=0.01),
                    breaker=CircuitBreaker(failure_threshold=1)) as client:
                with pytest.raises(ServeRejected, match="vertices"):
                    client.solve(SolveRequest(graph=triangle(), colors=3))
                # One attempt, no retries, breaker untouched: the
                # server answered, it just said no.
                assert client.attempts == 1 and client.retries == 0
                assert client.breaker.state == "closed"
        finally:
            with ServeClient(port=service.port) as client:
                client.shutdown()
            thread.join(timeout=30)

    def test_worker_crash_restarts_its_slot(self, monkeypatch):
        # job#1 dies via os._exit inside its pool worker: the server
        # answers ERROR, the slot forks a fresh worker, and the next job
        # runs normally — one offence stays under the quarantine
        # threshold of 2.
        monkeypatch.setenv("REPRO_FAULTS",
                           "seed=2; crash@serve_worker:match=job#1:*")
        service, thread = start_service(port=0, workers=1)
        try:
            monkeypatch.delenv("REPRO_FAULTS")
            with ServeClient(port=service.port) as client:
                first = client.solve(
                    SolveRequest(graph=triangle(), colors=3))
                assert first.status is SolveStatus.ERROR
                second = client.solve(
                    SolveRequest(graph=triangle(), colors=2))
                assert second.status is SolveStatus.UNSAT
                counters = client.metrics()["metrics"]["counters"]
                assert counters["serve.pool.restarts"] == 1
                assert counters["serve.jobs.ERROR"] == 1
        finally:
            with ServeClient(port=service.port) as client:
                client.shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive()
