"""The solve service: admission control units and a live server e2e."""

import asyncio
import threading
import time

import pytest

from repro.api import SolveRequest
from repro.coloring.instances import wheel_graph
from repro.coloring.problem import Graph
from repro.core.pool import CANCEL_GRACE_SECONDS
from repro.core.strategy import Strategy
from repro.obs import metrics as obs_metrics
from repro.reliability.quarantine import QuarantinePolicy
from repro.sat.status import SolveLimits, SolveStatus
from repro.serve import (AdmissionController, AdmissionPolicy,
                         RequestJournal, ServeClient, ServeRejected,
                         SolveService)

#: Wedges the service's first pool job (token job#1:...) for a minute,
#: ignoring every cooperative budget.
WEDGE_FIRST_JOB = "seed=11; worker_hang@serve_worker:match=job#1:*,s=60"

#: Wedges every journal replay (tokens replay#N:...) the same way.
WEDGE_REPLAYS = "seed=11; worker_hang@serve_worker:match=replay#*,s=60"


def triangle():
    graph = Graph(3)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(0, 2)
    return graph


class TestAdmissionController:
    def test_admits_within_policy(self):
        controller = AdmissionController(AdmissionPolicy())
        decision = controller.admit("alice", num_vertices=10)
        assert decision.admitted and decision.reason == ""
        assert controller.admitted == 1 and controller.rejected == 0

    def test_queue_depth_backpressure(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_depth=2))
        for client in ("a", "b"):
            assert controller.admit(client, 3).admitted
            controller.begin(client)
        decision = controller.admit("c", 3)
        assert not decision.admitted and "queue depth" in decision.reason
        controller.finish("a", SolveStatus.SAT)
        assert controller.admit("c", 3).admitted
        assert controller.rejections == {"queue_full": 1}

    def test_per_client_cap(self):
        controller = AdmissionController(
            AdmissionPolicy(max_inflight_per_client=1))
        assert controller.admit("alice", 3).admitted
        controller.begin("alice")
        blocked = controller.admit("alice", 3)
        assert not blocked.admitted and "in flight" in blocked.reason
        # Other clients are unaffected by alice's cap.
        assert controller.admit("bob", 3).admitted

    def test_size_cap(self):
        controller = AdmissionController(AdmissionPolicy(max_vertices=5))
        assert controller.admit("alice", 5).admitted
        decision = controller.admit("alice", 6)
        assert not decision.admitted and "vertices" in decision.reason
        assert controller.rejections == {"too_large": 1}

    def test_budget_ceiling_merges_tighter_bound(self):
        controller = AdmissionController(AdmissionPolicy(
            job_limits=SolveLimits(conflict_budget=100)))
        # Client asks for more than the ceiling: clamped down.
        decision = controller.admit(
            "alice", 3, SolveLimits(conflict_budget=500))
        assert decision.limits.conflict_budget == 100
        # Client asks for less: its own tighter budget wins.
        decision = controller.admit(
            "alice", 3, SolveLimits(conflict_budget=7))
        assert decision.limits.conflict_budget == 7
        # No request budget at all: the ceiling applies.
        assert controller.admit("alice", 3).limits.conflict_budget == 100

    def test_erroring_client_gets_quarantined(self):
        controller = AdmissionController(AdmissionPolicy(
            quarantine=QuarantinePolicy(threshold=2, base_backoff=60.0)))
        for _ in range(2):
            assert controller.admit("alice", 3).admitted
            controller.begin("alice")
            controller.finish("alice", SolveStatus.ERROR, "worker crash")
        decision = controller.admit("alice", 3)
        assert not decision.admitted and "quarantined" in decision.reason
        # Budget exhaustion is the budget working, not an offence.
        controller2 = AdmissionController(AdmissionPolicy(
            quarantine=QuarantinePolicy(threshold=2)))
        for _ in range(3):
            assert controller2.admit("bob", 3).admitted
            controller2.begin("bob")
            controller2.finish("bob", SolveStatus.BUDGET_EXHAUSTED)
        assert controller2.admit("bob", 3).admitted

    def test_snapshot_shape(self):
        controller = AdmissionController(AdmissionPolicy(max_vertices=5))
        controller.admit("alice", 3)
        controller.begin("alice")
        controller.admit("alice", 99)
        snapshot = controller.snapshot()
        assert snapshot["admitted"] == 1 and snapshot["rejected"] == 1
        assert snapshot["rejections"] == {"too_large": 1}
        assert snapshot["inflight"] == 1
        assert snapshot["inflight_by_client"] == {"alice": 1}


def start_service(**kwargs):
    """Boot a SolveService on a daemon thread; returns it once bound."""
    # The service keeps the process-global metrics registry enabled and
    # never resets it (one service per process in production); tests
    # boot many services per process, so start each from zero.
    obs_metrics.registry().reset()
    service = SolveService(**kwargs)
    bound = threading.Event()
    failures = []

    async def _run():
        await service.start()
        bound.set()
        await service.serve_forever()

    def _thread():
        try:
            asyncio.run(_run())
        except Exception as error:  # surfaced via the fixture assert
            failures.append(error)
            bound.set()

    thread = threading.Thread(target=_thread, daemon=True,
                              name="test-solve-service")
    thread.start()
    assert bound.wait(timeout=30), "service did not come up"
    assert not failures, f"service failed to start: {failures}"
    return service, thread


class TestSolveServiceEndToEnd:
    @pytest.fixture(scope="class")
    def service(self):
        service, thread = start_service(
            port=0, workers=1,
            policy=AdmissionPolicy(max_vertices=50))
        yield service
        with ServeClient(port=service.port) as client:
            client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_full_request_cycle(self, service):
        with ServeClient(port=service.port) as client:
            pong = client.ping()
            assert pong["protocol"] == "repro-serve/1"

            sat = SolveRequest(graph=triangle(), colors=3, tag="t-sat")
            first = client.solve(sat)
            assert first.status is SolveStatus.SAT
            assert first.coloring is not None
            assert not first.cached
            assert first.audit == "PASS"  # audit_fills forces the audit
            assert first.tag == "t-sat"
            assert first.digest == sat.cache_key()

            # Identical content, different tag: served from the cache,
            # with this submission's tag stamped on.
            again = client.solve(SolveRequest(graph=triangle(), colors=3,
                                              tag="t-dup"))
            assert again.cached and again.tag == "t-dup"
            assert again.status is SolveStatus.SAT
            assert again.coloring == first.coloring

            unsat = client.solve(SolveRequest(graph=triangle(), colors=2))
            assert unsat.status is SolveStatus.UNSAT
            assert unsat.audit == "PASS" and not unsat.cached

            dump = client.metrics()
            assert dump["cache"]["fills"] == 2
            assert dump["cache"]["hits"] >= 1
            assert dump["admission"]["admitted"] == 2
            counters = dump["metrics"]["counters"]
            assert counters["serve.responses.cached"] >= 1
            assert counters["serve.jobs.SAT"] == 1
            assert counters["serve.jobs.UNSAT"] == 1

    def test_oversized_instance_is_rejected(self, service):
        big = Graph(51)  # policy caps at 50 vertices
        big.add_edge(0, 1)
        with ServeClient(port=service.port) as client:
            with pytest.raises(ServeRejected, match="vertices"):
                client.solve(SolveRequest(graph=big, colors=3))

    def test_malformed_payloads_answered_not_fatal(self, service):
        with ServeClient(port=service.port) as client:
            reply = client._call({"op": "nonsense"})
            assert not reply["ok"] and "unknown op" in reply["error"]
            reply = client._call({"op": "solve", "request": {"bogus": 1}})
            assert not reply["ok"] and "invalid request" in reply["error"]
            # The connection survives; the service still answers.
            assert client.ping()["protocol"] == "repro-serve/1"


def stop_service(service, thread):
    with ServeClient(port=service.port) as client:
        client.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestPortfolioRequests:
    def test_two_strategy_request_races_inside_a_worker(self):
        # Several strategies race as a portfolio inside the serve
        # worker, which then runs a worker pool of its own.
        service, thread = start_service(port=0, workers=1)
        strategies = (Strategy("direct", "s1"), Strategy("ITE-log", "s1"))
        try:
            with ServeClient(port=service.port, timeout=120.0) as client:
                for colors, expected in ((3, SolveStatus.UNSAT),
                                         (4, SolveStatus.SAT)):
                    response = client.solve(SolveRequest(
                        graph=wheel_graph(7), colors=colors,
                        strategies=strategies))
                    assert response.status is expected
                    assert response.audit == "PASS"
                    assert response.winner in {strategy.label
                                               for strategy in strategies}
        finally:
            stop_service(service, thread)


class TestDeadlineKill:
    def test_wedged_job_is_killed_and_its_slot_serves_again(
            self, monkeypatch):
        # Set before the boot forks the workers, which inherit it.
        monkeypatch.setenv("REPRO_FAULTS", WEDGE_FIRST_JOB)
        budget = 1.0
        service, thread = start_service(port=0, workers=1,
                                        job_timeout=budget)
        monkeypatch.delenv("REPRO_FAULTS")
        request = SolveRequest(graph=triangle(), colors=3)
        try:
            with ServeClient(port=service.port, timeout=60.0) as client:
                started = time.monotonic()
                wedged = client.solve(request)
                elapsed = time.monotonic() - started
                assert wedged.status is SolveStatus.ERROR
                assert elapsed <= budget + CANCEL_GRACE_SECONDS + 0.7
                pool = client.metrics()["pool"]
                assert pool["kills"] == 1
                assert pool["last_kill"]["token"].startswith("job#1:")
                assert pool["last_kill"]["reason"].startswith("overdue")
                again = client.solve(request)
                assert again.status is SolveStatus.SAT
                assert again.audit == "PASS"
        finally:
            stop_service(service, thread)


class TestDrainingShutdown:
    def test_shutdown_op_acknowledges_then_drains_to_a_stop(self):
        service, thread = start_service(port=0, workers=1)
        with ServeClient(port=service.port) as client:
            assert client.ping()["draining"] is False
            reply = client._call({"op": "shutdown"})
            assert reply["ok"] and reply["draining"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_draining_rejects_new_work_but_serves_the_cache(self):
        service, thread = start_service(port=0, workers=1)
        try:
            with ServeClient(port=service.port) as client:
                # White-box: hold the server in its drain window (with
                # real in-flight jobs the window closes too fast to hit
                # deterministically from outside).
                service._draining = True
                with pytest.raises(ServeRejected, match="draining"):
                    client.solve(SolveRequest(graph=triangle(), colors=3))
                service._draining = False
                first = client.solve(SolveRequest(graph=triangle(),
                                                  colors=3))
                assert first.status is SolveStatus.SAT
                # A cached answer needs no worker: served even while
                # draining (the cache check precedes the drain gate).
                service._draining = True
                again = client.solve(SolveRequest(graph=triangle(),
                                                  colors=3))
                assert again.cached and again.status is SolveStatus.SAT
                service._draining = False
        finally:
            with ServeClient(port=service.port) as client:
                client.shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_drain_deadline_kills_a_wedged_job_and_keeps_its_entry(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULTS", WEDGE_FIRST_JOB)
        journal_dir = str(tmp_path / "journal")
        service, thread = start_service(port=0, workers=1,
                                        journal_dir=journal_dir,
                                        drain_deadline=0.5)
        monkeypatch.delenv("REPRO_FAULTS")
        request = SolveRequest(graph=triangle(), colors=3)
        answers = []

        def submit():
            with ServeClient(port=service.port, timeout=60.0) as client:
                answers.append(client.solve(request))

        submitter = threading.Thread(target=submit, daemon=True)
        submitter.start()
        with ServeClient(port=service.port) as client:
            waited = time.monotonic() + 30.0
            while client.metrics()["journal"]["pending"] < 1:
                assert time.monotonic() < waited, "job was never admitted"
                time.sleep(0.05)
            time.sleep(1.0)  # well into its stall
            client.shutdown()
        submitter.join(timeout=30)
        thread.join(timeout=30)
        assert not submitter.is_alive() and not thread.is_alive()
        assert [answer.status for answer in answers] == [SolveStatus.ERROR]
        # Abandoned, not done: the next boot replays it.
        with RequestJournal(journal_dir) as journal:
            assert [entry.digest for entry in journal.pending()] == [
                request.cache_key()]


def journal_triangle(journal_dir, attempts=0):
    """Journal one admitted triangle request, as a crashed boot leaves
    it, with ``attempts`` crashed recovery attempts behind it."""
    request = SolveRequest(graph=triangle(), colors=3)
    with RequestJournal(journal_dir) as journal:
        journal.record_admit(request.cache_key(), request.to_wire())
        for _ in range(attempts):
            journal.record_attempt(request.cache_key())
    return request


def pending_attempts(journal_dir):
    with RequestJournal(journal_dir) as journal:
        return [entry.attempts for entry in journal.pending()]


class TestRecoveryAttempts:
    def test_shutdowns_mid_replay_are_not_crashed_attempts(
            self, monkeypatch, tmp_path):
        journal_dir = str(tmp_path / "journal")
        request = journal_triangle(journal_dir)
        for _ in range(3):
            monkeypatch.setenv("REPRO_FAULTS", WEDGE_REPLAYS)
            service, thread = start_service(port=0, workers=1,
                                            journal_dir=journal_dir,
                                            drain_deadline=0.2)
            monkeypatch.delenv("REPRO_FAULTS")
            waited = time.monotonic() + 30.0
            while pending_attempts(journal_dir) != [1]:
                assert time.monotonic() < waited, "no replay started"
                time.sleep(0.05)
            time.sleep(0.5)  # into the wedged replay
            stop_service(service, thread)
            # The drain ended the replay: pending, no attempt counted.
            assert pending_attempts(journal_dir) == [0]
            with RequestJournal(journal_dir) as journal:
                assert journal.poisoned() == {}
        # A boot without the fault replays it, fills the cache, and
        # marks it done.
        service, thread = start_service(port=0, workers=1,
                                        journal_dir=journal_dir)
        try:
            with ServeClient(port=service.port, timeout=60.0) as client:
                waited = time.monotonic() + 30.0
                while client.metrics()["journal"]["pending"]:
                    assert time.monotonic() < waited, "replay never done"
                    time.sleep(0.05)
                answer = client.solve(request)
                assert answer.cached and answer.status is SolveStatus.SAT
        finally:
            stop_service(service, thread)
        with RequestJournal(journal_dir) as journal:
            assert journal.pending() == [] and journal.poisoned() == {}

    def test_entry_with_two_crashed_attempts_is_poisoned_at_boot(
            self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        request = journal_triangle(journal_dir, attempts=2)
        service, thread = start_service(port=0, workers=1,
                                        journal_dir=journal_dir)
        try:
            with ServeClient(port=service.port) as client:
                waited = time.monotonic() + 30.0
                while client.metrics()["journal"]["poisoned"] < 1:
                    assert time.monotonic() < waited, "never poisoned"
                    time.sleep(0.05)
        finally:
            stop_service(service, thread)
        with RequestJournal(journal_dir) as journal:
            assert journal.pending() == []
            assert journal.poisoned() == {
                request.cache_key(): "crashed recovery 2 time(s)"}
