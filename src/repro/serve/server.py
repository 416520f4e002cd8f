"""The asyncio solve service: JSON-lines TCP over a worker-process pool.

Protocol (one JSON object per line, both directions):

* ``{"op": "solve", "request": <SolveRequest wire>}`` →
  ``{"ok": true, "response": <SolveResponse wire>}`` or
  ``{"ok": false, "error": "...", "rejected": true?}``.
* ``{"op": "metrics"}`` → the ``/metrics``-style dump: the process
  metrics snapshot plus the cache, admission, journal and watchdog
  sections.
* ``{"op": "ping"}`` → liveness + protocol version + draining flag.
* ``{"op": "shutdown"}`` → ``{"ok": true, "bye": true}``, then the
  server **drains** (stops accepting, finishes or journals in-flight
  jobs under the drain deadline) and stops.

The request path::

    cache lookup ──hit──▶ answer (no pool, no admission charge)
        │ miss (exact, then single-flight, then strategy-superset)
    admission (queue depth, per-client cap, size cap, quarantine)
        │ admitted, budget = server ceiling ∧ request limits
    journal admit (fsync'd write-ahead record — survives SIGKILL)
        │
    worker pool: api.solve with audit FORCED on, heartbeats to the
    watchdog, SIGKILL + pool rebuild if the job wedges
        │ decided + audit passed
    cache fill (memory LRU + atomic disk write) + journal done ──▶ answer

Cache hits are answered on the event loop without touching the pool and
without charging the client's budget.  Fills are audit-verified — a
cached answer has survived :func:`repro.reliability.audit.audit_outcome`
once, so hits can skip re-verification; a response that fails its audit
comes back as ERROR and is never cached.  Concurrent identical requests
are single-flighted: the second submitter awaits the first's job and is
then served from the cache instead of duplicating the work.

Workers are a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
(solves are CPU-bound; the GIL rules out threads).  Each job resets the
worker's observability state, runs one request under a
:class:`~repro.serve.resilience.JobHeartbeat`, and ships its telemetry
(spans + metrics snapshot) back with the result for the server to
ingest — the same worker-telemetry scheme the portfolio and batch
runners use.

Resilience (see ``docs/serving.md``): the
:class:`~repro.serve.resilience.WorkerWatchdog` SIGKILLs jobs that run
past their deadline or stop heartbeating; the
:class:`~repro.serve.journal.RequestJournal` write-ahead-logs every
admitted request so a crashed server **recovers on boot** by replaying
unfinished entries through the same audit-guarded cache-fill path
(entries that crash recovery twice are poison-marked and skipped); and
``SIGTERM`` or the ``shutdown`` op triggers a **draining** stop instead
of an abrupt one.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing as mp
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional

from .. import api, obs
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..reliability.faults import FaultInjector, FaultPlan
from ..sat.status import SolveLimits, SolveReport, SolveStatus
from .admission import AdmissionController, AdmissionPolicy
from .cache import ResultCache
from .journal import MAX_RECOVERY_ATTEMPTS, RequestJournal
from .resilience import (DEFAULT_HEARTBEAT_INTERVAL, JobHeartbeat,
                         WorkerWatchdog, worker_channel,
                         worker_channel_init)

#: Protocol version announced by ``ping``.
PROTOCOL = "repro-serve/1"

#: Hard cap on one request line (a DoS-sized payload should fail the
#: read, not exhaust memory).
MAX_LINE_BYTES = 64 * 1024 * 1024


def _warmup() -> None:
    """No-op pool task used to force worker processes into existence."""


def _execute_wire(wire: Dict, token: str = "") -> tuple:
    """Worker-side entry: run one request, return (response wire,
    telemetry).  Module-level so the pool can pickle it; never raises —
    every failure becomes an ERROR response.  ``token`` names the job
    on the heartbeat side channel and labels serve-worker faults."""
    obs.worker_begin()
    obs_metrics.enable(True)
    with JobHeartbeat(worker_channel(), token):
        plan = FaultPlan.from_env()
        if plan is not None:
            injector = FaultInjector(plan, label=token,
                                     sites=("serve_worker",))
            injector.maybe_exit()         # crash@serve_worker
            injector.maybe_worker_hang()  # stuck-job scenario
        try:
            request = api.SolveRequest.from_wire(wire)
            payload = api.solve(request).to_wire()
        except Exception as error:  # defensive: the pool must stay healthy
            report = SolveReport(status=SolveStatus.ERROR,
                                 detail=repr(error))
            payload = api.SolveResponse(
                status=SolveStatus.ERROR, report=report,
                tag=str(wire.get("tag", ""))).to_wire()
    return payload, obs.drain_telemetry()


class SolveService:
    """The long-running front end.  Lifecycle::

        service = SolveService(port=0, workers=4, cache_dir="cache/",
                               journal_dir="journal/")
        await service.start()        # binds; recovery replays the journal
        await service.serve_forever()  # until SIGTERM / shutdown / stop()

    All state mutation happens on the event loop; the worker pool only
    ever sees plain wire dicts.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 cache_capacity: int = 256,
                 cache_dir: Optional[str] = None,
                 policy: Optional[AdmissionPolicy] = None,
                 job_timeout: Optional[float] = None,
                 audit_fills: bool = True,
                 journal_dir: Optional[str] = None,
                 journal_fsync: bool = True,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 watchdog: bool = True,
                 drain_deadline: float = 10.0,
                 warm_start: bool = True,
                 faults=None) -> None:
        self.host = host
        self.port = port
        self.workers = workers if workers is not None else max(
            1, (mp.cpu_count() or 2) - 1)
        self.cache = cache if cache is not None else ResultCache(
            cache_capacity, cache_dir)
        self.admission = AdmissionController(policy)
        #: Server-wide wall-clock bound per job (merged into every
        #: request's budget, on top of the admission ceiling).
        self.job_timeout = job_timeout
        #: Force an audit on every pool execution so cache fills are
        #: verified answers.  Off only for benchmarking the cache layer.
        self.audit_fills = audit_fills
        #: Write-ahead journal directory (None = journaling off).
        self.journal_dir = journal_dir
        self.journal_fsync = journal_fsync
        self.heartbeat_interval = heartbeat_interval
        self.watchdog_enabled = watchdog
        #: Seconds a draining shutdown waits for in-flight jobs before
        #: abandoning them to the journal (recovered on next boot).
        self.drain_deadline = drain_deadline
        self.warm_start_enabled = warm_start
        self._fault_plan = FaultPlan.resolve(faults)
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._context = None
        self._heartbeats = None
        self.journal: Optional[RequestJournal] = None
        self.watchdog: Optional[WorkerWatchdog] = None
        self._watchdog_task: Optional[asyncio.Task] = None
        self._recovery_task: Optional[asyncio.Task] = None
        self._draining = False
        self._stopping = False
        #: Digests abandoned by a drain deadline: their journal entries
        #: stay pending on purpose (next boot replays them).
        self._drain_abandoned: set = set()
        self._job_seq = 0
        self._conn_seq = 0
        #: Single-flight table: digest → future of the in-flight job.
        self._jobs: Dict[str, "asyncio.Future"] = {}

    # -- lifecycle -----------------------------------------------------

    def _make_executor(self) -> ProcessPoolExecutor:
        """One pool, heartbeat-initialised — used at start and by the
        BrokenProcessPool rebuild path, so replacement workers rejoin
        the side channel."""
        kwargs: Dict = {"max_workers": self.workers,
                        "mp_context": self._context}
        if self._heartbeats is not None:
            kwargs["initializer"] = worker_channel_init
            kwargs["initargs"] = (self._heartbeats,
                                  self.heartbeat_interval)
        executor = ProcessPoolExecutor(**kwargs)
        # Fork the full complement NOW rather than lazily on first
        # submit.  A worker forked mid-flight inherits a duplicate of
        # every accepted connection's fd, and that duplicate keeps the
        # peer's socket half-open after we close it — the client never
        # sees the FIN until the worker dies.  Pre-spawning (one worker
        # per warmup submit) also moves the fork cost to boot time.
        for future in [executor.submit(_warmup)
                       for _ in range(self.workers)]:
            future.result()
        return executor

    async def start(self) -> "SolveService":
        """Bind the listener and spin up the pool.  With ``port=0`` the
        OS picks a free port; :attr:`port` holds the real one after.
        Warm-starts the cache from disk and kicks off journal recovery
        as a background task (recovered answers land in the cache while
        new requests are already being served)."""
        obs_metrics.enable(True)  # the service always keeps its counters
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        if self.watchdog_enabled:
            self._heartbeats = self._context.Queue()
            self.watchdog = WorkerWatchdog(
                self._heartbeats, interval=self.heartbeat_interval)
        self._executor = self._make_executor()
        if self.warm_start_enabled and self.cache.disk_dir:
            loaded = self.cache.warm_start()
            if loaded:
                trace.event("serve.cache.warm_start", entries=loaded)
        if self.journal_dir:
            self.journal = RequestJournal(self.journal_dir,
                                          fsync=self.journal_fsync,
                                          faults=self._fault_plan)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.watchdog is not None:
            self._watchdog_task = self._loop.create_task(
                self.watchdog.run())
        if self.journal is not None:
            self._recovery_task = self._loop.create_task(self._recover())
        self._install_signal_handlers()
        return self

    def _install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → draining shutdown.  Only possible on the
        main thread of a Unix main interpreter; anywhere else (tests
        run the loop on a daemon thread) this silently no-ops and the
        embedding code owns the signals."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum,
                    lambda: self._loop.create_task(self.drain()))
            except (NotImplementedError, RuntimeError, ValueError,
                    AttributeError):
                return

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` op) runs."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def drain(self, deadline: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, let in-flight jobs finish
        (or journal them) under ``deadline`` seconds, flush, stop.

        Jobs still running at the deadline are SIGKILLed and their
        journal entries left *pending* — the next boot replays them, so
        an admitted request is never lost to a shutdown.
        """
        if self._draining:
            return
        self._draining = True
        deadline = self.drain_deadline if deadline is None else deadline
        trace.event("serve.drain.started", inflight=len(self._jobs),
                    deadline=deadline)
        self._count("serve.drain.started")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._recovery_task is not None:
            # Recovery jobs count as in-flight work below; just stop
            # the task from launching new replays.
            self._recovery_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._recovery_task
            self._recovery_task = None
        end = self._loop.time() + max(0.0, deadline)
        while self._jobs and self._loop.time() < end:
            await asyncio.sleep(0.05)
        finished_cleanly = not self._jobs
        if not finished_cleanly:
            abandoned = set(self._jobs)
            self._drain_abandoned |= abandoned
            trace.event("serve.drain.abandoned", jobs=len(abandoned))
            self._count("serve.drain.abandoned", len(abandoned))
            self._kill_pool_workers()
            # Give the broken futures a moment to settle so connected
            # clients get their ERROR responses before the loop dies.
            settle = self._loop.time() + 5.0
            while self._jobs and self._loop.time() < settle:
                await asyncio.sleep(0.05)
        self._count("serve.drain.completed")
        await self.stop()

    def _kill_pool_workers(self) -> None:
        """SIGKILL whatever is still executing (the drain backstop)."""
        if self.watchdog is not None:
            self.watchdog.kill_active()
            return
        # No watchdog: fall back to the pool's own process table.
        processes = getattr(self._executor, "_processes", None) or {}
        import os as _os
        for pid in list(processes):
            try:
                _os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass

    async def stop(self) -> None:
        """Stop accepting, tear down the pool, release everything.

        Prefer :meth:`drain` for an orderly exit; ``stop`` is the
        immediate version (the end of a drain, and tests).
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        for task_name in ("_recovery_task", "_watchdog_task"):
            task = getattr(self, task_name)
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
                setattr(self, task_name, None)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            executor, self._executor = self._executor, None
            # shutdown(wait=True) joins worker processes — do it off
            # the loop so in-flight connection handlers stay serviced.
            await self._loop.run_in_executor(
                None, lambda: executor.shutdown(wait=True))
        if self.journal is not None:
            self.journal.close()
        if self._stopped is not None:
            self._stopped.set()

    # -- journal recovery ----------------------------------------------

    async def _recover(self) -> None:
        """Boot-time crash recovery: replay admitted-but-unfinished
        journal entries through the audit-guarded cache-fill path.

        Entries run one at a time (boot should not monopolise the pool
        against live traffic) and register in the single-flight table,
        so a client resubmitting the same digest coalesces onto the
        replay instead of duplicating it.  An entry that has already
        crashed recovery ``MAX_RECOVERY_ATTEMPTS`` times is poison-
        marked and skipped forever.
        """
        journal = self.journal
        pending = journal.pending()
        if not pending:
            return
        trace.event("serve.journal.recovery_started",
                    pending=len(pending))
        self._count("serve.journal.recovered", len(pending))
        for entry in pending:
            if self._draining or self._stopping:
                return
            digest = entry.digest
            if self.cache.get(digest) is not None:
                journal.record_done(digest)
                continue
            if entry.attempts >= MAX_RECOVERY_ATTEMPTS:
                journal.record_poison(
                    digest,
                    f"crashed recovery {entry.attempts} time(s)")
                trace.event("serve.journal.poisoned", digest=digest)
                self._count("serve.journal.poisoned")
                continue
            try:
                request = api.SolveRequest.from_wire(entry.request)
            except Exception as error:
                journal.record_poison(digest,
                                      f"unparseable request: {error!r}")
                self._count("serve.journal.poisoned")
                continue
            journal.record_attempt(digest)
            await self._replay(digest, request, entry.request)
        # Leave the smallest journal behind: replayed noise compacts
        # away, still-pending entries carry forward.
        journal.rotate()
        trace.event("serve.journal.recovery_completed")

    async def _replay(self, digest: str, request: "api.SolveRequest",
                      wire: Dict) -> None:
        """Re-run one journaled request exactly like a live admit
        (budget ceiling, forced audit, watchdog, cache fill)."""
        if digest in self._jobs:  # a live client raced us to it
            await asyncio.wait([self._jobs[digest]])
            if self.cache.get(digest) is not None:
                self.journal.record_done(digest)
            return
        effective = request.limits
        if self.admission.policy.job_limits is not None:
            effective = self.admission.policy.job_limits.merge(effective)
        if self.job_timeout is not None:
            effective = (effective or SolveLimits()).with_wall_clock(
                self.job_timeout)
        job_wire = dict(wire)
        job_wire["limits"] = api.limits_to_wire(effective)
        if self.audit_fills:
            job_wire["audit"] = True
        token = self._next_token("replay", digest)
        ticket = self._loop.create_future()
        self._jobs[digest] = ticket
        self._register_job(token, effective)
        try:
            payload, telemetry = await self._run_job(job_wire, token)
            obs.ingest_telemetry(telemetry)
            status = SolveStatus(payload["status"])
            if status.decided and payload.get("audit") != "FAIL":
                self._fill_cache(digest, request, payload)
                self.journal.record_done(digest)
                self._count("serve.journal.replayed")
            elif status in (SolveStatus.TIMEOUT,
                            SolveStatus.BUDGET_EXHAUSTED):
                # The budget worked; the original submitter is long
                # gone, so there is nobody to hand the undecided answer
                # to — the request is complete.
                self.journal.record_done(digest)
                self._count("serve.journal.replayed")
            else:
                # ERROR: leave the entry pending — the attempt record
                # already written means a crash-looping entry poisons
                # after MAX_RECOVERY_ATTEMPTS boots.
                self._count("serve.journal.replay_errors")
        except Exception:
            self._count("serve.journal.replay_errors")
        finally:
            if self.watchdog is not None:
                self.watchdog.finished(token)
            self._jobs.pop(digest, None)
            if not ticket.done():
                ticket.set_result(None)

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._conn_seq += 1
        injector = None
        if self._fault_plan is not None:
            injector = FaultInjector(self._fault_plan,
                                     label=f"conn#{self._conn_seq}",
                                     sites=("conn",))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # oversized line or peer reset
                if not line:
                    break
                if injector is not None and injector.maybe_conn_drop():
                    # Injected flaky network: hang up without replying.
                    # The retrying client must recover; submission is
                    # idempotent by content address.
                    self._count("serve.conn_dropped")
                    break
                try:
                    envelope = json.loads(line)
                except ValueError:
                    reply = {"ok": False, "error": "malformed JSON line"}
                else:
                    reply = await self._dispatch(envelope)
                writer.write(json.dumps(reply).encode("utf-8") + b"\n")
                await writer.drain()
                if reply.get("bye"):
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, envelope: Dict) -> Dict:
        op = envelope.get("op")
        self._count("serve.ops")
        if op == "ping":
            return {"ok": True, "protocol": PROTOCOL,
                    "workers": self.workers, "draining": self._draining}
        if op == "metrics":
            dump = {"ok": True,
                    "metrics": obs_metrics.registry().snapshot(),
                    "cache": self.cache.counts(),
                    "admission": self.admission.snapshot()}
            if self.journal is not None:
                dump["journal"] = self.journal.counts()
            if self.watchdog is not None:
                dump["watchdog"] = self.watchdog.snapshot()
            return dump
        if op == "shutdown":
            # Reply first (the handler breaks on "bye"), then drain:
            # finish or journal what is in flight, flush, exit.
            self._loop.call_soon(
                lambda: self._loop.create_task(self.drain()))
            return {"ok": True, "bye": True, "draining": True}
        if op == "solve":
            return await self._solve(envelope.get("request") or {})
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- the solve path ------------------------------------------------

    async def _solve(self, wire: Dict) -> Dict:
        try:
            request = api.SolveRequest.from_wire(wire)
        except Exception as error:
            self._count("serve.invalid")
            return {"ok": False, "error": f"invalid request: {error}"}
        digest = request.cache_key()

        payload = self.cache.get(digest)
        if payload is None and digest in self._jobs:
            # Single-flight: an identical request is already solving.
            # Await it, then take its freshly-filled cache entry.
            self._count("serve.coalesced")
            await asyncio.wait([self._jobs[digest]])
            payload = self.cache.get(digest)
        if payload is None:
            # A decided answer cached under a *subset* of this
            # request's strategies (same instance/K/limits) answers it
            # too — the larger portfolio would accept the same first
            # decided result.
            payload = self.cache.superset_get(
                request.base_key(),
                [strategy.label for strategy in request.strategies])
            if payload is not None:
                self._count("serve.responses.superset")
        if payload is not None:
            payload["cached"] = True
            payload["tag"] = request.tag
            self._count("serve.responses.cached")
            return {"ok": True, "response": payload}

        if self._draining:
            self._count("serve.rejected_draining")
            return {"ok": False, "rejected": True, "draining": True,
                    "error": "server is draining; resubmit elsewhere "
                             "or retry after restart"}

        decision = self.admission.admit(request.client,
                                        request.graph.num_vertices,
                                        request.limits)
        if not decision.admitted:
            self._count("serve.rejected")
            return {"ok": False, "error": decision.reason, "rejected": True}

        effective = decision.limits
        if self.job_timeout is not None:
            effective = (effective or SolveLimits()).with_wall_clock(
                self.job_timeout)
        job_wire = dict(wire)
        job_wire["limits"] = api.limits_to_wire(effective)
        if self.audit_fills:
            job_wire["audit"] = True

        # Write-ahead: the admit record is durable (fsync'd) before the
        # job may enter the pool — a SIGKILL from here on is recoverable.
        if self.journal is not None:
            self.journal.record_admit(digest, dict(wire))

        token = self._next_token("job", digest)
        self.admission.begin(request.client)
        self._register_job(token, effective)
        ticket = self._loop.create_future()
        self._jobs[digest] = ticket
        status, detail = SolveStatus.ERROR, "worker failed"
        try:
            payload, telemetry = await self._run_job(job_wire, token)
            obs.ingest_telemetry(telemetry)
            status = SolveStatus(payload["status"])
            detail = str((payload.get("report") or {}).get("detail", ""))
        except Exception as error:
            detail = repr(error)
            report = SolveReport(status=SolveStatus.ERROR, detail=detail)
            payload = api.SolveResponse(status=SolveStatus.ERROR,
                                        report=report).to_wire()
        finally:
            self.admission.finish(request.client, status, detail)
            if self.watchdog is not None:
                self.watchdog.finished(token)
            self._jobs.pop(digest, None)
            if not ticket.done():
                ticket.set_result(None)
            if self.journal is not None:
                if digest in self._drain_abandoned:
                    # Abandoned by the drain deadline: leave the entry
                    # pending so the next boot replays it.
                    pass
                else:
                    self.journal.record_done(digest)

        payload["digest"] = digest
        payload["cached"] = False
        payload["tag"] = request.tag
        self._count(f"serve.jobs.{status}")
        if status.decided and payload.get("audit") != "FAIL":
            # Audit-guarded fill: with audit_fills on, a decided answer
            # here has verdict PASS (a FAIL was demoted to ERROR).
            self._fill_cache(digest, request, payload)
        return {"ok": True, "response": payload}

    def _fill_cache(self, digest: str, request: "api.SolveRequest",
                    payload: Dict) -> None:
        """Stamp provenance the superset index needs, then fill."""
        entry = dict(payload)
        entry["digest"] = digest
        entry["base"] = request.base_key()
        entry["strategies"] = [strategy.label
                               for strategy in request.strategies]
        self.cache.put(digest, entry)

    def _next_token(self, prefix: str, digest: str) -> str:
        self._job_seq += 1
        return f"{prefix}#{self._job_seq}:{digest[:12]}"

    def _register_job(self, token: str,
                      limits: Optional[SolveLimits]) -> None:
        if self.watchdog is None:
            return
        deadline = limits.wall_clock_limit if limits is not None else None
        self.watchdog.register(token, deadline)

    async def _run_job(self, job_wire: Dict, token: str = "") -> tuple:
        try:
            return await self._loop.run_in_executor(
                self._executor, _execute_wire, job_wire, token)
        except BrokenProcessPool:
            # A worker died hard (OOM kill, segfault, or a watchdog
            # SIGKILL of a wedged job).  Replace the pool so one
            # casualty does not take the service down, and fail only
            # the jobs that were on it.
            self._count("serve.pool_rebuilds")
            old, self._executor = self._executor, None
            await self._loop.run_in_executor(
                None, lambda: old.shutdown(wait=False))
            self._executor = self._make_executor()
            raise

    @staticmethod
    def _count(name: str, amount: int = 1) -> None:
        if obs_metrics.enabled():
            obs_metrics.registry().inc(name, amount)
