"""The asyncio solve service: JSON-lines TCP over a worker-process pool.

Protocol (one JSON object per line, both directions):

* ``{"op": "solve", "request": <SolveRequest wire>}`` →
  ``{"ok": true, "response": <SolveResponse wire>}`` or
  ``{"ok": false, "error": "...", "rejected": true?}``.
* ``{"op": "metrics"}`` → the ``/metrics``-style dump: the process
  metrics snapshot plus the cache, admission, journal and pool
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
    worker pool: api.solve with audit FORCED on; SIGKILL past the
    budget + grace, and a fresh worker for the slot, if the job wedges
        │ decided + audit passed
    cache fill (memory LRU + atomic disk write) + journal done ──▶ answer

Cache hits are answered on the event loop without touching the pool and
without charging the client's budget.  Fills are audit-verified — a
cached answer has survived :func:`repro.reliability.audit.audit_outcome`
once, so hits can skip re-verification; a response that fails its audit
comes back as ERROR and is never cached.  Concurrent identical requests
are single-flighted: the second submitter awaits the first's job and is
then served from the cache instead of duplicating the work.

Workers are the package's one :class:`~repro.core.pool.WorkerPool`
(solves are CPU-bound; the GIL rules out threads), owned by the service
for the life of its process and driven from its event loop: the loop
watches each busy slot's pipe and process sentinel and wakes at each
job's deadline, so no thread and no poll interval sits on the request
path.  The pool runs each job with fresh observability state and
ingests its telemetry (spans + metrics snapshot) with the report — the
same scheme as the portfolio race and the job scheduler.

Resilience (see ``docs/serving.md``): the pool cancels a job at its
wall-clock budget and SIGKILLs its worker past the pool's grace period,
the same deadline kill as a batch job's, and a dead or killed worker is
replaced at its slot's next job; the
:class:`~repro.serve.journal.RequestJournal` write-ahead-logs every
admitted request so a crashed server **recovers on boot** by replaying
unfinished entries through the same audit-guarded cache-fill path
(entries that crash recovery twice are poison-marked and skipped); and
``SIGTERM`` or the ``shutdown`` op triggers a **draining** stop instead
of an abrupt one.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import multiprocessing as mp
import signal
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .. import api
from ..core.pool import CANCEL_GRACE_SECONDS, Finished, WorkerPool
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..reliability.faults import FaultInjector, FaultPlan
from ..sat.status import SolveLimits, SolveReport, SolveStatus
from .admission import AdmissionController, AdmissionPolicy
from .cache import ResultCache
from .journal import MAX_RECOVERY_ATTEMPTS, RequestJournal

#: Protocol version announced by ``ping``.
PROTOCOL = "repro-serve/1"

#: Hard cap on one request line (a DoS-sized payload should fail the
#: read, not exhaust memory).
MAX_LINE_BYTES = 64 * 1024 * 1024


def _execute_wire(task: Tuple[Dict, str], cancel) -> Dict:
    """A serve worker's pool task: run one ``(request wire, job token)``
    and return the response wire.  Never raises — every failure becomes
    an ERROR response.  The token labels serve-worker faults.  A healthy
    job stops at its own wall-clock budget, so ``cancel`` goes unread:
    the pool kills a job still running past its grace period."""
    wire, token = task
    obs_metrics.enable(True)  # a spawned worker starts with it off
    plan = FaultPlan.from_env()
    if plan is not None:
        injector = FaultInjector(plan, label=token, sites=("serve_worker",))
        injector.maybe_exit()         # crash@serve_worker
        injector.maybe_worker_hang()  # stuck-job scenario
    try:
        request = api.SolveRequest.from_wire(wire)
        return api.solve(request).to_wire()
    except Exception as error:  # defensive: the pool must stay healthy
        report = SolveReport(status=SolveStatus.ERROR, detail=repr(error))
        return api.SolveResponse(status=SolveStatus.ERROR, report=report,
                                 tag=str(wire.get("tag", ""))).to_wire()


@dataclass
class _Job:
    """One pool job, from its queueing to its settled future."""

    token: str
    #: The pool task: ``(request wire, token)``.
    task: tuple
    #: Its wall-clock budget in seconds: the pool's deadline (None: none).
    timeout: Optional[float]
    future: "asyncio.Future"


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
                 journal_dir: Optional[str] = None,
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
        #: Write-ahead journal directory (None = journaling off).
        self.journal_dir = journal_dir
        #: Seconds a draining shutdown waits for in-flight jobs before
        #: abandoning them to the journal (recovered on next boot).
        self.drain_deadline = drain_deadline
        self.warm_start_enabled = warm_start
        self._fault_plan = FaultPlan.resolve(faults)
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[WorkerPool] = None
        #: Jobs waiting for an idle slot, and the job on each busy slot.
        self._queued: Deque[_Job] = collections.deque()
        self._running: Dict[int, _Job] = {}
        #: What the loop watches for the pool: descriptors and a timer.
        self._watched: List[int] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._kills = 0
        self._last_kill: Optional[Dict[str, str]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self.journal: Optional[RequestJournal] = None
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

    async def start(self) -> "SolveService":
        """Bind the listener and spin up the pool.  With ``port=0`` the
        OS picks a free port; :attr:`port` holds the real one after.
        Warm-starts the cache from disk and kicks off journal recovery
        as a background task (recovered answers land in the cache while
        new requests are already being served)."""
        obs_metrics.enable(True)  # the service always keeps its counters
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        # Fork every worker now, before the listener binds and before the
        # signal handlers go in.  A worker forked mid-flight inherits a
        # duplicate of every accepted connection's fd, and that duplicate
        # keeps the peer's socket half-open after we close it — the
        # client never sees the FIN until the worker dies.  It also moves
        # the fork cost to boot time.
        self._pool = WorkerPool(self.workers, _execute_wire)
        self._pool.start()
        if self.warm_start_enabled and self.cache.disk_dir:
            loaded = self.cache.warm_start()
            if loaded:
                trace.event("serve.cache.warm_start", entries=loaded)
        if self.journal_dir:
            self.journal = RequestJournal(self.journal_dir,
                                          faults=self._fault_plan)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
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

        Jobs still queued at the deadline answer ERROR; jobs still
        running are cancelled, and SIGKILLed past the pool's grace
        period.  Their journal entries are left *pending* — the next
        boot replays them, so an admitted request is never lost to a
        shutdown.  A recovery replay ended this way does not count as a
        crashed recovery attempt.
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
        # Recovery launches no replay once draining; the one in flight
        # is in _jobs and counts as in-flight work below.
        if self._jobs:
            await asyncio.wait(list(self._jobs.values()),
                               timeout=max(0.0, deadline))
        if self._jobs:
            abandoned = set(self._jobs)
            self._drain_abandoned |= abandoned
            trace.event("serve.drain.abandoned", jobs=len(abandoned))
            self._count("serve.drain.abandoned", len(abandoned))
            self._fail(self._queued, "abandoned by the drain deadline")
            self._queued.clear()
            self._pool.cancel()
            self._pump()
            # Let the killed jobs settle so connected clients get their
            # ERROR responses before the loop dies.
            await asyncio.wait(list(self._jobs.values()),
                               timeout=CANCEL_GRACE_SECONDS + 1.0)
        self._count("serve.drain.completed")
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting, tear down the pool, release everything.

        Prefer :meth:`drain` for an orderly exit; ``stop`` is the
        immediate version (the end of a drain, and tests).
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._recovery_task is not None:
            self._recovery_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._recovery_task
            self._recovery_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._unwatch()
            self._fail([*self._queued, *self._running.values()],
                       "the service stopped")
            self._queued.clear()
            self._running.clear()
            pool, self._pool = self._pool, None
            pool.close()
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
        (budget ceiling, forced audit, deadline kill, cache fill)."""
        if digest in self._jobs:  # a live client raced us to it
            await asyncio.wait([self._jobs[digest]])
            if self.cache.get(digest) is not None:
                self.journal.record_done(digest)
            return
        limits = request.limits
        if self.admission.policy.job_limits is not None:
            limits = self.admission.policy.job_limits.merge(limits)
        token = self._next_token("replay", digest)
        ticket = self._loop.create_future()
        self._jobs[digest] = ticket
        # Set when the service's own drain or stop ends the replay: that
        # is no crash, so the attempt recorded before it is withdrawn.
        interrupted = False
        try:
            payload = await self._run_job(wire, token, limits)
            status = SolveStatus(payload["status"])
            if status.decided and payload.get("audit") != "FAIL":
                self._fill_cache(digest, request, payload)
                self.journal.record_done(digest)
                self._count("serve.journal.replayed")
            elif digest in self._drain_abandoned:
                interrupted = True
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
        except asyncio.CancelledError:
            interrupted = True
            raise
        except Exception:
            interrupted = digest in self._drain_abandoned
            self._count("serve.journal.replay_errors")
        finally:
            if interrupted:
                self.journal.record_interrupted(digest)
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
            dump["pool"] = {"workers": self.workers,
                            "busy": len(self._running),
                            "queued": len(self._queued),
                            "kills": self._kills,
                            "last_kill": self._last_kill}
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

        # Write-ahead: the admit record is durable (fsync'd) before the
        # job may enter the pool — a SIGKILL from here on is recoverable.
        if self.journal is not None:
            self.journal.record_admit(digest, dict(wire))

        token = self._next_token("job", digest)
        self.admission.begin(request.client)
        ticket = self._loop.create_future()
        self._jobs[digest] = ticket
        status, detail = SolveStatus.ERROR, "worker failed"
        try:
            payload = await self._run_job(wire, token, decision.limits)
            status = SolveStatus(payload["status"])
            detail = str((payload.get("report") or {}).get("detail", ""))
        except Exception as error:
            detail = repr(error)
            report = SolveReport(status=SolveStatus.ERROR, detail=detail)
            payload = api.SolveResponse(status=SolveStatus.ERROR,
                                        report=report).to_wire()
        finally:
            self.admission.finish(request.client, status, detail)
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
            # Audit-guarded fill: every job runs audited, so a decided
            # answer here has verdict PASS (a FAIL was demoted to ERROR).
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

    # -- the worker pool -----------------------------------------------

    async def _run_job(self, wire: Dict, token: str,
                       limits: Optional[SolveLimits]) -> Dict:
        """Run one request on the pool and return its response wire.
        The server's ``job_timeout`` tightens ``limits``, the audit is
        forced on (cache fills are verified answers), and the resulting
        wall-clock budget is the job's pool deadline.  Raises when the
        worker dies or is killed."""
        if self.job_timeout is not None:
            limits = (limits or SolveLimits()).with_wall_clock(
                self.job_timeout)
        job_wire = dict(wire, limits=api.limits_to_wire(limits), audit=True)
        job = _Job(token, (job_wire, token),
                   None if limits is None else limits.wall_clock_limit,
                   self._loop.create_future())
        self._queued.append(job)
        self._pump()
        return await job.future

    def _pump(self) -> None:
        """Drive the pool one step from the event loop: settle the jobs
        that left their slots, hand queued jobs to idle slots, then
        watch the busy slots' pipes and sentinels and wake at the next
        deadline.  Every pool call runs here, on the loop's thread."""
        pool = self._pool
        if pool is None:
            return
        # Unwatch first: wait() and submit() may close or reuse the
        # descriptors.
        self._unwatch()
        for done in pool.wait(timeout=0):
            self._settle(done)
        for slot in pool.idle()[:len(self._queued)]:
            job = self._running[slot] = self._queued.popleft()
            pool.submit(slot, job.task, tag=job, timeout=job.timeout)
        self._watched, delay = pool.watch()
        for fd in self._watched:
            self._loop.add_reader(fd, self._pump)
        if delay is not None:
            self._timer = self._loop.call_later(delay, self._pump)

    def _unwatch(self) -> None:
        for fd in self._watched:
            self._loop.remove_reader(fd)
        self._watched = []
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _settle(self, done: Finished) -> None:
        """Resolve a finished job's future: its response, or the
        failure of a worker that died or was killed (a slot then forks
        a fresh worker for its next job)."""
        job = done.tag
        self._running.pop(done.slot, None)
        error = done.error
        if done.killed:
            if job.timeout is not None and done.elapsed >= job.timeout:
                reason = (f"overdue: {done.elapsed:.2f}s elapsed, budget "
                          f"{job.timeout:.2f}s + grace "
                          f"{CANCEL_GRACE_SECONDS:.2f}s")
            else:
                reason = "drain deadline"
            self._kills += 1
            self._last_kill = {"token": job.token, "reason": reason}
            trace.event("serve.pool.kill", token=job.token, reason=reason)
            self._count("serve.pool.kills")
            error = f"worker killed ({reason})"
        if done.killed or done.exit_code is not None:
            self._count("serve.pool.restarts")
        if error is not None:
            self._fail([job], error)
        elif not job.future.done():
            job.future.set_result(done.result)

    @staticmethod
    def _fail(jobs, reason: str) -> None:
        for job in jobs:
            if not job.future.done():
                job.future.set_exception(RuntimeError(reason))

    @staticmethod
    def _count(name: str, amount: int = 1) -> None:
        if obs_metrics.enabled():
            obs_metrics.registry().inc(name, amount)
