"""Concurrent batch execution of solve jobs (instances × strategies).

The sequential :func:`repro.bench.sweep` times one strategy at a time for
paper-faithful measurements; this module is the throughput-oriented
counterpart for *surveying* a benchmark family: run every (instance,
strategy) pair over a bounded worker pool, each job under its own budget
and deadline, and come back with a complete status table even when some
jobs time out, crash, or the whole batch is cancelled midway.

:func:`run_sharded` is the package's one job scheduler.  It splits the
pool into ``num_shards`` work-stealing queues.  A job lands on a *home
shard* by a stable hash of its instance name, so every solve of one
instance (strategy sweeps, retries, re-submissions) queues on the same
shard, and each shard launches from the *head* of its own deque.  An
idle shard steals from the *tail* of the longest backlog: the head is
where the owner's locality lives, the tail is where the coldest work
sits.  :func:`run_batch` is the same scheduler with one shard;
:mod:`repro.dist.scheduler` re-exports it for the distributed layer.

Each worker slot of each shard keeps one worker process for the whole
call: forked at the slot's first launch, sent one attempt at a time on
the slot's own pipe, and stopped when the call returns.  With
``audit=True`` the worker also audits its own decided answer, so audits
run on every worker at once rather than one by one in the scheduler.

Guarantees:

* **Per-job deadlines** — ``job_timeout`` becomes each job's
  ``wall_clock_limit``; a job that overruns is first asked to stop via
  its :class:`CancelToken` (so it reports TIMEOUT with partial stats)
  and hard-terminated only if it ignores the token past a grace period.
  A killed worker is replaced by a fresh process at its slot's next
  launch.
* **Retry on failure** — a job whose worker dies without reporting
  (segfault, OOM kill, an injected ``crash@worker`` or
  ``crash@dist_shard``; the slot forks a fresh worker) or whose job ends
  as ERROR goes back to the head of its home shard, up to
  ``max_attempts`` attempts; only then is the job recorded as ERROR.
* **Graceful partial results** — a batch deadline or an external cancel
  token stops scheduling, winds down running jobs cooperatively, and
  returns everything finished so far, with unstarted jobs listed in
  ``pending`` and ``cancelled=True``.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..coloring.problem import ColoringProblem
from ..core.pipeline import ColoringOutcome, solve_coloring
from ..core.portfolio import _worker_injector
from ..core.strategy import Strategy
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..sat.status import CancelToken, SolveLimits, SolveStatus

#: Report-wait interval of the scheduler loop.
_POLL_SECONDS = 0.05

#: Grace given to a cancelled job to wind down and report before it is
#: hard-terminated (covers time spent outside the solver, e.g. encoding).
_CANCEL_GRACE_SECONDS = 2.0

#: How often an idle worker checks that its scheduler still exists: a
#: scheduler that is killed never sends the stop sentinel.
_PARENT_CHECK_SECONDS = 1.0


@dataclass(frozen=True)
class BatchJob:
    """One unit of work: solve ``problem`` with ``strategy``."""

    instance: str
    problem: ColoringProblem
    strategy: Strategy
    graph_time: float = 0.0

    @property
    def key(self) -> Tuple[str, str]:
        return (self.instance, self.strategy.label)


@dataclass
class BatchJobResult:
    """Terminal record for one job: exactly one per non-pending job."""

    job: BatchJob
    status: SolveStatus
    outcome: Optional[ColoringOutcome]
    wall_time: float
    attempts: int = 1
    #: Failure detail when ``status`` is ERROR.
    error: Optional[str] = None
    #: Audit report of the final attempt's answer (``audit=True`` runs
    #: only; an :class:`repro.reliability.audit.AuditReport`).
    audit: Optional[object] = None
    #: BCP engine of the final attempt — "legacy" when the scheduler
    #: fell back from a failing "arena" run.
    engine: str = "arena"

    @property
    def key(self) -> Tuple[str, str]:
        return self.job.key


@dataclass
class BatchResult:
    """Everything a batch produced, however it ended."""

    results: List[BatchJobResult]
    #: Jobs never started (batch deadline or cancellation hit first).
    pending: List[BatchJob] = field(default_factory=list)
    #: True when the batch stopped early (deadline or cancel token).
    cancelled: bool = False
    wall_time: float = 0.0
    #: Per-strategy health snapshot (offences, successes, backoff) from
    #: the quarantine tracker, by strategy label.
    quarantine: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.by_key: Dict[Tuple[str, str], BatchJobResult] = {
            r.key: r for r in self.results}

    def outcome(self, instance: str, strategy: Strategy) -> ColoringOutcome:
        result = self.by_key[(instance, strategy.label)]
        if result.outcome is None:
            raise KeyError(f"job {result.key} produced no outcome "
                           f"(status {result.status})")
        return result.outcome

    def status_counts(self) -> Dict[SolveStatus, int]:
        counts: Dict[SolveStatus, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    @property
    def complete(self) -> bool:
        """True when every job ran to a decided answer."""
        return not self.pending and all(r.status.decided
                                        for r in self.results)


@dataclass
class ShardedResult(BatchResult):
    """A batch result plus the shard-level accounting."""

    #: Per-shard counters, by shard name ("shard0", ...).
    shards: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Jobs launched away from their home shard.
    steals: int = 0


def shard_of(instance: str, num_shards: int) -> int:
    """The home shard of an instance: a stable content hash, so the
    same instance always queues on the same shard across runs and
    processes (CRC32 is seed- and ``PYTHONHASHSEED``-independent)."""
    return zlib.crc32(instance.encode("utf-8")) % num_shards


def _batch_worker(jobs: Sequence[BatchJob], conn, cancel_event,
                  limits: Optional[SolveLimits], faults=None,
                  audit: bool = False) -> None:
    """A slot's worker process: for each ``(job index, strategy)``
    task read from ``conn``, solve one attempt, audit its decided answer
    when ``audit`` is set, and send both back; return at the ``None``
    stop sentinel, or once the scheduler process is gone."""
    scheduler = os.getppid()
    while True:
        if not conn.poll(_PARENT_CHECK_SECONDS):
            if os.getppid() != scheduler:
                return
            continue
        task = conn.recv()
        if task is None:
            return
        index, strategy = task
        # Fresh observability state for each attempt (fork inherits the
        # parent's buffers); spans and metrics travel back on the pipe.
        obs.worker_begin()
        try:
            job = jobs[index]
            injector = _worker_injector(faults, strategy,
                                        extra_sites=("dist_shard",))
            if injector is not None:
                injector.maybe_exit()
                injector.maybe_hang()
            # Reliability kwargs only when they deviate from the
            # defaults, so test doubles with the historical signature
            # keep working.
            kwargs = {}
            if faults is not None:
                kwargs["faults"] = faults
            if audit:
                kwargs.update(keep_model=True, proof_log=True)
            outcome = solve_coloring(job.problem, strategy,
                                     graph_time=job.graph_time,
                                     limits=limits,
                                     cancel=CancelToken(cancel_event),
                                     **kwargs)
            report = None
            if audit and outcome.status.decided:
                from ..reliability.audit import audit_outcome
                report = audit_outcome(job.problem, outcome)
            conn.send((outcome, None, report, obs.drain_telemetry()))
        except Exception as error:  # report, never hang the scheduler
            conn.send((None, repr(error), None, obs.drain_telemetry()))


@dataclass
class _Slot:
    """One worker slot of a shard and the worker process serving it.

    The process is forked at the slot's first launch and serves every
    attempt launched on the slot until the call ends.  Tasks go out and
    reports come back on the slot's own pipe, so no lock is shared
    between workers, and a worker that dies at any point cannot hold up
    another's report.  A worker killed past its grace period or found
    dead is replaced, with its pipe and cancel event, at the slot's
    next launch: a process killed inside ``Event.is_set`` can leave the
    event's lock held.
    """

    shard: int
    process: Optional["mp.Process"] = None
    #: The scheduler's end of the slot's pipe.
    conn: object = None
    cancel_event: object = None
    busy: bool = False


@dataclass
class _Entry:
    """One queued attempt; the home shard is kept across requeues."""

    #: Position of ``job`` in the job list the workers hold.
    index: int
    job: BatchJob
    home: int
    #: Strategy run this attempt: ``job.strategy``, or its legacy-engine
    #: twin after an engine fallback (results stay keyed by the job).
    strategy: Strategy
    attempt: int = 1
    #: Monotonic timestamp before which this entry may not launch
    #: (quarantine backoff of its strategy).
    not_before: float = 0.0


@dataclass
class _Running:
    """Scheduler-side state of one launched attempt."""

    #: Launch number, the key of the attempt among those running.
    dispatch: int
    entry: _Entry
    #: Worker slot this attempt occupies (the thief's shard, on a stolen
    #: launch — the home shard stays on the entry).
    slot: _Slot
    started: float
    deadline: Optional[float]
    hard_deadline: Optional[float] = None


def jobs_for(instances: Sequence, strategies: Sequence[Strategy],
             ) -> List[BatchJob]:
    """Cross product of prepared benchmark instances × strategies.

    Accepts :class:`repro.bench.BenchmarkInstance` objects (uses their
    prepared CSP) — the usual way to feed :func:`run_batch`.
    """
    jobs = []
    for instance in instances:
        for strategy in strategies:
            jobs.append(BatchJob(instance=instance.name,
                                 problem=instance.csp.problem,
                                 strategy=strategy,
                                 graph_time=instance.csp.build_time))
    return jobs


def _dedup_jobs(jobs: Sequence[BatchJob], limits: Optional[SolveLimits],
                job_timeout: Optional[float]):
    """Collapse identical jobs to one dispatch each.

    Two jobs are identical when their ``repro.api`` content addresses
    agree — :meth:`SolveRequest.cache_key` over (canonical graph bytes,
    colors, strategy, limits) — which catches duplicates the
    ``(instance, label)`` key cannot: the same graph submitted under
    two instance names used to be solved twice.  Returns
    ``(primaries, fanout)`` where ``fanout`` maps a primary job's
    ``id()`` to the duplicate jobs whose results are cloned from it
    after the run.
    """
    from ..api import SolveRequest  # lazy: repro.api imports this module
    effective = (limits or SolveLimits()).with_wall_clock(job_timeout)
    seen: Dict[str, BatchJob] = {}
    primaries: List[BatchJob] = []
    fanout: Dict[int, List[BatchJob]] = {}
    for job in jobs:
        try:
            digest = SolveRequest(graph=job.problem.graph,
                                  colors=job.problem.num_colors,
                                  strategies=(job.strategy,),
                                  limits=effective).cache_key()
        except Exception:
            # Unaddressable job (e.g. a test double without a real
            # graph): dispatch it as-is rather than refuse the batch.
            primaries.append(job)
            continue
        primary = seen.get(digest)
        if primary is None:
            seen[digest] = job
            primaries.append(job)
        else:
            fanout.setdefault(id(primary), []).append(job)
    return primaries, fanout


def _fan_out_duplicates(result: BatchResult,
                        fanout: Dict[int, List[BatchJob]]) -> None:
    """Clone each primary's result/pending entry for its duplicates, so
    callers see one record per *submitted* job, dispatched or not."""
    cloned: List[BatchJobResult] = []
    for primary in result.results:
        for dup in fanout.get(id(primary.job), ()):
            cloned.append(BatchJobResult(
                job=dup, status=primary.status, outcome=primary.outcome,
                wall_time=primary.wall_time, attempts=primary.attempts,
                error=primary.error, audit=primary.audit,
                engine=primary.engine))
    if cloned:
        trace.event("batch.fanout", duplicates=len(cloned))
    result.results.extend(cloned)
    extra_pending: List[BatchJob] = []
    for job in result.pending:
        extra_pending.extend(fanout.get(id(job), ()))
    result.pending.extend(extra_pending)
    result.by_key = {r.key: r for r in result.results}


def run_batch(jobs: Sequence[BatchJob], max_workers: Optional[int] = None,
              **options) -> ShardedResult:
    """Run every job over one worker pool: :func:`run_sharded` with a
    single shard, taking the same keyword ``options``."""
    return run_sharded(jobs, num_shards=1, max_workers=max_workers,
                       **options)


def run_sharded(jobs: Sequence[BatchJob],
                num_shards: int = 2,
                max_workers: Optional[int] = None,
                workers_per_shard: Optional[int] = None,
                job_timeout: Optional[float] = None,
                limits: Optional[SolveLimits] = None,
                max_attempts: int = 2,
                timeout: Optional[float] = None,
                cancel: Optional[CancelToken] = None,
                audit: bool = False, faults=None,
                quarantine=None,
                engine_fallback: bool = True,
                dedup: bool = True) -> ShardedResult:
    """Run every job over ``num_shards`` work-stealing shard queues;
    always returns a full table.

    ``max_workers`` (default: one less than the CPU count, at least
    ``num_shards``) is spread evenly over the shards unless
    ``workers_per_shard`` bounds each shard's pool directly.
    ``job_timeout`` bounds each job's wall clock (merged into
    ``limits``); ``timeout`` bounds the whole batch; ``cancel`` lets a
    caller stop the batch from outside.  ``max_attempts`` caps retries
    for jobs that fail — workers that die without reporting as well as
    jobs that end with status ERROR (a crash degraded by the pipeline,
    or an answer that failed its audit); a failed attempt goes back to
    the head of its home shard's queue.  No exception escapes a job:
    every job ends as a :class:`BatchJobResult` or in ``pending``.

    Reliability controls:

    * ``audit=True`` re-verifies every decided answer in the worker
      that found it, right after the solve
      (:func:`repro.reliability.audit.audit_outcome`); an answer that
      fails audit counts as ERROR and is retried, never silently kept.
      The audit is part of the attempt: ``job_timeout`` and
      :attr:`BatchJobResult.wall_time` include it, and an audit still
      running at the hard deadline ends the attempt as TIMEOUT.
    * ``faults`` injects faults into the workers (None = the
      ``REPRO_FAULTS`` environment plan only; a ``FaultPlan`` is used
      as given; ``False`` disables injection).  Worker-site faults
      fire at both the ``worker`` and the ``dist_shard`` site.
    * ``quarantine`` is a
      :class:`repro.reliability.quarantine.QuarantinePolicy` (None =
      defaults): a strategy whose jobs repeatedly crash or fail audit
      sits out with capped exponential backoff before its next retry.
    * ``engine_fallback`` retries a failed ``engine="arena"`` job on
      ``engine="legacy"`` (same search trajectory, independent BCP
      implementation), so an arena-specific fault cannot sink a job
      that the legacy engine can still answer.

    ``dedup=True`` (the default) collapses content-identical jobs —
    same canonical graph, colors, strategy and limits by
    :meth:`repro.api.SolveRequest.cache_key` — to a single dispatch and
    fans its result back out to every duplicate, so a corpus with
    repeated instances no longer pays for redundant solves.

    Each of the ``num_shards * workers_per_shard`` worker slots forks
    its process at its first launch and keeps it for the whole call;
    only a worker killed past its grace period or found dead is
    replaced.  No worker outlives the call.

    The result carries per-shard counters (``launched``, ``stolen``,
    ``requeued``, ``completed``) and the steal total.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    if workers_per_shard is not None and workers_per_shard < 1:
        raise ValueError("workers_per_shard must be at least 1")
    if max_workers is None:
        max_workers = max(num_shards, (mp.cpu_count() or 2) - 1)
    if workers_per_shard is None:
        workers_per_shard = max(1, max_workers // num_shards)
    fanout: Dict[int, List[BatchJob]] = {}
    duplicates = 0
    if dedup and len(jobs) > 1:
        jobs, fanout = _dedup_jobs(jobs, limits, job_timeout)
        duplicates = sum(len(d) for d in fanout.values())
    with trace.span("dist.schedule", jobs=len(jobs), shards=num_shards,
                    workers_per_shard=workers_per_shard, audit=audit,
                    deduped=duplicates) as span:
        result = _schedule_in_span(
            span, jobs, num_shards, workers_per_shard, job_timeout,
            limits, max_attempts, timeout, cancel, audit, faults,
            quarantine, engine_fallback)
        if fanout:
            _fan_out_duplicates(result, fanout)
        span.set("settled", len(result.results))
        span.set("steals", result.steals)
        span.set("cancelled", result.cancelled)
        if obs_metrics.enabled():
            registry = obs_metrics.registry()
            registry.inc("dist.schedules")
            registry.inc("dist.jobs", len(result.results))
            if duplicates:
                registry.inc("batch.deduped", duplicates)
            for status, count in result.status_counts().items():
                registry.inc(f"dist.status.{status}", count)
            registry.observe("dist.wall_time", result.wall_time)
        return result


def _schedule_in_span(span, jobs: Sequence[BatchJob], num_shards: int,
                      workers_per_shard: int,
                      job_timeout: Optional[float],
                      limits: Optional[SolveLimits], max_attempts: int,
                      timeout: Optional[float],
                      cancel: Optional[CancelToken], audit: bool, faults,
                      quarantine, engine_fallback: bool) -> ShardedResult:
    """:func:`run_sharded`'s scheduler loop, inside its already-open span.

    Job lifecycle transitions — launch, steal, settle, retry/requeue
    (with backoff and engine fallback), per-job deadline kills,
    unreported worker deaths and batch-level cancellation — become span
    events, and the telemetry each worker ships back (span tree +
    metrics snapshot) is grafted under this span.  Each launch gets its
    own dispatch number, so jobs sharing an (instance, strategy) key
    never collide in flight.
    """
    # Imported here: multiprocessing.connection costs every importer
    # of repro.api about 0.6 MB of resident memory.
    from multiprocessing.connection import wait
    from ..reliability.quarantine import QuarantineTracker
    tracker = QuarantineTracker(quarantine)
    job_limits = (limits or SolveLimits()).with_wall_clock(job_timeout)
    context = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                             else "spawn")
    start = time.perf_counter()
    batch_deadline = None if timeout is None else start + timeout

    queues: List[Deque[_Entry]] = [deque() for _ in range(num_shards)]
    for index, job in enumerate(jobs):
        home = shard_of(job.instance, num_shards)
        queues[home].append(_Entry(index, job, home, job.strategy))
    slots = [_Slot(shard) for shard in range(num_shards)
             for _ in range(workers_per_shard)]
    running: Dict[int, _Running] = {}
    dispatches = itertools.count()
    results: List[BatchJobResult] = []
    stats = [{"queued": len(queue), "launched": 0, "stolen": 0,
              "completed": 0, "requeued": 0} for queue in queues]
    steals = 0
    stopping = False

    def _take(queue: Deque[_Entry], order: Iterable[int],
              now: float) -> Optional[_Entry]:
        """Remove and return the first entry, in ``order``, that is past
        its backoff and not quarantined; blocked entries keep their
        place."""
        for index in order:
            entry = queue[index]
            if entry.not_before <= now and not tracker.quarantined(
                    entry.job.strategy.label, now):
                del queue[index]
                return entry
        return None

    def _next(shard: int, now: float) -> Tuple[Optional[_Entry], bool]:
        """The next attempt for a free slot of ``shard``, and whether it
        is stolen: from the head of its own queue, or — once that is
        empty — from the tail of the longest other queue."""
        own = queues[shard]
        if own:
            return _take(own, range(len(own)), now), False
        donors = sorted((s for s in range(num_shards) if queues[s]),
                        key=lambda s: -len(queues[s]))
        for donor in donors:
            queue = queues[donor]
            entry = _take(queue, range(len(queue) - 1, -1, -1), now)
            if entry is not None:
                return entry, True
        return None, False

    def _close(slot: _Slot) -> None:
        """Reap a slot's stopped or killed worker and close its pipe."""
        slot.process.join(timeout=5)
        slot.conn.close()

    def _launch(entry: _Entry, slot: _Slot, stolen: bool) -> None:
        nonlocal steals
        job = entry.job
        shard = slot.shard
        if slot.process is None or not slot.process.is_alive():
            if slot.process is not None:
                _close(slot)
            slot.conn, worker_end = context.Pipe()
            slot.cancel_event = context.Event()
            slot.process = context.Process(
                target=_batch_worker,
                args=(jobs, worker_end, slot.cancel_event, job_limits,
                      faults, audit),
                daemon=True)
            slot.process.start()
            worker_end.close()
        # The worker is idle between attempts, so clearing here cannot
        # race with it: a cancel meant for the slot's previous attempt
        # never reaches this one.
        slot.cancel_event.clear()
        dispatch = next(dispatches)
        now = time.perf_counter()
        deadline = None if job_timeout is None else now + job_timeout
        running[dispatch] = _Running(dispatch, entry, slot, now, deadline)
        slot.busy = True
        try:
            slot.conn.send((entry.index, entry.strategy))
        except OSError:
            pass  # died since the check above: _collect reports it
        stats[shard]["launched"] += 1
        if stolen:
            steals += 1
            stats[shard]["stolen"] += 1
            trace.event("dist.steal", instance=job.instance,
                        home=entry.home, thief=shard)
            if obs_metrics.enabled():
                obs_metrics.registry().inc("dist.steal")
        trace.event("job.launched", instance=job.instance,
                    strategy=entry.strategy.label,
                    engine=entry.strategy.engine, shard=shard,
                    attempt=entry.attempt)

    def _forget(record: _Running) -> None:
        del running[record.dispatch]
        record.slot.busy = False

    def _settle(record: _Running, status: SolveStatus,
                outcome: Optional[ColoringOutcome] = None,
                error: Optional[str] = None, audit_report=None) -> None:
        entry = record.entry
        results.append(BatchJobResult(
            job=entry.job, status=status, outcome=outcome,
            wall_time=time.perf_counter() - record.started,
            attempts=entry.attempt, error=error, audit=audit_report,
            engine=entry.strategy.engine))
        stats[record.slot.shard]["completed"] += 1
        _forget(record)
        trace.event("job.settled", instance=entry.job.instance,
                    strategy=entry.job.strategy.label, status=str(status),
                    shard=record.slot.shard, attempts=entry.attempt,
                    **({"error": error} if error else {}))

    def _requeue(record: _Running) -> None:
        """A failed attempt goes back to the *head of its home shard*
        (locality survives the crash), engine-fallen-back and delayed
        by its strategy's quarantine backoff."""
        entry = record.entry
        strategy = entry.strategy
        if engine_fallback and strategy.engine == "arena":
            strategy = strategy.with_engine("legacy")
        not_before = tracker.release_time(entry.job.strategy.label)
        queues[entry.home].appendleft(_Entry(
            entry.index, entry.job, entry.home, strategy, entry.attempt + 1,
            not_before))
        stats[entry.home]["requeued"] += 1
        _forget(record)
        trace.event("job.requeued", instance=entry.job.instance,
                    strategy=entry.job.strategy.label, shard=entry.home,
                    next_attempt=entry.attempt + 1, engine=strategy.engine,
                    backoff=round(max(0.0, not_before - time.perf_counter()),
                                  3))
        if obs_metrics.enabled():
            obs_metrics.registry().inc("dist.requeues")

    def _fail(record: _Running, detail: str,
              outcome: Optional[ColoringOutcome] = None,
              audit_report=None) -> None:
        """Charge a failed attempt to its strategy, then retry the job
        or, with no attempts left (or the batch stopping), settle it as
        ERROR."""
        tracker.record_offence(record.entry.job.strategy.label, detail,
                               time.perf_counter())
        if record.entry.attempt < max_attempts and not stopping:
            _requeue(record)
        else:
            _settle(record, SolveStatus.ERROR, outcome, detail,
                    audit_report)

    def _report(record: _Running, outcome: Optional[ColoringOutcome],
                error: Optional[str], audit_report) -> None:
        """Consume one worker report and the worker's audit of it:
        settle, or retry a failed attempt."""
        if error is not None:
            _fail(record, error)
            return
        if audit_report is not None and audit_report.failed:
            _fail(record, "audit failed: " + "; ".join(
                f"{check.name} ({check.detail})"
                for check in audit_report.failures),
                outcome, audit_report)
            return
        if outcome.status is SolveStatus.ERROR:
            _fail(record, str(outcome.solver_stats.get("stop_reason", ""))
                  or "job failed", outcome)
            return
        if outcome.status.decided:
            tracker.record_success(record.entry.job.strategy.label)
        _settle(record, outcome.status, outcome, audit_report=audit_report)

    def _collect(record: _Running) -> None:
        """Read the report on a running attempt's pipe.  A worker that
        died without a complete report can never answer: retry its job
        or record ERROR; the slot's next launch forks a fresh worker."""
        slot = record.slot
        try:
            item = slot.conn.recv() if slot.conn.poll() else None
        except (EOFError, OSError):  # died before or while reporting
            item = None
        if item is not None:
            outcome, error, audit_report, telemetry = item
            obs.ingest_telemetry(telemetry, span.span_id)
            _report(record, outcome, error, audit_report)
            return
        slot.process.join()
        exit_code = slot.process.exitcode
        trace.event("job.died", instance=record.entry.job.instance,
                    strategy=record.entry.job.strategy.label,
                    shard=slot.shard, exit_code=exit_code)
        _fail(record, f"worker died without reporting "
                      f"(exit code {exit_code})")

    try:
        while running or (any(queues) and not stopping):
            now = time.perf_counter()
            if batch_deadline is not None and now >= batch_deadline:
                reason = "deadline"
            elif cancel is not None and cancel.cancelled:
                reason = "cancel"
            else:
                reason = None
            if reason is not None and not stopping:
                # Stop scheduling; ask every running job to wind down.
                stopping = True
                trace.event("dist.stopping", reason=reason,
                            running=len(running),
                            waiting=sum(len(queue) for queue in queues))
                for record in running.values():
                    record.slot.cancel_event.set()
                    if record.hard_deadline is None:
                        record.hard_deadline = now + _CANCEL_GRACE_SECONDS
            if not stopping:
                for slot in slots:
                    if not slot.busy:
                        entry, stolen = _next(slot.shard, now)
                        if entry is not None:
                            _launch(entry, slot, stolen)
            for record in list(running.values()):
                if record.deadline is not None and now >= record.deadline \
                        and record.hard_deadline is None:
                    # Per-job deadline: cooperative stop, then backstop.
                    record.slot.cancel_event.set()
                    record.hard_deadline = now + _CANCEL_GRACE_SECONDS
                if record.hard_deadline is not None \
                        and now >= record.hard_deadline:
                    process = record.slot.process
                    if process.is_alive():
                        process.terminate()
                        process.join(timeout=5)
                        trace.event("job.terminated",
                                    instance=record.entry.job.instance,
                                    strategy=record.entry.job.strategy.label,
                                    reason="ignored cancel past grace")
                    _settle(record, SolveStatus.TIMEOUT)
            if not running:
                if any(queues) and not stopping:
                    # Everything launchable is backoff-blocked: wait the
                    # poll interval out instead of spinning.
                    time.sleep(_POLL_SECONDS)
                continue
            # A pipe turns ready on a report, and a process sentinel
            # when its worker exits.
            ready = set(wait(
                [record.slot.conn for record in running.values()]
                + [record.slot.process.sentinel
                   for record in running.values()],
                timeout=_POLL_SECONDS))
            for record in list(running.values()):
                if record.slot.conn in ready \
                        or record.slot.process.sentinel in ready:
                    _collect(record)
    finally:
        # Attempts still running here were interrupted by an exception:
        # ask them to stop.  Every live worker gets the stop sentinel,
        # and none outlives the call.
        for record in running.values():
            record.slot.cancel_event.set()
        started = [slot for slot in slots if slot.process is not None]
        for slot in started:
            try:
                slot.conn.send(None)
            except OSError:
                pass  # already dead
        grace_until = time.perf_counter() + _CANCEL_GRACE_SECONDS
        for slot in started:
            slot.process.join(
                timeout=max(0.0, grace_until - time.perf_counter()))
        for record in list(running.values()):
            if record.slot.process.is_alive():
                trace.event("job.terminated",
                            instance=record.entry.job.instance,
                            strategy=record.entry.job.strategy.label,
                            reason="straggler after batch end")
            _settle(record, SolveStatus.TIMEOUT)
        for slot in started:
            if slot.process.is_alive():
                slot.process.terminate()
            # Cancelled jobs that wound down cooperatively may still
            # have telemetry in the pipe: drain it so their spans are
            # not lost.
            try:
                while slot.conn.poll():
                    obs.ingest_telemetry(slot.conn.recv()[-1],
                                         span.span_id)
            except (EOFError, OSError):
                pass
            _close(slot)

    return ShardedResult(
        results=results,
        pending=[entry.job for queue in queues for entry in queue],
        cancelled=stopping, wall_time=time.perf_counter() - start,
        quarantine=tracker.snapshot(),
        shards={f"shard{s}": stats[s] for s in range(num_shards)},
        steals=steals)
