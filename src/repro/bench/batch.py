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

The shards' worker slots are one :class:`~repro.core.pool.WorkerPool`:
each keeps one worker process for the whole call, and with
``audit=True`` each worker audits its own decided answers.

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
  as ERROR goes back to the head of its home shard and runs again with
  the same strategy, up to ``max_attempts`` attempts; only then is the
  job recorded as ERROR.
* **Graceful partial results** — a batch deadline or an external cancel
  token stops scheduling, winds down running jobs cooperatively, and
  returns everything finished so far, with unstarted jobs listed in
  ``pending`` and ``cancelled=True``.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..coloring.problem import ColoringProblem
from ..core.pipeline import ColoringOutcome, solve_coloring
from ..core.pool import (CANCEL_GRACE_SECONDS, Finished, WorkerPool,
                         solve_attempt)
from ..core.strategy import Strategy
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..sat.status import CancelToken, SolveLimits, SolveStatus

#: Grace a cancelled job gets to wind down and report before its worker
#: is killed (a module attribute, so tests can shorten it).
_CANCEL_GRACE_SECONDS = CANCEL_GRACE_SECONDS


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


def _run_job(index: int, cancel: CancelToken, jobs: Sequence[BatchJob],
             limits: Optional[SolveLimits], faults, audit: bool):
    """A slot's task: one attempt at ``jobs[index]``, audited when
    ``audit`` is set; returns ``(outcome, audit report or None)``."""
    job = jobs[index]
    return solve_attempt(job.strategy, cancel, solve_coloring, job.problem,
                         limits, faults, audit, graph_time=job.graph_time,
                         sites=("dist_shard",))


@dataclass
class _Entry:
    """One queued attempt; the home shard is kept across requeues."""

    #: Position of ``job`` in the job list the workers hold.
    index: int
    job: BatchJob
    home: int
    attempt: int = 1
    #: Monotonic timestamp before which this entry may not launch
    #: (quarantine backoff of its strategy).
    not_before: float = 0.0


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
                error=primary.error, audit=primary.audit))
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
    the head of its home shard's queue and runs again with the same
    strategy.  No exception escapes a job:
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

    ``dedup=True`` (the default) collapses content-identical jobs —
    same canonical graph, colors, strategy and limits by
    :meth:`repro.api.SolveRequest.cache_key` — to a single dispatch and
    fans its result back out to every duplicate, so a corpus with
    repeated instances no longer pays for redundant solves.

    The ``num_shards * workers_per_shard`` slots are one
    :class:`~repro.core.pool.WorkerPool`; no worker outlives the call.

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
            quarantine)
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
                      quarantine) -> ShardedResult:
    """:func:`run_sharded`'s scheduler loop, inside its already-open span:
    a work-stealing policy over a :class:`WorkerPool` whose shard ``s``
    owns slots ``s * workers_per_shard`` onwards.

    Job lifecycle transitions — launch, steal, settle, retry/requeue
    (with backoff), per-job deadline kills,
    unreported worker deaths and batch-level cancellation — become span
    events, and the telemetry each worker ships back (span tree +
    metrics snapshot) is grafted under this span.  The pool tracks each
    attempt by its slot, so jobs sharing an (instance, strategy) key
    never collide in flight.
    """
    from ..reliability.quarantine import QuarantineTracker
    tracker = QuarantineTracker(quarantine)
    job_limits = (limits or SolveLimits()).with_wall_clock(job_timeout)
    start = time.perf_counter()
    batch_deadline = None if timeout is None else start + timeout

    queues: List[Deque[_Entry]] = [deque() for _ in range(num_shards)]
    for index, job in enumerate(jobs):
        home = shard_of(job.instance, num_shards)
        queues[home].append(_Entry(index, job, home))
    pool = WorkerPool(num_shards * workers_per_shard, _run_job,
                      args=(jobs, job_limits, faults, audit),
                      grace=_CANCEL_GRACE_SECONDS, span_id=span.span_id)
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

    def _launch(entry: _Entry, slot: int, stolen: bool) -> None:
        nonlocal steals
        job = entry.job
        shard = slot // workers_per_shard
        pool.submit(slot, entry.index, tag=entry, timeout=job_timeout)
        stats[shard]["launched"] += 1
        if stolen:
            steals += 1
            stats[shard]["stolen"] += 1
            trace.event("dist.steal", instance=job.instance,
                        home=entry.home, thief=shard)
            if obs_metrics.enabled():
                obs_metrics.registry().inc("dist.steal")
        trace.event("job.launched", instance=job.instance,
                    strategy=job.strategy.label,
                    engine=job.strategy.engine, shard=shard,
                    attempt=entry.attempt)

    def _settle(done: Finished, status: SolveStatus,
                outcome: Optional[ColoringOutcome] = None,
                error: Optional[str] = None, audit_report=None) -> None:
        # The slot's shard: the thief's, on a stolen launch.
        entry, shard = done.tag, done.slot // workers_per_shard
        results.append(BatchJobResult(
            job=entry.job, status=status, outcome=outcome,
            wall_time=done.elapsed, attempts=entry.attempt, error=error,
            audit=audit_report))
        stats[shard]["completed"] += 1
        trace.event("job.settled", instance=entry.job.instance,
                    strategy=entry.job.strategy.label, status=str(status),
                    shard=shard, attempts=entry.attempt,
                    **({"error": error} if error else {}))

    def _requeue(entry: _Entry) -> None:
        """A failed attempt goes back to the *head of its home shard*
        (locality survives the crash), delayed by its strategy's
        quarantine backoff."""
        not_before = tracker.release_time(entry.job.strategy.label)
        queues[entry.home].appendleft(_Entry(
            entry.index, entry.job, entry.home, entry.attempt + 1,
            not_before))
        stats[entry.home]["requeued"] += 1
        trace.event("job.requeued", instance=entry.job.instance,
                    strategy=entry.job.strategy.label, shard=entry.home,
                    next_attempt=entry.attempt + 1,
                    backoff=round(max(0.0, not_before - time.perf_counter()),
                                  3))
        if obs_metrics.enabled():
            obs_metrics.registry().inc("dist.requeues")

    def _fail(done: Finished, detail: str,
              outcome: Optional[ColoringOutcome] = None,
              audit_report=None) -> None:
        """Charge a failed attempt to its strategy, then retry the job
        or, with no attempts left (or the batch stopping), settle it as
        ERROR."""
        entry = done.tag
        tracker.record_offence(entry.job.strategy.label, detail,
                               time.perf_counter())
        if entry.attempt < max_attempts and not stopping:
            _requeue(entry)
        else:
            _settle(done, SolveStatus.ERROR, outcome, detail, audit_report)

    def _finish(done: Finished) -> None:
        """Act on an attempt that left its slot: settle it, or retry a
        failed one — a worker that died without reporting (the slot's
        next launch forks a fresh one), an exception, an ERROR outcome
        or a failed audit.  A kill past the grace period is TIMEOUT."""
        job = done.tag.job
        if done.killed:
            trace.event("job.terminated", instance=job.instance,
                        strategy=job.strategy.label,
                        reason="ignored cancel past grace")
            _settle(done, SolveStatus.TIMEOUT)
            return
        if done.exit_code is not None:
            trace.event("job.died", instance=job.instance,
                        strategy=job.strategy.label,
                        shard=done.slot // workers_per_shard,
                        exit_code=done.exit_code)
        if done.error is not None:
            _fail(done, done.error)
            return
        outcome, audit_report = done.result
        if audit_report is not None and audit_report.failed:
            _fail(done, "audit failed: " + "; ".join(
                f"{check.name} ({check.detail})"
                for check in audit_report.failures),
                outcome, audit_report)
        elif outcome.status is SolveStatus.ERROR:
            _fail(done, str(outcome.solver_stats.get("stop_reason", ""))
                  or "job failed", outcome)
        else:
            if outcome.status.decided:
                tracker.record_success(job.strategy.label)
            _settle(done, outcome.status, outcome,
                    audit_report=audit_report)

    try:
        while pool.busy or (any(queues) and not stopping):
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
                            running=pool.busy,
                            waiting=sum(len(queue) for queue in queues))
                pool.cancel()
            if not stopping:
                for slot in pool.idle():
                    entry, stolen = _next(slot // workers_per_shard, now)
                    if entry is not None:
                        _launch(entry, slot, stolen)
            # With nothing running, everything launchable is
            # backoff-blocked: this waits the poll interval out.
            for done in pool.wait():
                _finish(done)
    finally:
        pool.close()

    return ShardedResult(
        results=results,
        pending=[entry.job for queue in queues for entry in queue],
        cancelled=stopping, wall_time=time.perf_counter() - start,
        quarantine=tracker.snapshot(),
        shards={f"shard{s}": stats[s] for s in range(num_shards)},
        steals=steals)
