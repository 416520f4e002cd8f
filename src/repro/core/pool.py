"""The package's one worker pool for call-scoped parallel work.

A :class:`WorkerPool` runs tasks on a fixed number of slots.  Each slot
forks one worker process at its first task and keeps it until the pool
closes.  Tasks go out and reports come back on the slot's own duplex
pipe, so no lock is shared between workers: a worker that dies at any
point, even right after a report, can neither lose nor hold up another
worker's report.  A cancelled task gets a grace period to report before
its worker is killed, and a killed or dead worker is replaced by a fresh
process, pipe and cancel event at its slot's next task.

The pool's owner is the *policy*, which picks the task for each idle
slot and reads each report: the job scheduler
(:func:`repro.bench.batch.run_sharded`), the portfolio race
(:func:`repro.core.portfolio.run_portfolio`) and the solve service
(:class:`repro.serve.server.SolveService`), which keeps one pool for
the life of its process and drives it from its event loop through
:meth:`WorkerPool.watch`.  No worker outlives its pool:
:meth:`WorkerPool.close` stops them all, so does the pool's exit
handler when the interpreter exits with the pool still open, and a
worker whose pool process is killed exits within about a second,
whether idle, solving or blocked sending a report.  Workers are not
daemons, so a task may run a pool of its own (a portfolio race inside
a serve job).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .. import obs
from ..sat.status import CancelToken

#: Longest one :meth:`WorkerPool.wait` blocks.
_POLL_SECONDS = 0.05

#: Grace given to a cancelled task to wind down and report before its
#: worker is killed (covers time spent outside the solver, e.g. encoding).
CANCEL_GRACE_SECONDS = 2.0

#: How often a worker checks that its pool's process still exists.
_PARENT_CHECK_SECONDS = 1.0


def fire_worker_faults(faults, strategy, sites=()) -> None:
    """Fire this attempt's worker-site faults, if any.

    Worker-site faults (``crash@worker``, ``hang@worker``) fire in the
    worker process, outside the solver, once per attempt: a crash kills
    the process without a report, a hang ignores the cancel token.
    ``sites`` adds the sites a policy's workers also answer to
    (``dist_shard`` for the job scheduler).
    """
    if faults is None and not os.environ.get("REPRO_FAULTS"):
        return
    from ..reliability.faults import FaultInjector, FaultPlan
    plan = FaultPlan.resolve(faults)
    plan = None if plan is None else plan.narrow(strategy.label)
    if plan is not None and not plan.empty:
        injector = FaultInjector(plan, label=strategy.label,
                                 sites=("worker",) + tuple(sites))
        injector.maybe_exit()
        injector.maybe_hang()


def solve_attempt(strategy, cancel: CancelToken, solve, problem, limits,
                  faults, *, graph_time: float = 0.0, sites=()):
    """One attempt inside a worker: fire the worker-site faults, then
    solve with ``solve`` (the caller's ``solve_coloring`` binding, so a
    double patched into the caller's module reaches its workers) and
    audit a decided answer.  Returns ``(outcome, audit report or
    None)``.  Its leading ``(strategy, cancel)`` make it a pool task as
    it stands: the portfolio race's."""
    fire_worker_faults(faults, strategy, sites)
    from ..reliability.audit import solve_and_audit
    return solve_and_audit(problem, strategy, solve, graph_time=graph_time,
                           limits=limits, cancel=cancel, faults=faults)


def _exit_with_parent(parent: int) -> None:
    """A worker's watchdog thread.  A killed pool never sends the stop
    sentinel, and the workers themselves hold its pipes open, so a
    worker blocked in ``recv`` or in a ``send`` larger than the pipe
    buffer would otherwise never return."""
    while os.getppid() == parent:
        time.sleep(_PARENT_CHECK_SECONDS)
    os._exit(1)


def _serve(target: Callable, conn, cancel_event, parent: int,
           args: tuple) -> None:
    """A slot's worker process: run ``target(task, cancel, *args)`` for
    each task read from ``conn`` and send back ``(result, error,
    telemetry)``, until the ``None`` stop sentinel."""
    # A worker forked after its parent installed signal handlers (serve
    # installs its drain handler, then forks replacement workers) would
    # run them itself and survive a SIGTERM, and its signals would reach
    # the parent's event loop through the inherited wakeup fd.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.set_wakeup_fd(-1)
    threading.Thread(target=_exit_with_parent, args=(parent,),
                     daemon=True).start()
    cancel = CancelToken(cancel_event)
    for task in iter(conn.recv, None):
        # Fresh observability state for each task (fork inherits the
        # parent's buffers); spans and metrics travel back on the pipe.
        obs.worker_begin()
        try:
            result, error = target(task, cancel, *args), None
        except Exception as exc:  # report, never hang the pool
            result, error = None, repr(exc)
        conn.send((result, error, obs.drain_telemetry()))


@dataclass
class Finished:
    """A task that left its slot: a report (the task's ``result``), a
    failure (``error``: the ``repr`` of what the task raised, or the
    death of a worker that never reported, whose ``exit_code`` is set
    too), or a worker killed past its grace period."""

    slot: int
    #: The owner's record of the task, as given to :meth:`WorkerPool.submit`.
    tag: object
    #: Seconds from the task's submission to its end.
    elapsed: float
    result: object = None
    error: Optional[str] = None
    exit_code: Optional[int] = None
    killed: bool = False


@dataclass
class _Slot:
    index: int
    process: Optional["mp.Process"] = None
    #: The pool's end of the slot's pipe.
    conn: object = None
    cancel_event: object = None
    busy: bool = False
    tag: object = None
    started: float = 0.0
    deadline: Optional[float] = None
    hard_deadline: Optional[float] = None


class WorkerPool:
    """``size`` slots, each serving ``target`` in one worker process.

    A worker runs ``target(task, cancel, *args)`` per task, where
    ``cancel`` is its slot's :class:`CancelToken`; the arguments reach
    the worker once, by fork inheritance (pickled once per process
    under spawn), and the result must pickle.  ``grace`` is how long a
    cancelled task may take to report before its worker is killed, and
    worker telemetry is grafted under ``span_id``.  Call :meth:`close`
    in a ``finally``.
    """

    def __init__(self, size: int, target: Callable, args: Sequence = (),
                 grace: float = CANCEL_GRACE_SECONDS,
                 span_id: Optional[str] = None) -> None:
        self._target = target
        self._args = tuple(args)
        self._grace = grace
        self._span_id = span_id
        self._context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._slots = [_Slot(i) for i in range(size)]
        # Runs at close(), when the pool is collected, or at interpreter
        # exit before multiprocessing joins its (non-daemon) children,
        # which would otherwise wait on workers idling in recv forever.
        from multiprocessing.util import Finalize
        self._stop = Finalize(self, _stop_slots,
                              args=(self._slots, grace, span_id),
                              exitpriority=10)

    def start(self) -> None:
        """Fork every slot's worker now rather than at its first task."""
        for state in self._slots:
            if state.process is None:
                self._fork(state)

    @property
    def busy(self) -> int:
        """How many slots have a task in flight."""
        return sum(slot.busy for slot in self._slots)

    def idle(self) -> List[int]:
        """The slots free for a task, in order."""
        return [slot.index for slot in self._slots if not slot.busy]

    def submit(self, slot: int, task, tag=None,
               timeout: Optional[float] = None) -> None:
        """Send ``task`` to the idle ``slot``, forking its worker first if
        it has none or a dead one.  ``tag`` comes back on the task's
        :class:`Finished`; ``timeout`` arms a deadline, at which the task
        is cancelled and, past the grace period, killed."""
        state = self._slots[slot]
        if state.process is None or not state.process.is_alive():
            self._fork(state)
        # The worker is idle between tasks, so clearing here cannot race
        # with it: a cancel meant for the previous task never reaches
        # this one.
        state.cancel_event.clear()
        state.busy, state.tag, state.hard_deadline = True, tag, None
        state.started = time.perf_counter()
        state.deadline = None if timeout is None else state.started + timeout
        try:
            state.conn.send(task)
        except OSError:
            pass  # died since the check above: wait() reports it

    def watch(self) -> Tuple[List[int], Optional[float]]:
        """What an event loop watches in place of blocking in
        :meth:`wait`: the descriptors that turn readable when a busy
        slot's task ends (its pipe and its process sentinel), and the
        seconds until :meth:`wait` next has a deadline to enforce (None
        when no task has one).  Call ``wait(timeout=0)`` when either
        fires; it may close or replace these descriptors."""
        fds: List[int] = []
        due: List[float] = []
        for state in self._slots:
            if state.busy:
                fds += [state.conn.fileno(), state.process.sentinel]
                when = (state.deadline if state.hard_deadline is None
                        else state.hard_deadline)
                if when is not None:
                    due.append(when)
        return fds, (max(0.0, min(due) - time.perf_counter())
                     if due else None)

    def cancel(self) -> None:
        """Ask every task in flight to stop; a worker still running its
        task after the grace period is killed."""
        for state in self._slots:
            if state.busy:
                self._cancel(state, time.perf_counter())

    def wait(self, timeout: float = _POLL_SECONDS) -> List[Finished]:
        """The tasks that left their slots within ``timeout`` seconds,
        enforcing deadlines on the way; sleeps when nothing is in
        flight."""
        # Imported here: multiprocessing.connection costs every importer
        # of repro.api about 0.6 MB of resident memory.
        from multiprocessing.connection import wait
        now = time.perf_counter()
        done: List[Finished] = []
        for state in self._slots:
            if not state.busy:
                continue
            if state.deadline is not None and now >= state.deadline \
                    and state.hard_deadline is None:
                self._cancel(state, now)
            if state.hard_deadline is not None \
                    and now >= state.hard_deadline \
                    and not state.conn.poll() and state.process.is_alive():
                state.process.kill()
                state.process.join(timeout=5)
                done.append(self._release(state, killed=True))
        busy = [state for state in self._slots if state.busy]
        if not busy:
            if not done:
                time.sleep(timeout)
            return done
        # A pipe turns ready on a report, a sentinel when a worker exits.
        ready = set(wait([state.conn for state in busy]
                         + [state.process.sentinel for state in busy],
                         timeout=timeout))
        for state in busy:
            if state.conn in ready or state.process.sentinel in ready:
                done.append(self._collect(state))
        return done

    def close(self) -> None:
        """Stop every worker: cancel the tasks in flight (only an
        exception leaves any), send the stop sentinel, join within the
        grace period and kill the stragglers.  Late reports keep their
        telemetry, not their results."""
        self._stop()

    def _cancel(self, state: _Slot, now: float) -> None:
        state.cancel_event.set()
        if state.hard_deadline is None:
            state.hard_deadline = now + self._grace

    def _collect(self, state: _Slot) -> Finished:
        """Read a busy slot's report; a worker that died without a
        complete one can never answer."""
        try:
            item = state.conn.recv() if state.conn.poll() else None
        except (EOFError, OSError):  # died before or while reporting
            item = None
        if item is None:
            state.process.join()
            code = state.process.exitcode
            return self._release(state, exit_code=code, error=(
                f"worker died without reporting (exit code {code})"))
        result, error, telemetry = item
        obs.ingest_telemetry(telemetry, self._span_id)
        return self._release(state, result=result, error=error)

    def _release(self, state: _Slot, **how) -> Finished:
        tag, state.busy, state.tag = state.tag, False, None
        return Finished(state.index, tag,
                        time.perf_counter() - state.started, **how)

    def _fork(self, state: _Slot) -> None:
        """Give the slot a fresh worker, pipe and cancel event (a fresh
        event too: a process killed inside ``Event.is_set`` can leave
        the old event's lock held)."""
        if state.process is not None:
            _reap(state)
        state.conn, worker_end = self._context.Pipe()
        state.cancel_event = self._context.Event()
        process = self._context.Process(
            target=_serve,
            args=(self._target, worker_end, state.cancel_event,
                  os.getpid(), self._args))
        process.start()
        state.process = process
        worker_end.close()


def _stop_slots(slots: List[_Slot], grace: float,
                span_id: Optional[str]) -> None:
    """The body of :meth:`WorkerPool.close`."""
    for state in slots:
        if state.busy:
            state.cancel_event.set()
    started = [state for state in slots if state.process is not None]
    for state in started:
        try:
            state.conn.send(None)
        except OSError:
            pass  # already dead
    grace_until = time.perf_counter() + grace
    for state in started:
        state.process.join(
            timeout=max(0.0, grace_until - time.perf_counter()))
        if state.process.is_alive():
            state.process.kill()
        try:
            while state.conn.poll():
                obs.ingest_telemetry(state.conn.recv()[-1], span_id)
        except (EOFError, OSError):
            pass
        _reap(state)
        state.busy = False


def _reap(state: _Slot) -> None:
    state.process.join(timeout=5)
    state.conn.close()
    state.process = None
