"""Lightweight structured tracing: span trees with a stable run id.

A :class:`TraceSpan` measures one phase of work — wall time via
``time.perf_counter`` and CPU time via ``time.process_time`` — and nests:
spans opened while another span is open become its children, so a run
produces a *tree* (encode → cnf/symmetry, portfolio race → per-member
solves, …).  Spans carry free-form attributes and point-in-time *events*
(``fault.injected``, ``member.won``, ``quarantine.entered``), each with
its own attributes and an offset from the span start.

Design constraints, in order:

1. **Disabled is (nearly) free.**  Tracing is off by default.  A
   disabled :func:`span` still measures time — the pipeline reads
   ``span.wall`` for its Table-2 time splits whether or not tracing is
   on — but records nothing, keeps no stack, and allocates one small
   object per span at *phase* granularity (a handful per solve call,
   never in the BCP hot loop).  :func:`event` is a single attribute
   check when disabled.  Solver trajectories are bit-identical either
   way because tracing never touches solver state or RNGs.
2. **One run, one id.**  The tracer owns a ``run_id`` minted once per
   process; spans shipped back from worker processes are re-stamped
   onto the parent's run when ingested, so a trace file reads as one
   coherent run.
3. **Workers ship, parents write.**  Worker processes never write the
   sink file themselves: :func:`worker_begin` resets inherited buffers
   (fork) or enables from the environment (spawn), and
   :func:`drain_spans` hands the finished spans back to the pool's
   owner with each report, where :func:`ingest_spans` grafts them
   under the owner's span.  One writer, no interleaving.

Activation: call :func:`enable` (the CLI's ``--trace PATH`` does), or
set ``REPRO_TRACE=path`` in the environment — the latter is checked
once, lazily, and registers an ``atexit`` flush so library runs and
worker processes need no explicit teardown.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import Any, Dict, List, Optional

#: Environment variable: a path enables tracing and names the JSONL sink.
ENV_VAR = "REPRO_TRACE"


def _new_run_id() -> str:
    return uuid.uuid4().hex[:12]


class TraceSpan:
    """One timed phase of work; a context manager.

    Always measures ``wall`` (perf_counter) and ``cpu`` (process_time)
    seconds, readable after ``__exit__`` — callers rely on the timings
    even when tracing is disabled.  Recording (id assignment, stack
    nesting, the JSONL record) happens only when the tracer is enabled
    at ``__enter__`` time.
    """

    __slots__ = ("name", "attrs", "events", "span_id", "parent_id",
                 "wall", "cpu", "_t0", "_wall0", "_cpu0", "_recording")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.events: List[Dict[str, Any]] = []
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.wall = 0.0
        self.cpu = 0.0
        self._t0 = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._recording = False

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def add_event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event inside this span."""
        if self._recording:
            self.events.append({
                "name": name,
                "t": round(time.perf_counter() - self._wall0, 6),
                **({"attrs": attrs} if attrs else {}),
            })

    def __enter__(self) -> "TraceSpan":
        self._t0 = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        tracer = _TRACER
        if tracer.enabled:
            self._recording = True
            self.span_id = tracer._assign_id()
            stack = tracer._stack
            self.parent_id = stack[-1].span_id if stack else None
            stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall = time.perf_counter() - self._wall0
        self.cpu = time.process_time() - self._cpu0
        if not self._recording:
            return
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        tracer = _TRACER
        stack = tracer._stack
        if self in stack:  # tolerate out-of-order exits
            stack.remove(self)
        tracer._records.append(self.to_record(tracer.run_id))
        return None

    def to_record(self, run_id: str) -> Dict[str, Any]:
        """This span as a JSON-ready dict (one JSONL line)."""
        record: Dict[str, Any] = {
            "type": "span",
            "run": run_id,
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": round(self._t0, 6),
            "wall": round(self.wall, 6),
            "cpu": round(self.cpu, 6),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self.events:
            record["events"] = self.events
        return record


class Tracer:
    """Process-local tracing state: enablement, run id, span buffer."""

    def __init__(self) -> None:
        self.enabled = False
        self.sink_path: Optional[str] = None
        self.run_id = _new_run_id()
        self._records: List[Dict[str, Any]] = []
        self._stack: List[TraceSpan] = []
        self._seq = 0
        self._env_checked = False
        self._atexit_registered = False

    def _assign_id(self) -> str:
        self._seq += 1
        return f"{os.getpid()}-{self._seq}"

    # -- activation ----------------------------------------------------

    def enable(self, path: Optional[str] = None) -> None:
        """Turn tracing on; ``path`` names the JSONL sink for flush()."""
        self.enabled = True
        if path is not None:
            self.sink_path = path

    def disable(self) -> None:
        self.enabled = False

    def maybe_enable_from_env(self) -> bool:
        """One-time check of ``REPRO_TRACE``; registers an atexit flush
        so environment-activated runs need no explicit teardown."""
        if self._env_checked:
            return self.enabled
        self._env_checked = True
        path = os.environ.get(ENV_VAR)
        if path:
            self.enable(path)
            if not self._atexit_registered:
                import atexit
                atexit.register(self.flush)
                self._atexit_registered = True
        return self.enabled

    def reset(self) -> None:
        """Fresh state: buffers cleared, disabled, new run id (tests,
        and worker processes via :func:`worker_begin`)."""
        self.enabled = False
        self.sink_path = None
        self.run_id = _new_run_id()
        self._records = []
        self._stack = []
        self._seq = 0
        self._env_checked = False

    # -- recording -----------------------------------------------------

    def current(self) -> Optional[TraceSpan]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def event(self, name: str, **attrs: Any) -> None:
        """Record an event on the current span (or as an orphan record
        when no span is open)."""
        if not self.enabled:
            return
        span = self.current()
        if span is not None:
            span.add_event(name, **attrs)
            return
        self._records.append({
            "type": "event",
            "run": self.run_id,
            "parent": None,
            "name": name,
            "t0": round(time.time(), 6),
            **({"attrs": attrs} if attrs else {}),
        })

    # -- cross-process plumbing ----------------------------------------

    def drain_spans(self) -> List[Dict[str, Any]]:
        """Hand over (and clear) the finished-span records — what a
        worker ships back with its report."""
        records, self._records = self._records, []
        return records

    def ingest_spans(self, records: List[Dict[str, Any]],
                     parent_id: Optional[str] = None) -> None:
        """Graft records from another process into this trace: roots are
        re-parented under ``parent_id`` and every record is re-stamped
        onto this tracer's run id."""
        if not self.enabled or not records:
            return
        for record in records:
            record = dict(record)
            record["run"] = self.run_id
            if record.get("parent") is None and parent_id is not None:
                record["parent"] = parent_id
            self._records.append(record)

    # -- sink ----------------------------------------------------------

    def flush(self, path: Optional[str] = None,
              extra_records: Optional[List[Dict[str, Any]]] = None) -> int:
        """Append buffered records (plus ``extra_records``, e.g. a
        metrics snapshot) to ``path`` (default: the configured sink) as
        JSON Lines.  Returns the number of lines written; clears the
        buffer so a later flush (or the atexit hook) never duplicates.
        """
        records = self._records
        self._records = []
        if extra_records:
            records = records + list(extra_records)
        path = path if path is not None else self.sink_path
        if path is None or not records:
            return 0
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=False,
                                        default=str) + "\n")
        return len(records)


#: The process-local tracer every module-level helper operates on.
_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-local :class:`Tracer`."""
    return _TRACER


def enabled() -> bool:
    """Is tracing currently recording?  (Checks the environment once.)"""
    t = _TRACER
    if not t._env_checked and not t.enabled:
        t.maybe_enable_from_env()
    return t.enabled


def span(name: str, **attrs: Any) -> TraceSpan:
    """Open a span: ``with trace.span("encode", encoding=label) as s:``.

    The returned object always measures ``wall``/``cpu`` seconds;
    whether it is *recorded* depends on the tracer at entry time.
    """
    if not _TRACER._env_checked and not _TRACER.enabled:
        _TRACER.maybe_enable_from_env()
    return TraceSpan(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an event on the innermost open span (no-op when disabled)."""
    if _TRACER.enabled:
        _TRACER.event(name, **attrs)


def enable(path: Optional[str] = None) -> None:
    """Module-level convenience for :meth:`Tracer.enable`."""
    _TRACER.enable(path)


def disable() -> None:
    _TRACER.disable()


def worker_begin() -> None:
    """Called at the top of a worker process: drop any state inherited
    from the parent (fork) and re-check the environment, so the worker
    records its own spans from a clean slate and ships them back rather
    than writing any file."""
    t = _TRACER
    inherited_enabled = t.enabled
    t._records = []
    t._stack = []
    t.sink_path = None  # workers never write the sink themselves
    t._env_checked = False
    if not inherited_enabled:
        t.maybe_enable_from_env()
        t.sink_path = None  # ship via queue even when env-activated
