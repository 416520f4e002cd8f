"""repro.obs — observability for the solve stack.

Three cooperating pieces (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — structured tracing: :class:`TraceSpan` trees
  with wall/CPU time, attributes, point-in-time events and a stable run
  id, buffered in-process and written as JSON Lines.  Worker processes
  ship their spans back with their reports; the pool's owner grafts
  them under its own span so one file describes the whole run.
* :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges and histograms that absorbs the solver stat counters
  (``watch_inspections``, ``blocker_hits``, ``props_per_sec``, …) and
  the orchestration layers' operational counters, with snapshot/merge
  cross-process aggregation.
* :mod:`repro.obs.report` — text rendering of trace files (span tree +
  critical path) and metrics snapshots, behind the ``repro trace`` and
  ``repro metrics`` CLI commands.

Everything is **disabled by default** and the enabled/disabled check is
a single attribute read: with observability off, solver trajectories
are bit-identical and BCP throughput is unchanged (the solver engine
only reports at ``_finish``, never from the hot loop).  Enable with the
``--trace PATH`` CLI flag, :func:`repro.obs.trace.enable`, or the
``REPRO_TRACE`` / ``REPRO_METRICS`` environment variables (which worker
processes inherit).
"""

from __future__ import annotations

from . import metrics, trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .report import (metrics_snapshots, parse_trace_file, render_metrics,
                     render_trace)
from .trace import TraceSpan, Tracer

__all__ = [
    "trace", "metrics",
    "TraceSpan", "Tracer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "parse_trace_file", "render_trace", "render_metrics",
    "metrics_snapshots",
    "worker_begin", "drain_telemetry", "ingest_telemetry", "reset",
]


def worker_begin() -> None:
    """Top of each job in a worker process: clean tracing state and an
    empty metrics registry (fork inherits the parent's buffers and
    counters, and a reused worker its previous jobs'), environment
    re-check for spawn workers.  The registry keeps its enabled flag,
    so what the worker ships back is this job's alone."""
    trace.worker_begin()
    metrics.registry().reset()


def drain_telemetry():
    """Everything a worker ships back with its report: its
    finished spans and (when metrics are on) its registry snapshot.
    Returns None when there is nothing to ship, so the report stays
    small on the disabled path."""
    spans = trace.tracer().drain_spans() if trace.tracer().enabled else []
    snap = (metrics.registry().snapshot()
            if metrics.enabled() and not metrics.registry().empty else None)
    if not spans and snap is None:
        return None
    return {"spans": spans, "metrics": snap}


def ingest_telemetry(telemetry, parent_span_id=None) -> None:
    """Scheduler side of :func:`drain_telemetry`: graft the worker's
    spans under ``parent_span_id`` and fold its metrics in."""
    if not telemetry:
        return
    trace.tracer().ingest_spans(telemetry.get("spans") or [],
                                parent_span_id)
    if telemetry.get("metrics") and metrics.enabled():
        metrics.registry().merge(telemetry["metrics"])


def reset() -> None:
    """Disable and clear all observability state (test isolation)."""
    trace.tracer().reset()
    metrics.reset()
