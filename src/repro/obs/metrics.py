"""Process-local metrics registry: counters, gauges, histograms.

One registry per process (:func:`registry`) absorbs every layer's
operational counters behind a single API — the solver stat counters
(``conflicts``, ``propagations``, ``watch_inspections``,
``blocker_hits``, …), pipeline phase timings, portfolio race outcomes,
batch retries, audit verdicts and quarantine transitions — so one
snapshot describes a whole run.

* :class:`Counter` — monotonically increasing total (``inc``).
* :class:`Gauge` — last-written value (``set``).
* :class:`Histogram` — streaming summary of observations: count, sum,
  min, max (mean derived).  No buckets — the consumers here want
  per-run aggregates, not quantile estimation.

**Cross-process aggregation.**  Worker processes (portfolio members,
batch jobs, cubes) record into their own registry, ship
``registry().snapshot()`` back with each report, and the pool's
owner folds it in with :meth:`MetricsRegistry.merge` — counters
add, histograms combine their summaries, gauges take the incoming
value.  No shared memory, no extra channels.

**Enablement.**  Metrics are off by default; when disabled every
recording call is one boolean check (and the solver hooks only fire at
``_finish``, never in the BCP loop), so solver trajectories and
throughput are untouched.  Enable with :func:`enable` or
``REPRO_METRICS=1`` in the environment (worker processes inherit it).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, Optional

#: Environment variable: any non-empty value enables the registry
#: (exported by the CLI so worker processes inherit the setting).
ENV_VAR = "REPRO_METRICS"

#: Solver stat keys absorbed as counters by :func:`absorb_solver_stats`.
SOLVER_COUNTER_KEYS = (
    "conflicts", "decisions", "propagations", "restarts",
    "learned_clauses", "deleted_clauses", "minimized_literals",
    "watch_inspections", "blocker_hits", "arena_compactions",
    # Inprocessing counters (repro.sat.inprocess); absent from the
    # stats dict — and therefore skipped — unless inprocessing ran.
    "inprocess_passes", "subsumed_clauses", "strengthened_clauses",
    "vivified_clauses", "eliminated_vars", "bve_resolvents",
)

#: Solver stat keys absorbed as histogram observations (per solve call).
SOLVER_HISTOGRAM_KEYS = ("solve_time", "props_per_sec")


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; ``set`` overwrites."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observations (count/sum/min/max)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def combine(self, count: int, total: float,
                low: Optional[float], high: Optional[float]) -> None:
        """Fold another histogram's summary into this one (merge path)."""
        self.count += count
        self.total += total
        if low is not None and (self.min is None or low < self.min):
            self.min = low
        if high is not None and (self.max is None or high > self.max):
            self.max = high


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Thread-safe at the granularity of single operations (one lock); the
    expected concurrency is light — worker *processes* each own their
    registry and merge through snapshots.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- aggregation ---------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view of every instrument (the merge currency)."""
        with self._lock:
            return {
                "counters": {name: counter.value
                             for name, counter in
                             sorted(self._counters.items())},
                "gauges": {name: gauge.value
                           for name, gauge in sorted(self._gauges.items())},
                "histograms": {
                    name: {"count": h.count, "sum": round(h.total, 9),
                           "min": h.min, "max": h.max,
                           "mean": round(h.mean, 9)}
                    for name, h in sorted(self._histograms.items())},
            }

    def merge(self, snapshot: Optional[Dict]) -> None:
        """Fold a :meth:`snapshot` (typically from a worker process) in:
        counters add, histogram summaries combine, gauges overwrite."""
        if not snapshot:
            return
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(value)
        for name, summary in (snapshot.get("histograms") or {}).items():
            self.histogram(name).combine(
                int(summary.get("count", 0)),
                float(summary.get("sum", 0.0)),
                summary.get("min"), summary.get("max"))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    @property
    def empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)


_REGISTRY = MetricsRegistry()
_ENABLED = False
_ENV_CHECKED = False


def registry() -> MetricsRegistry:
    """The process-local registry."""
    return _REGISTRY


def enable(on: bool = True) -> None:
    """Turn metric recording on (or off)."""
    global _ENABLED, _ENV_CHECKED
    _ENABLED = on
    _ENV_CHECKED = True


def enabled() -> bool:
    """Is the registry recording?  (Checks ``REPRO_METRICS`` once.)"""
    global _ENABLED, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        if os.environ.get(ENV_VAR):
            _ENABLED = True
    return _ENABLED


def reset() -> None:
    """Disable and clear (test isolation)."""
    global _ENABLED, _ENV_CHECKED
    _ENABLED = False
    _ENV_CHECKED = False
    _REGISTRY.reset()


def absorb_solver_stats(stats: Dict[str, float], *, engine: str = "",
                        prev: Optional[Dict[str, float]] = None,
                        ) -> Dict[str, float]:
    """Fold one solver's ``stats`` dict into the registry.

    Solver stats are *cumulative across calls* on a reused solver
    (incremental solving), so the caller passes back the marker this
    function returns — only the delta since ``prev`` is counted, and
    every ``solve()`` call lands exactly once.
    """
    prefix = "solver."
    marker: Dict[str, float] = {}
    reg = _REGISTRY
    for key in SOLVER_COUNTER_KEYS:
        value = stats.get(key)
        if value is None:
            continue
        marker[key] = value
        delta = value - (prev.get(key, 0.0) if prev else 0.0)
        if delta:
            reg.inc(prefix + key, delta)
    for key in SOLVER_HISTOGRAM_KEYS:
        value = stats.get(key)
        if value is not None:
            reg.observe(prefix + key, value)
    reg.inc("solver.solves")
    if engine:
        reg.inc(f"solver.solves.{engine}")
    return marker


def snapshot_record(run_id: str) -> Dict[str, object]:
    """The registry snapshot as a trace-sink JSONL record."""
    return {"type": "metrics", "run": run_id,
            "metrics": _REGISTRY.snapshot()}


def names(snapshot: Dict) -> Iterable[str]:
    """Every instrument name in a snapshot (render helper)."""
    for section in ("counters", "gauges", "histograms"):
        yield from (snapshot.get(section) or {})
