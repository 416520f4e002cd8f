"""Rendering of trace files and metrics snapshots as text reports.

The JSONL sink (:mod:`repro.obs.trace`) writes one record per line:
``span`` records (with nested events), orphan ``event`` records, and
``metrics`` records (a registry snapshot).  This module reads such a
file back and renders:

* :func:`render_trace` — the span forest as an indented tree with wall
  and CPU times, key attributes, and per-span events; spans on the
  *critical path* (the chain of largest-wall children from each root)
  are marked with ``*``, which is what makes "where did the time go"
  answerable at a glance.
* :func:`render_metrics` — counters, gauges and histogram summaries as
  aligned tables.

Both are plain functions over parsed records so tests can feed them
synthetic data; the CLI commands ``repro trace`` and ``repro metrics``
are thin wrappers.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple


def parse_trace_file(path: str) -> List[Dict]:
    """Parse a JSONL trace file into records; raises ValueError on a
    malformed line (so smoke tests can assert well-formedness)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: not valid JSON "
                                 f"({error})") from error
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(f"{path}:{number}: not a trace record")
            records.append(record)
    return records


def _span_forest(records: List[Dict]) -> Tuple[List[Dict],
                                               Dict[str, List[Dict]]]:
    """(roots, children-by-parent-id) for the span records, preserving
    file order.  A span whose parent never appears is treated as a root
    (a worker trace ingested without its scheduler, say)."""
    spans = [r for r in records if r.get("type") == "span"]
    by_id = {span.get("id"): span for span in spans if span.get("id")}
    children: Dict[str, List[Dict]] = {}
    roots: List[Dict] = []
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    return roots, children


def _critical_ids(roots: List[Dict],
                  children: Dict[str, List[Dict]]) -> set:
    """Span ids on each root's critical path: from every root, descend
    into the largest-wall child until a leaf."""
    critical = set()
    for root in roots:
        span = root
        while span is not None:
            if span.get("id"):
                critical.add(span["id"])
            kids = children.get(span.get("id"), [])
            span = max(kids, key=lambda s: s.get("wall", 0.0),
                       default=None)
    return critical


_INTERESTING_ATTRS = ("strategy", "encoding", "symmetry", "status",
                      "label", "instance", "members", "winner", "shards",
                      "steals", "error")


def _attr_summary(span: Dict) -> str:
    attrs = span.get("attrs") or {}
    parts = [f"{key}={attrs[key]}" for key in _INTERESTING_ATTRS
             if key in attrs]
    parts += [f"{key}={value}" for key, value in attrs.items()
              if key not in _INTERESTING_ATTRS]
    return f" [{', '.join(parts)}]" if parts else ""


def render_trace(records: List[Dict], *, show_events: bool = True,
                 max_events: int = 8) -> str:
    """Render parsed trace records as a span-tree report."""
    roots, children = _span_forest(records)
    critical = _critical_ids(roots, children)
    lines: List[str] = []
    runs = sorted({r.get("run") for r in records if r.get("run")})
    num_spans = sum(1 for r in records if r.get("type") == "span")
    total = sum(root.get("wall", 0.0) for root in roots)
    lines.append(f"trace: {num_spans} spans, {len(roots)} root(s), "
                 f"{total:.3f}s root wall time"
                 + (f", run {', '.join(runs)}" if runs else ""))

    def emit(span: Dict, prefix: str, is_last: bool) -> None:
        connector = "`- " if is_last else "|- "
        marker = " *" if span.get("id") in critical else ""
        lines.append(
            f"{prefix}{connector}{span.get('name', '?')}"
            f"  {span.get('wall', 0.0):.3f}s wall"
            f" / {span.get('cpu', 0.0):.3f}s cpu"
            f"{_attr_summary(span)}{marker}")
        child_prefix = prefix + ("   " if is_last else "|  ")
        events = span.get("events") or []
        if show_events and events:
            shown = events[:max_events]
            for ev in shown:
                attrs = ev.get("attrs") or {}
                detail = ", ".join(f"{k}={v}" for k, v in attrs.items())
                lines.append(f"{child_prefix}  @{ev.get('t', 0.0):+.3f}s "
                             f"{ev.get('name', '?')}"
                             + (f" ({detail})" if detail else ""))
            if len(events) > max_events:
                lines.append(f"{child_prefix}  ... "
                             f"{len(events) - max_events} more event(s)")
        kids = children.get(span.get("id"), [])
        for index, kid in enumerate(kids):
            emit(kid, child_prefix, index == len(kids) - 1)

    for index, root in enumerate(roots):
        emit(root, "", index == len(roots) - 1)

    orphans = [r for r in records if r.get("type") == "event"]
    if orphans:
        lines.append(f"events outside any span ({len(orphans)}):")
        for record in orphans:
            attrs = record.get("attrs") or {}
            detail = ", ".join(f"{k}={v}" for k, v in attrs.items())
            lines.append(f"  - {record.get('name', '?')}"
                         + (f" ({detail})" if detail else ""))

    metrics = [r for r in records if r.get("type") == "metrics"]
    if metrics:
        lines.append(f"metrics snapshots: {len(metrics)} "
                     f"(render with `repro metrics <file>`)")
    if critical:
        lines.append("(* = critical path: largest-wall child chain "
                     "from each root)")
    return "\n".join(lines)


def render_metrics(snapshot: Optional[Dict]) -> str:
    """Render one registry snapshot as aligned text tables."""
    if not snapshot or not any(snapshot.get(section)
                               for section in ("counters", "gauges",
                                               "histograms")):
        return "no metrics recorded"
    lines: List[str] = []
    counters = snapshot.get("counters") or {}
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value:>16,.0f}")
    gauges = snapshot.get("gauges") or {}
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:>16,.6g}")
    histograms = snapshot.get("histograms") or {}
    if histograms:
        lines.append("histograms:          "
                     "count          mean           min           max")
        width = max(len(name) for name in histograms)

        def cell(value) -> str:
            return f"{value:>13,.6g}" if value is not None else f"{'-':>13}"

        for name, summary in histograms.items():
            lines.append(
                f"  {name:<{width}}  {summary.get('count', 0):>8,}"
                f" {cell(summary.get('mean'))}"
                f" {cell(summary.get('min'))}"
                f" {cell(summary.get('max'))}")
    return "\n".join(lines)


def metrics_snapshots(records: List[Dict]) -> List[Dict]:
    """The metrics snapshots embedded in parsed trace records."""
    return [r.get("metrics") or {} for r in records
            if r.get("type") == "metrics"]
