"""Solver BCP throughput of the arena engine.

Runs the full :mod:`repro.bench.throughput` bench and writes the
``BENCH_solver.json`` artifact at the repository root.  The acceptance
bar is the floor check ``make bench-smoke`` applies to the quick bench
(``benchmarks/floor.json``: stress-suite props/sec and the
conflict-suite speedup, each at least 75% of its floor); the stress
suite's deterministic counters are pinned by
``tests/test_throughput_bench.py``.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.throughput import check_floor, run_throughput_bench, write_report

from .conftest import publish

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_bcp_throughput(benchmark):
    payload = benchmark.pedantic(
        lambda: run_throughput_bench(), rounds=1, iterations=1)
    write_report(str(REPO_ROOT / "BENCH_solver.json"), payload)

    lines = [f"stress suite props/sec: "
             f"{payload['stress_arena_props_per_sec']:,}"]
    for record in payload["stress_suite"] + payload.get("context_suite", []):
        arena = record["arena"]
        lines.append(f"  {record['name']}: {arena['props_per_sec']:,} "
                     f"props/sec ({arena['watch_inspections']:,} watch "
                     f"inspections)")
    publish("solver_throughput", "\n".join(lines))

    assert check_floor(payload,
                       str(REPO_ROOT / "benchmarks" / "floor.json")) == []
