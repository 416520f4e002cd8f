"""Shared infrastructure for the paper-reproduction benchmarks.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — multiplies benchmark circuit sizes (default 1.0).
  Use e.g. ``0.7`` for a fast smoke pass of every table.
* ``REPRO_BENCH_CIRCUITS`` — comma-separated subset of Table-2 circuit
  names to run (default: all eight).

Every bench prints its paper-style table to stdout (run pytest with ``-s``
to see it live) and also writes it under ``benchmarks/results/`` so the
EXPERIMENTS.md numbers can be traced to files.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import prepare_unroutable_instance
from repro.fpga import TABLE2_BENCHMARKS

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_circuits() -> list:
    names = os.environ.get("REPRO_BENCH_CIRCUITS")
    if not names:
        return list(TABLE2_BENCHMARKS)
    chosen = [n.strip() for n in names.split(",") if n.strip()]
    unknown = set(chosen) - set(TABLE2_BENCHMARKS)
    if unknown:
        raise ValueError(f"unknown circuits in REPRO_BENCH_CIRCUITS: {unknown}")
    return chosen


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def unroutable_instances():
    """The eight Table-2 circuits pinned at W_min - 1 (provably UNSAT),
    prepared once per session."""
    scale = bench_scale()
    return [prepare_unroutable_instance(name, scale=scale)
            for name in bench_circuits()]
