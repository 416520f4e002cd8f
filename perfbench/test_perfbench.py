"""The benchmark's own checks: deterministic counters, attribution, traces.

Run from the repository root (the tier-1 suite does not collect it)::

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.sat.status import SolveStatus  # noqa: E402
from run import tail_percentile  # noqa: E402
from workloads import WrongAnswer, _check_refutation  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


def line_with(proc: subprocess.CompletedProcess, prefix: str) -> str:
    return next(line for line in proc.stdout.splitlines()
                if line.startswith(prefix))


def counts(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] in ("count", "tracks")}


@pytest.mark.parametrize("workload", ["flow", "batch"])
def test_counters_repeat_exactly_on_one_seed(workload):
    runs = [bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0") for _ in range(2)]
    results = [result_of(run) for run in runs]
    assert len({line_with(run, "counters digest:") for run in runs}) == 1
    assert counts(results[0]) == counts(results[1])


def test_traced_runs_repeat_counters_and_attribute_wall_time():
    runs = [bench("--workload", "flow", "--seed", "3", "--seconds", "0",
                  "--trace", "1") for _ in range(2)]
    results = [result_of(run) for run in runs]
    assert counts(results[0]) == counts(results[1])
    metrics = results[0]["metrics"]
    for name in ("placement.hpwl", "detailed.edges", "encodings.clauses",
                 "solver.conflicts", "audit.proof_steps", "flow.probes"):
        assert metrics[name]["value"] > 0, name
    assert line_with(runs[0], "attribution:").endswith("ok")


def test_trace_file_renders_with_the_repro_trace_command():
    result_of(bench("--workload", "batch", "--seed", "3", "--seconds", "0",
                    "--trace", "1"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rendered = subprocess.run(
        [sys.executable, "-m", "repro", "trace",
         str(HERE / "out" / "batch-3.trace.jsonl")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert rendered.returncode == 0, rendered.stderr
    for name in ("layer.api", "layer.pool", "layer.solver.search"):
        assert name in rendered.stdout


def response(status, audit="", detail=""):
    return SimpleNamespace(status=status, audit=audit,
                           report=SimpleNamespace(detail=detail))


@pytest.mark.parametrize("caught", [
    response(SolveStatus.ERROR, "FAIL", "audit failed: rup_replay (step 7)"),
    response(SolveStatus.ERROR, "", "audit failed: model (edge 3-4)"),
    response(SolveStatus.ERROR, "", "encoding 'pop' decoded an invalid "
             "coloring (wrong model or encoding bug)"),
    response(SolveStatus.SAT),
    response(SolveStatus.UNSAT, "SKIPPED"),
])
def test_a_wrong_answer_stops_the_run(caught):
    with pytest.raises(WrongAnswer):
        _check_refutation("unit", caught)


@pytest.mark.parametrize("undecided", [
    response(SolveStatus.TIMEOUT, "", "wall_clock_limit"),
    response(SolveStatus.ERROR, "", "worker crashed"),
    response(SolveStatus.UNSAT, "PASS"),
])
def test_an_undecided_or_audited_answer_does_not(undecided):
    _check_refutation("unit", undecided)


def test_the_tail_has_ten_samples_beyond_it():
    assert tail_percentile(24) == 58
    assert tail_percentile(40) == 75
    with pytest.raises(ValueError):
        tail_percentile(10)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "flow", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
