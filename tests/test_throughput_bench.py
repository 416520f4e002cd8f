"""Smoke tests for the BCP throughput bench (repro.bench.throughput).

Tier-1 safe: runs the bench at a tiny setting and checks the artifact is
valid JSON with the expected shape and the stress suite's deterministic
counters — no timing assertions, so the test cannot flake on a loaded
machine.  The props/sec floor is checked by ``make bench-smoke`` and
benchmarks/test_bench_solver_throughput.py.
"""

import json

import pytest

from repro.bench.throughput import (bcp_stress, check_floor,
                                    conflict_suite_instances, main,
                                    measure_conflict_instance,
                                    measure_instance, pigeonhole,
                                    run_throughput_bench, write_report,
                                    _search_runner, _stress_runner)
from repro.sat import CDCLSolver
from repro.sat.solver.config import minisat_like


def test_bcp_stress_is_propagation_only():
    cnf = bcp_stress(50, 4, 5, seed=3)
    solver = CDCLSolver(cnf, minisat_like())
    result = solver.solve(assumptions=[1])
    assert result.is_sat
    assert solver.stats["conflicts"] == 0
    assert solver.stats["decisions"] == 0
    # The chain assignment propagates every variable from the single
    # assumption, and the fanout clauses are skipped via blockers.
    assert solver.stats["propagations"] >= 50
    assert solver.stats["blocker_hits"] > 0


def test_measure_instance_reports_the_engine():
    record = measure_instance("tiny", bcp_stress(40, 2, 4),
                              runner=_stress_runner, rounds=2, repeats=1)
    assert record["arena"]["propagations"] == 80
    assert record["arena"]["blocker_hit_rate"] is not None
    assert record["arena"]["props_per_sec"] > 0


def test_search_runner_counts_a_capped_search():
    record = measure_instance("php-5", pigeonhole(5), runner=_search_runner,
                              rounds=1, repeats=1, max_conflicts=100)
    # The hard budget raises BudgetExceeded past conflict 100; the
    # runner keeps the capped search's stats.
    assert record["arena"]["conflicts"] == 101


def test_search_runner_does_not_time_a_crash(monkeypatch):
    # Only BudgetExceeded ends a timed search normally: a crashed engine
    # must not be recorded as a fast run.
    def crash(self, *args, **kwargs):
        raise RuntimeError("engine crashed")
    monkeypatch.setattr(CDCLSolver, "solve", crash)
    with pytest.raises(RuntimeError, match="engine crashed"):
        measure_instance("php-5", pigeonhole(5), runner=_search_runner,
                         rounds=1, repeats=1, max_conflicts=100)


def test_bench_payload_is_valid_json(tmp_path):
    payload = run_throughput_bench(repeats=1, stress_rounds=2,
                                   include_context=False,
                                   include_conflict=False)
    out = tmp_path / "BENCH_solver.json"
    write_report(str(out), payload)
    loaded = json.loads(out.read_text(encoding="utf-8"))
    assert loaded["stress_arena_props_per_sec"] > 0
    for record in loaded["stress_suite"]:
        assert record["arena"]["props_per_sec"] > 0


def test_stress_counters_are_pinned():
    """The stress suite's counters are deterministic: a drift means the
    propagation loop visits watches differently, whatever props/sec
    says."""
    payload = run_throughput_bench(repeats=1, stress_rounds=2,
                                   include_context=False,
                                   include_conflict=False)
    counters = {record["name"]: (record["arena"]["propagations"],
                                 record["arena"]["watch_inspections"],
                                 record["arena"]["blocker_hits"])
                for record in payload["stress_suite"]}
    assert counters == {"chain-300x32": (600, 19670, 19072),
                        "chain-400x16": (800, 13534, 12736)}


def test_stress_regions_on_one_solver_count_alike():
    """Every timed region of a stress instance runs on one solver; each
    wave starts from the root, so every region reads the counters a
    fresh solver would."""
    region = _stress_runner(bcp_stress(300, 32, 6), minisat_like())
    counters = [region(25)[1] for _ in range(3)]
    assert counters[0] == counters[1] == counters[2]
    assert (counters[0]["propagations"], counters[0]["watch_inspections"]) \
        == (7500, 245875)


@pytest.mark.slow
def test_bench_cli_quick(tmp_path, capsys):
    out = tmp_path / "bench.json"
    # --quick caps repeats but still runs the (deliberately hard)
    # conflict-heavy suite, so this is marked slow: it is the CLI
    # coverage for exactly what CI's bench-smoke job executes.
    assert main(["--quick", "-o", str(out)]) == 0
    loaded = json.loads(out.read_text(encoding="utf-8"))
    assert "stress_arena_props_per_sec" in loaded
    assert "context_suite" in loaded
    assert "conflict_suite" in loaded
    assert loaded["conflict_suite_conflicts_per_sec"] > 0
    assert "stress suite props/sec" in capsys.readouterr().out


def test_measure_conflict_instance_shape():
    record = measure_conflict_instance("php", pigeonhole(5), repeats=1)
    assert record["conflicts"] > 0 and record["time"] > 0
    assert set(record["phase_split"]) == {"propagate", "analyze", "reduce"}


#: Conflicts of each conflict-suite instance under the one search
#: configuration (``minisat_like``, seed 1): the refutation work the
#: ``conflict_suite_conflicts_per_sec`` floor divides by.
CONFLICT_SUITE_CONFLICTS = {"conflict-7-0": 3093, "conflict-7-1": 6394,
                            "conflict-7-2": 3632, "conflict-7-3": 4270}


@pytest.mark.slow
def test_conflict_suite_conflicts_are_pinned():
    conflicts = {name: measure_conflict_instance(name, cnf,
                                                 repeats=1)["conflicts"]
                 for name, cnf in conflict_suite_instances(count=4)}
    assert conflicts == CONFLICT_SUITE_CONFLICTS


def test_check_floor_pass_and_fail(tmp_path):
    floor = tmp_path / "floor.json"
    floor.write_text(json.dumps({
        "_comment": "ignored",
        "conflict_suite_conflicts_per_sec": 2000,
        "absent_key": 1.0,
    }), encoding="utf-8")
    # 1600 >= 75% of the 2000 floor: passes; the missing key fails.
    failures = check_floor({"conflict_suite_conflicts_per_sec": 1600},
                           str(floor))
    assert failures == ["absent_key: missing from bench payload"]
    failures = check_floor({"conflict_suite_conflicts_per_sec": 1400,
                            "absent_key": 5.0}, str(floor))
    assert failures == ["conflict_suite_conflicts_per_sec: 1400 < 75% of "
                        "floor 2000"]
