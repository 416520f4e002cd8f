"""Smoke tests for the BCP throughput bench (repro.bench.throughput).

Tier-1 safe: runs the bench at a tiny setting and checks the artifact is
valid JSON with the expected shape and the stress suite's deterministic
counters — no timing assertions, so the test cannot flake on a loaded
machine.  The props/sec floor is checked by ``make bench-smoke`` and
benchmarks/test_bench_solver_throughput.py.
"""

import json

import pytest

from repro.bench.throughput import (bcp_stress, check_floor, conflict_configs,
                                    main, measure_conflict_instance,
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
    assert "headline_conflict_speedup" in loaded
    assert "stress suite props/sec" in capsys.readouterr().out


def test_conflict_configs_flags():
    configs = conflict_configs()
    base, tuned = configs["baseline"], configs["tuned"]
    assert not base.inprocessing and base.reduce_policy != "tier"
    assert tuned.inprocessing and tuned.reduce_policy == "tier"
    # Identical search seeds: the race measures the features, not luck.
    assert base.seed == tuned.seed
    assert base.phase_timing and tuned.phase_timing


def test_measure_conflict_instance_shape():
    record = measure_conflict_instance("php", pigeonhole(5), repeats=1)
    assert record["speedup"] is not None
    for label in ("baseline", "tuned"):
        side = record[label]
        assert side["conflicts"] > 0
        assert set(side["phase_split"]) == {"propagate", "analyze",
                                            "reduce", "inprocess"}
    # Inprocessing counters are reported for the tuned side only.
    assert "inprocessing" not in record["baseline"]
    assert record["tuned"]["inprocessing"]["inprocess_passes"] >= 1


def test_check_floor_pass_and_fail(tmp_path):
    floor = tmp_path / "floor.json"
    floor.write_text(json.dumps({
        "_comment": "ignored",
        "headline_conflict_speedup": 2.0,
        "absent_key": 1.0,
    }), encoding="utf-8")
    # 1.6 >= 75% of the 2.0 floor: passes; the missing key fails.
    failures = check_floor({"headline_conflict_speedup": 1.6}, str(floor))
    assert failures == ["absent_key: missing from bench payload"]
    failures = check_floor({"headline_conflict_speedup": 1.4,
                            "absent_key": 5.0}, str(floor))
    assert failures == ["headline_conflict_speedup: 1.4 < 75% of floor 2.0"]
