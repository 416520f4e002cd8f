"""BCP throughput benchmark of the CDCL engine.

Measures the raw unit-propagation speed of
:class:`~repro.sat.solver.cdcl.CDCLSolver`, the flat clause-arena engine
with blocker literals, as absolute propagations per second, beside the
deterministic counters behind it (propagations, watch inspections,
blocker hits): a change in a counter is a changed search, a change in
props/sec alone is speed or noise.

Three instance families:

* **Stress suite** (the BCP headline) — synthetic BCP workloads built
  by :func:`bcp_stress`: a long implication chain ``x1 -> x2 -> ... -> xn``
  decorated with ``fanout`` already-satisfied side clauses per variable.
  Asserting ``x1`` triggers a full-chain propagation wave in which almost
  every watch-list entry is satisfied by its cached blocker literal
  (blocker hit rates of 0.94-0.97).  Zero decisions, zero conflicts: the
  run measures *pure BCP*, the path blocker literals exist to accelerate.
* **Context suite** — ordinary search workloads (pigeonhole, random
  3-SAT, an FPGA routing instance is deliberately excluded to keep the
  bench self-contained and fast).  Here conflict analysis and watch moves
  share the profile with skips; the numbers are reported so the stress
  headline cannot be mistaken for an end-to-end search rate.
* **Conflict suite** — near-critical UNSAT coloring instances from
  :func:`repro.qa.generators.conflict_instances` (a hidden clique buried
  in noise, one color short), the analysis/reduction-dominated regime
  the BCP suites deliberately avoid.  This suite races the arena engine
  against *itself* with inprocessing and tier-based clause-DB reduction
  enabled, and reports a per-phase time split
  (propagate / analyze / reduce / inprocess) for both configurations —
  ``headline_conflict_speedup`` is where the inprocessing work pays off.

Timing methodology: the container's wall clock is noisy (identical code
can swing ~30% between runs), so each measurement uses
``time.process_time`` and takes the **minimum over ``repeats`` runs** —
the standard minimum-as-estimator for best-case deterministic cost.
The conflict suite's two configurations run interleaved so slow drifts
hit both equally.
"""

from __future__ import annotations

import json
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..sat.cnf import CNF
from ..sat.solver.cdcl import BudgetExceeded, CDCLSolver
from ..sat.solver.config import SolverConfig, preset


# ----------------------------------------------------------------------
# Instance generators
# ----------------------------------------------------------------------

def bcp_stress(num_vars: int, fanout: int, clause_len: int,
               seed: int = 0) -> CNF:
    """A propagation-dominated CNF: implication chain plus satisfied fanout.

    Clauses ``(-x_i v x_{i+1})`` chain every variable to the next, so
    asserting ``x1`` propagates the entire chain.  Each variable ``a``
    additionally gets ``fanout`` clauses ``(-a v b_1 v ... v b_{k-1})``
    whose body variables are all *smaller* than ``a`` — by the time the
    wave reaches ``a`` they are already true, so the watchers on ``-a``
    are satisfied and a fresh blocker literal skips them without touching
    the clause arena.  The formula is satisfiable with zero conflicts and
    zero decisions under ``solve(assumptions=[1])``.
    """
    rng = random.Random(seed)
    cnf = CNF(num_vars=num_vars)
    for i in range(1, num_vars):
        cnf.add_clause([-i, i + 1])
    for a in range(3, num_vars + 1):
        for _ in range(fanout):
            body = rng.sample(range(1, a), min(clause_len - 1, a - 1))
            cnf.add_clause([-a] + body)
    return cnf


def random_3sat(num_vars: int, num_clauses: int, seed: int) -> CNF:
    """A seeded uniform random 3-SAT formula."""
    rng = random.Random(seed)
    cnf = CNF(num_vars=num_vars)
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return cnf


def pigeonhole(holes: int) -> CNF:
    """The classic PHP_{holes+1,holes} formula (UNSAT, conflict-heavy)."""
    cnf = CNF()
    var: Dict[Tuple[int, int], int] = {}
    for pigeon in range(holes + 1):
        for hole in range(holes):
            var[(pigeon, hole)] = cnf.new_var()
    for pigeon in range(holes + 1):
        cnf.add_clause([var[(pigeon, hole)] for hole in range(holes)])
    for hole in range(holes):
        for a in range(holes + 1):
            for b in range(a + 1, holes + 1):
                cnf.add_clause([-var[(a, hole)], -var[(b, hole)]])
    return cnf


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def _stress_runner(cnf: CNF, config: SolverConfig, rounds: int):
    """Time ``rounds`` assumption-driven BCP waves on one solver."""
    solver = CDCLSolver(cnf.copy(), config)
    start = time.process_time()
    for _ in range(rounds):
        solver.solve(assumptions=[1])
    return time.process_time() - start, solver


def _search_runner(cnf: CNF, config: SolverConfig, rounds: int):
    """Time a full (possibly budget-capped) search from scratch."""
    elapsed = 0.0
    solver = None
    for _ in range(rounds):
        solver = CDCLSolver(cnf.copy(), config)
        start = time.process_time()
        try:
            solver.solve()
        except BudgetExceeded:  # a capped search still yields valid stats
            pass
        elapsed += time.process_time() - start
    return elapsed, solver


def measure_instance(name: str, cnf: CNF, *, runner: Callable,
                     rounds: int, repeats: int,
                     preset_name: str = "minisat_like",
                     max_conflicts: Optional[int] = None) -> Dict:
    """Benchmark the engine on one CNF; min-over-``repeats`` timing.

    Returns a per-instance record with the engine's time, props/sec and
    its deterministic search and watch counters.
    """
    overrides = {}
    if max_conflicts is not None:
        overrides["max_conflicts"] = max_conflicts
    config = preset(preset_name, **overrides)
    times = []
    for _ in range(max(1, repeats)):
        elapsed, solver = runner(cnf, config, rounds)
        times.append(elapsed)
    stats = solver.stats
    best = min(times)
    props = int(stats["propagations"])
    inspections = int(stats["watch_inspections"])
    return {
        "name": name,
        "num_vars": cnf.num_vars,
        "num_clauses": cnf.num_clauses,
        "rounds": rounds,
        "arena": {
            "time": round(best, 6),
            "propagations": props,
            "props_per_sec": round(props / best) if best > 0 else None,
            "decisions": int(stats["decisions"]),
            "conflicts": int(stats["conflicts"]),
            "watch_inspections": inspections,
            "blocker_hits": int(stats["blocker_hits"]),
            "blocker_hit_rate": round(
                stats["blocker_hits"] / inspections, 4)
            if inspections else None,
        },
    }


#: Phase-timing stat keys, in reporting order.
_PHASE_KEYS = ("time_propagate", "time_analyze", "time_reduce",
               "time_inprocess")

#: Inprocessing counters reported for the tuned configuration.
_INPROCESS_KEYS = ("inprocess_passes", "subsumed_clauses",
                   "strengthened_clauses", "vivified_clauses",
                   "eliminated_vars", "bve_resolvents")


def conflict_configs(seed: int = 1) -> Dict[str, SolverConfig]:
    """The two configurations the conflict suite races.

    ``baseline`` is the stock arena engine; ``tuned`` is the same engine
    with inter-restart inprocessing and tier-based clause-DB reduction
    — the configuration the ``arena+inprocess`` strategy engine maps to.
    Both carry ``phase_timing`` so the payload can show *where* the
    time went, not just how much.
    """
    return {
        "baseline": preset("minisat_like", seed=seed, phase_timing=True),
        "tuned": preset("minisat_like", seed=seed, phase_timing=True,
                        inprocessing=True, reduce_policy="tier"),
    }


def measure_conflict_instance(name: str, cnf: CNF, *,
                              repeats: int) -> Dict:
    """Race baseline vs tuned arena configs on one conflict-heavy CNF.

    Same methodology as :func:`measure_instance` (interleaved,
    min-over-repeats ``process_time``), plus a per-phase time split
    taken from each configuration's fastest run.
    """
    times: Dict[str, List[float]] = {"baseline": [], "tuned": []}
    solvers: Dict[str, object] = {}
    for _ in range(max(1, repeats)):
        for label, config in conflict_configs().items():
            solver = CDCLSolver(cnf.copy(), config)
            start = time.process_time()
            solver.solve()
            elapsed = time.process_time() - start
            if not times[label] or elapsed <= min(times[label]):
                solvers[label] = solver
            times[label].append(elapsed)
    results: Dict[str, Dict] = {}
    for label, solver in solvers.items():
        stats = solver.stats
        best = min(times[label])
        record = {
            "time": round(best, 6),
            "conflicts": int(stats["conflicts"]),
            "decisions": int(stats["decisions"]),
            "propagations": int(stats["propagations"]),
            "watch_inspections": int(stats["watch_inspections"]),
            "learned_clauses": int(stats["learned_clauses"]),
            "deleted_clauses": int(stats["deleted_clauses"]),
            "phase_split": {key[len("time_"):]: round(stats.get(key, 0.0), 6)
                            for key in _PHASE_KEYS},
        }
        if label == "tuned":
            record["inprocessing"] = {
                key: int(stats.get(key, 0)) for key in _INPROCESS_KEYS}
        results[label] = record
    base_t = results["baseline"]["time"]
    tuned_t = results["tuned"]["time"]
    return {
        "name": name,
        "num_vars": cnf.num_vars,
        "num_clauses": cnf.num_clauses,
        "baseline": results["baseline"],
        "tuned": results["tuned"],
        "speedup": round(base_t / tuned_t, 3) if tuned_t > 0 else None,
    }


def conflict_suite_instances(*, count: int = 4) -> List[Tuple[str, CNF]]:
    """The conflict-heavy suite: planted-clique UNSAT coloring CNFs.

    Deterministic (fixed generator seed), by-construction UNSAT, sized
    so the baseline spends a few seconds per instance in conflict
    analysis — large enough that clause-DB growth dominates, which is
    the regime tier reduction and inprocessing target.
    """
    from ..core.encodings.registry import get_encoding
    from ..qa.generators import conflict_instances
    encoding = get_encoding("muldirect")
    return [(inst.name, encoding.encode(inst.problem).cnf)
            for inst in conflict_instances(
                7, count=count, num_vertices=48,
                edge_probability=0.42, clique_size=8)]


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------

STRESS_SUITE = [
    # (name, num_vars, fanout, clause_len)
    ("chain-300x32", 300, 32, 6),
    ("chain-400x16", 400, 16, 6),
]

CONTEXT_SUITE = [
    ("php-7", lambda: pigeonhole(7), 8000),
    ("3sat-150", lambda: random_3sat(150, 630, 11), 6000),
]


def run_throughput_bench(*, repeats: int = 200, stress_rounds: int = 25,
                         include_context: bool = True,
                         context_repeats: int = 2,
                         include_conflict: bool = True,
                         conflict_count: int = 4,
                         conflict_repeats: int = 2) -> Dict:
    """Run the full bench and return the BENCH_solver.json payload.

    The metrics registry is enabled for the duration of the run and its
    snapshot is embedded in the payload under ``"metrics"`` — the
    aggregate solver counters (``solver.propagations``,
    ``solver.watch_inspections``, ``solver.blocker_hits``, …) across
    every engine and instance of the bench, in the same shape ``repro
    metrics`` renders.  The per-solve hooks fire only at ``_finish``,
    outside the propagation loop, so the timed waves are untouched.
    """
    obs_metrics.registry().reset()
    previously_enabled = obs_metrics.enabled()
    obs_metrics.enable()
    try:
        payload = _run_throughput_bench(
            repeats=repeats, stress_rounds=stress_rounds,
            include_context=include_context,
            context_repeats=context_repeats,
            include_conflict=include_conflict,
            conflict_count=conflict_count,
            conflict_repeats=conflict_repeats)
        registry = obs_metrics.registry()
        if "headline_conflict_speedup" in payload:
            registry.set_gauge("bench.headline_conflict_speedup",
                               payload["headline_conflict_speedup"])
        payload["metrics"] = registry.snapshot()
        return payload
    finally:
        obs_metrics.enable(previously_enabled)


def _run_throughput_bench(*, repeats: int, stress_rounds: int,
                          include_context: bool, context_repeats: int,
                          include_conflict: bool, conflict_count: int,
                          conflict_repeats: int) -> Dict:
    stress = [
        measure_instance(
            name, bcp_stress(nv, fanout, clause_len),
            runner=_stress_runner, rounds=stress_rounds, repeats=repeats)
        for name, nv, fanout, clause_len in STRESS_SUITE
    ]
    arena_time = sum(r["arena"]["time"] for r in stress)
    payload: Dict = {
        "benchmark": "solver BCP throughput (arena engine)",
        "methodology": (
            "per-instance time is the minimum of "
            f"{repeats} process_time runs (noise-robust best-case cost); "
            "the headline is total propagations / total time over the "
            "propagation-only stress suite, whose propagation, watch "
            "inspection and blocker hit counts are deterministic"),
        "preset": "minisat_like",
        "stress_suite": stress,
        # propagations accumulate across rounds inside one solver, so
        # sum(propagations)/time is the true aggregate rate.
        "stress_arena_props_per_sec": round(
            sum(r["arena"]["propagations"] for r in stress)
            / arena_time) if arena_time else None,
    }
    if include_context:
        payload["context_suite"] = [
            measure_instance(
                name, make(), runner=_search_runner, rounds=1,
                repeats=context_repeats, max_conflicts=budget)
            for name, make, budget in CONTEXT_SUITE
        ]
        payload["context_note"] = (
            "conflict-heavy search workloads where analysis and watch "
            "moves dominate; props/sec here is far below the stress "
            "suite's")
    if include_conflict:
        conflict = [
            measure_conflict_instance(name, cnf, repeats=conflict_repeats)
            for name, cnf in conflict_suite_instances(count=conflict_count)
        ]
        base_time = sum(r["baseline"]["time"] for r in conflict)
        tuned_time = sum(r["tuned"]["time"] for r in conflict)
        payload["conflict_suite"] = conflict
        payload["headline_conflict_speedup"] = round(
            base_time / tuned_time, 3) if tuned_time else None
        payload["conflict_note"] = (
            "planted-clique UNSAT coloring instances (muldirect "
            "encoding): arena baseline vs arena with inprocessing + "
            "tier reduction; both trajectories legitimately differ, so "
            "the speedup is end-to-end refutation time, with phase "
            "splits showing where it comes from")
    return payload


def write_report(path: str, payload: Dict) -> None:
    """Write the payload as pretty JSON (the BENCH_solver.json artifact)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def check_floor(payload: Dict, floor_path: str, *,
                slack: float = 0.75) -> List[str]:
    """Compare the run against a checked-in performance floor.

    The floor file pins minimum acceptable throughput figures (see
    ``benchmarks/floor.json``); a measurement below ``slack`` of its
    floor — i.e. a regression of more than ``1 - slack`` — fails.  The
    generous slack absorbs machine-to-machine and CI-runner variance
    while still catching order-of-magnitude regressions.  Returns a
    list of failure messages (empty = pass).
    """
    with open(floor_path, "r", encoding="utf-8") as handle:
        floors = json.load(handle)
    failures = []
    for key, floor in floors.items():
        if key.startswith("_"):
            continue  # comment keys
        value = payload.get(key)
        if value is None:
            failures.append(f"{key}: missing from bench payload")
            continue
        if value < floor * slack:
            failures.append(
                f"{key}: {value} < {slack:.0%} of floor {floor}")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry: ``python -m repro.bench.throughput [--quick] [-o PATH]``."""
    import argparse
    parser = argparse.ArgumentParser(
        description="BCP throughput bench of the CDCL engine")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats; finishes well under a minute")
    parser.add_argument("-o", "--output", default="BENCH_solver.json",
                        help="output JSON path (default: BENCH_solver.json)")
    parser.add_argument("--check-floor", metavar="PATH", default=None,
                        help="compare against a floor file (e.g. "
                             "benchmarks/floor.json); exit 1 on a >25%% "
                             "regression of any pinned figure")
    args = parser.parse_args(argv)
    if args.quick:
        payload = run_throughput_bench(context_repeats=1, conflict_count=2,
                                       conflict_repeats=1)
    else:
        payload = run_throughput_bench()
    try:
        write_report(args.output, payload)
    except OSError as error:
        print(f"error: cannot write {args.output}: {error}", file=sys.stderr)
        return 2
    print(f"stress suite props/sec: "
          f"{payload['stress_arena_props_per_sec']:,}")
    for record in payload["stress_suite"]:
        arena = record["arena"]
        print(f"  {record['name']}: {arena['props_per_sec']:,} props/sec "
              f"(blocker hit rate {arena['blocker_hit_rate']})")
    for record in payload.get("context_suite", []):
        print(f"  {record['name']} [context]: "
              f"{record['arena']['props_per_sec']:,} props/sec")
    if "headline_conflict_speedup" in payload:
        print(f"headline conflict-suite speedup (inprocessing + tier "
              f"over baseline arena): {payload['headline_conflict_speedup']}x")
        for record in payload["conflict_suite"]:
            tuned = record["tuned"]
            print(f"  {record['name']} [conflict]: {record['speedup']}x "
                  f"(conflicts {record['baseline']['conflicts']} -> "
                  f"{tuned['conflicts']}, deleted {tuned['deleted_clauses']}, "
                  f"inprocess {tuned['phase_split']['inprocess']}s)")
    print(f"wrote {args.output}")
    if args.check_floor:
        failures = check_floor(payload, args.check_floor)
        if failures:
            for failure in failures:
                print(f"FLOOR REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"floor check passed ({args.check_floor})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
