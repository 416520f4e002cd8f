"""Timed strategy sweeps over benchmark instances.

The harness that regenerates Table 2: prepares each benchmark's global
routing once, finds the minimum channel width (so ``W_min - 1`` gives a
provably unroutable configuration), then times every requested strategy on
the same instances and renders the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.pipeline import ColoringOutcome, solve_coloring
from ..core.strategy import Strategy
from ..fpga.detailed import RoutingCSP, build_routing_csp
from ..fpga.flow import minimum_channel_width
from ..fpga.global_route import GlobalRouting
from ..fpga.mcnc import load_routing


@dataclass
class BenchmarkInstance:
    """One prepared routing instance at a fixed width."""

    name: str
    routing: GlobalRouting
    width: int
    csp: RoutingCSP


@dataclass
class SweepResult:
    """All measurements of a strategy sweep."""

    instances: List[str]
    strategies: List[Strategy]
    outcomes: Dict[Tuple[str, str], ColoringOutcome] = field(default_factory=dict)

    def outcome(self, instance: str, strategy: Strategy) -> ColoringOutcome:
        return self.outcomes[(instance, strategy.label)]

    def time_cells(self) -> Dict[str, Dict[str, float]]:
        """``{instance: {strategy label: total time}}`` for table rendering."""
        cells: Dict[str, Dict[str, float]] = {}
        for instance in self.instances:
            cells[instance] = {
                strategy.label: self.outcomes[(instance, strategy.label)].total_time
                for strategy in self.strategies}
        return cells

    def strategy_times(self) -> Dict[str, Dict[Strategy, float]]:
        """``{instance: {strategy: total time}}`` for portfolio analysis."""
        result: Dict[str, Dict[Strategy, float]] = {}
        for instance in self.instances:
            result[instance] = {
                strategy: self.outcomes[(instance, strategy.label)].total_time
                for strategy in self.strategies}
        return result

    def totals(self) -> Dict[str, float]:
        """Total time per strategy label across all instances."""
        return {strategy.label: sum(
                    self.outcomes[(instance, strategy.label)].total_time
                    for instance in self.instances)
                for strategy in self.strategies}

    def to_json(self) -> str:
        """Machine-readable dump: per-cell times, sizes and solver stats."""
        import json

        def cell(outcome: ColoringOutcome) -> Dict:
            stats = outcome.solver_stats
            record = {
                "status": str(outcome.status),
                "satisfiable": outcome.is_sat,
                "total_time": outcome.total_time,
                "solve_time": outcome.solve_time,
                "encode_time": outcome.encode_time,
                "cnf_time": outcome.cnf_time,
                "symmetry_time": outcome.symmetry_time,
                "num_vars": outcome.num_vars,
                "num_clauses": outcome.num_clauses,
                "conflicts": int(stats.get("conflicts", 0)),
                "decisions": int(stats.get("decisions", 0)),
                "propagations": int(stats.get("propagations", 0)),
            }
            # Perf instrumentation from the arena engine, when present.
            if "props_per_sec" in stats:
                record["props_per_sec"] = round(stats["props_per_sec"])
            for key in ("blocker_hits", "watch_inspections"):
                if key in stats:
                    record[key] = int(stats[key])
            return record

        payload = {
            "instances": self.instances,
            "strategies": [s.label for s in self.strategies],
            "cells": {
                f"{instance}|{label}": cell(outcome)
                for (instance, label), outcome in self.outcomes.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


#: Pins W_min for the prepared instances.  W_min is the chromatic number
#: whatever the strategy; this one refutes the routing configurations
#: fastest.
WIDTH_PROBE = Strategy("pop", "s1")


def prepare_unroutable_instance(name: str, scale: float = 1.0,
                                ) -> BenchmarkInstance:
    """Load a benchmark and pin its width to ``W_min - 1`` (provably UNSAT).

    Mirrors the paper's setup: Table 2 reports "challenging unroutable
    FPGA configurations", i.e. one track fewer than the routable minimum.
    """
    routing = load_routing(name, scale)
    width_min = minimum_channel_width(routing, WIDTH_PROBE)
    if width_min < 2:
        raise ValueError(f"benchmark {name!r} is routable at W=1; "
                         f"no unroutable configuration exists")
    width = width_min - 1
    return BenchmarkInstance(name=name, routing=routing, width=width,
                             csp=build_routing_csp(routing, width))


def prepare_routable_instance(name: str, scale: float = 1.0,
                              slack: int = 0) -> BenchmarkInstance:
    """Load a benchmark at its minimum routable width (+ optional slack)."""
    routing = load_routing(name, scale)
    width = minimum_channel_width(routing, WIDTH_PROBE) + slack
    return BenchmarkInstance(name=name, routing=routing, width=width,
                             csp=build_routing_csp(routing, width))


def sweep(instances: Sequence[BenchmarkInstance],
          strategies: Sequence[Strategy],
          repeats: int = 1,
          expect_satisfiable: Optional[bool] = None) -> SweepResult:
    """Time every strategy on every instance (best of ``repeats`` runs).

    When ``expect_satisfiable`` is set, every outcome is checked against
    it — a mismatch means an encoding bug and raises immediately.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    result = SweepResult(instances=[i.name for i in instances],
                         strategies=list(strategies))
    for instance in instances:
        for strategy in strategies:
            best: Optional[ColoringOutcome] = None
            for _ in range(repeats):
                outcome = solve_coloring(instance.csp.problem, strategy,
                                         graph_time=instance.csp.build_time)
                if expect_satisfiable is not None \
                        and outcome.is_sat != expect_satisfiable:
                    raise AssertionError(
                        f"{instance.name} @ W={instance.width} with "
                        f"{strategy.label}: got "
                        f"{'SAT' if outcome.is_sat else 'UNSAT'}, "
                        f"expected {'SAT' if expect_satisfiable else 'UNSAT'}")
                if best is None or outcome.total_time < best.total_time:
                    best = outcome
            result.outcomes[(instance.name, strategy.label)] = best
    return result
