"""Baseline — one-net-at-a-time negotiation vs. SAT (paper §1's contrast).

The paper motivates SAT-based detailed routing with two capabilities the
heuristic routers lack: *proving* unroutability and considering all nets
simultaneously.  This bench quantifies the trade on our instances:

* on routable configurations, negotiation is fast and so is SAT;
* on unroutable configurations, negotiation burns its full iteration
  budget and returns "don't know", while SAT returns a proof.
"""

from __future__ import annotations

import time

from repro.bench import prepare_routable_instance, render_simple_table
from repro.core import Strategy, solve_coloring
from repro.fpga import negotiate_tracks
from .conftest import bench_circuits, bench_scale, publish

STRATEGY = Strategy("ITE-linear-2+muldirect", "s1")


def test_pathfinder_vs_sat_routable(benchmark):
    instances = [prepare_routable_instance(name, scale=bench_scale())
                 for name in bench_circuits()[:4]]

    def run():
        rows = []
        for instance in instances:
            start = time.perf_counter()
            negotiated = negotiate_tracks(instance.csp, max_iterations=300)
            negotiation_time = time.perf_counter() - start
            outcome = solve_coloring(instance.csp.problem, STRATEGY)
            rows.append((instance.name, instance.width, negotiated,
                         negotiation_time, outcome))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = []
    for name, width, negotiated, negotiation_time, outcome in rows:
        table.append([name, f"W={width}",
                      "yes" if negotiated.success else "no",
                      f"{negotiation_time:.3f}",
                      f"{outcome.total_time:.3f}"])
        assert outcome.is_sat
    publish("baseline_routable", render_simple_table(
        "Routable configs: negotiation vs SAT",
        ["circuit", "width", "negotiated?", "negotiation [s]", "SAT [s]"],
        table))
    # Negotiation finds a routing at the SAT-certified minimum width in
    # most cases; require at least half to succeed (it is a heuristic).
    successes = sum(1 for row in rows if row[2].success)
    assert successes >= len(rows) // 2


def test_pathfinder_cannot_prove_unroutability(benchmark,
                                               unroutable_instances):
    instances = unroutable_instances[:4]

    def run():
        rows = []
        for instance in instances:
            start = time.perf_counter()
            negotiated = negotiate_tracks(instance.csp, max_iterations=60)
            negotiation_time = time.perf_counter() - start
            outcome = solve_coloring(instance.csp.problem, STRATEGY)
            rows.append((instance.name, negotiated, negotiation_time,
                         outcome))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = []
    for name, negotiated, negotiation_time, outcome in rows:
        # The configurations are provably unroutable: negotiation must
        # fail, and its failure carries no certificate.
        assert not negotiated.success
        assert not outcome.is_sat
        table.append([name,
                      f"gave up after {negotiated.iterations} iters "
                      f"({negotiation_time:.3f}s)",
                      f"UNSAT proof in {outcome.total_time:.3f}s"])
    publish("baseline_unroutable", render_simple_table(
        "Unroutable configs: negotiation gives up, SAT proves",
        ["circuit", "negotiation", "SAT"], table))
