"""Baseline — BDDs vs CDCL on routing formulas (paper §1 related work).

Wood & Rutenbar attacked FPGA routability with BDDs and, "because of the
limited scalability of BDDs", could only handle one channel at a time.
This bench reproduces the wall: on progressively larger slices of one
routing instance, BDD construction cost explodes (and hits its node
budget) while the CDCL solver's cost stays flat.
"""

from __future__ import annotations

import time

from repro.bench import render_simple_table
from repro.core import Strategy, get_encoding, solve_coloring
from repro.fpga import build_routing_csp, load_routing
from repro.sat.bdd import BDDLimitExceeded, solve_bdd
from .conftest import bench_scale, publish

NODE_LIMIT = 300_000


def test_bdd_vs_cdcl_scaling(benchmark):
    def run():
        rows = []
        for scale in (0.35, 0.5, 0.65, 0.8):
            routing = load_routing("alu2", scale=bench_scale() * scale)
            csp = build_routing_csp(routing, 3)
            encoded = get_encoding("log").encode(csp.problem)

            start = time.perf_counter()
            try:
                bdd_result = solve_bdd(encoded.cnf, node_limit=NODE_LIMIT)
                bdd_cell = (f"{time.perf_counter() - start:.3f}s "
                            f"({int(bdd_result.stats['bdd_nodes'])} nodes)")
                bdd_answer = bdd_result.is_sat
            except BDDLimitExceeded:
                bdd_cell = (f"blown up (> {NODE_LIMIT} nodes after "
                            f"{time.perf_counter() - start:.3f}s)")
                bdd_answer = None

            start = time.perf_counter()
            outcome = solve_coloring(csp.problem, Strategy("log", "s1"))
            cdcl_cell = f"{time.perf_counter() - start:.3f}s"
            if bdd_answer is not None:
                assert bdd_answer == outcome.is_sat
            rows.append([f"alu2 x{scale:.2f}",
                         str(encoded.cnf.num_vars),
                         str(encoded.cnf.num_clauses),
                         bdd_cell, cdcl_cell])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("baseline_bdd", render_simple_table(
        f"BDD (node limit {NODE_LIMIT}) vs CDCL on growing routing slices",
        ["instance", "vars", "clauses", "BDD", "CDCL"], rows))
    # The last (largest) slice must have defeated the BDD baseline while
    # CDCL stayed comfortable.
    assert "blown up" in rows[-1][3]
