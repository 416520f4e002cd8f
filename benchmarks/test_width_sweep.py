"""Width sweep — the hardness cliff around W_min.

Not a numbered figure in the paper, but the phenomenon behind its
experimental design: instances just *below* the minimum channel width are
the hard UNSAT proofs (Table 2 uses exactly W_min - 1); instances at or
above W_min are easy SAT; and far below W_min the clique contradiction is
shallow again.  This bench traces that curve for one circuit.
"""

from __future__ import annotations

from repro.bench import render_simple_table
from repro.core import Strategy, solve_coloring
from repro.fpga import build_routing_csp, load_routing, minimum_channel_width
from .conftest import bench_scale, publish

STRATEGY = Strategy("ITE-linear-2+muldirect", "s1")
BASELINE = Strategy("muldirect", "none")


def test_width_sweep(benchmark):
    routing = load_routing("C880", scale=bench_scale())

    def run():
        width_min = minimum_channel_width(routing, STRATEGY)
        rows = []
        for width in range(max(1, width_min - 3), width_min + 2):
            problem = build_routing_csp(routing, width).problem
            best = solve_coloring(problem, STRATEGY)
            base = solve_coloring(problem, BASELINE)
            assert best.is_sat == base.is_sat
            assert best.is_sat == (width >= width_min)
            rows.append([f"W={width}",
                         "SAT" if best.is_sat else "UNSAT",
                         f"{base.total_time:.3f}",
                         f"{best.total_time:.3f}",
                         str(int(base.solver_stats["conflicts"]))])
        return width_min, rows

    width_min, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("width_sweep", render_simple_table(
        f"C880 width sweep (W_min = {width_min})",
        ["width", "answer", "muldirect [s]", "best strategy [s]",
         "baseline conflicts"], rows))

    # The cliff: the hardest row is the UNSAT one right below W_min.
    unsat_rows = [row for row in rows if row[1] == "UNSAT"]
    hardest = max(unsat_rows, key=lambda row: float(row[2]))
    assert hardest[0] == f"W={width_min - 1}"
