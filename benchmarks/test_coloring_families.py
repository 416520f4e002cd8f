"""Beyond routing — the encodings on classic coloring families.

The paper's stage-2 tooling is generic graph-coloring machinery (§1
contribution 1 explicitly advertises riding the coloring-to-SAT
literature).  This bench runs the headline encodings on two canonical
families outside the FPGA domain:

* **Mycielski graphs** — triangle-free with growing chromatic number:
  clique bounds are useless and refutation needs search, the adversarial
  case for symmetry breaking (no big clique to pin);
* **queen graphs** — dense and massively symmetric, the favourable case.
"""

from __future__ import annotations

from repro.bench import render_table, sweep
from repro.bench.runner import BenchmarkInstance
from repro.coloring import ColoringProblem
from repro.coloring.instances import mycielski_graph, queen_graph
from repro.core import Strategy, solve_coloring
from .conftest import publish

STRATEGIES = [Strategy("muldirect", "none"), Strategy("muldirect", "s1"),
              Strategy("ITE-log", "s1"),
              Strategy("ITE-linear-2+muldirect", "s1")]


def _unsat_cases():
    # (name, graph, K) with K one below the chromatic number.
    return [
        ("mycielski-4", mycielski_graph(4), 3),
        ("mycielski-5", mycielski_graph(5), 4),
        ("queen-5", queen_graph(5), 4),
        ("queen-6", queen_graph(6), 6),
    ]


def test_coloring_families_unsat(benchmark):
    cases = _unsat_cases()

    def run():
        cells = {}
        for name, graph, colors in cases:
            problem = ColoringProblem(graph, colors)
            cells[name] = {}
            for strategy in STRATEGIES:
                outcome = solve_coloring(problem, strategy)
                assert not outcome.is_sat, (name, strategy.label)
                cells[name][strategy.label] = outcome.total_time
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("coloring_families", render_table(
        "Classic coloring families, K = chi - 1 (UNSAT) [s]",
        [name for name, _, _ in cases],
        [s.label for s in STRATEGIES], cells,
        reference_column="muldirect"))

    totals = {s.label: sum(cells[name][s.label] for name, _, _ in cases)
              for s in STRATEGIES}
    # The structural encodings should not lose to the baseline overall.
    assert min(totals["ITE-log/s1"],
               totals["ITE-linear-2+muldirect/s1"]) <= totals["muldirect"]


def test_coloring_families_sat(benchmark):
    cases = [("mycielski-4", mycielski_graph(4), 4),
             ("queen-5", queen_graph(5), 5)]

    def run():
        results = {}
        for name, graph, colors in cases:
            problem = ColoringProblem(graph, colors)
            outcome = solve_coloring(problem,
                                     Strategy("ITE-linear-2+muldirect", "s1"))
            assert outcome.is_sat
            assert problem.is_valid_coloring(outcome.coloring)
            results[name] = outcome.total_time
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("coloring_families_sat",
            "; ".join(f"{name}: chi-coloring in {seconds:.3f}s"
                      for name, seconds in results.items()))
