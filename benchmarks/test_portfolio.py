"""§6 portfolios — running several (encoding, symmetry) strategies in
parallel and taking the first answer.

The paper reports, relative to the best single strategy
(ITE-linear-2+muldirect / s1), an extra 1.84× from the 2-strategy
portfolio and 2.30× from the 3-strategy portfolio, computed on the
Table-2 totals.  We reproduce both the analytical (virtual, min-over-
members) figures from measured single-strategy times and a real
multiprocessing first-to-finish run.
"""

from __future__ import annotations

from repro.bench import render_simple_table, sweep
from repro.core import (PORTFOLIO_2, PORTFOLIO_3, Strategy,
                        portfolio_speedup, run_portfolio,
                        virtual_portfolio_time)
from .conftest import publish

REFERENCE = Strategy("ITE-linear-2+muldirect", "s1")
MEMBERS = list(PORTFOLIO_3)  # includes the reference + 2 complements


def test_virtual_portfolio_speedups(benchmark, unroutable_instances):
    def run():
        return sweep(unroutable_instances, MEMBERS,
                     expect_satisfiable=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    times = result.strategy_times()

    speedup_2 = portfolio_speedup(times, list(PORTFOLIO_2), REFERENCE)
    speedup_3 = portfolio_speedup(times, list(PORTFOLIO_3), REFERENCE)
    portfolio_times = virtual_portfolio_time(times, MEMBERS)

    rows = [[instance,
             f"{times[instance][REFERENCE]:.2f}",
             f"{portfolio_times[instance]:.2f}"]
            for instance in result.instances]
    rows.append(["total",
                 f"{sum(times[i][REFERENCE] for i in result.instances):.2f}",
                 f"{sum(portfolio_times.values()):.2f}"])
    publish("portfolio", render_simple_table(
        "Portfolios on unroutable configurations [s]",
        ["circuit", REFERENCE.label, "3-strategy portfolio"], rows))
    publish("portfolio_summary",
            f"2-strategy portfolio speedup {speedup_2:.2f}x "
            f"(paper: 1.84x); 3-strategy {speedup_3:.2f}x (paper: 2.30x)")

    # Shape claims: portfolios never hurt, and adding the third member
    # never loses to the 2-member portfolio.
    assert speedup_2 >= 1.0
    assert speedup_3 >= speedup_2
    assert speedup_3 > 1.0  # some instance prefers a non-reference member


def test_real_portfolio_execution(benchmark, unroutable_instances):
    """First-to-finish multiprocessing run on the hardest instance."""
    instance = unroutable_instances[-1]

    def run():
        return run_portfolio(instance.csp.problem, MEMBERS, timeout=600)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("portfolio_parallel",
            f"{instance.name} @ W={instance.width}: winner "
            f"{result.winner.label} in {result.wall_time:.2f}s wall time "
            f"({result.num_strategies} processes)")
    assert not result.outcome.is_sat
    assert result.winner in MEMBERS
