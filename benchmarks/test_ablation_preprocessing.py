"""Ablation — CNF preprocessing on routing formulas.

Measures how much root unit propagation (fed by the symmetry-breaking
units), pure literals and subsumption shrink the encoded formulas, and
what that does to end-to-end solve time.
"""

from __future__ import annotations

import time

from repro.bench import render_simple_table
from repro.core import Strategy, get_encoding
from repro.core.symmetry import apply_symmetry
from repro.sat import solve
from repro.sat.simplify import simplify, solve_simplified
from .conftest import publish

ENCODINGS = ["muldirect", "direct-3+muldirect", "ITE-linear-2+muldirect"]


def test_preprocessing_shrinks_routing_formulas(benchmark,
                                                unroutable_instances):
    instance = unroutable_instances[min(2, len(unroutable_instances) - 1)]
    problem = instance.csp.problem

    def run():
        rows = []
        for name in ENCODINGS:
            encoded = get_encoding(name).encode(problem)
            apply_symmetry(encoded, "s1")
            result = simplify(encoded.cnf)
            start = time.perf_counter()
            plain = solve(encoded.cnf,
                          Strategy(name, "s1").solver_config())
            plain_time = time.perf_counter() - start
            start = time.perf_counter()
            preprocessed = solve_simplified(
                encoded.cnf, Strategy(name, "s1").solver_config())
            preprocessed_time = time.perf_counter() - start
            assert not plain.is_sat
            assert not preprocessed.is_sat
            rows.append([name,
                         str(result.stats["original_clauses"]),
                         str(result.stats["final_clauses"]),
                         str(result.stats["forced_units"]),
                         str(result.stats.get("subsumed", 0)),
                         f"{plain_time:.3f}",
                         f"{preprocessed_time:.3f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("ablation_preprocessing", render_simple_table(
        f"Preprocessing on {instance.name} @ W={instance.width} (UNSAT)",
        ["encoding", "clauses", "after", "units", "subsumed",
         "solve [s]", "preproc+solve [s]"], rows))
    for row in rows:
        assert int(row[2]) <= int(row[1])
