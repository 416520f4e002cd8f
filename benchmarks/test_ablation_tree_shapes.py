"""Ablation — arbitrary ITE tree shapes (paper §3).

"In general, the ITE tree for a CSP variable can have any structure ...
The different structure will result in different probabilities of
selecting a particular domain value."  We compare the two named shapes
(chain and balanced) against randomly generated tree shapes on one
unroutable instance, confirming that (a) every shape is correct, and
(b) shape alone moves solve time.
"""

from __future__ import annotations

import random
import time

from repro.bench import render_simple_table
from repro.core import solve_coloring, Strategy
from repro.core.encodings import (CustomITEScheme, EncodedProblem, ITENode,
                                  Level, build_vertex_encoding)
from repro.core.symmetry import apply_symmetry
from repro.sat import solve
from .conftest import publish


def random_tree(n: int, rng: random.Random):
    """A random-split binary tree over ``n`` leaves with one shared
    indexing variable per depth (so the §3 once-per-path restriction
    holds by construction)."""

    def build(lo: int, hi: int, depth: int):
        if hi - lo == 1:
            return lo
        mid = lo + rng.randint(1, hi - lo - 1)
        return ITENode(depth + 1,
                       build(lo, mid, depth + 1),
                       build(mid, hi, depth + 1))

    return build(0, n, 0)


def test_random_tree_shapes(benchmark, unroutable_instances):
    instance = unroutable_instances[0]
    problem = instance.csp.problem

    def run():
        rows = []
        shapes = [("ITE-linear (chain)", "ITE-linear"),
                  ("ITE-log (balanced)", "ITE-log")]
        for label, name in shapes:
            outcome = solve_coloring(problem, Strategy(name, "s1"))
            assert not outcome.is_sat
            rows.append([label, str(outcome.num_vars),
                         f"{outcome.solve_time:.3f}"])
        for seed in range(4):
            rng = random.Random(seed)
            scheme = CustomITEScheme(
                lambda n, rng=rng: random_tree(n, rng),
                name=f"ITE-random-{seed}")
            vertex = build_vertex_encoding(problem.num_colors,
                                           [Level(scheme)])
            encoded = EncodedProblem(problem, vertex, scheme.name)
            apply_symmetry(encoded, "s1")
            start = time.perf_counter()
            result = solve(encoded.cnf)
            elapsed = time.perf_counter() - start
            assert not result.is_sat
            rows.append([scheme.name, str(encoded.cnf.num_vars),
                         f"{elapsed:.3f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("ablation_tree_shapes", render_simple_table(
        f"ITE tree shapes on {instance.name} @ W={instance.width} "
        f"(UNSAT, s1)",
        ["tree shape", "CNF vars", "solve [s]"], rows))
    times = [float(row[2]) for row in rows]
    assert max(times) > 0  # and all correct, asserted above
