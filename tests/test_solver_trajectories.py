"""Trajectory regression suite: the arena rewrite must not move the search.

``tests/fixtures/solver_trajectories.json`` pins the
``(answer, decisions, conflicts)`` triple of the *pre-arena* seed solver
on seeded random CNFs, pigeonhole formulas and two FPGA routing
instances, under both solver presets.  The flat clause-arena engine must
reproduce every pinned triple exactly: the arena is a
storage/propagation-speed change only, and any drift in decision or
conflict counts means the search trajectory silently changed.  It must
also hit its pins with proof logging on: recording a learned clause and
its hint (the clauses its conflict analysis used) must not move the
search.
"""

import json
from pathlib import Path

import pytest

from repro.bench.throughput import pigeonhole, random_3sat
from repro.sat import CNF, CDCLSolver
from repro.sat.solver.config import preset

FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "solver_trajectories.json")
    .read_text(encoding="utf-8"))

PRESETS = ("minisat_like", "siege_like")
ENGINES = {"arena": CDCLSolver}
#: Proof-logging settings each engine is pinned under.
PROOF_LOGS = {"arena": (False, True)}

# name -> CNF builder, mirroring exactly how the fixtures were generated.
RANDOM_SPECS = {
    f"3sat-{nv}v-{nc}c-s{seed}": (nv, nc, seed)
    for nv, nc, seed in [(40, 160, 0), (40, 170, 1), (60, 250, 2),
                         (60, 258, 3), (80, 335, 4), (80, 344, 5)]
}


def _triple(cnf: CNF, engine: str, preset_name: str,
            proof_log: bool = False):
    solver = ENGINES[engine](cnf.copy(),
                             preset(preset_name, proof_log=proof_log))
    result = solver.solve()
    return [bool(result.is_sat), int(solver.stats["decisions"]),
            int(solver.stats["conflicts"])]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", RANDOM_SPECS)
def test_random_cnf_trajectories(name, engine):
    nv, nc, seed = RANDOM_SPECS[name]
    cnf = random_3sat(nv, nc, seed)
    for preset_name in PRESETS:
        for proof_log in PROOF_LOGS[engine]:
            assert _triple(cnf, engine, preset_name, proof_log) \
                == FIXTURES["random"][name][preset_name], \
                f"{engine}/{preset_name} (proof_log={proof_log}) " \
                f"diverged from the seed solver on {name}"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("holes", [5, 6])
def test_pigeonhole_trajectories(holes, engine):
    cnf = pigeonhole(holes)
    for preset_name in PRESETS:
        for proof_log in PROOF_LOGS[engine]:
            assert _triple(cnf, engine, preset_name, proof_log) \
                == FIXTURES["pigeonhole"][f"php-{holes}"][preset_name]


@pytest.fixture(scope="module")
def routing_cnfs():
    """The two pinned routing instances (SAT at W=8, UNSAT at W=7)."""
    from repro.core import get_encoding
    from repro.core.symmetry import apply_symmetry
    from repro.fpga import build_routing_csp, load_routing

    routing = load_routing("alu2", scale=0.7)
    cnfs = {}
    for width in (8, 7):
        problem = build_routing_csp(routing, width).problem
        encoded = get_encoding("ITE-linear-2+muldirect").encode(problem)
        apply_symmetry(encoded, "s1")
        cnfs[f"alu2-w{width}"] = encoded.cnf
    return cnfs


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", ["alu2-w8", "alu2-w7"])
def test_routing_trajectories(routing_cnfs, name, engine):
    for preset_name in PRESETS:
        for proof_log in PROOF_LOGS[engine]:
            assert _triple(routing_cnfs[name], engine, preset_name,
                           proof_log) \
                == FIXTURES["routing"][name][preset_name]


@pytest.fixture(scope="module")
def modern_routing_cnfs():
    """The same two routing instances under the new-family strategies:
    the partial-order POP and the commander-AMO direct encoding, both
    with s1 symmetry breaking (one aux-var family, one threshold
    family — pinning their trajectories guards the new structural
    clauses against silent drift)."""
    from repro.core import get_encoding
    from repro.core.symmetry import apply_symmetry
    from repro.fpga import build_routing_csp, load_routing

    routing = load_routing("alu2", scale=0.7)
    cnfs = {}
    for encoding in ("pop", "cmddirect"):
        for width in (8, 7):
            problem = build_routing_csp(routing, width).problem
            encoded = get_encoding(encoding).encode(problem)
            apply_symmetry(encoded, "s1")
            cnfs[f"alu2-w{width}-{encoding}"] = encoded.cnf
    return cnfs


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", ["alu2-w8-pop", "alu2-w7-pop",
                                  "alu2-w8-cmddirect", "alu2-w7-cmddirect"])
def test_modern_encoding_trajectories(modern_routing_cnfs, name, engine):
    for preset_name in PRESETS:
        for proof_log in PROOF_LOGS[engine]:
            assert _triple(modern_routing_cnfs[name], engine, preset_name,
                           proof_log) \
                == FIXTURES["modern"][name][preset_name], \
                f"{engine}/{preset_name} (proof_log={proof_log}) " \
                f"drifted on {name}"


#: Counters of ``random_3sat(60, 250, 2)`` per preset, taken when the
#: arena engine and the pre-arena engine it replaced both still ran and
#: agreed on every one of them.
PRE_ARENA_COUNTS = {
    "minisat_like": {"decisions": 191, "conflicts": 158,
                     "propagations": 2495, "learned_clauses": 157,
                     "restarts": 1},
    "siege_like": {"decisions": 242, "conflicts": 204,
                   "propagations": 3476, "learned_clauses": 203,
                   "restarts": 1},
}


@pytest.mark.parametrize("preset_name", PRESETS)
def test_engines_agree_on_propagation_counts(preset_name):
    """Beyond the pinned triples: propagation counts match too."""
    solver = CDCLSolver(random_3sat(60, 250, 2), preset(preset_name))
    solver.solve()
    assert {key: int(solver.stats[key])
            for key in PRE_ARENA_COUNTS[preset_name]} \
        == PRE_ARENA_COUNTS[preset_name]
