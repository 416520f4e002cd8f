"""Trajectory regression suite: the arena rewrite must not move the search.

``tests/fixtures/solver_trajectories.json`` pins the
``(answer, decisions, conflicts)`` triple of the *pre-arena* seed solver
on seeded random CNFs, pigeonhole formulas and two FPGA routing
instances, under both solver presets.  Both current engines — the flat
clause-arena engine and the retained legacy engine — must reproduce
every pinned triple exactly: the arena is a storage/propagation-speed
change only, and any drift in decision or conflict counts means the
search trajectory silently changed.  The arena and packed engines must
also hit their pins with proof logging on: recording a learned clause
and its hint (the clauses its conflict analysis used) must not move the
search.
"""

import json
from pathlib import Path

import pytest

from repro.bench.throughput import pigeonhole, random_3sat
from repro.sat import CNF, CDCLSolver, LegacyCDCLSolver, PackedCDCLSolver
from repro.sat.solver.config import preset

FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "solver_trajectories.json")
    .read_text(encoding="utf-8"))

PRESETS = ("minisat_like", "siege_like")
ENGINES = {"arena": CDCLSolver, "legacy": LegacyCDCLSolver}
#: Proof-logging settings each engine is pinned under (the legacy engine
#: logs no hints, so only its default run is pinned).
PROOF_LOGS = {"arena": (False, True), "legacy": (False,)}

# name -> CNF builder, mirroring exactly how the fixtures were generated.
RANDOM_SPECS = {
    f"3sat-{nv}v-{nc}c-s{seed}": (nv, nc, seed)
    for nv, nc, seed in [(40, 160, 0), (40, 170, 1), (60, 250, 2),
                         (60, 258, 3), (80, 335, 4), (80, 344, 5)]
}


def _triple(cnf: CNF, engine: str, preset_name: str,
            proof_log: bool = False):
    solver_class = {**ENGINES, "packed": PackedCDCLSolver}[engine]
    solver = solver_class(cnf.copy(),
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


class TestPackedTrajectories:
    """The packed engine keeps MiniSat-style *stale* inline blockers,
    so its search trajectory legitimately differs from arena/legacy —
    it gets its own pinned fixtures instead of sharing theirs.  What
    must hold unconditionally: determinism (same seed, same run) and
    answer agreement with the arena engine."""

    @pytest.mark.parametrize("name", RANDOM_SPECS)
    def test_random_cnf_trajectories(self, name):
        nv, nc, seed = RANDOM_SPECS[name]
        cnf = random_3sat(nv, nc, seed)
        for preset_name in PRESETS:
            for proof_log in (False, True):
                assert _triple(cnf, "packed", preset_name, proof_log) \
                    == FIXTURES["packed"]["random"][name][preset_name]

    @pytest.mark.parametrize("holes", [5, 6])
    def test_pigeonhole_trajectories(self, holes):
        cnf = pigeonhole(holes)
        for preset_name in PRESETS:
            for proof_log in (False, True):
                assert _triple(cnf, "packed", preset_name, proof_log) \
                    == FIXTURES["packed"]["pigeonhole"][f"php-{holes}"][
                        preset_name]

    def test_packed_is_deterministic(self):
        cnf = random_3sat(60, 250, 2)
        runs = []
        for _ in range(2):
            solver = PackedCDCLSolver(cnf.copy(), preset("minisat_like"))
            solver.solve()
            runs.append({key: solver.stats[key]
                         for key in ("decisions", "conflicts",
                                     "propagations", "watch_inspections",
                                     "learned_clauses", "restarts")})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", RANDOM_SPECS)
    def test_packed_agrees_with_arena(self, name):
        nv, nc, seed = RANDOM_SPECS[name]
        cnf = random_3sat(nv, nc, seed)
        arena = CDCLSolver(cnf.copy(), preset("minisat_like")).solve()
        packed_solver = PackedCDCLSolver(cnf.copy(), preset("minisat_like"))
        packed = packed_solver.solve()
        assert packed.is_sat == arena.is_sat
        if packed.is_sat:
            assert packed.model.satisfies(cnf)


@pytest.mark.parametrize("preset_name", PRESETS)
def test_engines_agree_on_propagation_counts(preset_name):
    """Beyond the pinned triples: propagation counts match too."""
    cnf = random_3sat(60, 250, 2)
    stats = {}
    for engine, cls in ENGINES.items():
        solver = cls(cnf.copy(), preset(preset_name))
        solver.solve()
        stats[engine] = solver.stats
    for key in ("decisions", "conflicts", "propagations",
                "learned_clauses", "restarts"):
        assert stats["arena"][key] == stats["legacy"][key]
