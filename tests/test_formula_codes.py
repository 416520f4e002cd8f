"""Formulas stored as flat literal codes take one path to one answer.

A :class:`~repro.sat.cnf.CNF` built by the encoder, the same formula
parsed back from its DIMACS text, and that text with one literal
duplicated (which sends the formula load through the normalising branch
of ``CNF.code_clauses``) must give the engine the same search: equal
counters, an equal proof and equal hints.  The DIMACS text itself is
pinned by hash, and the input faults must edit the stored codes so that
the clause view shows the edit.
"""

import hashlib

import pytest

from repro.core.encodings.registry import get_encoding
from repro.core.symmetry.clauses import apply_symmetry
from repro.fpga import detailed, mcnc
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.sat import CNF, SolveStatus, parse_dimacs_string
from repro.sat.solver.cdcl import CDCLSolver
from repro.sat.solver.config import SolverConfig

#: alu2's minimum channel width is 7, so width 6 is the refutation the
#: ``unroutable`` benchmark times.  The sha256 prefix of each strategy's
#: DIMACS text is pinned: the encoder's output must not move.
WIDTH = 6
DIMACS_SHA256 = {
    "pop": "b04d49706ffe8a7c",
    "ITE-log": "2072805c68a97693",
    "ITE-linear-2+muldirect": "fc9b7fd1b7b1f249",
}

#: The CDCL engine under test, by test ID.
ENGINES = {"arena": CDCLSolver}


@pytest.fixture(scope="module")
def problem():
    return detailed.build_routing_csp(mcnc.load_routing("alu2"),
                                      WIDTH).problem


def _encode(problem, encoding: str) -> CNF:
    encoded = get_encoding(encoding).encode(problem)
    apply_symmetry(encoded, "s1")
    return encoded.cnf


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _with_duplicate(text: str) -> str:
    """The DIMACS text with the first literal of its first multi-literal
    clause written twice."""
    lines = text.splitlines(keepends=True)
    for index, line in enumerate(lines):
        lits = line.split()
        if line[0] not in "cp" and len(lits) > 2:
            lines[index] = f"{lits[0]} {line}"
            return "".join(lines)
    raise AssertionError("no multi-literal clause")


def _trajectory(cnf: CNF, engine: str):
    solver = ENGINES[engine](cnf, SolverConfig(proof_log=True))
    result = solver.solve()
    stats = result.stats
    return (result.status, stats["conflicts"], stats["decisions"],
            stats["propagations"], solver.proof, list(solver.hint_ids),
            list(solver.hint_starts))


@pytest.mark.parametrize("encoding", sorted(DIMACS_SHA256))
class TestOnePath:
    def test_dimacs_text_is_pinned(self, problem, encoding):
        text = _encode(problem, encoding).to_dimacs()
        assert _sha(text) == DIMACS_SHA256[encoding]
        assert parse_dimacs_string(text).to_dimacs() == text
        duplicated = _with_duplicate(text)
        assert parse_dimacs_string(duplicated).to_dimacs() == duplicated

    @pytest.mark.parametrize("engine", ENGINES)
    def test_same_trajectory_for_every_input_kind(self, problem, encoding,
                                                  engine):
        built = _encode(problem, encoding)
        text = built.to_dimacs()
        parsed = parse_dimacs_string(text)
        duplicated = parse_dimacs_string(_with_duplicate(text))
        assert list(duplicated.code_clauses()) == list(built.code_clauses())
        expected = _trajectory(built, engine)
        assert expected[0] is SolveStatus.UNSAT
        assert _trajectory(parsed, engine) == expected
        assert _trajectory(duplicated, engine) == expected


class TestFaultEdits:
    """The encode-site faults edit the stored codes, and the clause view
    shows the edit.  Their picks for this plan are pinned: the same
    plan must keep hitting the same clause and literal."""

    def _inject(self, cnf: CNF, spec: str) -> str:
        plan = FaultPlan.parse(f"seed=1; {spec}")
        return FaultInjector(plan, label="pop/s1",
                             sites=("encode",)).corrupt_cnf(cnf)

    def test_corrupt_input_flips_the_stored_literal(self, problem):
        cnf = _encode(problem, "pop")
        before = list(cnf.clauses)
        assert self._inject(cnf, "corrupt_input") == \
            "corrupt_input: flipped literal 2 of clause 744"
        after = cnf.clauses
        assert after[744] == before[744][:2] + (-before[744][2],) \
            + before[744][3:]
        assert after[:744] == before[:744] and after[745:] == before[745:]
        assert cnf.num_clauses == len(before)

    def test_drop_clause_removes_the_stored_clause(self, problem):
        cnf = _encode(problem, "pop")
        before = list(cnf.clauses)
        assert self._inject(cnf, "drop_clause") == \
            "drop_clause: removed clause 744 (-37, 38, -182, 183)"
        assert cnf.num_clauses == len(before) - 1
        assert cnf.clauses == before[:744] + before[745:]
        assert list(cnf.code_clauses()) == list(
            CNF(cnf.clauses).code_clauses())
