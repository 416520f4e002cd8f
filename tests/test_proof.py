"""Tests for DRUP-style proof logging and the independent RUP checker."""

import dataclasses
from array import array

import pytest

from repro.sat import (CNF, ProofError, SolverConfig, SolveStatus,
                       check_rup_proof, preset, solve_by_enumeration,
                       solve_with_proof, verify_rup_proof)
from repro.sat.solver.cdcl import CDCLSolver
from .strategies import make_random_cnf
from .test_cdcl import pigeonhole


class TestProofLogging:
    def test_disabled_by_default(self):
        solver = CDCLSolver(pigeonhole(4))
        solver.solve()
        assert solver.proof == []

    def test_unsat_proof_ends_with_empty_clause(self):
        result, proof = solve_with_proof(pigeonhole(4))
        assert not result.is_sat
        assert proof[-1] == ()
        assert len(proof) >= 2

    def test_sat_run_logs_no_empty_clause(self):
        result, proof = solve_with_proof(CNF([[1, 2], [-1, 2]]))
        assert result.is_sat
        assert () not in proof

    def test_root_level_unsat_has_trivial_proof(self):
        result, proof = solve_with_proof(CNF([[1], [-1]]))
        assert not result.is_sat
        assert proof == [()]

    def test_respects_existing_config(self):
        from repro.sat import siege_like
        result, proof = solve_with_proof(pigeonhole(4), siege_like())
        assert not result.is_sat
        assert proof[-1] == ()

    def test_refuted_solver_writes_the_empty_clause_once(self):
        cnf = pigeonhole(4)
        solver = CDCLSolver(cnf, preset("minisat_like", proof_log=True))
        lengths = []
        for _ in range(3):
            assert solver.solve().status is SolveStatus.UNSAT
            lengths.append(len(solver.proof))
        assert lengths[0] == lengths[1] == lengths[2]
        assert solver.proof.count(()) == 1 and solver.proof[-1] == ()
        assert len(solver.hint_starts) == len(solver.proof)
        assert verify_rup_proof(cnf, solver.proof).ok

    def test_failed_assumptions_write_no_empty_clause(self):
        sat = [[1, 2], [-1, 2], [1, -2], [3, 4]]
        solver = CDCLSolver(CNF(sat), preset("minisat_like", proof_log=True))
        assert solver.solve(assumptions=[-3, -4]).status is SolveStatus.UNSAT
        assert () not in solver.proof
        # The same call on a refutable formula, then a real refutation:
        # its proof must still replay.
        cnf = CNF(sat + [[-1, -2]])
        solver = CDCLSolver(cnf, preset("minisat_like", proof_log=True))
        assert solver.solve(assumptions=[-3, -4]).status is SolveStatus.UNSAT
        assert solver.solve().status is SolveStatus.UNSAT
        assert solver.proof.count(()) == 1 and solver.proof[-1] == ()
        assert verify_rup_proof(cnf, solver.proof).ok


class TestProofChecking:
    @pytest.mark.parametrize("holes", [3, 4, 5])
    def test_pigeonhole_proofs_verify(self, holes):
        cnf = pigeonhole(holes)
        result, proof = solve_with_proof(cnf)
        assert not result.is_sat
        assert check_rup_proof(cnf, proof) == len(proof)

    def test_both_solver_presets_produce_checkable_proofs(self):
        from repro.sat import minisat_like, siege_like
        cnf = pigeonhole(5)
        for preset in (minisat_like(), siege_like()):
            result, proof = solve_with_proof(cnf, preset)
            assert not result.is_sat
            check_rup_proof(cnf, proof)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_unsat_proofs_verify(self, seed):
        cnf = make_random_cnf(num_vars=8, num_clauses=35, seed=seed + 7000)
        if solve_by_enumeration(cnf).is_sat:
            pytest.skip("instance is satisfiable")
        result, proof = solve_with_proof(cnf)
        assert not result.is_sat
        check_rup_proof(cnf, proof)

    def test_clause_db_reduction_does_not_break_proofs(self):
        config = SolverConfig(proof_log=True, max_learnts_factor=0.01,
                              max_learnts_growth=1.0)
        cnf = pigeonhole(5)
        solver = CDCLSolver(cnf, config)
        assert not solver.solve().is_sat
        assert solver.stats["deleted_clauses"] > 0
        check_rup_proof(cnf, solver.proof)


class TestProofRejection:
    def _unsat_cnf(self):
        return CNF([[1, 2], [-1, 2], [-2, 1], [-1, -2]])

    def test_non_rup_step_rejected(self):
        with pytest.raises(ProofError, match="not RUP"):
            check_rup_proof(self._unsat_cnf(), [()])

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ProofError, match="outside"):
            check_rup_proof(self._unsat_cnf(), [(5,), ()])

    def test_zero_literal_rejected(self):
        with pytest.raises(ProofError, match="outside"):
            check_rup_proof(self._unsat_cnf(), [(0,)])

    def test_missing_empty_clause_rejected(self):
        cnf = CNF([[1, 2], [-1, 2]])  # satisfiable: nothing derives ()
        with pytest.raises(ProofError, match="empty clause"):
            check_rup_proof(cnf, [(2,)])

    def test_missing_empty_clause_allowed_when_optional(self):
        cnf = CNF([[1, 2], [-1, 2]])
        assert check_rup_proof(cnf, [(2,)], require_empty_clause=False) == 1

    def test_valid_manual_proof(self):
        # (2) is RUP; adding it propagates to a root contradiction.
        assert check_rup_proof(self._unsat_cnf(), [(2,), ()]) == 2

    def test_unit_that_collapses_formula_is_complete_proof(self):
        # Adding (1) and propagating reaches the root conflict, so the
        # empty clause is derived implicitly.
        assert check_rup_proof(self._unsat_cnf(), [(1,)]) == 1

    def test_tautology_step_is_harmless(self):
        assert check_rup_proof(self._unsat_cnf(),
                               [(1, -1), (2,), ()]) == 3


class TestEndToEndRoutingCertificate:
    def test_unroutability_certificate(self):
        """The paper's headline capability with a checkable artifact: an
        UNSAT answer for a routing instance verifies independently."""
        from repro.core import get_encoding
        from repro.core.symmetry import apply_symmetry
        from repro.fpga import build_routing_csp, load_routing
        from repro.fpga.flow import minimum_channel_width
        from repro.core import Strategy

        routing = load_routing("alu2", scale=0.6)
        width = minimum_channel_width(
            routing, Strategy("ITE-linear-2+muldirect", "s1"))
        csp = build_routing_csp(routing, width - 1)
        encoded = get_encoding("ITE-log").encode(csp.problem)
        apply_symmetry(encoded, "s1")
        result, proof = solve_with_proof(encoded.cnf)
        assert not result.is_sat
        assert check_rup_proof(encoded.cnf, proof) == len(proof)


def _solve_hinted(cnf, config=None):
    """Solve with proof logging; returns (result, proof, hints) with the
    hints copied out of the solver."""
    config = dataclasses.replace(config or SolverConfig(), proof_log=True)
    solver = CDCLSolver(cnf, config)
    result = solver.solve()
    return (result, list(solver.proof),
            (array("l", solver.hint_ids), array("l", solver.hint_starts)))


class TestHintedReplay:
    """LRAT-style hints: each learned clause names the clauses its
    conflict analysis used; the checker propagates over those alone and
    falls back to full RUP when a hint reaches no conflict (a miss)."""

    _UNSAT = CNF([[1, 2], [-1, 2], [-2, 1], [-1, -2]])

    @pytest.mark.parametrize("preset_name", ["minisat_like", "siege_like"])
    def test_every_learned_clause_is_hinted(self, preset_name):
        cnf = pigeonhole(5)
        result, proof, hints = _solve_hinted(cnf, preset(preset_name))
        assert not result.is_sat
        outcome = verify_rup_proof(cnf, proof, hints=hints)
        assert outcome.ok, outcome.error
        # Everything but the final empty clause carries a hint.
        assert (outcome.hinted, outcome.hint_misses) == (len(proof) - 1, 0)
        assert len(hints[1]) == len(proof)

    def test_no_hints_means_full_rup(self):
        cnf = pigeonhole(4)
        result, proof, _ = _solve_hinted(cnf)
        outcome = verify_rup_proof(cnf, proof)
        assert outcome.ok and outcome.steps == len(proof)
        assert (outcome.hinted, outcome.hint_misses) == (0, 0)

    def test_manual_hint_in_propagation_order(self):
        # Step 0, clause (2): ¬2 makes clause 0 unit on 1, and clause 1
        # is then falsified.  Clause IDs 0..3; the step itself is ID 4.
        outcome = verify_rup_proof(self._UNSAT, [(2,), ()],
                                   hints=([0, 1], [0, -1]))
        assert outcome.ok
        assert (outcome.hinted, outcome.hint_misses) == (1, 0)

    def test_ordering_slip_costs_a_pass_not_a_miss(self):
        outcome = verify_rup_proof(self._UNSAT, [(2,), ()],
                                   hints=([1, 0], [0, -1]))
        assert outcome.ok
        assert (outcome.hinted, outcome.hint_misses) == (1, 0)

    def test_empty_hint_is_a_miss(self):
        outcome = verify_rup_proof(self._UNSAT, [(2,), ()],
                                   hints=([], [0, -1]))
        assert outcome.ok
        assert (outcome.hinted, outcome.hint_misses) == (0, 1)

    def test_hint_without_conflict_is_a_miss(self):
        # Clause 0 alone propagates 1 under ¬2 but reaches no conflict.
        outcome = verify_rup_proof(self._UNSAT, [(2,), ()],
                                   hints=([0], [0, -1]))
        assert outcome.ok
        assert (outcome.hinted, outcome.hint_misses) == (0, 1)

    @pytest.mark.parametrize("kind", ["out-of-range", "negative", "self",
                                      "later"])
    def test_untrusted_hint_id_is_a_miss(self, kind):
        cnf = pigeonhole(5)
        _, proof, hints = _solve_hinted(cnf)
        baseline = verify_rup_proof(cnf, proof, hints=hints)
        step = len(proof) // 2
        start = hints[1][step]
        assert start >= 0
        own_id = cnf.num_clauses + step
        ids = array("l", hints[0])
        ids[start] = {"out-of-range": 10 ** 9, "negative": -3,
                      "self": own_id, "later": own_id + 1}[kind]
        outcome = verify_rup_proof(cnf, proof, hints=(ids, hints[1]))
        assert outcome.ok, outcome.error
        assert outcome.hint_misses == baseline.hint_misses + 1
        assert outcome.hinted == baseline.hinted - 1

    def test_bad_lemma_keeping_its_hint_is_rejected(self):
        cnf = pigeonhole(5)
        _, proof, hints = _solve_hinted(cnf)
        step = next(j for j in range(len(proof)) if hints[1][j] >= 0)
        bad = (1,)
        # Precondition: (1) is not RUP where the lemma stood.
        assert not verify_rup_proof(cnf, proof[:step] + [bad],
                                    require_empty_clause=False).ok
        forged = proof[:step] + [bad] + proof[step + 1:]
        with pytest.raises(ProofError, match=f"step {step} is not RUP"):
            check_rup_proof(cnf, forged, hints=hints)

    def test_truncated_proof_with_hints_is_rejected(self):
        cnf = pigeonhole(5)
        _, proof, hints = _solve_hinted(cnf)
        with pytest.raises(ProofError, match="empty clause"):
            check_rup_proof(cnf, proof[:len(proof) // 2], hints=hints)

    def test_truncated_proof_fault_cuts_hints_too(self):
        from repro.reliability import FaultPlan
        cnf = pigeonhole(5)
        config = SolverConfig(
            fault_plan=FaultPlan.parse("seed=3; truncated_proof"))
        result, proof, hints = _solve_hinted(cnf, config)
        assert not result.is_sat
        assert len(hints[1]) == len(proof)
        assert max(hints[1]) < len(hints[0])
        outcome = verify_rup_proof(cnf, proof, hints=hints)
        assert not outcome.ok and "empty clause" in outcome.error

    def test_steps_count_verified_steps_on_failure(self):
        # Step 0, (2), is RUP; step 1, (3), is not: one step verified.
        cnf = CNF([[1, 2], [-1, 2], [1, -2], [3, 4]])
        proof = [(2,), (3,), (1,), (4,), ()]
        outcome = verify_rup_proof(cnf, proof)
        assert not outcome.ok
        assert "step 1 is not RUP" in outcome.error
        assert outcome.steps == 1

    def test_checker_imports_nothing_from_the_solver(self):
        import ast
        import inspect
        from repro.sat import proof as proof_module
        tree = ast.parse(inspect.getsource(proof_module))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("solver"), \
                    node.module


@pytest.fixture(scope="module")
def alu2_below_minimum():
    """alu2's routing problem one track below its minimum width."""
    from repro.core import Strategy
    from repro.fpga import build_routing_csp, load_routing
    from repro.fpga.flow import minimum_channel_width

    routing = load_routing("alu2")
    width = minimum_channel_width(
        routing, Strategy("ITE-linear-2+muldirect", "s1"))
    return build_routing_csp(routing, width - 1).problem


@pytest.mark.parametrize("encoding", ["pop", "ITE-log",
                                      "ITE-linear-2+muldirect"])
def test_routing_refutations_are_fully_hinted(alu2_below_minimum, encoding):
    """Real routing refutations, audited: every step but the final
    empty clause is checked by its hint alone."""
    import re
    from repro.core import Strategy, solve_coloring
    from repro.reliability import AuditVerdict, audit_outcome

    outcome = solve_coloring(alu2_below_minimum, Strategy(encoding, "s1"),
                             proof_log=True, faults=False)
    assert not outcome.is_sat
    report = audit_outcome(alu2_below_minimum, outcome)
    assert report.verdict is AuditVerdict.PASS, report.summary()
    replay, = [check for check in report.checks
               if check.name == "proof-replay"]
    steps, hinted, misses = map(int, re.fullmatch(
        r"(\d+) steps verified \((\d+) hinted, (\d+) hint misses\)",
        replay.detail).groups())
    assert steps == len(outcome.proof) > 1
    assert (hinted, misses) == (steps - 1, 0)


def test_forged_lemma_keeping_its_hint_fails_the_audit(alu2_below_minimum):
    from repro.core import Strategy, get_encoding, solve_coloring
    from repro.core.symmetry import apply_symmetry
    from repro.reliability import audit_outcome

    strategy = Strategy("ITE-log", "s1")
    outcome = solve_coloring(alu2_below_minimum, strategy, proof_log=True,
                             faults=False)
    step = len(outcome.proof) // 2
    assert outcome.proof_hints[1][step] >= 0
    bad = (1,)
    encoded = get_encoding(strategy.encoding).encode(alu2_below_minimum)
    apply_symmetry(encoded, strategy.symmetry)
    # Precondition: (1) is not RUP where the lemma stood.
    assert not verify_rup_proof(encoded.cnf, outcome.proof[:step] + [bad],
                                require_empty_clause=False).ok
    forged = dataclasses.replace(
        outcome, proof=outcome.proof[:step] + [bad] + outcome.proof[step + 1:])
    report = audit_outcome(alu2_below_minimum, forged)
    assert report.failed
    replay, = report.failures
    assert replay.name == "proof-replay"
    assert f"step {step} is not RUP" in replay.detail
