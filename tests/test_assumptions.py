"""Tests for assumption-based and incremental CDCL solving."""

import pytest

from repro.sat import CNF, solve_by_enumeration
from repro.sat.solver.cdcl import CDCLSolver
from repro.sat.solver.config import preset
from .strategies import make_random_cnf


class TestAssumptions:
    def test_sat_under_assumptions(self):
        solver = CDCLSolver(CNF([[1, 2], [-1, 2]]))
        result = solver.solve([1])
        assert result.is_sat
        assert result.model.value(1) is True
        assert result.model.value(2) is True

    def test_unsat_under_assumptions_but_sat_without(self):
        solver = CDCLSolver(CNF([[1, 2], [-1, -2]]))
        assert not solver.solve([1, 2]).is_sat
        result = solver.solve()
        assert result.is_sat

    def test_assumption_failed_flag(self):
        solver = CDCLSolver(CNF([[1]]))
        result = solver.solve([-1])
        assert not result.is_sat
        assert result.stats.get("assumption_failed") == 1
        # A plain unconditional call clears the flag.
        result = solver.solve()
        assert result.is_sat
        assert "assumption_failed" not in result.stats

    def test_redundant_assumptions(self):
        solver = CDCLSolver(CNF([[1], [1, 2]]))
        result = solver.solve([1, 1, 2])
        assert result.is_sat

    def test_out_of_range_assumption_rejected(self):
        solver = CDCLSolver(CNF([[1]]))
        with pytest.raises(ValueError):
            solver.solve([5])

    def test_conflicting_assumptions(self):
        solver = CDCLSolver(CNF([[1, 2]], num_vars=2))
        assert not solver.solve([1, -1]).is_sat

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_unit_augmented_formula(self, seed):
        """solve(assumptions) must agree with solving cnf + unit clauses."""
        import random
        rng = random.Random(seed)
        cnf = make_random_cnf(num_vars=8, num_clauses=25, seed=seed + 4000)
        assumptions = [rng.choice([1, -1]) * v
                       for v in rng.sample(range(1, 9), 3)]
        augmented = cnf.copy()
        for lit in assumptions:
            augmented.add_clause([lit])
        expected = solve_by_enumeration(augmented).is_sat
        solver = CDCLSolver(cnf)
        result = solver.solve(assumptions)
        assert result.is_sat == expected
        if expected:
            assert result.model.satisfies(augmented)


class TestIncrementalReuse:
    def test_many_calls_on_one_solver(self):
        cnf = make_random_cnf(num_vars=10, num_clauses=30, seed=77)
        solver = CDCLSolver(cnf)
        baseline = solver.solve().is_sat
        for lit in (1, -1, 5, -5):
            augmented = cnf.copy()
            augmented.add_clause([lit])
            expected = solve_by_enumeration(augmented).is_sat
            assert solver.solve([lit]).is_sat == expected
        # Unconditional answer unchanged after assumption calls.
        assert solver.solve().is_sat == baseline

    def test_learned_clauses_persist(self):
        from .test_cdcl import pigeonhole
        cnf = pigeonhole(5)
        solver = CDCLSolver(cnf)
        assert not solver.solve().is_sat
        first_conflicts = solver.stats["conflicts"]
        # Second unconditional call reuses the learned refutation and
        # needs (almost) no new conflicts.
        assert not solver.solve().is_sat
        assert solver.stats["conflicts"] - first_conflicts \
            < first_conflicts / 2 + 10

    @pytest.mark.parametrize("preset_name", ["minisat_like", "siege_like"])
    def test_refuted_formula_stays_refuted(self, preset_name):
        # A conflict at decision level 0 refutes the formula itself.  The
        # propagation queue has already moved past the falsified clause,
        # so a second call that searched again would never revisit it
        # and could answer SAT with a model that falsifies it.
        from .test_cdcl import pigeonhole
        cnf = pigeonhole(4)
        solver = CDCLSolver(cnf, preset(preset_name))
        assert not solver.solve().is_sat
        conflicts = solver.stats["conflicts"]
        second = solver.solve()
        assert not second.is_sat
        assert solver.stats["conflicts"] == conflicts
