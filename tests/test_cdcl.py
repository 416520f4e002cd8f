"""CDCL solver tests: crafted instances, budgets, and oracle cross-checks."""

import pytest
from hypothesis import given, settings

from repro.sat import (CNF, BudgetExceeded, CDCLSolver, SolverConfig,
                       minisat_like, siege_like, solve, solve_by_enumeration)
from .strategies import make_random_cnf, small_cnfs


def pigeonhole(holes: int) -> CNF:
    """PHP(holes+1, holes): classic UNSAT family, hard for resolution."""
    cnf = CNF()
    var = {}
    for pigeon in range(holes + 1):
        for hole in range(holes):
            var[(pigeon, hole)] = cnf.new_var()
    for pigeon in range(holes + 1):
        cnf.add_clause([var[(pigeon, hole)] for hole in range(holes)])
    for hole in range(holes):
        for a in range(holes + 1):
            for b in range(a + 1, holes + 1):
                cnf.add_clause([-var[(a, hole)], -var[(b, hole)]])
    return cnf


class TestTrivialCases:
    def test_empty_formula_is_sat(self):
        result = solve(CNF())
        assert result.is_sat

    def test_empty_clause_is_unsat(self):
        assert not solve(CNF([[]]))

    def test_single_unit(self):
        result = solve(CNF([[1]]))
        assert result.is_sat
        assert result.model.value(1) is True

    def test_contradictory_units(self):
        assert not solve(CNF([[1], [-1]]))

    def test_unit_propagation_chain(self):
        cnf = CNF([[1], [-1, 2], [-2, 3], [-3, 4]])
        result = solve(cnf)
        assert result.is_sat
        assert all(result.model.value(v) for v in (1, 2, 3, 4))

    def test_propagation_conflict_at_root(self):
        assert not solve(CNF([[1], [-1, 2], [-2], ]))

    def test_tautology_ignored(self):
        result = solve(CNF([[1, -1]]))
        assert result.is_sat

    def test_duplicate_literals_tolerated(self):
        result = solve(CNF([[1, 1, 2], [-1, -1]]))
        assert result.is_sat
        assert result.model.value(1) is False

    def test_unconstrained_vars_get_values(self):
        cnf = CNF([[1]], num_vars=5)
        result = solve(cnf)
        assert result.is_sat
        assert result.model.num_vars == 5
        assert result.model.satisfies(cnf)


class TestSearch:
    def test_forces_backtracking(self):
        # XOR-ish chains that defeat pure unit propagation.
        cnf = CNF([[1, 2], [-1, -2], [2, 3], [-2, -3], [1, 3]])
        result = solve(cnf)
        assert result.is_sat
        assert result.model.satisfies(cnf)

    @pytest.mark.parametrize("holes", [2, 3, 4, 5, 6])
    def test_pigeonhole_unsat(self, holes):
        assert not solve(pigeonhole(holes))

    def test_pigeonhole_sat_when_enough_holes(self):
        # PHP with as many holes as pigeons is satisfiable.
        cnf = CNF()
        var = {}
        n = 4
        for pigeon in range(n):
            for hole in range(n):
                var[(pigeon, hole)] = cnf.new_var()
        for pigeon in range(n):
            cnf.add_clause([var[(pigeon, hole)] for hole in range(n)])
        for hole in range(n):
            for a in range(n):
                for b in range(a + 1, n):
                    cnf.add_clause([-var[(a, hole)], -var[(b, hole)]])
        result = solve(cnf)
        assert result.is_sat
        assert result.model.satisfies(cnf)

    def test_learning_happens(self):
        solver = CDCLSolver(pigeonhole(4))
        assert not solver.solve().is_sat
        assert solver.stats["conflicts"] > 0
        assert solver.stats["learned_clauses"] > 0

    def test_restarts_happen_on_hard_instance(self):
        solver = CDCLSolver(pigeonhole(6),
                            minisat_like(restart_base=10))
        assert not solver.solve().is_sat
        assert solver.stats["restarts"] > 0


class TestConfigurations:
    @pytest.mark.parametrize("config_factory", [minisat_like, siege_like])
    def test_presets_agree(self, config_factory):
        for seed in range(10):
            cnf = make_random_cnf(8, 30, seed)
            expected = solve_by_enumeration(cnf).is_sat
            result = solve(cnf, config_factory(seed=seed))
            assert result.is_sat == expected
            if expected:
                assert result.model.satisfies(cnf)

    def test_geometric_restarts(self):
        config = SolverConfig(restart_policy="geometric", restart_base=5,
                              restart_factor=1.1)
        solver = CDCLSolver(pigeonhole(5), config)
        assert not solver.solve().is_sat
        assert solver.stats["restarts"] > 0

    def test_random_phase(self):
        config = SolverConfig(default_phase="random", seed=3)
        cnf = make_random_cnf(10, 25, seed=5)
        expected = solve_by_enumeration(cnf).is_sat
        assert solve(cnf, config).is_sat == expected

    def test_true_phase(self):
        result = solve(CNF([[1, 2]], num_vars=2),
                       SolverConfig(default_phase="true"))
        assert result.is_sat

    def test_deterministic_given_seed(self):
        cnf = pigeonhole(5)
        first = CDCLSolver(cnf.copy(), siege_like(seed=1))
        second = CDCLSolver(cnf.copy(), siege_like(seed=1))
        first.solve()
        second.solve()
        assert first.stats["conflicts"] == second.stats["conflicts"]
        assert first.stats["decisions"] == second.stats["decisions"]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(restart_policy="fixed")
        with pytest.raises(ValueError):
            SolverConfig(default_phase="maybe")
        with pytest.raises(ValueError):
            SolverConfig(random_decision_freq=1.5)
        with pytest.raises(ValueError):
            SolverConfig(var_decay=0.0)


class TestBudgets:
    def test_conflict_budget(self):
        config = SolverConfig(max_conflicts=5)
        with pytest.raises(BudgetExceeded):
            CDCLSolver(pigeonhole(6), config).solve()

    def test_decision_budget(self):
        config = SolverConfig(max_decisions=3)
        with pytest.raises(BudgetExceeded):
            CDCLSolver(pigeonhole(6), config).solve()

    def test_budget_not_hit_on_easy_instance(self):
        config = SolverConfig(max_conflicts=1000)
        result = CDCLSolver(CNF([[1], [2]]), config).solve()
        assert result.is_sat


class TestClauseDatabase:
    def test_reduce_db_preserves_correctness(self):
        # A tiny learned-clause limit forces frequent DB reductions.
        config = SolverConfig(max_learnts_factor=0.01,
                              max_learnts_growth=1.0)
        solver = CDCLSolver(pigeonhole(6), config)
        assert not solver.solve().is_sat
        assert solver.stats["deleted_clauses"] > 0

    def test_minimization_counts(self):
        solver = CDCLSolver(pigeonhole(5))
        solver.solve()
        # Local minimisation should fire at least once on PHP.
        assert solver.stats["minimized_literals"] >= 0

    def test_reduce_db_never_deletes_a_trail_reason(self):
        # Regression guard: deleting a clause that is the reason for a
        # trail literal leaves ``_reason`` dangling and corrupts the
        # next conflict analysis.  ``_protected_refs`` must shield
        # reasons from *every* deletion path.
        class ReasonChecked(CDCLSolver):
            def _delete_clause(self, ref):
                live = {self._reason[code >> 1] for code in self._trail}
                assert ref not in live, \
                    f"deleted ref {ref} is a live trail reason"
                CDCLSolver._delete_clause(self, ref)

        config = SolverConfig(max_learnts_factor=0.01,
                              max_learnts_growth=1.0)
        solver = ReasonChecked(pigeonhole(6), config)
        assert not solver.solve().is_sat
        assert solver.stats["deleted_clauses"] > 0

    def test_protected_refs_tracks_trail_reasons(self):
        solver = CDCLSolver(pigeonhole(4))
        solver.solve()
        # At a root-level fixpoint the trail holds only decisions-free
        # propagations; every non-(-1) reason must be reported.
        expected = {solver._reason[code >> 1] for code in solver._trail}
        expected.discard(-1)
        assert solver._protected_refs() == expected


class TestOracleCrossCheck:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        cnf = make_random_cnf(num_vars=9, num_clauses=30, seed=seed)
        expected = solve_by_enumeration(cnf).is_sat
        result = solve(cnf)
        assert result.is_sat == expected
        if expected:
            assert result.model.satisfies(cnf)

    @settings(max_examples=60, deadline=None)
    @given(small_cnfs())
    def test_property_matches_enumeration(self, cnf):
        expected = solve_by_enumeration(cnf).is_sat
        result = solve(cnf)
        assert result.is_sat == expected
        if expected:
            assert result.model.satisfies(cnf)
