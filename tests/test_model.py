"""Unit tests for models and solve results."""

import pytest

from repro.sat import CNF, Model, SolveResult, SolveStatus


class TestModel:
    def test_value_lookup(self):
        model = Model([True, False, True])
        assert model.num_vars == 3
        assert model.value(1) is True
        assert model.value(2) is False
        assert model[3] is True

    def test_out_of_range(self):
        model = Model([True])
        with pytest.raises(ValueError):
            model.value(0)
        with pytest.raises(ValueError):
            model.value(2)

    def test_from_true_vars(self):
        model = Model.from_true_vars([2], num_vars=3)
        assert model.true_vars() == [2]
        assert model.as_dict() == {1: False, 2: True, 3: False}

    def test_from_true_vars_out_of_range(self):
        with pytest.raises(ValueError):
            Model.from_true_vars([4], num_vars=3)

    def test_satisfies_literal(self):
        model = Model([True, False])
        assert model.satisfies_literal(1)
        assert not model.satisfies_literal(-1)
        assert model.satisfies_literal(-2)

    def test_satisfies_clause(self):
        model = Model([True, False])
        assert model.satisfies_clause([-1, -2])
        assert not model.satisfies_clause([-1, 2])
        assert not model.satisfies_clause([])

    def test_satisfies_cnf(self):
        model = Model([True, False])
        assert model.satisfies(CNF([[1], [-2], [1, 2]]))
        assert not model.satisfies(CNF([[2]]))

    def test_model_shorter_than_formula_does_not_satisfy(self):
        assert not Model([True]).satisfies(CNF([[2]]))
        assert not Model([True]).satisfies(CNF([[1]], num_vars=2))

    def test_falsified_clause(self):
        model = Model([True, False])
        assert model.falsified_clause(CNF([[1], [2], [-1]])) == 1
        assert model.falsified_clause(CNF([[1], [-2]])) == -1

    def test_equality_and_hash(self):
        assert Model([True]) == Model([True])
        assert Model([True]) != Model([False])
        assert hash(Model([True])) == hash(Model([True]))


class TestSolveResult:
    def test_sat_requires_model(self):
        with pytest.raises(ValueError):
            SolveResult(SolveStatus.SAT)

    def test_unsat_rejects_model(self):
        with pytest.raises(ValueError):
            SolveResult(SolveStatus.UNSAT, Model([True]))
        with pytest.raises(ValueError):
            SolveResult(SolveStatus.TIMEOUT, Model([True]))

    def test_truthiness(self):
        assert SolveResult(SolveStatus.SAT, Model([True]))
        assert not SolveResult(SolveStatus.UNSAT)
        assert not SolveResult(SolveStatus.BUDGET_EXHAUSTED)

    def test_stats_copied(self):
        stats = {"conflicts": 3}
        result = SolveResult(SolveStatus.UNSAT, stats=stats)
        stats["conflicts"] = 9
        assert result.stats["conflicts"] == 3
