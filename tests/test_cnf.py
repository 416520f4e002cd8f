"""Unit and property tests for the CNF container and DIMACS CNF I/O."""

import pytest
from hypothesis import given

from repro.sat import CNF, parse_dimacs_string
from .strategies import small_cnfs


class TestConstruction:
    def test_empty(self):
        cnf = CNF()
        assert cnf.num_vars == 0
        assert cnf.num_clauses == 0
        assert len(cnf) == 0

    def test_initial_clauses(self):
        cnf = CNF([[1, -2], [3]])
        assert cnf.num_vars == 3
        assert cnf.num_clauses == 2
        assert list(cnf) == [(1, -2), (3,)]

    def test_explicit_num_vars(self):
        cnf = CNF(num_vars=10)
        assert cnf.num_vars == 10

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError):
            CNF(num_vars=-1)

    def test_num_vars_grows_with_clauses(self):
        cnf = CNF(num_vars=2)
        cnf.add_clause([5, -1])
        assert cnf.num_vars == 5

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([1, 0, 2])

    def test_empty_clause_allowed(self):
        cnf = CNF()
        cnf.add_clause([])
        assert cnf.clauses == [()]

    def test_new_var(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.num_vars == 2

    def test_new_vars(self):
        cnf = CNF(num_vars=3)
        assert cnf.new_vars(3) == [4, 5, 6]
        assert cnf.new_vars(0) == []
        with pytest.raises(ValueError):
            cnf.new_vars(-1)

    def test_reserve(self):
        cnf = CNF(num_vars=3)
        cnf.reserve(7)
        assert cnf.num_vars == 7
        cnf.reserve(2)  # never shrinks
        assert cnf.num_vars == 7

    def test_extend(self):
        cnf = CNF()
        cnf.extend([[1], [2, 3]])
        assert cnf.num_clauses == 2

    def test_copy_is_independent(self):
        original = CNF([[1, 2]])
        duplicate = original.copy()
        duplicate.add_clause([3])
        assert original.num_clauses == 1
        assert duplicate.num_clauses == 2

    @pytest.mark.parametrize("lit", [1.0, True, False, "1", None])
    def test_non_int_literal_rejected(self, lit):
        cnf = CNF()
        with pytest.raises(ValueError, match=f"invalid literal {lit!r}"):
            cnf.add_clause([2, lit])
        assert cnf.num_clauses == 0 and cnf.num_vars == 0

    def test_float_literal_rejected_at_construction(self):
        with pytest.raises(ValueError, match="1.0"):
            CNF([[1.0, 2]])
        with pytest.raises(ValueError, match="True"):
            CNF([[True]])


class TestCodes:
    """The stored literal codes and the view derived from them."""

    def test_code_clauses_are_the_stored_codes(self):
        cnf = CNF([[1, -2], [3], []])
        assert list(cnf.code_clauses()) == [[2, 5], [6], []]

    def test_code_clauses_normalise_a_repeated_variable(self):
        cnf = CNF([[1, -2], [2, 3, 2], [4, -4], [5]])
        assert list(cnf.code_clauses()) == [[2, 5], [4, 6], None, [10]]
        assert cnf.clauses[1] == (2, 3, 2)  # the view keeps duplicates

    def test_view_follows_appends(self):
        cnf = CNF([[1]])
        view = cnf.clauses
        cnf.add_clause([-1, 2])
        assert cnf.clauses is view and view == [(1,), (-1, 2)]

    def test_first_falsified(self):
        cnf = CNF([[1, 2], [-1], [], [2]])
        assert cnf.first_falsified([False, False, True]) == 2
        assert cnf.first_falsified([False, True, True]) == 1
        assert CNF([[1], [-2]]).first_falsified([False, True, False]) == -1

    def test_first_falsified_needs_every_variable(self):
        with pytest.raises(ValueError, match="1 values for 2 variables"):
            CNF([[2]]).first_falsified([False, True])

    def test_negate_literal(self):
        cnf = CNF([[1, 2], [-3, 4]])
        cnf.clauses  # the view must follow the edit
        cnf.negate_literal(1, 0)
        assert cnf.clauses == [(1, 2), (3, 4)]
        assert list(cnf.code_clauses()) == [[2, 4], [6, 8]]
        with pytest.raises(IndexError):
            cnf.negate_literal(0, 2)

    @pytest.mark.parametrize("index, removed, codes", [
        (1, (2, -3), [[2], [8]]),
        (-1, (4,), [[2], [4, 7]]),
    ])
    def test_remove_clause(self, index, removed, codes):
        cnf = CNF([[1], [2, -3], [4]])
        assert cnf.remove_clause(index) == removed
        assert len(cnf) == 2 and list(cnf.code_clauses()) == codes

    def test_copy_keeps_normalisation(self):
        duplicate = CNF([[1, 1]]).copy()
        assert list(duplicate.code_clauses()) == [[2]]


class TestDimacs:
    def test_serialise(self):
        cnf = CNF([[1, -2], [2, 3]])
        text = cnf.to_dimacs(comments=["hello"])
        assert text == "c hello\np cnf 3 2\n1 -2 0\n2 3 0\n"

    def test_parse(self):
        cnf = parse_dimacs_string("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
        assert cnf.num_vars == 3
        assert list(cnf) == [(1, -2), (2, 3)]

    def test_parse_multiline_clause(self):
        cnf = parse_dimacs_string("p cnf 3 1\n1\n-2\n3 0\n")
        assert list(cnf) == [(1, -2, 3)]

    def test_parse_unterminated_final_clause(self):
        cnf = parse_dimacs_string("p cnf 2 1\n1 2\n")
        assert list(cnf) == [(1, 2)]

    def test_parse_honours_declared_vars(self):
        cnf = parse_dimacs_string("p cnf 9 1\n1 0\n")
        assert cnf.num_vars == 9

    def test_parse_percent_terminator(self):
        cnf = parse_dimacs_string("p cnf 2 1\n1 2 0\n%\n0\n")
        assert cnf.num_clauses == 1

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError):
            parse_dimacs_string("p sat 3 2\n")

    def test_file_round_trip(self, tmp_path):
        cnf = CNF([[1, -3], [2]])
        path = str(tmp_path / "f.cnf")
        cnf.write_dimacs_file(path, comments=["x"])
        from repro.sat import parse_dimacs_file
        parsed = parse_dimacs_file(path)
        assert list(parsed) == list(cnf)
        assert parsed.num_vars == cnf.num_vars

    @given(small_cnfs())
    def test_round_trip_property(self, cnf):
        parsed = parse_dimacs_string(cnf.to_dimacs())
        assert list(parsed) == list(cnf)
        assert parsed.num_vars == cnf.num_vars
