"""Property tests for the cardinality library (``repro.core.encodings
.cardinality``).

Every at-most-one / at-most-k builder is checked by **exhaustive
enumeration**: on small n we enumerate every assignment to the value
*and* auxiliary variables and assert that the satisfying assignments,
projected onto the value variables, are exactly the ≤k-true vectors —
i.e. the encoding is sound (no over-full vector sneaks through) *and*
complete (every legal vector is extendable to the auxiliaries).

The closed-form size formulas of :func:`amo_sizes` /
:func:`atmost_k_sequential_sizes` are asserted literally against the
builders' actual aux-var and clause counts, and every emitted literal
must stay inside the declared variable range.
"""

import itertools

import pytest

from repro.core.encodings import (AuxAllocator, BIMDIRECT, CMDDIRECT,
                                  CardinalityDirectScheme,
                                  DuplicateAuxVarError, PRODDIRECT, SEQDIRECT,
                                  amo_bimander, amo_commander, amo_pairwise,
                                  amo_product, amo_sequential, amo_sizes,
                                  atmost_k_sequential,
                                  atmost_k_sequential_sizes,
                                  atmost_k_totalizer, build_amo,
                                  build_vertex_encoding, commander_groups,
                                  product_grid)
from repro.core.encodings.base import Level, VertexEncoding


def clause_holds(clause, assignment):
    """``assignment[i]`` is the value of variable ``i + 1``."""
    return any(assignment[lit - 1] if lit > 0 else not assignment[-lit - 1]
               for lit in clause)


def projected_models(num_values, num_total, clauses):
    """All satisfying assignments, projected onto the value variables."""
    seen = set()
    for bits in itertools.product((False, True), repeat=num_total):
        if all(clause_holds(clause, bits) for clause in clauses):
            seen.add(bits[:num_values])
    return seen


def atmost_vectors(n, k):
    """Every length-n Boolean vector with at most k true entries."""
    return {bits for bits in itertools.product((False, True), repeat=n)
            if sum(bits) <= k}


def assert_literals_in_range(clauses, num_total):
    for clause in clauses:
        for lit in clause:
            assert lit != 0, f"literal 0 in {clause}"
            assert abs(lit) <= num_total, (
                f"literal {lit} exceeds declared range {num_total}")


def run_amo(kind, n, group_size=None):
    """Build ``kind`` over values 1..n; return (clauses, aux_count)."""
    values = list(range(1, n + 1))
    alloc = AuxAllocator(n + 1, reserved=range(1, n + 1))
    clauses = build_amo(kind, values, alloc, group_size=group_size)
    return clauses, alloc.count


AMO_CASES = [
    ("pairwise", None),
    ("sequential", None),
    ("commander", 2),
    ("commander", 3),
    ("bimander", 1),
    ("bimander", 2),
    ("bimander", 3),
    ("product", None),
]


@pytest.mark.parametrize("kind,group_size", AMO_CASES)
@pytest.mark.parametrize("n", range(1, 9))
class TestAtMostOneExhaustive:
    def test_accepts_exactly_atmost_one_true(self, kind, group_size, n):
        clauses, aux = run_amo(kind, n, group_size)
        total = n + aux
        assert projected_models(n, total, clauses) == atmost_vectors(n, 1)

    def test_sizes_match_closed_form(self, kind, group_size, n):
        clauses, aux = run_amo(kind, n, group_size)
        expected_aux, expected_clauses = amo_sizes(kind, n,
                                                   group_size=group_size)
        assert aux == expected_aux
        assert len(clauses) == expected_clauses

    def test_no_out_of_range_literals(self, kind, group_size, n):
        clauses, aux = run_amo(kind, n, group_size)
        assert_literals_in_range(clauses, n + aux)


class TestAtMostOnePinned:
    """Hand-computed sizes, independent of the formula code."""

    def test_pairwise_is_quadratic(self):
        clauses, aux = run_amo("pairwise", 6)
        assert aux == 0
        assert len(clauses) == 15
        assert set(clauses) == {(-i, -j) for i in range(1, 7)
                                for j in range(i + 1, 7)}

    def test_sequential_matches_sinz(self):
        # n = 5: 4 ladder variables, 3·5 - 4 = 11 clauses.
        clauses, aux = run_amo("sequential", 5)
        assert (aux, len(clauses)) == (4, 11)

    def test_commander_n6_g3(self):
        # Two groups of 3: each costs C(3,2)=3 pairwise + 3 implications
        # + 1 support clause = 7, and the two commanders need one final
        # pairwise clause: 2·7 + 1 = 15 clauses, 2 auxiliaries.
        clauses, aux = run_amo("commander", 6, group_size=3)
        assert (aux, len(clauses)) == (2, 15)

    def test_commander_recursion_depth(self):
        # n = 9, g = 2: levels 9 → 5 → 3 → 2, so 5 + 3 + 2 = 10 commanders.
        _, aux = run_amo("commander", 9, group_size=2)
        assert aux == 10

    def test_bimander_n6_g2(self):
        # 3 groups of 2 → 2 index bits: 3 pairwise + 6·2 = 15 clauses.
        clauses, aux = run_amo("bimander", 6, group_size=2)
        assert (aux, len(clauses)) == (2, 15)

    def test_product_grid_shapes(self):
        assert product_grid(4) == (2, 2)
        assert product_grid(5) == (3, 2)
        assert product_grid(9) == (3, 3)
        assert product_grid(10) == (4, 3)

    def test_product_n8(self):
        # 3×3 grid (last cell empty): 6 selectors, 2·8 + 3 + 3 = 22 clauses.
        clauses, aux = run_amo("product", 8)
        assert (aux, len(clauses)) == (6, 22)

    def test_product_degenerates_to_pairwise(self):
        for n in (1, 2, 3):
            assert run_amo("product", n) == (amo_pairwise(range(1, n + 1)), 0)

    def test_builders_reject_bad_parameters(self):
        alloc = AuxAllocator(10)
        with pytest.raises(ValueError):
            amo_commander([1, 2, 3], alloc, group_size=1)
        with pytest.raises(ValueError):
            amo_bimander([1, 2, 3], alloc, group_size=0)
        with pytest.raises(ValueError):
            build_amo("no-such-amo", [1, 2], alloc)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("k", range(0, 7))
class TestAtMostKSequential:
    def test_accepts_exactly_atmost_k_true(self, n, k):
        if n > 5 and 1 < k < n:  # keep the exhaustive space tractable
            pytest.skip("register block too large for full enumeration")
        values = list(range(1, n + 1))
        alloc = AuxAllocator(n + 1, reserved=values)
        clauses = atmost_k_sequential(values, k, alloc)
        total = n + alloc.count
        assert projected_models(n, total, clauses) == atmost_vectors(n, k)

    def test_sizes_match_closed_form(self, n, k):
        values = list(range(1, n + 1))
        alloc = AuxAllocator(n + 1, reserved=values)
        clauses = atmost_k_sequential(values, k, alloc)
        expected_aux, expected_clauses = atmost_k_sequential_sizes(n, k)
        assert alloc.count == expected_aux
        assert len(clauses) == expected_clauses
        assert_literals_in_range(clauses, n + alloc.count)

    def test_k1_reduces_to_amo(self, n, k):
        if k != 1:
            pytest.skip("k = 1 case only")
        values = list(range(1, n + 1))
        assert (atmost_k_sequential(values, 1,
                                    AuxAllocator(n + 1, reserved=values))
                == amo_sequential(values,
                                  AuxAllocator(n + 1, reserved=values)))


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("k", range(0, 6))
class TestAtMostKTotalizer:
    def test_accepts_exactly_atmost_k_true(self, n, k):
        values = list(range(1, n + 1))
        alloc = AuxAllocator(n + 1, reserved=values)
        clauses = atmost_k_totalizer(values, k, alloc)
        total = n + alloc.count
        assert projected_models(n, total, clauses) == atmost_vectors(n, k)
        assert_literals_in_range(clauses, total)

    def test_saturation_caps_aux_width(self, n, k):
        if not 0 < k < n:
            pytest.skip("aux variables only exist for 0 < k < n")
        values = list(range(1, n + 1))
        alloc = AuxAllocator(n + 1, reserved=values)
        atmost_k_totalizer(values, k, alloc)
        # n leaves → n-1 internal counter nodes, each at most k+1 wide.
        assert alloc.count <= (n - 1) * (k + 1)


class TestAuxAllocator:
    def test_monotonic_and_counted(self):
        alloc = AuxAllocator(5)
        assert alloc.fresh_block(3) == [5, 6, 7]
        assert alloc.fresh() == 8
        assert alloc.count == 4
        assert alloc.next_free == 9

    def test_reserved_collision_raises(self):
        """The duplicate-aux-var regression: an allocator whose range
        runs into the value block must fail loudly, not alias groups."""
        alloc = AuxAllocator(3, reserved=range(1, 5))
        with pytest.raises(DuplicateAuxVarError):
            alloc.fresh()

    def test_rejects_non_positive_start(self):
        with pytest.raises(ValueError):
            AuxAllocator(0)


class _OverlappingAllocatorScheme(CardinalityDirectScheme):
    """Deliberately broken: auxiliaries start *inside* the value block."""

    def allocator(self, n):
        return AuxAllocator(max(1, n - 1), reserved=range(1, n + 1))


class _UndeclaredAuxScheme(CardinalityDirectScheme):
    """Deliberately broken: emits aux literals but never declares them."""

    def num_vars(self, n):
        return n


class TestDuplicateAuxRegression:
    """Satellite: encodings can never silently reuse variable indices.

    Two failure shapes, both latent before this PR: (a) an allocator
    whose range overlaps the value variables would merge two constraint
    groups into one; (b) a scheme that under-declares ``num_vars`` would
    let one vertex's auxiliaries alias the *next vertex's* value block
    once :class:`EncodedProblem` lays blocks out contiguously.
    """

    def test_overlapping_allocator_is_rejected(self):
        broken = _OverlappingAllocatorScheme("broken-alloc", "sequential")
        with pytest.raises(DuplicateAuxVarError):
            broken.structural_clauses(5)

    def test_undeclared_aux_vars_fail_validation(self):
        broken = _UndeclaredAuxScheme("broken-decl", "sequential")
        with pytest.raises(ValueError, match="never declared"):
            build_vertex_encoding(5, [Level(broken, None)])

    @pytest.mark.parametrize("clause", [(1, -1), (2, 2), (1, 3, -3)])
    def test_structural_clause_repeating_a_variable_fails_validation(
            self, clause):
        encoding = VertexEncoding(num_values=2, num_vars=3,
                                  patterns=[(1,), (2,)], clauses=[clause])
        with pytest.raises(ValueError, match="mentions a variable twice"):
            encoding.validate()

    def test_healthy_schemes_pass_validation(self):
        for scheme in (CMDDIRECT, BIMDIRECT, PRODDIRECT, SEQDIRECT):
            encoding = build_vertex_encoding(6, [Level(scheme, None)])
            encoding.validate()


@pytest.mark.parametrize("scheme", [CMDDIRECT, BIMDIRECT, PRODDIRECT,
                                    SEQDIRECT],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("n", range(1, 7))
class TestCardinalityDirectSchemes:
    def test_patterns_are_value_variables(self, scheme, n):
        scheme.check(n)
        assert scheme.patterns(n) == [(value + 1,) for value in range(n)]

    def test_structural_clauses_select_exactly_one(self, scheme, n):
        """ALO + library AMO: projections are exactly the one-hot vectors."""
        total = scheme.num_vars(n)
        models = projected_models(n, total, scheme.structural_clauses(n))
        assert models == {tuple(i == value for i in range(n))
                          for value in range(n)}

    def test_final_level_only(self, scheme, n):
        with pytest.raises(NotImplementedError):
            scheme.num_subdomains(n)
