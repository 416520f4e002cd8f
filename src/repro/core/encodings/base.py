"""Base interfaces of the encoding layer.

A *level scheme* knows how to index a domain of ``n`` values with Boolean
variables: it provides one :data:`~repro.core.patterns.Pattern` per value
plus whatever *structural clauses* (at-least-one, at-most-one,
excluded-illegal-value) its semantics require.  Single-level encodings use
one scheme for the whole domain; hierarchical encodings (§4 of the paper)
stack schemes, the upper ones partitioning the domain into subdomains.

A :class:`VertexEncoding` is the fully composed per-vertex artifact (every
vertex of a coloring problem has the same domain ``0..K-1``, so one
``VertexEncoding`` is shared by all vertices and only variable offsets
differ).  An :class:`EncodedProblem` is the final CNF for a whole coloring
problem together with everything needed to decode a model or to express
symmetry-breaking constraints.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from ...coloring.problem import ColoringProblem
from ...sat.cnf import CNF
from ...sat.literals import lit_to_code
from ...sat.model import Model
from ..patterns import (LocalClause, Pattern, check_pattern, negate_pattern,
                        pattern_holds, shift_pattern)


class LevelScheme(ABC):
    """One way of indexing a set of ``n`` values with Boolean variables."""

    #: short identifier used in encoding names ("direct", "ITE-linear", ...)
    name: str = "?"
    #: ITE-structured schemes guarantee exactly-one selection structurally
    #: and never need at-least-one/at-most-one/exclusion clauses; they also
    #: admit "smaller trees" for undersized subdomains (paper §4).
    is_ite: bool = False

    @abstractmethod
    def num_vars(self, n: int) -> int:
        """Number of Boolean variables used to index ``n`` values."""

    @abstractmethod
    def patterns(self, n: int) -> List[Pattern]:
        """Indexing pattern of each of the ``n`` values (local literals)."""

    @abstractmethod
    def structural_clauses(self, n: int) -> List[LocalClause]:
        """Scheme-internal clauses over the local variables."""

    @abstractmethod
    def num_subdomains(self, num_level_vars: int) -> int:
        """How many subdomains this scheme distinguishes when used as a
        hierarchy level with ``num_level_vars`` indexing variables."""

    def check(self, n: int) -> None:
        """Self-validate patterns for a domain of size ``n`` (test hook)."""
        pats = self.patterns(n)
        if len(pats) != n:
            raise AssertionError(f"{self.name}: {len(pats)} patterns for {n} values")
        for pattern in pats:
            check_pattern(pattern, self.num_vars(n))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class Level:
    """One level of a (possibly hierarchical) encoding.

    ``num_vars`` is the explicit indexing-variable budget for upper levels
    (the ``-i`` suffix in names like ``ITE-linear-2``); the final level has
    ``num_vars=None`` and is sized by the residual subdomain.
    """

    scheme: LevelScheme
    num_vars: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_vars is not None and self.num_vars < 1:
            raise ValueError("a hierarchy level needs at least one variable")

    @property
    def label(self) -> str:
        if self.num_vars is None:
            return self.scheme.name
        return f"{self.scheme.name}-{self.num_vars}"


@dataclass
class VertexEncoding:
    """The composed encoding of one CSP variable (vertex).

    Attributes
    ----------
    num_values:
        Domain size (number of colors K).
    num_vars:
        Size of the per-vertex variable block.
    patterns:
        ``patterns[c]`` selects domain value ``c`` (local literals).
    clauses:
        Structural clauses over the local block.
    """

    num_values: int
    num_vars: int
    patterns: List[Pattern]
    clauses: List[LocalClause] = field(default_factory=list)

    def validate(self) -> None:
        """Check the block's internal consistency.

        Every pattern and every structural clause must stay inside the
        declared ``num_vars`` block and mention no variable twice.
        Auxiliary-variable schemes (sequential / commander /
        bimander / product at-most-one, POP-H channelling) are exactly
        where an off-by-one in allocation would silently alias two
        constraint groups — an aliased CNF is *still well-formed*, so
        nothing downstream would catch it.  The encoder's clauses are
        shifted copies of these, so this check is what lets the solvers
        load them without deduplicating.  Raises ``ValueError``.
        """
        if len(self.patterns) != self.num_values:
            raise ValueError(
                f"{len(self.patterns)} patterns for {self.num_values} "
                f"values")
        for pattern in self.patterns:
            check_pattern(pattern, self.num_vars)
        for clause in self.clauses:
            for lit in clause:
                if lit == 0:
                    raise ValueError("structural clause contains literal 0")
                if abs(lit) > self.num_vars:
                    raise ValueError(
                        f"structural clause literal {lit} exceeds the "
                        f"vertex block size {self.num_vars} — the scheme "
                        f"references a variable it never declared")
            if len({abs(lit) for lit in clause}) < len(clause):
                raise ValueError(
                    f"structural clause {tuple(clause)} mentions a "
                    f"variable twice")

    def decode_value(self, values: Sequence[bool]) -> Optional[int]:
        """Return the first domain value whose pattern holds under a local
        assignment (``values[i]`` = local variable ``i+1``), or None.

        "First" implements the paper's rule for multivalued encodings:
        *"we extract a CSP solution by taking any one of the allowed
        values"*; for structurally exact encodings exactly one pattern can
        hold anyway.
        """
        for value, pattern in enumerate(self.patterns):
            if pattern_holds(pattern, values):
                return value
        return None


class EncodedProblem:
    """A coloring problem translated to CNF under a particular encoding.

    Variable layout: vertex ``v`` owns the contiguous global variables
    ``v * vars_per_vertex + 1 .. (v + 1) * vars_per_vertex``.  The
    ``vertex_encoding`` must pass :meth:`VertexEncoding.validate` (the
    registry's and the mixed builders validate every block they build).
    """

    def __init__(self, problem: ColoringProblem, vertex_encoding: VertexEncoding,
                 encoding_name: str) -> None:
        self.problem = problem
        self.vertex_encoding = vertex_encoding
        self.encoding_name = encoding_name
        self.vars_per_vertex = vertex_encoding.num_vars
        self.cnf = self._build()

    def _build(self) -> CNF:
        """The formula as literal codes, converted once per template.

        Shifting a block by ``offset`` adds ``2 * offset`` to each code,
        so every clause is a template plus its vertex's shift.  The
        templates passed :meth:`VertexEncoding.validate` and edges join
        distinct vertices, so no clause mentions a variable twice."""
        graph = self.problem.graph
        encoding = self.vertex_encoding
        edges = list(graph.edges())
        step = 2 * self.vars_per_vertex  # code shift between vertex blocks
        shifts = [v * step for v in range(graph.num_vertices)]
        # Structural clauses, once per vertex.
        structural = [lit_to_code(lit) for clause in encoding.clauses
                      for lit in clause]
        codes = [code + shift for shift in shifts for code in structural]
        # Each vertex's clause half forbidding each color (its negated,
        # shifted pattern), shared by every incident edge.
        negated = [tuple(lit_to_code(-lit) for lit in pattern) for pattern
                   in encoding.patterns[:self.problem.num_colors]]
        forbid = [[tuple(map(shift.__add__, half)) for half in negated]
                  for shift in shifts]
        # Conflict clauses, once per edge per common domain value (§2):
        # ¬(pattern@u ∧ pattern@w) is just the two cached halves joined.
        for u, w in edges:
            codes.extend(chain.from_iterable(map(add, forbid[u], forbid[w])))
        lengths = (list(map(len, encoding.clauses)) * len(shifts)
                   + [2 * len(half) for half in negated] * len(edges))
        return CNF.from_codes(graph.num_vertices * self.vars_per_vertex,
                              codes, list(accumulate(lengths)))

    def vertex_offset(self, v: int) -> int:
        """Variable offset of vertex ``v``'s block."""
        if not 0 <= v < self.problem.num_vertices:
            raise ValueError(f"vertex {v} out of range")
        return v * self.vars_per_vertex

    def global_pattern(self, v: int, color: int) -> Pattern:
        """The global-literal pattern selecting ``color`` at vertex ``v``."""
        return shift_pattern(self.vertex_encoding.patterns[color],
                             self.vertex_offset(v))

    def forbid_color_clause(self, v: int, color: int) -> Tuple[int, ...]:
        """Clause asserting vertex ``v`` does not take ``color`` (used by
        symmetry breaking — paper §5)."""
        return negate_pattern(self.global_pattern(v, color))

    def add_symmetry_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        """Append externally generated (symmetry-breaking) clauses."""
        for clause in clauses:
            self.cnf.add_clause(clause)

    def decode(self, model: Model) -> Dict[int, int]:
        """Extract a coloring from a satisfying model.

        Raises ``ValueError`` if some vertex selects no domain value, which
        would indicate an encoding bug (the test suite relies on this).
        """
        coloring: Dict[int, int] = {}
        values = [model.value(var) for var in range(1, self.cnf.num_vars + 1)]
        block = self.vars_per_vertex
        for v in range(self.problem.num_vertices):
            offset = self.vertex_offset(v)
            local = values[offset:offset + block]
            value = self.vertex_encoding.decode_value(local)
            if value is None or value >= self.problem.num_colors:
                raise ValueError(
                    f"model selects no legal value for vertex {v} "
                    f"under encoding {self.encoding_name!r}")
            coloring[v] = value
        return coloring

    def __repr__(self) -> str:
        return (f"EncodedProblem(encoding={self.encoding_name!r}, "
                f"vars={self.cnf.num_vars}, clauses={self.cnf.num_clauses})")
