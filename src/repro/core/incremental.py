"""Incremental channel-width / color-count search.

The plain pipeline re-encodes and re-solves from scratch for every
candidate K.  The incremental variant encodes **once** at an upper bound
``K_max`` with one *enable* variable per color, adds the implication
``value c selected → enable_c``, and then answers each "is the graph
K-colorable?" query with assumptions (``enable_0..K-1`` true, the rest
false) against a **single persistent CDCL solver** — so clauses learned
while refuting K=5 keep pruning the search at K=6.

Symmetry breaking composes safely: a ``K_max``-based b1/s1 sequence
constrains the i-th vertex to colors ≤ i, which stays sound for every
K ≤ K_max (the color-permutation argument never needs colors above
K-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..coloring.greedy import clique_lower_bound, greedy_num_colors
from ..coloring.problem import ColoringProblem
from ..sat.solver.cdcl import BudgetExceeded, CDCLSolver
from ..sat.status import CancelToken, SolveLimits, SolveReport, SolveStatus
from .encodings.registry import get_encoding
from .strategy import Strategy
from .symmetry.clauses import apply_symmetry


@dataclass
class IncrementalStats:
    """Bookkeeping across the incremental queries."""

    queries: int = 0
    conflicts_per_query: List[int] = field(default_factory=list)
    #: Decided queries only: K -> was the graph K-colorable?
    results: Dict[int, bool] = field(default_factory=dict)
    #: Every query's outcome, including TIMEOUT / BUDGET_EXHAUSTED.
    statuses: Dict[int, SolveStatus] = field(default_factory=dict)


class IncrementalColoringSolver:
    """Answer K-colorability queries for one graph, sharing learned
    clauses across all of them.

    ``limits`` (applied *per query* — budgets are counted per solve
    call) and ``cancel`` make long width sweeps boundable: an
    over-budget query surfaces as a non-decided
    :class:`SolveStatus` from :meth:`query`, or as
    :class:`BudgetExceeded` from the boolean convenience wrappers.
    """

    def __init__(self, problem: ColoringProblem, strategy: Strategy,
                 max_colors: Optional[int] = None,
                 limits: Optional[SolveLimits] = None,
                 cancel: Optional[CancelToken] = None) -> None:
        graph = problem.graph
        if max_colors is None:
            max_colors = max(1, greedy_num_colors(graph))
        if max_colors < 1:
            raise ValueError("max_colors must be at least 1")
        self.max_colors = max_colors
        self.strategy = strategy
        self.problem = problem.with_colors(max_colors)
        self._encoded = get_encoding(strategy.encoding).encode(self.problem)
        apply_symmetry(self._encoded, strategy.symmetry)
        # Enable variables, one per color, appended after vertex blocks.
        self._enable = self._encoded.cnf.new_vars(max_colors)
        for vertex in range(self.problem.num_vertices):
            for color in range(max_colors):
                clause = list(self._encoded.forbid_color_clause(vertex, color))
                clause.append(self._enable[color])
                self._encoded.cnf.add_clause(clause)
        self._solver = CDCLSolver(self._encoded.cnf,
                                  strategy.solver_config(limits))
        self._cancel = cancel
        self.stats = IncrementalStats()

    @property
    def cnf_size(self) -> Dict[str, int]:
        return {"vars": self._encoded.cnf.num_vars,
                "clauses": self._encoded.cnf.num_clauses}

    def query(self, num_colors: int) -> SolveReport:
        """SAT query: does a coloring with the first ``num_colors`` colors
        exist?  Reuses everything learned by earlier queries.

        Returns the full :class:`SolveReport`; ``status`` is SAT/UNSAT
        when decided, or TIMEOUT / BUDGET_EXHAUSTED when this query hit
        its per-query budget (the solver remains usable — everything
        learned so far is retained for the next query).
        """
        if not 1 <= num_colors <= self.max_colors:
            raise ValueError(
                f"num_colors must be within 1..{self.max_colors}")
        assumptions = [self._enable[c] for c in range(num_colors)]
        assumptions += [-self._enable[c]
                        for c in range(num_colors, self.max_colors)]
        before = self._solver.stats["conflicts"]
        result = self._solver.solve(assumptions, cancel=self._cancel)
        self.stats.queries += 1
        self.stats.conflicts_per_query.append(
            int(self._solver.stats["conflicts"] - before))
        self.stats.statuses[num_colors] = result.status
        if result.status.decided:
            self.stats.results[num_colors] = result.is_sat
        if result.is_sat:
            self._last_model = result.model
        return result.report()

    def is_colorable(self, num_colors: int) -> bool:
        """Boolean convenience wrapper around :meth:`query`.

        Raises :class:`BudgetExceeded` when the query stopped on a
        budget or deadline — an undecided answer must not masquerade as
        "not colorable"."""
        report = self.query(num_colors)
        if not report.status.decided:
            raise BudgetExceeded(
                f"K={num_colors} query stopped: {report.status}"
                + (f" ({report.detail})" if report.detail else ""))
        return report.status is SolveStatus.SAT

    def coloring(self, num_colors: int) -> Dict[int, int]:
        """Query at ``num_colors`` and decode the resulting coloring."""
        if not self.is_colorable(num_colors):
            raise ValueError(f"graph is not {num_colors}-colorable")
        coloring = self._encoded.decode(self._last_model)
        if not self.problem.with_colors(num_colors).is_valid_coloring(coloring):
            raise AssertionError("incremental decode produced an invalid "
                                 "coloring")
        return coloring

    def minimum_colors(self, lower: Optional[int] = None) -> int:
        """Binary-search the chromatic number within 1..max_colors."""
        if self.problem.num_vertices == 0:
            return 0
        low = lower if lower is not None \
            else max(1, clique_lower_bound(self.problem.graph))
        high = self.max_colors  # greedy bound: always colorable
        while low < high:
            middle = (low + high) // 2
            if self.is_colorable(middle):
                high = middle
            else:
                low = middle + 1
        return low


class AssumptionJobSolver:
    """Persistent assumption-query solver over one encoded problem —
    the cube-and-conquer worker core (:mod:`repro.dist.cubes`).

    Where :class:`IncrementalColoringSolver` varies the *color count*
    across queries, this varies the *assumption cube*: each call to
    :meth:`solve_cube` asks "is the formula satisfiable under these
    literals?" against a single persistent CDCL solver, so refuting one
    cube keeps pruning the next (everything learned at the root
    carries over — that work reduction, not core count, is where
    cube-and-conquer wins on hard UNSAT instances).

    The strategy's solver config applies unchanged.  A clause channel
    plugs the worker into cross-process sharing with its sibling cube
    workers.
    """

    def __init__(self, problem: ColoringProblem, strategy: Strategy,
                 limits: Optional[SolveLimits] = None,
                 cancel: Optional[CancelToken] = None,
                 clause_channel=None, encoded=None) -> None:
        self.problem = problem
        self.strategy = strategy
        if encoded is None:
            encoded = get_encoding(strategy.encoding).encode(problem)
            apply_symmetry(encoded, strategy.symmetry)
        self.encoded = encoded
        config = strategy.solver_config(limits)
        if clause_channel is not None:
            config.clause_channel = clause_channel
        self._solver = CDCLSolver(self.encoded.cnf, config)
        self._cancel = cancel
        self.queries = 0

    @property
    def stats(self) -> Dict[str, float]:
        return self._solver.stats

    def solve_cube(self, assumptions) -> SolveReport:
        """One cube as an assumption query (budgets are per call)."""
        result = self._solver.solve(list(assumptions), cancel=self._cancel)
        self.queries += 1
        report = result.report()
        if result.is_sat:
            self._last_model = result.model
        return report

    def decode(self) -> Dict[int, int]:
        """The coloring decoded from the last SAT cube's model."""
        coloring = self.encoded.decode(self._last_model)
        if not self.problem.is_valid_coloring(coloring):
            raise AssertionError("cube decode produced an invalid coloring")
        return coloring


def minimum_colors_incremental(problem: ColoringProblem,
                               strategy: Strategy) -> int:
    """One-call incremental chromatic-number search."""
    return IncrementalColoringSolver(problem, strategy).minimum_colors()
