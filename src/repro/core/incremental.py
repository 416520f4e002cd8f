"""Assumption queries against one persistent CDCL solver: the
cube-and-conquer worker core, :class:`AssumptionJobSolver`."""

from __future__ import annotations

from typing import Dict, Optional

from ..coloring.problem import ColoringProblem
from ..sat.solver.cdcl import CDCLSolver
from ..sat.status import CancelToken, SolveLimits, SolveReport
from .encodings.registry import get_encoding
from .strategy import Strategy
from .symmetry.clauses import apply_symmetry


class AssumptionJobSolver:
    """Persistent assumption-query solver over one encoded problem —
    the cube-and-conquer worker core (:mod:`repro.dist.cubes`).

    Each call to :meth:`solve_cube` asks "is the formula satisfiable
    under these literals?" against a single persistent CDCL solver, so
    refuting one cube keeps pruning the next (everything learned at the
    root carries over — that work reduction, not core count, is where
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
