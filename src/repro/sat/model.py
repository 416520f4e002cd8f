"""Satisfying assignments (models) returned by the SAT solvers."""

from __future__ import annotations

import warnings
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .cnf import CNF
from .literals import var_of
from .status import SolveReport, SolveStatus


class Model:
    """A total truth assignment over variables ``1..num_vars``.

    The solvers extend partial satisfying assignments to total ones (unset
    variables default to False), so downstream decoding never has to deal
    with "unknown" values.
    """

    def __init__(self, values: Sequence[bool]) -> None:
        # values[0] is a placeholder so that values[v] is variable v.
        self._values: List[bool] = [False] + list(values)

    @classmethod
    def from_true_vars(cls, true_vars: Iterable[int], num_vars: int) -> "Model":
        """Build a model from the set of variables assigned True."""
        values = [False] * num_vars
        for v in true_vars:
            if not 1 <= v <= num_vars:
                raise ValueError(f"variable {v} out of range 1..{num_vars}")
            values[v - 1] = True
        return cls(values)

    @property
    def num_vars(self) -> int:
        return len(self._values) - 1

    def value(self, var: int) -> bool:
        """Return the truth value of variable ``var``."""
        if not 1 <= var <= self.num_vars:
            raise ValueError(f"variable {var} out of range 1..{self.num_vars}")
        return self._values[var]

    def satisfies_literal(self, lit: int) -> bool:
        """Return True if this model makes the literal true."""
        return self._values[var_of(lit)] == (lit > 0)

    def satisfies_clause(self, clause: Iterable[int]) -> bool:
        """Return True if this model satisfies the clause."""
        return any(self.satisfies_literal(lit) for lit in clause)

    def falsified_clause(self, cnf: CNF) -> int:
        """Index of the first clause of ``cnf`` this model falsifies, or
        -1; the model must cover ``cnf``'s variables."""
        return cnf.first_falsified(self._values)

    def satisfies(self, cnf: CNF) -> bool:
        """Return True if this model satisfies every clause of ``cnf``
        (False for a model over fewer variables than the formula)."""
        return self.num_vars >= cnf.num_vars and \
            self.falsified_clause(cnf) < 0

    def true_vars(self) -> List[int]:
        """Return the sorted list of variables assigned True."""
        return [v for v in range(1, self.num_vars + 1) if self._values[v]]

    def as_dict(self) -> Dict[int, bool]:
        """Return the assignment as a ``{var: bool}`` dict."""
        return {v: self._values[v] for v in range(1, self.num_vars + 1)}

    def __getitem__(self, var: int) -> bool:
        return self.value(var)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(self._values))

    def __repr__(self) -> str:
        return f"Model(num_vars={self.num_vars})"


class SolveResult:
    """Outcome of a solver run: a :class:`~repro.sat.status.SolveStatus`
    plus a model (iff SAT) and the solver's statistics.

    The boolean conveniences from the pre-status era are **deprecated**
    (since 1.6; see the migration table in ``docs/api.md``): passing a
    bare ``True``/``False`` as ``status``, and reading the
    ``satisfiable`` attribute.  Use :class:`SolveStatus` members and the
    :attr:`is_sat` shorthand — a TIMEOUT or BUDGET_EXHAUSTED result is
    *not* SAT, but neither is it UNSAT; check ``status.decided`` before
    treating a non-SAT answer as a refutation.
    """

    def __init__(self, status: Union[SolveStatus, bool],
                 model: Optional[Model] = None,
                 stats: Optional[Dict[str, float]] = None) -> None:
        if isinstance(status, bool):  # legacy satisfiable-flag convention
            warnings.warn(
                "SolveResult(bool, ...) is deprecated; pass a SolveStatus "
                "member (docs/api.md has the migration table)",
                DeprecationWarning, stacklevel=2)
            status = SolveStatus.SAT if status else SolveStatus.UNSAT
        if status is SolveStatus.SAT and model is None:
            raise ValueError("a satisfiable result requires a model")
        if status is not SolveStatus.SAT and model is not None:
            raise ValueError(f"a {status} result cannot carry a model")
        self.status = status
        self.model = model
        self.stats: Dict[str, float] = dict(stats or {})

    @property
    def is_sat(self) -> bool:
        """True iff ``status is SolveStatus.SAT`` (see class docstring)."""
        return self.status is SolveStatus.SAT

    @property
    def satisfiable(self) -> bool:
        """Deprecated alias of :attr:`is_sat` (since 1.6)."""
        warnings.warn(
            "SolveResult.satisfiable is deprecated; check `status is "
            "SolveStatus.SAT` or the `is_sat` shorthand (docs/api.md "
            "has the migration table)", DeprecationWarning, stacklevel=2)
        return self.status is SolveStatus.SAT

    def report(self, detail: str = "") -> SolveReport:
        """This result as the shared :class:`SolveReport` shape."""
        return SolveReport.from_stats(self.status, self.stats, detail=detail)

    def __bool__(self) -> bool:
        return self.status is SolveStatus.SAT

    def __repr__(self) -> str:
        return f"SolveResult({self.status})"
