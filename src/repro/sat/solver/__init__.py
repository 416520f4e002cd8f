"""SAT solving engines: CDCL (primary), DPLL (baseline), enumeration (oracle)."""

from ..status import CancelToken, SolveLimits, SolveReport, SolveStatus
from .cdcl import BudgetExceeded, CDCLSolver, solve
from .config import PRESETS, SolverConfig, minisat_like, preset, siege_like
from .dpll import DPLLSolver, solve_dpll
from .enumerate import (all_models, count_models, enumerate_models,
                        solve_by_enumeration)
from .luby import luby, luby_prefix

__all__ = [
    "BudgetExceeded", "CDCLSolver", "solve",
    "CancelToken", "SolveLimits", "SolveReport", "SolveStatus",
    "PRESETS", "SolverConfig", "minisat_like", "preset", "siege_like",
    "DPLLSolver", "solve_dpll",
    "all_models", "count_models", "enumerate_models", "solve_by_enumeration",
    "luby", "luby_prefix",
]
