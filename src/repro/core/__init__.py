"""The paper's contribution: encodings, symmetry breaking, strategies,
pipeline and portfolios."""

from .encodings import (ALL_ENCODINGS, EncodedProblem, Encoding,
                        MODERN_ENCODINGS, NEW_ENCODINGS, PREVIOUS_ENCODINGS,
                        REGISTRY_ENCODINGS, TABLE2_ENCODINGS,
                        encode_coloring, get_encoding, parse_encoding)
from .patterns import (Pattern, conflict_clause, negate_pattern,
                       pattern_holds, shift_pattern)
from .analysis import FormulaStats, GraphStats, compare_encodings, encoding_profile
from .pipeline import ColoringOutcome, minimum_colors, solve_coloring
from .portfolio import (PortfolioResult, portfolio_speedup, run_portfolio,
                        virtual_portfolio_time)
from .strategy import (BEST_SINGLE_STRATEGY, PORTFOLIO_2, PORTFOLIO_3,
                       Strategy)
from .symmetry import (apply_symmetry, b1_sequence, get_heuristic,
                       s1_sequence, symmetry_clauses)

__all__ = [
    "ALL_ENCODINGS", "EncodedProblem", "Encoding", "MODERN_ENCODINGS",
    "NEW_ENCODINGS", "PREVIOUS_ENCODINGS", "REGISTRY_ENCODINGS",
    "TABLE2_ENCODINGS", "encode_coloring",
    "get_encoding", "parse_encoding",
    "Pattern", "conflict_clause", "negate_pattern", "pattern_holds",
    "shift_pattern",
    "FormulaStats", "GraphStats", "compare_encodings", "encoding_profile",
    "ColoringOutcome", "minimum_colors", "solve_coloring",
    "PortfolioResult", "portfolio_speedup", "run_portfolio",
    "virtual_portfolio_time",
    "BEST_SINGLE_STRATEGY", "PORTFOLIO_2", "PORTFOLIO_3", "Strategy",
    "apply_symmetry", "b1_sequence", "get_heuristic", "s1_sequence",
    "symmetry_clauses",
]
