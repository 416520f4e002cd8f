"""Cooperative portfolios: seed-diverse members that share clauses.

The classic racing portfolio (:func:`repro.core.portfolio.run_portfolio`)
discards every loser's work.  The cooperative variant keeps the same
process-race machinery but wires every member into one clause-sharing
hub (:mod:`repro.dist.sharing`), so a short clause learned by any member
prunes everyone's search.  Sharing is only sound between members solving
the *same* CNF, so the convenience constructor here diversifies the
*seed* rather than the encoding: same formula, different decision
trajectories, shared refutations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..coloring.problem import ColoringProblem
from ..core.portfolio import PortfolioResult, run_portfolio
from ..core.strategy import Strategy
from ..sat.status import SolveLimits
from .sharing import ShareConfig

__all__ = ["seed_diverse_members", "run_cooperative"]

def seed_diverse_members(strategy: Strategy,
                         count: int) -> Sequence[Strategy]:
    """``count`` copies of one strategy differing only in seed — the
    legal member set for a clause-sharing portfolio: identical CNF,
    diverse trajectories."""
    if count < 1:
        raise ValueError("count must be positive")
    return tuple(replace(strategy, seed=strategy.seed + i)
                 for i in range(count))


def run_cooperative(problem: ColoringProblem, strategy: Strategy,
                    members: int = 2,
                    share: Optional[ShareConfig] = None,
                    timeout: Optional[float] = None,
                    limits: Optional[SolveLimits] = None,
                    audit: bool = False, faults=None) -> PortfolioResult:
    """Race ``members`` seed-diverse copies of ``strategy`` with clause
    sharing on.  A thin convenience over :func:`run_portfolio` — the
    race/cancel/audit semantics are exactly the portfolio's, with the
    sharing hub enabled (``share=None`` means the default
    :class:`ShareConfig`, not "off"; use plain ``run_portfolio`` for an
    uncooperative race)."""
    squad = seed_diverse_members(strategy, members)
    return run_portfolio(problem, squad, timeout=timeout, limits=limits,
                         audit=audit, faults=faults,
                         share=share if share is not None else True)
