"""A *strategy* = SAT encoding × symmetry-breaking heuristic × solver.

The paper's portfolio idea (§6) treats each such combination as one
parallel run; this class is the unit the pipeline and the portfolio runner
operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sat.solver.config import SolverConfig, preset
from ..sat.status import SolveLimits
from .encodings.registry import get_encoding
from .symmetry.heuristics import get_heuristic


@dataclass(frozen=True)
class Strategy:
    """One (encoding, symmetry heuristic, solver preset) combination."""

    encoding: str
    symmetry: str = "none"
    solver: str = "siege_like"
    seed: int = 0
    #: "arena" (default), or "arena+inprocess" — the same engine with
    #: inter-restart inprocessing and tiered DB reduction switched on
    #: (the performance configuration for conflict-heavy instances).
    engine: str = "arena"

    def __post_init__(self) -> None:
        get_encoding(self.encoding)       # validate eagerly
        get_heuristic(self.symmetry)
        if self.solver not in ("minisat_like", "siege_like"):
            raise ValueError(f"unknown solver preset {self.solver!r}")
        if self.engine not in ("arena", "arena+inprocess"):
            raise ValueError(f"unknown solver engine {self.engine!r}")

    @property
    def label(self) -> str:
        """Display label, e.g. ``ITE-linear-2+muldirect/s1``.

        Labels are unique per strategy: non-default solver presets,
        seeds and engines are appended so sweeps keyed by label never
        collide.
        """
        label = self.encoding
        if self.symmetry != "none":
            label += f"/{self.symmetry}"
        if self.solver != "siege_like":
            label += f"@{self.solver}"
        if self.seed:
            label += f"#{self.seed}"
        if self.engine != "arena":
            label += f"!{self.engine}"
        return label

    def solver_config(self,
                      limits: Optional[SolveLimits] = None) -> SolverConfig:
        """Instantiate the solver configuration for this strategy,
        optionally bounded by a :class:`SolveLimits` budget."""
        overrides = limits.as_config_kwargs() if limits is not None else {}
        if self.engine == "arena+inprocess":
            overrides.update(inprocessing=True, reduce_policy="tier")
        return preset(self.solver, seed=self.seed, **overrides)


#: The paper's single best strategy (§6).
BEST_SINGLE_STRATEGY = Strategy("ITE-linear-2+muldirect", "s1")

#: The paper's 2-strategy portfolio (adds muldirect-3+muldirect/s1).
#: Members carry distinct solver seeds: the paper's solvers were
#: randomised, and per-instance complementarity between members — the
#: source of portfolio speedup — comes from both the encoding and the
#: search trajectory.
PORTFOLIO_2 = (
    Strategy("ITE-linear-2+muldirect", "s1", seed=0),
    Strategy("muldirect-3+muldirect", "s1", seed=1),
)

#: The paper's 3-strategy portfolio (adds ITE-linear-2+direct/s1).
PORTFOLIO_3 = PORTFOLIO_2 + (Strategy("ITE-linear-2+direct", "s1", seed=2),)
