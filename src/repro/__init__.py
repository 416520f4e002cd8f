"""repro — SAT encodings for FPGA detailed routing.

Reproduction of Velev & Gao, "Comparison of Boolean Satisfiability
Encodings on FPGA Detailed Routing Problems" (DATE 2008).

Layer map (each is a subpackage with its own focused API):

* :mod:`repro.sat` — CNF formulas, DIMACS CNF I/O, CDCL/DPLL solvers.
* :mod:`repro.coloring` — graph-coloring problems, DIMACS ``.col`` I/O.
* :mod:`repro.core` — the paper's 15 CSP-to-SAT encodings plus the
  modern at-most-one and partial-order families (25 registered
  encodings in all), b1/s1 symmetry breaking, the solving pipeline and
  strategy portfolios.
* :mod:`repro.fpga` — island-style FPGA model, global router, the
  routing-to-coloring reduction, and MCNC-like benchmark profiles.
* :mod:`repro.bench` — strategy sweeps, concurrent batch runs and
  paper-style tables.
* :mod:`repro.reliability` — deterministic fault injection, end-to-end
  result auditing, and strategy quarantine (see ``docs/reliability.md``).
* :mod:`repro.obs` — structured tracing, the metrics registry and trace
  reporting, off by default (see ``docs/observability.md``).
* :mod:`repro.api` — the canonical :class:`SolveRequest` /
  :class:`SolveResponse` contract every entrypoint routes through, with
  content-addressed cache keys and wire codecs (see ``docs/api.md``).
* :mod:`repro.serve` — the solver as a long-running service: asyncio
  front end, persistent worker pool, content-addressed audit-verified
  result cache, admission control (see ``docs/serving.md``).

Quickstart::

    from repro import SolveLimits, Strategy, detailed_route, load_routing

    routing = load_routing("alu2")
    result = detailed_route(routing, width=5,
                            strategy=Strategy("ITE-linear-2+muldirect", "s1"),
                            limits=SolveLimits(wall_clock_limit=60.0))
    if not result.status.decided:
        print(f"stopped early: {result.report.detail}")
    elif result.routable:
        print(result.assignment.tracks)
    else:
        print("provably unroutable at W=5")

Every solving entry point reports a five-way :class:`SolveStatus`
(SAT / UNSAT / TIMEOUT / BUDGET_EXHAUSTED / ERROR) and accepts
:class:`SolveLimits` (conflict / propagation / wall-clock budgets) plus
a :class:`CancelToken` for cooperative cancellation; see ``docs/api.md``.
"""

from . import api
from .api import SolveRequest, SolveResponse
from .bench import BatchJob, BatchResult, run_batch
from .coloring import ColoringProblem, Graph
from .errors import ParseError
from .core import (ALL_ENCODINGS, BEST_SINGLE_STRATEGY, MODERN_ENCODINGS,
                   NEW_ENCODINGS, PORTFOLIO_2, PORTFOLIO_3,
                   PREVIOUS_ENCODINGS, PortfolioResult, REGISTRY_ENCODINGS,
                   TABLE2_ENCODINGS, Strategy,
                   encode_coloring, get_encoding, minimum_colors,
                   run_portfolio, solve_coloring)
from .fpga import (DetailedRoutingResult, FPGAArchitecture, GlobalRouting,
                   Net, Netlist, detailed_route, load_netlist, load_routing,
                   minimum_channel_width)
from .sat import (CNF, CancelToken, SolveLimits, SolveReport, SolveResult,
                  SolveStatus, solve)
from .reliability import AuditReport, AuditVerdict, FaultPlan
from .sat.solver.cdcl import BudgetExceeded

__version__ = "2.0.0"

__all__ = [
    "api", "SolveRequest", "SolveResponse",
    "ColoringProblem", "Graph",
    "ALL_ENCODINGS", "BEST_SINGLE_STRATEGY", "MODERN_ENCODINGS",
    "NEW_ENCODINGS", "PORTFOLIO_2",
    "PORTFOLIO_3", "PREVIOUS_ENCODINGS", "REGISTRY_ENCODINGS",
    "TABLE2_ENCODINGS", "Strategy",
    "PortfolioResult", "encode_coloring", "get_encoding", "minimum_colors",
    "run_portfolio", "solve_coloring",
    "DetailedRoutingResult", "FPGAArchitecture", "GlobalRouting", "Net",
    "Netlist", "detailed_route", "load_netlist", "load_routing",
    "minimum_channel_width",
    "CNF", "SolveResult", "solve",
    "SolveStatus", "SolveReport", "SolveLimits", "CancelToken",
    "BudgetExceeded",
    "BatchJob", "BatchResult", "run_batch",
    "AuditReport", "AuditVerdict", "FaultPlan",
    "ParseError",
    "__version__",
]
