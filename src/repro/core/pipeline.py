"""The coloring half of the tool flow: problem → CNF → solve → decode.

Timing is split the way Table 2 reports it — time to generate the
graph-coloring problem (owned by the caller, e.g. the FPGA layer), time to
translate it to CNF, and time to SAT-solve — so the benchmark harness can
print the same "total CPU time" rows as the paper.

The split is measured with :mod:`repro.obs` trace spans
(``coloring.solve`` → ``encode`` → ``encode.cnf`` / ``encode.symmetry``,
then ``solve``): the span objects always time their phase, and when
tracing is enabled (``--trace`` / ``REPRO_TRACE``) the same spans are
additionally recorded into the run's JSONL trace, with fault injections
and the solver's finish line as span events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..coloring.problem import ColoringProblem
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..sat.model import Model
from ..sat.solver.cdcl import BudgetExceeded, CDCLSolver
from ..sat.status import CancelToken, SolveLimits, SolveReport, SolveStatus
from .encodings.registry import get_encoding
from .strategy import Strategy
from .symmetry.clauses import apply_symmetry


@dataclass
class ColoringOutcome:
    """Result of solving one coloring problem with one strategy.

    ``status`` is the five-way :class:`SolveStatus`; :attr:`is_sat` is
    the boolean shorthand (check ``status.decided`` before treating
    False as a proof of uncolorability — a budgeted run may be TIMEOUT
    or BUDGET_EXHAUSTED instead).  The historical ``satisfiable``
    property is deprecated since 1.6 (see ``docs/api.md``).
    """

    strategy: Strategy
    status: SolveStatus
    coloring: Optional[Dict[int, int]]
    encode_time: float
    solve_time: float
    num_vars: int
    num_clauses: int
    solver_stats: Dict[str, float] = field(default_factory=dict)
    graph_time: float = 0.0  # time to produce the coloring problem, if known
    #: CNF-generation split of encode_time: translating the coloring
    #: problem to clauses vs generating symmetry-breaking clauses.
    cnf_time: float = 0.0
    symmetry_time: float = 0.0
    #: The raw SAT assignment, retained only when ``solve_coloring`` was
    #: called with ``keep_model=True`` (the audit layer re-checks it
    #: against a re-encoding of the problem).
    model: Optional[Model] = None
    #: The recorded DRUP proof of an UNSAT answer, retained only under
    #: ``proof_log=True`` (replayable with the independent RUP checker).
    proof: Optional[List[Tuple[int, ...]]] = None
    #: The proof's ``(ids, starts)`` hints, the checker's ``hints=``
    #: argument (see :func:`repro.sat.proof.verify_rup_proof`).
    proof_hints: Optional[Tuple[Sequence[int], Sequence[int]]] = None

    @property
    def is_sat(self) -> bool:
        """True iff ``status is SolveStatus.SAT``."""
        return self.status is SolveStatus.SAT

    @property
    def satisfiable(self) -> bool:
        """Deprecated alias of :attr:`is_sat` (since 1.6)."""
        import warnings
        warnings.warn(
            "ColoringOutcome.satisfiable is deprecated; check `status is "
            "SolveStatus.SAT` or the `is_sat` shorthand (docs/api.md has "
            "the migration table)", DeprecationWarning, stacklevel=2)
        return self.status is SolveStatus.SAT

    @property
    def total_time(self) -> float:
        """Graph generation + CNF translation + SAT solving (Table 2)."""
        return self.graph_time + self.encode_time + self.solve_time

    @property
    def report(self) -> SolveReport:
        """This outcome as the shared :class:`SolveReport` shape."""
        report = SolveReport.from_stats(self.status, self.solver_stats)
        report.wall_time = self.total_time
        return report


def _resolve_fault_plan(faults, strategy: Strategy):
    """The narrowed fault plan for this run, or None (the normal path).

    ``faults`` is None (``REPRO_FAULTS`` environment plan only), a
    :class:`~repro.reliability.faults.FaultPlan`, or ``False`` to
    disable injection (the audit layer's sentinel).  Guarded so the
    reliability package is only imported when a plan might be active.
    """
    import os
    if faults is None and not os.environ.get("REPRO_FAULTS"):
        return None
    from ..reliability.faults import FaultPlan
    plan = FaultPlan.resolve(faults)
    if plan is None:
        return None
    plan = plan.narrow(strategy.label)
    return None if plan.empty else plan


def solve_coloring(problem: ColoringProblem, strategy: Strategy,
                   graph_time: float = 0.0,
                   limits: Optional[SolveLimits] = None,
                   cancel: Optional[CancelToken] = None, *,
                   faults=None, keep_model: bool = False,
                   proof_log: bool = False,
                   clause_channel=None) -> ColoringOutcome:
    """Encode ``problem`` per ``strategy``, solve, decode and validate.

    When the formula is satisfiable the decoded coloring is checked
    against the problem before being returned — a model that fails to
    decode, or decodes to an improper coloring (an encoding bug or an
    injected ``wrong_model`` fault), degrades to an outcome with
    ``status=SolveStatus.ERROR`` and a diagnostic ``stop_reason``
    instead of an exception, so orchestration layers always get a
    structured answer.

    ``limits`` bounds the run: the wall clock covers encoding *and*
    solving (the solver gets whatever remains after CNF generation), so
    a caller-imposed deadline holds end to end.  ``cancel`` is observed
    by the solver at conflict/decision boundaries.  A bounded run that
    stops early returns an outcome whose ``status`` is TIMEOUT or
    BUDGET_EXHAUSTED, with ``coloring=None`` and valid partial stats.

    ``faults`` activates fault injection (see
    :mod:`repro.reliability.faults`): None uses only the
    ``REPRO_FAULTS`` environment plan, a ``FaultPlan`` is used as given,
    and ``False`` disables injection even if the environment configures
    it.  ``keep_model`` retains the raw SAT assignment on the outcome
    and ``proof_log`` the recorded UNSAT proof — both are what the
    audit layer (:mod:`repro.reliability.audit`) re-checks.

    ``clause_channel`` plugs this run into a clause-sharing channel
    (:mod:`repro.dist.sharing`) — cooperative portfolio / cube workers
    pass their endpoint here.  None keeps the solve bit-identical to an
    unshared run.
    """
    with trace.span("coloring.solve", strategy=strategy.label,
                    encoding=strategy.encoding,
                    symmetry=strategy.symmetry,
                    engine=getattr(strategy, "engine", "arena")) as run_span:
        return _solve_coloring_in_span(
            run_span, problem, strategy, graph_time, limits, cancel,
            faults=faults, keep_model=keep_model, proof_log=proof_log,
            clause_channel=clause_channel)


def _solve_coloring_in_span(run_span, problem: ColoringProblem,
                            strategy: Strategy, graph_time: float,
                            limits: Optional[SolveLimits],
                            cancel: Optional[CancelToken], *,
                            faults, keep_model: bool,
                            proof_log: bool,
                            clause_channel=None) -> ColoringOutcome:
    """:func:`solve_coloring` body, inside its already-open span.

    The encode/cnf/symmetry/solve time split reported on the outcome is
    read from the child spans' wall clocks — spans measure whether or
    not tracing records them, so the Table-2 numbers never depend on
    observability being switched on.
    """
    plan = _resolve_fault_plan(faults, strategy)
    with trace.span("encode", encoding=strategy.encoding) as encode_span:
        with trace.span("encode.cnf") as cnf_span:
            encoded = get_encoding(strategy.encoding).encode(problem)
        with trace.span("encode.symmetry",
                        heuristic=strategy.symmetry) as symmetry_span:
            apply_symmetry(encoded, strategy.symmetry)
        injected = None
        if plan is not None:
            from ..reliability.faults import FaultInjector
            injected = FaultInjector(plan, label=strategy.label,
                                     sites=("encode",)).corrupt_cnf(
                                         encoded.cnf)
            if injected:
                trace.event("fault.injected",
                            kind=injected.split(":", 1)[0],
                            site="encode", strategy=strategy.label)
        encode_span.set("num_vars", encoded.cnf.num_vars)
        encode_span.set("num_clauses", encoded.cnf.num_clauses)
    cnf_time = cnf_span.wall
    symmetry_time = symmetry_span.wall
    encode_time = encode_span.wall
    if obs_metrics.enabled():
        registry = obs_metrics.registry()
        registry.inc("pipeline.solves")
        registry.observe("pipeline.encode_time", encode_time)
        registry.observe("pipeline.cnf_vars", encoded.cnf.num_vars)
        registry.observe("pipeline.cnf_clauses", encoded.cnf.num_clauses)

    def stopped(status: SolveStatus, stats: Dict[str, float],
                solve_time: float = 0.0) -> ColoringOutcome:
        run_span.set("status", str(status))
        if obs_metrics.enabled():
            obs_metrics.registry().inc(f"pipeline.status.{status}")
        return ColoringOutcome(
            strategy=strategy, status=status, coloring=None,
            encode_time=encode_time, solve_time=solve_time,
            num_vars=encoded.cnf.num_vars,
            num_clauses=encoded.cnf.num_clauses,
            solver_stats=stats, graph_time=graph_time,
            cnf_time=cnf_time, symmetry_time=symmetry_time)

    if limits is not None and limits.wall_clock_limit is not None:
        remaining = limits.wall_clock_limit - encode_time
        if remaining <= 0 or (cancel is not None and cancel.cancelled):
            # The deadline elapsed during encoding: report TIMEOUT
            # without starting the search.
            return stopped(SolveStatus.TIMEOUT,
                           {"stop_reason": "wall-clock limit "
                                           "(during encoding)"})
        limits = limits.with_wall_clock(remaining)

    config = strategy.solver_config(limits)
    # Hand the already-resolved plan down (False stops the engine from
    # re-reading the environment — resolution happens exactly once).
    config.fault_plan = plan if plan is not None else False
    if proof_log:
        config.proof_log = True
    if clause_channel is not None:
        config.clause_channel = clause_channel

    solver = CDCLSolver(encoded.cnf, config)
    try:
        with trace.span("solve", engine=getattr(strategy, "engine",
                                                "arena"),
                        solver=config.name) as solve_span:
            result = solver.solve(cancel=cancel)
    except BudgetExceeded:
        raise  # an explicitly requested hard budget, not a failure
    except Exception as error:  # crash fault or engine bug: degrade
        return stopped(SolveStatus.ERROR,
                       {"stop_reason": f"solver crashed: "
                                       f"{type(error).__name__}: {error}"},
                       solve_time=solve_span.wall)
    if injected:
        result.stats["injected_faults"] = ",".join(
            filter(None, [str(result.stats.get("injected_faults", "")),
                          f"{injected.split(':', 1)[0]}@encode"]))

    proof = proof_hints = None
    if proof_log and result.status is SolveStatus.UNSAT:
        proof = list(solver.proof)
        proof_hints = (solver.hint_ids, solver.hint_starts)
    coloring = None
    if result.is_sat:
        try:
            coloring = encoded.decode(result.model)
        except Exception as error:
            result.stats["stop_reason"] = (
                f"model failed to decode: {type(error).__name__}: {error}")
            return stopped(SolveStatus.ERROR, result.stats,
                           solve_time=result.stats.get("solve_time", 0.0))
        if not problem.is_valid_coloring(coloring):
            result.stats["stop_reason"] = (
                f"encoding {strategy.encoding!r} decoded an invalid "
                f"coloring (wrong model or encoding bug)")
            return stopped(SolveStatus.ERROR, result.stats,
                           solve_time=result.stats.get("solve_time", 0.0))
    run_span.set("status", str(result.status))
    if obs_metrics.enabled():
        obs_metrics.registry().inc(f"pipeline.status.{result.status}")
    return ColoringOutcome(
        strategy=strategy,
        status=result.status,
        coloring=coloring,
        encode_time=encode_time,
        solve_time=result.stats.get("solve_time", 0.0),
        num_vars=encoded.cnf.num_vars,
        num_clauses=encoded.cnf.num_clauses,
        solver_stats=result.stats,
        graph_time=graph_time,
        cnf_time=cnf_time,
        symmetry_time=symmetry_time,
        model=result.model if keep_model else None,
        proof=proof,
        proof_hints=proof_hints,
    )


def minimum_colors(problem: ColoringProblem, strategy: Strategy,
                   lower: int = 1, upper: Optional[int] = None) -> int:
    """Smallest K for which the graph is K-colorable, by SAT search.

    This is how the routing harness finds the minimum channel width W: the
    configuration with W-1 tracks is then provably unroutable, the paper's
    optimality guarantee (§1).
    """
    graph = problem.graph
    if graph.num_vertices == 0:
        return 0
    if upper is None:
        from ..coloring.greedy import greedy_num_colors
        upper = max(1, greedy_num_colors(graph))
    if lower < 1:
        lower = 1
    # The greedy bound is constructive, so `upper` is always colorable.
    while lower < upper:
        middle = (lower + upper) // 2
        outcome = solve_coloring(problem.with_colors(middle), strategy)
        if outcome.is_sat:
            upper = middle
        else:
            lower = middle + 1
    return lower
