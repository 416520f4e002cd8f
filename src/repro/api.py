"""repro.api — the canonical request/response contract.

Before 1.6 the package had four overlapping solving entrypoints —
:func:`repro.core.pipeline.solve_coloring`, an incremental colour-count
solver's ``query`` (since deleted),
:func:`repro.core.portfolio.run_portfolio` and
:func:`repro.bench.batch.run_batch` — each with its own argument spelling
for the same five things: an instance, a color budget K, a strategy (or
several), resource limits, and observability options.  That was workable
in-process; it breaks at a network boundary, where exactly one
request shape must cross the wire.  This module defines that shape:

* :class:`SolveRequest` — frozen, canonical, hashable description of one
  solve: the instance (a :class:`~repro.coloring.problem.Graph`), K, one
  or more :class:`~repro.core.strategy.Strategy` members, optional
  :class:`~repro.sat.status.SolveLimits`, and the trace/audit opts.
  ``request.cache_key()`` is the SHA-256 of the canonical instance bytes
  plus (K, strategies, limits) — the content address the serve cache
  stores results under (equal instances hash equally regardless of edge
  insertion order, because :func:`repro.coloring.dimacs.canonical_bytes`
  sorts).
* :class:`SolveResponse` — the uniform answer: status, a
  :class:`~repro.sat.status.SolveReport`, the decoded coloring when SAT,
  the winning strategy label, the audit verdict, and cache provenance.
* :func:`solve` / :func:`solve_batch` — the single front door.  One
  strategy dispatches to the pipeline, several race as a portfolio, and
  a sequence of requests fans out over the batch runner.  The network
  server (:mod:`repro.serve`) speaks exactly these shapes via
  ``to_wire``/``from_wire``.

The pre-1.6 entrypoints remain importable (they are the engines this
module routes through).  The *boolean* compatibility shims of the 1.1
status migration were removed in 2.0 — ``docs/api.md`` has the
migration table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .coloring.dimacs import canonical_bytes, parse_col_string
from .coloring.problem import ColoringProblem, Graph
from .core.strategy import BEST_SINGLE_STRATEGY, Strategy
from .sat.status import SolveLimits, SolveReport, SolveStatus

#: Wire format identifier (bumped on incompatible changes).
WIRE_FORMAT = "repro-solve/1"


def strategy_to_wire(strategy: Strategy) -> Dict[str, object]:
    """A strategy as a JSON-ready dict (the label alone is ambiguous —
    defaults are elided from labels)."""
    return {"encoding": strategy.encoding, "symmetry": strategy.symmetry,
            "solver": strategy.solver, "seed": strategy.seed}


def strategy_from_wire(wire: Dict[str, object]) -> Strategy:
    """Rebuild a strategy from its wire dict (validates eagerly).

    Dicts written before 2.0 (journal entries, cached requests) name an
    ``engine``: ``"arena"``, the one engine there is, is accepted and
    any other name refused."""
    engine = wire.get("engine", "arena")
    if engine != "arena":
        raise ValueError(f"unknown solver engine {engine!r}")
    return Strategy(encoding=str(wire["encoding"]),
                    symmetry=str(wire.get("symmetry", "none")),
                    solver=str(wire.get("solver", "siege_like")),
                    seed=int(wire.get("seed", 0)))


def limits_to_wire(limits: Optional[SolveLimits]) -> Optional[Dict[str, object]]:
    if limits is None:
        return None
    return {"conflict_budget": limits.conflict_budget,
            "propagation_budget": limits.propagation_budget,
            "wall_clock_limit": limits.wall_clock_limit}


def limits_from_wire(wire: Optional[Dict[str, object]]) -> Optional[SolveLimits]:
    if wire is None:
        return None
    return SolveLimits(
        conflict_budget=wire.get("conflict_budget"),
        propagation_budget=wire.get("propagation_budget"),
        wall_clock_limit=wire.get("wall_clock_limit"))


def _limits_token(limits: Optional[SolveLimits]) -> str:
    """Canonical text form of a budget, for cache-key hashing.

    ``None`` and the all-None :class:`SolveLimits` both mean "unlimited"
    and must hash identically; any bound change must miss the cache.
    """
    if limits is None or limits.unlimited:
        return "unlimited"
    return (f"c={limits.conflict_budget};p={limits.propagation_budget};"
            f"w={limits.wall_clock_limit}")


@dataclass(frozen=True)
class SolveRequest:
    """One canonical solve: instance, K, strategy set, limits, opts.

    Frozen so a request can key dicts and travel between threads
    unchanged.  ``strategies`` with one member dispatches to the
    pipeline; more race as a portfolio (first decided answer wins).

    ``audit``, ``keep_model`` and ``proof_log`` are execution options —
    they do **not** enter the cache key (the cached artifact always
    stores the decoded coloring and the audit verdict, so a cached
    answer serves any combination).  ``client`` identifies the submitter
    for admission control and per-client budgets; ``tag`` is a free-form
    correlation id echoed back on the response.  Neither enters the
    cache key.
    """

    graph: Graph
    colors: int
    strategies: Tuple[Strategy, ...] = (BEST_SINGLE_STRATEGY,)
    limits: Optional[SolveLimits] = None
    #: Independently re-verify a decided answer before returning it
    #: (:mod:`repro.reliability.audit`); an answer that fails degrades
    #: to ERROR.  The serve layer forces this on every cache fill.
    audit: bool = False
    keep_model: bool = False
    proof_log: bool = False
    client: str = ""
    tag: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.graph, Graph):
            raise TypeError("SolveRequest.graph must be a Graph")
        if self.colors < 1:
            raise ValueError("colors must be at least 1")
        if not self.strategies:
            raise ValueError("a request needs at least one strategy")
        if not isinstance(self.strategies, tuple):
            # Lists are a common call-site slip; normalise instead of
            # failing (object.__setattr__ because the dataclass is
            # frozen).
            object.__setattr__(self, "strategies", tuple(self.strategies))

    @classmethod
    def single(cls, problem: ColoringProblem,
               strategy: Strategy = BEST_SINGLE_STRATEGY,
               **kwargs) -> "SolveRequest":
        """A one-strategy request from an existing coloring problem."""
        return cls(graph=problem.graph, colors=problem.num_colors,
                   strategies=(strategy,), **kwargs)

    def problem(self) -> ColoringProblem:
        """This request's instance as a :class:`ColoringProblem`."""
        return ColoringProblem(self.graph, self.colors)

    # -- content addressing --------------------------------------------

    def canonical_bytes(self) -> bytes:
        """Byte-stable serialization of the instance (sorted-edge
        DIMACS ``.col`` — the cache key's first ingredient)."""
        return canonical_bytes(self.graph)

    def cache_key(self) -> str:
        """SHA-256 hex over (canonical instance bytes, K, strategies,
        limits) — the content address of this request's *answer*.

        Execution opts (``audit``/``keep_model``/``proof_log``) and
        submitter identity (``client``/``tag``) are deliberately
        excluded: they change what the caller sees, not what the answer
        *is*.
        """
        hasher = hashlib.sha256(self.canonical_bytes())
        hasher.update(b"\x00K=%d" % self.colors)
        for strategy in self.strategies:
            hasher.update(b"\x00")
            hasher.update(strategy.label.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(_limits_token(self.limits).encode("utf-8"))
        return hasher.hexdigest()

    def base_key(self) -> str:
        """SHA-256 hex over (canonical instance bytes, K, limits) —
        the *strategy-free* content address.

        Two requests share a base key iff they ask the same question of
        the same instance under the same budget, no matter which
        strategies they race.  The serve cache indexes fills by base
        key so a request whose strategy set is a **superset** of a
        cached decided answer's can be served that answer: SAT/UNSAT is
        a property of the instance, and the larger portfolio would have
        accepted the same first decided result.
        """
        hasher = hashlib.sha256(self.canonical_bytes())
        hasher.update(b"\x00K=%d" % self.colors)
        hasher.update(b"\x00")
        hasher.update(_limits_token(self.limits).encode("utf-8"))
        return hasher.hexdigest()

    # -- wire ----------------------------------------------------------

    def to_wire(self) -> Dict[str, object]:
        """JSON-ready dict (the network request body)."""
        return {
            "format": WIRE_FORMAT,
            "col": self.canonical_bytes().decode("ascii"),
            "colors": self.colors,
            "strategies": [strategy_to_wire(s) for s in self.strategies],
            "limits": limits_to_wire(self.limits),
            "audit": self.audit,
            "keep_model": self.keep_model,
            "proof_log": self.proof_log,
            "client": self.client,
            "tag": self.tag,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, object]) -> "SolveRequest":
        """Rebuild a request from its wire dict (validates the graph,
        the strategies and the limits eagerly)."""
        if wire.get("format") != WIRE_FORMAT:
            raise ValueError(f"unsupported request format "
                             f"{wire.get('format')!r}")
        graph = parse_col_string(str(wire["col"]))
        return cls(
            graph=graph,
            colors=int(wire["colors"]),
            strategies=tuple(strategy_from_wire(s)
                             for s in wire.get("strategies") or ()),
            limits=limits_from_wire(wire.get("limits")),
            audit=bool(wire.get("audit", False)),
            keep_model=bool(wire.get("keep_model", False)),
            proof_log=bool(wire.get("proof_log", False)),
            client=str(wire.get("client", "")),
            tag=str(wire.get("tag", "")),
        )


@dataclass
class SolveResponse:
    """The uniform answer every routed entrypoint returns.

    ``report`` is the shared :class:`SolveReport`; ``coloring`` is the
    decoded witness (SAT answers only); ``winner`` names the strategy
    that produced the answer (portfolio races and batch aggregation);
    ``audit`` is the audit verdict ("PASS"/"FAIL"/"SKIPPED", or ""
    when no audit ran); ``cached`` marks answers served from the
    content-addressed cache, with ``digest`` the cache key either way.
    """

    status: SolveStatus
    report: SolveReport
    coloring: Optional[Dict[int, int]] = None
    winner: str = ""
    digest: str = ""
    audit: str = ""
    cached: bool = False
    tag: str = ""
    #: The pipeline's Table-2 time split, when the executor recorded it.
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.status.decided

    @property
    def exit_code(self) -> int:
        """DIMACS convention: 10 SAT / 20 UNSAT / 0 undecided / 2 error."""
        return self.status.exit_code

    def to_wire(self) -> Dict[str, object]:
        return {
            "format": WIRE_FORMAT,
            "status": self.status.value,
            "report": self.report.to_dict(),
            "stats": self.report.stats,
            "coloring": self.coloring,
            "winner": self.winner,
            "digest": self.digest,
            "audit": self.audit,
            "cached": self.cached,
            "tag": self.tag,
            "timings": self.timings,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, object]) -> "SolveResponse":
        status = SolveStatus(wire["status"])
        report_wire = dict(wire.get("report") or {})
        report = SolveReport(
            status=status,
            wall_time=float(report_wire.get("wall_time", 0.0)),
            conflicts=int(report_wire.get("conflicts", 0)),
            decisions=int(report_wire.get("decisions", 0)),
            propagations=int(report_wire.get("propagations", 0)),
            restarts=int(report_wire.get("restarts", 0)),
            solver=str(report_wire.get("solver", "")),
            detail=str(report_wire.get("detail", "")),
            stats=dict(wire.get("stats") or {}),
        )
        coloring = wire.get("coloring")
        if coloring is not None:
            # JSON object keys are strings; vertex ids are ints.
            coloring = {int(vertex): int(color)
                        for vertex, color in coloring.items()}
        return cls(status=status, report=report, coloring=coloring,
                   winner=str(wire.get("winner", "")),
                   digest=str(wire.get("digest", "")),
                   audit=str(wire.get("audit", "")),
                   cached=bool(wire.get("cached", False)),
                   tag=str(wire.get("tag", "")),
                   timings=dict(wire.get("timings") or {}))


def _audit_verdict(report) -> str:
    return str(report.verdict) if report is not None else ""


def _response_from_outcome(request: SolveRequest, outcome,
                           audit_report=None) -> SolveResponse:
    """Shared packing of a pipeline :class:`ColoringOutcome`."""
    status = outcome.status
    detail = str(outcome.solver_stats.get("stop_reason", ""))
    if audit_report is not None and audit_report.failed:
        status = SolveStatus.ERROR
        detail = "audit failed: " + "; ".join(
            f"{check.name} ({check.detail})"
            for check in audit_report.failures)
    report = SolveReport.from_stats(status, outcome.solver_stats,
                                    detail=detail)
    report.wall_time = outcome.total_time
    return SolveResponse(
        status=status, report=report,
        coloring=outcome.coloring if status is SolveStatus.SAT else None,
        winner=outcome.strategy.label,
        digest=request.cache_key(),
        audit=_audit_verdict(audit_report),
        tag=request.tag,
        timings={"graph_time": outcome.graph_time,
                 "encode_time": outcome.encode_time,
                 "cnf_time": outcome.cnf_time,
                 "symmetry_time": outcome.symmetry_time,
                 "solve_time": outcome.solve_time})


def solve(request: SolveRequest, *, faults=None) -> SolveResponse:
    """The single front door: dispatch one request to the right engine.

    One strategy → :func:`repro.core.pipeline.solve_coloring`; several →
    :func:`repro.core.portfolio.run_portfolio` (first decided answer
    wins).  With ``request.audit`` the decided answer is independently
    re-verified before being returned; a failing audit degrades the
    response to ERROR — it never surfaces a wrong answer.  Never raises
    on solver trouble: every failure mode is a status.
    """
    from .core.pipeline import solve_coloring
    problem = request.problem()
    if len(request.strategies) == 1:
        strategy = request.strategies[0]
        outcome = solve_coloring(
            problem, strategy, limits=request.limits, faults=faults,
            keep_model=request.keep_model or request.audit,
            proof_log=request.proof_log or request.audit)
        audit_report = None
        if request.audit and outcome.status.decided:
            from .reliability.audit import audit_outcome
            audit_report = audit_outcome(problem, outcome)
        return _response_from_outcome(request, outcome, audit_report)

    from .core.portfolio import run_portfolio
    result = run_portfolio(problem, list(request.strategies),
                           limits=request.limits, audit=request.audit,
                           faults=faults)
    if result.outcome is not None:
        winner_label = result.winner.label
        audit_report = result.audits.get(winner_label)
        response = _response_from_outcome(request, result.outcome,
                                          audit_report)
        response.winner = winner_label
        response.report.wall_time = result.wall_time
        return response
    report = result.report
    return SolveResponse(status=result.status, report=report,
                         digest=request.cache_key(), tag=request.tag)


def solve_batch(requests: Sequence[SolveRequest],
                max_workers: Optional[int] = None,
                job_timeout: Optional[float] = None,
                limits: Optional[SolveLimits] = None,
                audit: bool = False,
                num_shards: int = 1,
                **batch_kwargs) -> List[SolveResponse]:
    """Fan a request sequence over the distributed shard scheduler.

    Each request expands to one batch job per member strategy; a
    request's response aggregates its jobs the way a portfolio would
    (first decided answer in strategy order wins).  Per-request
    ``limits`` are merged with the pool-level ``limits`` per job — the
    scheduler's ``job_timeout``/retry/quarantine machinery applies
    unchanged.  Always returns one response per request, in order.

    ``num_shards=1`` (the default) runs one worker pool, exactly as
    :func:`repro.bench.batch.run_batch` does; larger values split the
    jobs over that many locality-aware work-stealing queues of
    :func:`repro.dist.scheduler.run_sharded`, which pays off when the
    corpus is large and instances repeat.
    """
    from .bench.batch import BatchJob
    from .dist.scheduler import run_sharded
    jobs: List[BatchJob] = []
    names: List[str] = []
    pooled = limits if limits is not None else SolveLimits()
    per_request_limits: List[Optional[SolveLimits]] = []
    for index, request in enumerate(requests):
        digest = request.cache_key()
        name = f"req{index}:{digest[:12]}"
        names.append(name)
        merged = pooled.merge(request.limits)
        per_request_limits.append(merged)
        problem = request.problem()
        for strategy in request.strategies:
            jobs.append(BatchJob(instance=name, problem=problem,
                                 strategy=strategy))
    uniform = {_limits_token(l) for l in per_request_limits}
    if len(uniform) > 1:
        raise ValueError(
            "solve_batch requires a uniform budget across requests "
            "(the batch runner applies one SolveLimits per pool); "
            "submit heterogeneous budgets through repro.serve instead")
    effective = per_request_limits[0] if per_request_limits else None
    if effective is not None and effective.unlimited:
        effective = None
    result = run_sharded(jobs, num_shards=num_shards,
                         max_workers=max_workers, job_timeout=job_timeout,
                         limits=effective, audit=audit, **batch_kwargs)

    responses: List[SolveResponse] = []
    for index, request in enumerate(requests):
        name = names[index]
        picked = None
        fallback = None
        for strategy in request.strategies:
            job_result = result.by_key.get((name, strategy.label))
            if job_result is None:
                continue
            if fallback is None:
                fallback = job_result
            if job_result.status.decided:
                picked = job_result
                break
        job_result = picked or fallback
        if job_result is None:  # batch cancelled before this request ran
            report = SolveReport(status=SolveStatus.TIMEOUT,
                                 detail="batch cancelled before launch")
            responses.append(SolveResponse(
                status=SolveStatus.TIMEOUT, report=report,
                digest=request.cache_key(), tag=request.tag))
            continue
        if job_result.outcome is not None:
            response = _response_from_outcome(request, job_result.outcome,
                                              job_result.audit)
        else:
            detail = job_result.error or str(job_result.status)
            report = SolveReport(status=job_result.status, detail=detail,
                                 wall_time=job_result.wall_time)
            response = SolveResponse(status=job_result.status,
                                     report=report,
                                     digest=request.cache_key(),
                                     tag=request.tag)
        responses.append(response)
    return responses


__all__ = [
    "WIRE_FORMAT", "SolveRequest", "SolveResponse", "solve", "solve_batch",
    "strategy_to_wire", "strategy_from_wire",
    "limits_to_wire", "limits_from_wire",
]
