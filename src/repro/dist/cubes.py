"""Cube-and-conquer splitting on high-degree vertices.

The third parallelism mode of :mod:`repro.dist`: split a single hard
instance into *cubes* — partial color assignments to a few
high-degree vertices — and solve each cube as an assumption query
against a persistent solver (:class:`repro.core.incremental
.AssumptionJobSolver`).  On SAT the siblings are cancelled early; on
UNSAT the cube refutations compose into the instance's refutation.

Two facts shape the design:

* **Cube trees must respect color symmetry.**  Naively branching a
  K-colorable instance on one vertex × K colors re-refutes the same
  search space K times under color renaming — measured on the
  conflict-heavy bench suite this makes cubing *2.7–5× slower* than a
  monolithic solve.  So cubes compose with the strategy's symmetry
  breaking: under s1/b1/c1 the cube vertices are the highest-degree
  vertices *after* the K-1 sequence vertices (whose colors the CNF
  already restricts), and with ``symmetry="none"`` the cube tree
  itself applies Van Gelder's argument — the i-th cube vertex only
  branches over colors ``0..i`` (any coloring can be renamed into that
  normal form, so coverage is preserved).
* **The win is work reduction, not core count.**  A refuted cube's
  learned clauses stay in the worker's persistent solver and prune
  every later cube it draws; measured on the hard-UNSAT suite this
  cuts total conflicts ~2–3× even on one core.  Parallel workers then
  scale that shortened work across cores.

Cube *generation* is a pure function of (graph, K, symmetry, fan-out
target) — no RNG — so the same instance always yields the same cube
tree, which the determinism tests pin.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..coloring.problem import ColoringProblem
from ..core.encodings.registry import get_encoding
from ..core.incremental import AssumptionJobSolver
from ..core.pool import WorkerPool, fire_worker_faults
from ..core.strategy import Strategy
from ..core.symmetry.clauses import apply_symmetry
from ..core.symmetry.heuristics import _sort_key, get_heuristic
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..sat.status import CancelToken, SolveLimits, SolveStatus

__all__ = ["Cube", "CubePlan", "CubeResult", "cube_tree", "generate_cubes",
           "run_cubed"]


def _count(name: str, amount: int = 1) -> None:
    if amount and obs_metrics.enabled():
        obs_metrics.registry().inc(f"dist.cube.{name}", amount)


@dataclass(frozen=True)
class Cube:
    """One branch of the cube tree: a partial color assignment."""

    index: int
    #: ``(vertex, color)`` pairs, in branching order.
    assignment: Tuple[Tuple[int, int], ...]

    def label(self) -> str:
        return "cube" + "".join(f"[{v}={c}]" for v, c in self.assignment)


@dataclass(frozen=True)
class CubePlan:
    """The full cube tree for one instance (deterministic)."""

    #: Vertices branched on, in order (highest degree first).
    vertices: Tuple[int, ...]
    cubes: Tuple[Cube, ...]
    #: Branches dropped because two adjacent cube vertices shared a
    #: color (they can never extend to a proper coloring).
    pruned: int
    depth: int


def cube_tree(problem: ColoringProblem, symmetry: str, *,
              min_cubes: int = 2, max_depth: int = 4) -> CubePlan:
    """The cube tree for ``problem`` under a symmetry heuristic.

    Deepens one vertex at a time — always the next highest-degree
    candidate — until at least ``min_cubes`` live branches exist (or
    ``max_depth`` / the vertex supply stops it).  Pure and
    deterministic: same problem, same symmetry, same targets → same
    tree.
    """
    graph = problem.graph
    num_colors = problem.num_colors
    sequence = get_heuristic(symmetry)(graph, num_colors)
    in_sequence = set(sequence)
    order = sorted(range(graph.num_vertices), key=_sort_key(graph))
    candidates = [v for v in order if v not in in_sequence]
    symmetric = not sequence  # no CNF-side breaking: cap colors ourselves

    cubes: List[Tuple[Tuple[int, int], ...]] = [()]
    pruned = 0
    depth = 0
    while len(cubes) < min_cubes and depth < max_depth \
            and depth < len(candidates):
        vertex = candidates[depth]
        # Under symmetry="none" the i-th cube vertex only branches over
        # colors 0..i (Van Gelder's renaming argument — sound because
        # the CNF carries no color-breaking of its own to clash with).
        colors = range(min(num_colors, depth + 1) if symmetric
                       else num_colors)
        neighbors = set(graph.neighbors(vertex))
        grown: List[Tuple[Tuple[int, int], ...]] = []
        for prefix in cubes:
            taken = {color for v, color in prefix if v in neighbors}
            for color in colors:
                if color in taken:
                    pruned += 1  # adjacent cube vertices, equal color
                    continue
                grown.append(prefix + ((vertex, color),))
        cubes = grown
        depth += 1
    return CubePlan(
        vertices=tuple(candidates[:depth]),
        cubes=tuple(Cube(index=i, assignment=assignment)
                    for i, assignment in enumerate(cubes)),
        pruned=pruned, depth=depth)


def cube_assumptions(encoded, cube: Cube) -> Tuple[int, ...]:
    """The cube as solver assumptions, for any registry encoding.

    ``EncodedProblem.global_pattern(v, c)`` is the conjunction of
    literals selecting color ``c`` at vertex ``v`` under the instance's
    encoding, which is exactly an assumption list — no selector
    variables, no CNF modification, so the cube workers can share one
    encoded formula.
    """
    lits: List[int] = []
    for vertex, color in cube.assignment:
        lits.extend(encoded.global_pattern(vertex, color))
    return tuple(lits)


def generate_cubes(encoded, strategy: Strategy, *, min_cubes: int = 2,
                   max_depth: int = 4):
    """``(plan, [assumptions per cube])`` for an already-encoded problem."""
    plan = cube_tree(encoded.problem, strategy.symmetry,
                     min_cubes=min_cubes, max_depth=max_depth)
    return plan, [cube_assumptions(encoded, cube) for cube in plan.cubes]


@dataclass
class CubeResult:
    """Outcome of one cube-and-conquer run."""

    status: SolveStatus
    coloring: Optional[Dict[int, int]]
    wall_time: float
    plan: CubePlan
    #: Cube index that decided the run (SAT winner), or None.
    winner: Optional[int]
    #: Per-cube verdicts, by cube index (missing = never solved, e.g.
    #: siblings cancelled after a SAT winner).
    cube_status: Dict[int, SolveStatus] = field(default_factory=dict)
    failures: Dict[int, str] = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.status.decided

    @property
    def cubes_closed(self) -> int:
        return sum(1 for s in self.cube_status.values() if s.decided)


def run_cubed(problem: ColoringProblem, strategy: Strategy, *,
              max_workers: int = 1, min_cubes: Optional[int] = None,
              max_depth: int = 4, limits: Optional[SolveLimits] = None,
              timeout: Optional[float] = None, faults=None,
              share=None, cancel=None) -> CubeResult:
    """Solve one instance by cube-and-conquer.

    ``max_workers`` worker slots of a
    :class:`~repro.core.pool.WorkerPool` solve the cubes, each idle slot
    taking the next cube in tree order; each worker process keeps one
    persistent :class:`AssumptionJobSolver` across its cubes, so
    refutations accumulate within a worker.  ``min_cubes`` defaults to
    ``2 * max_workers`` so every worker has a second cube to take the
    moment its first closes.  With one worker (or a single-cube tree)
    everything runs in-process — same plan, same order, no fork — which
    is also the deterministic path the tests pin.  On a SAT cube the
    siblings are cancelled early.  Each cube task is one attempt
    (worker-site faults fire per attempt); a cube whose attempt fails —
    its worker died or raised — is re-solved in the parent, so no cube
    is ever silently dropped.  ``timeout`` and ``cancel`` stop the run:
    running cubes are cancelled, then killed past a grace period.
    ``share`` (True or a :class:`~repro.dist.sharing.ShareConfig`)
    connects the workers in a clause-sharing hub, exactly as in the
    cooperative portfolio.
    """
    if max_workers < 1:
        raise ValueError("max_workers must be positive")
    start = time.perf_counter()
    if min_cubes is None:
        min_cubes = max(2, 2 * max_workers)
    with trace.span("dist.cubes", strategy=strategy.label,
                    workers=max_workers) as span:
        encoded = get_encoding(strategy.encoding).encode(problem)
        apply_symmetry(encoded, strategy.symmetry)
        plan, assumptions = generate_cubes(encoded, strategy,
                                           min_cubes=min_cubes,
                                           max_depth=max_depth)
        span.set("cubes", len(plan.cubes))
        span.set("depth", plan.depth)
        span.set("pruned", plan.pruned)
        _count("opened", len(plan.cubes))
        _count("pruned", plan.pruned)
        member_limits = (limits or SolveLimits()).with_wall_clock(timeout)
        cube_status: Dict[int, SolveStatus] = {}
        failures: Dict[int, str] = {}
        if max_workers == 1 or len(plan.cubes) <= 1:
            winner, coloring = _sweep(problem, strategy, encoded, plan.cubes,
                                      assumptions, member_limits, cancel,
                                      cube_status)
        else:
            winner, coloring = _run_parallel(
                span, problem, strategy, encoded, plan, assumptions,
                member_limits, None if timeout is None else start + timeout,
                cancel, faults, share, max_workers, cube_status, failures)
        result = CubeResult(status=_aggregate(plan, cube_status, winner),
                            coloring=coloring,
                            wall_time=time.perf_counter() - start,
                            plan=plan, winner=winner,
                            cube_status=cube_status, failures=failures)
        span.set("status", str(result.status))
        _count("closed", result.cubes_closed)
        return result


def _aggregate(plan: CubePlan, cube_status: Dict[int, SolveStatus],
               winner: Optional[int]) -> SolveStatus:
    """The run's verdict from the per-cube verdicts.

    SAT needs one SAT cube; UNSAT needs *every* cube refuted (the tree
    covers all colorings up to renaming); anything else inherits the
    strongest not-decided reason, TIMEOUT first.
    """
    if winner is not None:
        return SolveStatus.SAT
    statuses = [cube_status.get(cube.index) for cube in plan.cubes]
    if all(s is SolveStatus.UNSAT for s in statuses):
        return SolveStatus.UNSAT
    for status in (SolveStatus.TIMEOUT, SolveStatus.BUDGET_EXHAUSTED):
        if any(s is status for s in statuses):
            return status
    if any(s is None for s in statuses):
        return SolveStatus.TIMEOUT  # cancelled / never reached
    return SolveStatus.ERROR


def _sweep(problem, strategy, encoded, cubes, assumptions, limits, cancel,
           cube_status: Dict[int, SolveStatus]):
    """Solve ``cubes`` in order on one in-process solver, recording each
    verdict, until a SAT cube (returns its index and coloring) or an
    undecided one (budget / deadline / cancellation stops the sweep)."""
    solver = AssumptionJobSolver(problem, strategy, limits=limits,
                                 cancel=cancel, encoded=encoded)
    for cube in cubes:
        report = solver.solve_cube(assumptions[cube.index])
        cube_status[cube.index] = report.status
        trace.event("cube.closed", index=cube.index,
                    status=str(report.status), member="parent")
        if report.status is SolveStatus.SAT:
            return cube.index, solver.decode()
        if not report.status.decided:
            break
    return None, None


@dataclass
class _CubeSlot:
    """Worker-side state of one cube slot: its member name, its clause
    endpoint, and the persistent solver its process builds at its first
    cube (a fresh process starts over with a fresh solver)."""

    member: str
    channel: object = None
    solver: Optional[AssumptionJobSolver] = None


def _solve_cube(index: int, cancel: CancelToken, problem, strategy,
                encoded, assumptions, limits, faults, slot: _CubeSlot):
    """A cube slot's task: one attempt at cube ``index`` on the worker's
    persistent solver; returns ``(status, coloring or None)``."""
    fire_worker_faults(faults, strategy, ("dist_shard",))
    if slot.solver is None:
        if slot.channel is not None:
            slot.channel.bind_faults(faults, f"{strategy.label}:{slot.member}")
        # The slot's cancel token is the same object for every task of
        # this process, so the solver can keep the first one.
        slot.solver = AssumptionJobSolver(problem, strategy, limits=limits,
                                          cancel=cancel,
                                          clause_channel=slot.channel,
                                          encoded=encoded)
    report = slot.solver.solve_cube(assumptions[index])
    coloring = (slot.solver.decode()
                if report.status is SolveStatus.SAT else None)
    return report.status, coloring


def _run_parallel(span, problem, strategy, encoded, plan, assumptions,
                  limits, deadline, cancel, faults, share, max_workers,
                  cube_status: Dict[int, SolveStatus],
                  failures: Dict[int, str]):
    """The cube policy over a :class:`WorkerPool`, filling
    ``cube_status`` and ``failures``; returns the SAT cube's index and
    coloring, or ``(None, None)``.  Idle slots take the next cube; a SAT
    cube, the deadline or ``cancel`` cancels the cubes still running; a
    cube whose worker attempt fails is re-solved here afterwards."""
    members = [f"cube-w{i}" for i in range(max_workers)]
    hub = None
    if share is not None and share is not False:
        from .sharing import ClauseHub, ShareConfig
        config = share if isinstance(share, ShareConfig) else None
        hub = ClauseHub(members, num_vars=encoded.cnf.num_vars,
                        config=config)
    pool = WorkerPool(
        max_workers, _solve_cube,
        args=(problem, strategy, encoded, assumptions, limits, faults),
        slot_args=[(_CubeSlot(member, hub.endpoint(member)
                              if hub is not None else None),)
                   for member in members],
        span_id=span.span_id)

    def _stopped() -> bool:
        return ((deadline is not None and time.perf_counter() >= deadline)
                or (cancel is not None and cancel.cancelled))

    waiting = deque(plan.cubes)
    winner: Optional[int] = None
    coloring = None
    stopping = False
    try:
        while pool.busy or (waiting and not stopping):
            if hub is not None:
                hub.pump()
            if not stopping and _stopped():
                stopping = True
                pool.cancel()
            if not stopping:
                for slot in pool.idle()[:len(waiting)]:
                    index = waiting.popleft().index
                    pool.submit(slot, index, tag=index)
            for done in pool.wait():
                index, member = done.tag, members[done.slot]
                if done.error is not None:
                    failures[index] = done.error
                if done.exit_code is not None:
                    trace.event("cube.worker_died", member=member,
                                exit_code=done.exit_code, index=index)
                elif done.error is not None:
                    trace.event("cube.worker_failed", member=member,
                                error=done.error, index=index)
                elif not done.killed:  # a killed cube stays unsolved
                    status, payload = done.result
                    cube_status[index] = status
                    trace.event("cube.closed", index=index,
                                status=str(status), member=member)
                    if status is SolveStatus.SAT and winner is None:
                        winner, coloring = index, payload
                        stopping = True
                        pool.cancel()
    finally:
        pool.close()
        if hub is not None:
            hub.close()

    # Crash tolerance: a cube no worker answered is re-solved here,
    # serially, unless a winner, the deadline or a cancel settled the run.
    missing = [cube for cube in plan.cubes if cube.index not in cube_status]
    if missing and winner is None and not _stopped():
        trace.event("cube.requeue", count=len(missing))
        return _sweep(problem, strategy, encoded, missing, assumptions,
                      limits, cancel, cube_status)
    return winner, coloring
