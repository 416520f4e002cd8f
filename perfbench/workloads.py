"""The three workloads: set-up, one closed-loop pass, and the answer checks.

Every workload pins what a correct answer is before timing starts and
checks each answer as it arrives.  A unit that ends undecided (TIMEOUT,
BUDGET_EXHAUSTED, ERROR, or the ``BudgetExceeded`` / ``AssertionError``
that the flow layer raises) counts as failed.  A decided answer that is
wrong stops the run: :class:`WrongAnswer`.  So does an ERROR with which
the program reports a wrong answer it caught itself (an audit FAIL, or a
model that decodes to no valid coloring).

The layer entry points are called through their modules (``flow.X``, not
a name imported here) so that the traced pass's wrappers see the calls.
The benchmark's own answer checks use names imported here, which the
wrappers leave alone, so they add nothing to a layer's time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from repro import api
from repro.core.strategy import Strategy
from repro.fpga import detailed, flow, global_route, mcnc, placement
from repro.fpga.generate import generate_netlist
from repro.fpga.tracks import assignment_from_coloring, verify_track_assignment
from repro.sat.solver.cdcl import BudgetExceeded
from repro.sat.status import SolveLimits, SolveStatus

#: Per-unit wall limit; every unit here finishes in a few seconds.
UNIT_LIMITS = SolveLimits(wall_clock_limit=60.0)

#: The fastest refuter measured: pins W_min at set-up and drives ``flow``.
REFUTER = Strategy("pop", "s1")

#: ``unroutable`` circuits: Table 2 without its two largest, k2 and vda,
#: which took 59% of a pass and left too few passes in a run for steady
#: medians.
UNROUTABLE_CIRCUITS = [name for name in mcnc.TABLE2_BENCHMARKS
                       if name not in ("k2", "vda")]

#: The three audited Table-2 strategies of the ``unroutable`` workload.
UNROUTABLE_STRATEGIES = (Strategy("pop", "s1"), Strategy("ITE-log", "s1"),
                         Strategy("ITE-linear-2+muldirect", "s1"))

#: ``flow`` circuits: logical netlists placed on a FLOW_SIDE² grid.
#: Few enough that a run holds about ten passes.
FLOW_CIRCUITS = 12
FLOW_BLOCKS = 10
FLOW_NETS = 20
FLOW_SIDE = 4

#: ``batch``: generator-seed shifts of each small routable-configuration
#: profile, and requests per solve_batch call.
BATCH_SHIFTS = 4
BATCH_CHUNK = 8
BATCH_REPEATS_PER_CHUNK = 2
BATCH_WORKERS = 2

#: Details of an ERROR with which the program reports a wrong answer it
#: caught: an audit failure (api, dist scheduler) or a model the pipeline
#: could not decode into a valid coloring.
CAUGHT_WRONG = ("audit failed", "model failed to decode",
                "decoded an invalid coloring")


class WrongAnswer(Exception):
    """A decided answer contradicts the pinned verdict or its check."""


@dataclass
class Circuit:
    """A globally routed circuit with its pinned minimum width."""

    name: str
    routing: object
    width_min: int

    @property
    def hpwl(self) -> int:
        return self.routing.netlist.total_wirelength_lower_bound()


@dataclass
class UnitResult:
    """One unit's answer: its latency, failure reason, and the counters
    that must repeat exactly on every pass and every run of a seed."""

    label: str
    latency_s: float
    failed: str = ""
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class Prepared:
    """A workload after set-up: its units and its quality figures."""

    units: List[object]
    channel_width_sum: int = 0
    hpwl_total: int = 0


def _pin(name: str, routing) -> Circuit:
    width_min = flow.minimum_channel_width(routing, REFUTER,
                                           limits=UNIT_LIMITS)
    return Circuit(name, routing, width_min)


def _prepared(units: List[object], circuits: List[Circuit]) -> Prepared:
    return Prepared(units=units,
                    channel_width_sum=sum(c.width_min for c in circuits),
                    hpwl_total=sum(c.hpwl for c in circuits))


def _undecided(status: SolveStatus) -> str:
    return "" if status.decided else str(status)


def _check_caught(label: str, audit: str, detail: str) -> None:
    """A wrong answer the program caught itself comes back as ERROR; it
    stops the run like any other wrong answer."""
    if audit == "FAIL" or any(mark in detail for mark in CAUGHT_WRONG):
        raise WrongAnswer(f"{label}: {detail or 'audit FAIL'}")


def _check_routing(label: str, csp, coloring) -> None:
    violations = verify_track_assignment(
        assignment_from_coloring(csp, coloring))
    if violations:
        raise WrongAnswer(f"{label}: illegal routing: {violations[0]}")


def _check_refutation(label: str, response) -> None:
    """An UNSAT response must carry audit PASS from RUP replay."""
    _check_caught(label, response.audit, response.report.detail)
    if response.status is SolveStatus.SAT:
        raise WrongAnswer(f"{label}: SAT where UNSAT was pinned")
    if response.status is SolveStatus.UNSAT and response.audit != "PASS":
        raise WrongAnswer(f"{label}: UNSAT without a passing audit "
                          f"({response.audit or 'no audit'})")


def _timed(label: str, body: Callable[[], Tuple[str, Dict[str, int]]]
           ) -> UnitResult:
    start = time.perf_counter()
    failed, counters = body()
    return UnitResult(label, time.perf_counter() - start, failed, counters)


# -- unroutable ----------------------------------------------------------

def setup_unroutable(seed: int) -> Prepared:
    """Six Table-2 circuits at W_min - 1, three audited strategies each.
    The circuits are the paper's fixed set: the seed orders the
    requests."""
    circuits = [_pin(name, mcnc.load_routing(name))
                for name in UNROUTABLE_CIRCUITS]
    units = []
    for circuit in circuits:
        csp = detailed.build_routing_csp(circuit.routing,
                                         circuit.width_min - 1)
        for strategy in UNROUTABLE_STRATEGIES:
            units.append(api.SolveRequest.single(
                csp.problem, strategy, limits=UNIT_LIMITS, audit=True,
                tag=f"{circuit.name}@W{csp.width}/{strategy.label}"))
    random.Random(seed).shuffle(units)
    return _prepared(units, circuits)


def run_unroutable(request) -> UnitResult:
    def body():
        response = api.solve(request)
        _check_refutation(request.tag, response)
        return _undecided(response.status), {
            "conflicts": response.report.conflicts,
            "decisions": response.report.decisions}
    return _timed(request.tag, body)


# -- flow ----------------------------------------------------------------

def setup_flow(seed: int) -> Prepared:
    """Logical netlists from generator seeds 0..FLOW_CIRCUITS-1; the seed
    orders them.  (Shifting the generator seeds moved a pass's wall time
    by +-10%, so every seed runs the same circuits.)  Each answer is
    checked on every pass: a legal routing at the W_min found (verified
    by detailed_route itself) and an audited refutation at W_min - 1."""
    units = []
    for index in range(FLOW_CIRCUITS):
        netlist = placement.random_logical_netlist(
            FLOW_BLOCKS, FLOW_NETS, index, max_fanout=3)
        netlist.name = f"flow{index}"
        units.append(netlist)
    random.Random(seed).shuffle(units)
    return Prepared(units=units)


def run_flow(netlist) -> UnitResult:
    def body():
        placed = placement.place_netlist(netlist, FLOW_SIDE, FLOW_SIDE)
        routing = global_route.route_netlist(placed)
        try:
            width = flow.minimum_channel_width(routing, REFUTER,
                                               limits=UNIT_LIMITS)
            result = flow.detailed_route(routing, width, REFUTER,
                                         limits=UNIT_LIMITS)
        except BudgetExceeded as error:
            return f"BudgetExceeded: {error}", {}
        except AssertionError as error:
            return f"AssertionError: {error}", {}
        # detailed_route verified a SAT answer itself (and raised if its
        # routing was illegal).
        _check_caught(netlist.name, "", str(
            result.outcome.solver_stats.get("stop_reason", "")))
        if result.status is SolveStatus.UNSAT:
            raise WrongAnswer(f"{netlist.name}: UNSAT at the W_min found")
        if not result.status.decided:
            return str(result.status), {}
        conflicts = int(result.outcome.solver_stats.get("conflicts", 0))
        if width > 1:
            below = detailed.build_routing_csp(routing, width - 1)
            response = api.solve(api.SolveRequest.single(
                below.problem, REFUTER, limits=UNIT_LIMITS, audit=True))
            _check_refutation(f"{netlist.name}@W{width - 1}", response)
            if not response.status.decided:
                return str(response.status), {}
            conflicts += response.report.conflicts
        return "", {"width": width,
                    "hpwl": placed.total_wirelength_lower_bound(),
                    "two_pin_nets": routing.num_two_pin_nets,
                    "conflicts": conflicts}
    return _timed(netlist.name, body)


# -- batch ---------------------------------------------------------------

@dataclass
class BatchChunk:
    """One solve_batch call: requests, the CSP behind each, and the
    pinned verdict of each (True = routable)."""

    requests: List[object]
    csps: List[object]
    routable: List[bool]


def setup_batch(seed: int) -> Prepared:
    """The small routable-configuration profiles, each under
    BATCH_SHIFTS generator seeds, at W_min - 1, W_min and W_min + 1,
    grouped into chunks of BATCH_CHUNK requests.  Each chunk repeats
    BATCH_REPEATS_PER_CHUNK of its requests exactly (a quarter of the
    traffic), which the pool's content-addressed dedup serves without a
    second solve.  The seed orders the chunks.  (Seed-dependent circuits
    and grouping moved throughput by 25% and the tail by 40%, so every
    seed sends the same chunks.)"""
    grouping = random.Random(0)
    circuits = []
    for shift in range(BATCH_SHIFTS):
        for name in mcnc.EXTRA_BENCHMARKS:
            spec = mcnc.benchmark_spec(name)
            spec = replace(spec, seed=spec.seed + 7919 * shift)
            routing = global_route.route_netlist(generate_netlist(spec),
                                                 congestion_penalty=1.0)
            circuits.append(_pin(f"{name}.{shift}", routing))
    distinct = []
    for circuit in circuits:
        for delta in (-1, 0, 1):
            width = circuit.width_min + delta
            csp = detailed.build_routing_csp(circuit.routing, width)
            request = api.SolveRequest.single(
                csp.problem, REFUTER, tag=f"{circuit.name}@W{width}")
            distinct.append((request, csp, delta >= 0))
    grouping.shuffle(distinct)
    fresh = BATCH_CHUNK - BATCH_REPEATS_PER_CHUNK
    chunks = []
    for start in range(0, len(distinct) - fresh + 1, fresh):
        members = distinct[start:start + fresh]
        members += grouping.sample(members, BATCH_REPEATS_PER_CHUNK)
        grouping.shuffle(members)
        chunks.append(BatchChunk([m[0] for m in members],
                                 [m[1] for m in members],
                                 [m[2] for m in members]))
    random.Random(seed).shuffle(chunks)
    return _prepared(chunks, circuits)


def run_batch(chunk: BatchChunk) -> List[UnitResult]:
    """One closed-loop call; every request's latency is the call's."""
    start = time.perf_counter()
    responses = api.solve_batch(chunk.requests, max_workers=BATCH_WORKERS,
                                limits=UNIT_LIMITS, audit=True)
    latency = time.perf_counter() - start
    results = []
    for request, csp, routable, response in zip(
            chunk.requests, chunk.csps, chunk.routable, responses):
        _check_caught(request.tag, response.audit, response.report.detail)
        if routable:
            if response.status is SolveStatus.UNSAT:
                raise WrongAnswer(f"{request.tag}: UNSAT at a routable "
                                  f"width")
            if response.status is SolveStatus.SAT:
                _check_routing(request.tag, csp, response.coloring)
        else:
            _check_refutation(request.tag, response)
        results.append(UnitResult(
            request.tag, latency, _undecided(response.status),
            {"conflicts": response.report.conflicts}))
    return results


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], Prepared]
    run: Callable[[object], object]


WORKLOADS: Dict[str, Workload] = {
    "unroutable": Workload(setup_unroutable, run_unroutable),
    "flow": Workload(setup_flow, run_flow),
    "batch": Workload(setup_batch, run_batch),
}
