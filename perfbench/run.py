"""End-to-end routing benchmark: three closed-loop workloads, verified answers.

Run from the repository root::

    python3 perfbench/run.py --workload unroutable --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/workloads.py``): ``unroutable`` (audited Table-2
refutations at W_min - 1), ``flow`` (placement, global routing, width
search and routing of seeded logical netlists) and ``batch`` (small
requests, a quarter of them repeats, through ``api.solve_batch`` on two
workers).

A run sets the workload up once, then runs whole passes over its units,
one unit after the previous returns, while the next pass is expected to
end within ``--seconds`` of pass time.  Untraced, it also repeats the
set-up between units, outside their time, for about SETUP_SHARE of the
run; ``setup_s`` is the median of those set-ups, and each must produce
what the first did.  A unit's latency is the lower quartile of its
times over the passes, weighted by their number, and ``throughput`` and
``cpu_s`` take the lower quartile of the passes' times.  Every answer is
checked; a wrong one ends the run with exit code 1.  The counters each
unit reports must be identical on every pass; their digest is printed so
two runs of one seed can be compared.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs
untraced passes for half the time, then as many traced passes, and prints
per-layer self times and counters (``perfbench/layers.py``), the tracing
overhead and the wall time no layer accounts for; more than
ATTRIBUTION_TOLERANCE of it unaccounted ends the run with exit code 1.
The traced spans are written to
``perfbench/out/<workload>-<seed>.trace.jsonl``; render them with
``PYTHONPATH=src python -m repro trace FILE``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: An untraced run repeats its set-up between units, outside their time,
#: whenever the set-ups so far took less than SETUP_SHARE of the pass time
#: so far, and at least SETUP_MIN times.  Spread over the whole run, the
#: set-ups meet the same machine speed as the passes: a set-up timed at
#: process start read up to 70% slow, and five short rounds of them still
#: moved 30% between two sets of runs.
SETUP_SHARE = 0.15
SETUP_MIN = 3

#: Largest share of the traced wall time that may stay unattributed.
ATTRIBUTION_TOLERANCE = 0.05

#: The ``--trace 1`` metrics: (name, unit).
PER_LAYER = [
    ("solver.search_s", "s"), ("solver.load_s", "s"),
    ("solver.conflicts", "count"), ("solver.propagations", "count"),
    ("solver.watch_inspections", "count"), ("solver.props_per_s", "1/s"),
    ("audit.busy_s", "s"), ("audit.proof_steps", "count"),
    ("encodings.busy_s", "s"), ("encodings.vars", "count"),
    ("encodings.clauses", "count"),
    ("symmetry.busy_s", "s"), ("symmetry.clauses", "count"),
    ("pipeline.decode_s", "s"), ("tracks.verify_s", "s"),
    ("detailed.busy_s", "s"), ("detailed.edges", "count"),
    ("placement.busy_s", "s"), ("placement.hpwl", "count"),
    ("global_route.busy_s", "s"), ("global_route.two_pin_nets", "count"),
    ("global_route.max_segment_usage", "count"),
    ("flow.width_search_s", "s"), ("flow.route_s", "s"),
    ("flow.probes", "count"), ("flow.probe_conflicts", "count"),
    ("api.overhead_s", "s"),
    ("pool.busy_s", "s"), ("pool.overhead_s", "s"),
    ("pool.utilization", "ratio"),
    ("unattributed_s", "s"), ("tracing_overhead_s", "s"),
]

#: Per-layer self times: metric name -> layer (see layers.py).
SELF_TIMES = {
    "solver.search_s": "solver.search", "solver.load_s": "solver.load",
    "audit.busy_s": "audit", "encodings.busy_s": "encodings",
    "symmetry.busy_s": "symmetry", "pipeline.decode_s": "pipeline.decode",
    "tracks.verify_s": "tracks", "detailed.busy_s": "detailed",
    "placement.busy_s": "placement", "global_route.busy_s": "global_route",
    "flow.route_s": "flow.route",
    "api.overhead_s": "api", "pool.overhead_s": "pool",
}

#: Per-layer counters: metric name -> span counter (see layers.py).
COUNTERS = {
    "solver.conflicts": "solver.search.conflicts",
    "solver.propagations": "solver.search.propagations",
    "solver.watch_inspections": "solver.search.watch_inspections",
    "audit.proof_steps": "audit.proof_steps",
    "encodings.vars": "encodings.vars",
    "encodings.clauses": "encodings.clauses",
    "symmetry.clauses": "symmetry.clauses",
    "detailed.edges": "detailed.edges",
    "placement.hpwl": "placement.hpwl",
    "global_route.two_pin_nets": "global_route.two_pin_nets",
    "global_route.max_segment_usage": "global_route.max_segment_usage",
}


def _cpu_seconds() -> float:
    """Process CPU time, reaped children included."""
    times = os.times()
    return times.user + times.system + times.children_user \
        + times.children_system


def _peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def tail_percentile(samples: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    if samples <= 10:
        raise ValueError(f"{samples} samples leave no tail with ten "
                         f"beyond it")
    return math.floor(100 * (samples - 10) / samples)


def percentile(values, q: int) -> float:
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def lower_quartile(values) -> float:
    return percentile(values, 25)


class Failure(Exception):
    """The run cannot report: a wrong answer or a nondeterministic one."""


class Pass:
    def __init__(self, results, wall: float, cpu: float) -> None:
        self.results = results
        self.wall = wall
        self.cpu = cpu

    def signature(self):
        """Each decided unit's counters, by position in the pass (a
        failed unit, e.g. one that hit its wall limit, has none)."""
        return {index: (r.label, sorted(r.counters.items()))
                for index, r in enumerate(self.results) if not r.failed}

    def agrees_with(self, other: "Pass") -> bool:
        mine, theirs = self.signature(), other.signature()
        return all(mine[i] == theirs[i] for i in mine.keys() & theirs.keys())


def run_passes(workload, prepared, seconds: float, on_unit=None,
               between_units=None):
    """Whole passes while the next is expected to end within ``seconds``
    of pass time (at least one).  ``between_units(elapsed)`` runs after
    each unit, outside the pass's wall and CPU time; ``elapsed`` is the
    pass time so far."""
    from workloads import WrongAnswer
    run = on_unit or workload.run
    passes = []
    elapsed = 0.0
    while True:
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        paused_cpu = paused_wall = 0.0
        results = []
        try:
            for unit in prepared.units:
                outcome = run(unit)
                results.extend(outcome if isinstance(outcome, list)
                               else [outcome])
                if between_units:
                    cpu1, wall1 = _cpu_seconds(), time.perf_counter()
                    between_units(elapsed + wall1 - wall0 - paused_wall)
                    paused_cpu += _cpu_seconds() - cpu1
                    paused_wall += time.perf_counter() - wall1
        except WrongAnswer as error:
            raise Failure(f"wrong answer: {error}") from error
        passes.append(Pass(results,
                           time.perf_counter() - wall0 - paused_wall,
                           _cpu_seconds() - cpu0 - paused_cpu))
        if not passes[-1].agrees_with(passes[0]):
            raise Failure("counters differ between passes of one run")
        elapsed += passes[-1].wall
        if elapsed + passes[-1].wall > seconds:
            return passes


def warm_up(workload, prepared) -> None:
    """Run the first unit once before timing, so that lazy imports and
    first calls are paid by neither set-up nor the passes."""
    from workloads import WrongAnswer
    try:
        workload.run(prepared.units[0])
    except WrongAnswer as error:
        raise Failure(f"wrong answer: {error}") from error


def quality(prepared):
    return (len(prepared.units), prepared.channel_width_sum,
            prepared.hpwl_total)


class SetupSamples:
    """Repeated set-ups, interleaved with the units (see SETUP_SHARE)."""

    def __init__(self, workload, seed: int, prepared):
        self.workload, self.seed = workload, seed
        self.expected = quality(prepared)
        self.times = []

    def sample(self) -> None:
        began = time.perf_counter()
        prepared = self.workload.setup(self.seed)
        self.times.append(time.perf_counter() - began)
        if quality(prepared) != self.expected:
            raise Failure("a repeated set-up differs from the first")

    def between_units(self, elapsed: float) -> None:
        if sum(self.times) < SETUP_SHARE * elapsed:
            self.sample()

    def finish(self):
        while len(self.times) < SETUP_MIN:
            self.sample()
        return self.times


def digest(prepared, first: Pass) -> str:
    payload = json.dumps([prepared.channel_width_sum, prepared.hpwl_total,
                          sorted(first.signature().items())])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def failures(passes):
    attempted = sum(len(p.results) for p in passes)
    failed = [r for p in passes for r in p.results if r.failed]
    for result in failed[:5]:
        print(f"failed: {result.label}: {result.failed}")
    return attempted, len(failed)


def end_to_end(prepared, setup_times, passes):
    units = len(passes[0].results)
    # A unit's latency is the lower quartile of its times over the passes
    # (one sample per pass run), and so is a pass's time: on a shared box
    # other tenants only ever add time, in phases of several seconds.
    # Over six runs of each workload, the lower quartile moved from run
    # to run about half as much as the median on flow, and less than the
    # fastest pass did on batch, whose best pass needs both workers
    # uncontended.  A percentile of raw samples sat among the slowest
    # units' noisiest runs.
    per_unit = [lower_quartile([p.results[i].latency_s for p in passes])
                for i in range(units)]
    samples = per_unit * len(passes)
    tail = tail_percentile(len(samples))
    attempted, failed = failures(passes)
    widths = prepared.channel_width_sum
    hpwl = prepared.hpwl_total
    if not widths:   # flow: the quality figures are answers of each pass
        widths = sum(r.counters.get("width", 0) for r in passes[0].results)
        hpwl = sum(r.counters.get("hpwl", 0) for r in passes[0].results)
    print(f"latency: p50 and p{tail} over {len(samples)} samples "
          f"({units} units x {len(passes)} passes); setup_s over "
          f"{len(setup_times)} set-ups")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput": (units / lower_quartile([p.wall for p in passes]),
                       "1/s"),
        "latency_p50_s": (statistics.median(samples), "s"),
        "latency_tail_s": (percentile(samples, tail), "s"),
        "cpu_s": (lower_quartile([p.cpu for p in passes]), "s"),
        "decided_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "channel_width_sum": (widths, "tracks"),
        "hpwl_total": (hpwl, "count"),
    }
    return attempted, failed, metrics


def per_layer(name: str, seed: int, workload, prepared, seconds: float):
    """Untraced passes, then as many traced ones: the per-layer table."""
    from repro.obs import trace
    from layers import UNIT_SPAN, Attribution, LayerPatches
    from workloads import BATCH_WORKERS

    plain = run_passes(workload, prepared, seconds / 2)
    unit_ids = itertools.count()

    def traced_unit(unit):
        with trace.span(UNIT_SPAN, workload=name, unit=next(unit_ids)):
            return workload.run(unit)

    trace.enable()
    patches = LayerPatches()
    try:
        traced = [run_passes(workload, prepared, 0, traced_unit)[0]
                  for _ in plain]
    finally:
        patches.restore()
        records = trace.tracer().drain_spans()
        trace.disable()
    if not all(p.agrees_with(plain[0]) for p in traced):
        raise Failure("counters differ between traced and untraced passes")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{name}-{seed}.trace.jsonl"
    if path.exists():
        path.unlink()
    trace.tracer().flush(str(path), extra_records=records)

    n = len(traced)
    wall = sum(p.wall for p in traced)
    layers = Attribution(records)
    search = layers.self_s["solver.search"]
    pool_wall = layers.wall_s["pool"]
    unattributed = max(0.0, wall - layers.main_covered)
    totals = {metric: layers.self_s[layer]
              for metric, layer in SELF_TIMES.items()}
    totals.update({metric: layers.counters[counter]
                   for metric, counter in COUNTERS.items()})
    totals.update({"flow.probes": layers.probes,
                   "flow.probe_conflicts": layers.probe_conflicts,
                   "flow.width_search_s": layers.wall_s["flow.width_search"],
                   "pool.busy_s": layers.pool_busy,
                   "unattributed_s": unattributed})
    metrics = {key: value / n for key, value in totals.items()}
    metrics["solver.props_per_s"] = (
        layers.counters["solver.search.propagations"] / search
        if search else 0.0)
    metrics["pool.utilization"] = (
        layers.pool_busy / (pool_wall * BATCH_WORKERS) if pool_wall else 0.0)
    metrics["tracing_overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in plain))

    share = unattributed / wall
    print(f"trace: {n} traced pass(es), {wall / n:.3f}s wall per pass, "
          f"written to {path.relative_to(HERE.parent)}")
    print(f"attribution: {share:.1%} of traced wall unattributed "
          f"(tolerance {ATTRIBUTION_TOLERANCE:.0%}): "
          f"{'ok' if share <= ATTRIBUTION_TOLERANCE else 'EXCEEDED'}")
    if share > ATTRIBUTION_TOLERANCE:
        raise Failure(f"{share:.1%} of the traced wall time is in no layer")
    print("self time per pass:")
    for key, value in sorted(metrics.items(), key=lambda kv: -kv[1]):
        if key in SELF_TIMES and value > 0:
            print(f"  {key:<24} {value:9.4f}s  "
                  f"{value / (wall / n):6.1%} of wall")
    print(f"  (flow.width_search_s includes its probes: "
          f"{metrics['flow.width_search_s']:.4f}s; pool.busy_s "
          f"{metrics['pool.busy_s']:.4f}s is summed over workers)")
    attempted, failed = failures(plain + traced)
    return attempted, failed, {key: (metrics[key], unit)
                               for key, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    prepared = workload.setup(args.seed)
    print(f"{args.workload} seed {args.seed}: {len(prepared.units)} units, "
          f"first set-up {time.perf_counter() - start:.4f}s")
    try:
        warm_up(workload, prepared)
        # setup_s is an end-to-end metric: a traced run sets up only once.
        if args.trace:
            attempted, failed, metrics = per_layer(
                args.workload, args.seed, workload, prepared, args.seconds)
        else:
            samples = SetupSamples(workload, args.seed, prepared)
            passes = run_passes(workload, prepared, args.seconds,
                                between_units=samples.between_units)
            setup_times = samples.finish()
            print(f"passes: {len(passes)}, wall "
                  + ", ".join(f"{p.wall:.3f}s" for p in passes))
            print(f"counters digest: {digest(prepared, passes[0])}")
            attempted, failed, metrics = end_to_end(prepared, setup_times,
                                                    passes)
    except Failure as error:
        print(f"error: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for key, (value, unit) in metrics.items():
        print(f"  {key:<32} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
