"""Command-line front-end.

Exposes the paper's two-stage tool flow as composable commands::

    python -m repro benchmarks                       # list circuit profiles
    python -m repro generate alu2 --out alu2.json    # placed netlist JSON
    python -m repro width alu2                       # min channel width
    python -m repro route alu2 --width 7             # tracks or UNSAT proof
    python -m repro portfolio alu2 --width 7         # parallel strategy race
    python -m repro extract alu2 --width 6 --out g.col   # stage 1: .col
    python -m repro encode g.col --colors 6 \\
        --encoding ITE-linear-2+muldirect --symmetry s1 --out g.cnf  # stage 2
    python -m repro solve g.cnf                      # plain CDCL on DIMACS
    python -m repro audit g.col --colors 6           # solve + re-check answer
    python -m repro route alu2 --width 7 --trace run.jsonl  # traced run
    python -m repro trace run.jsonl                  # render the span tree
    python -m repro metrics run.jsonl                # render metric snapshots
    python -m repro fuzz --seeds 5 --out bundles     # differential fuzzing
    python -m repro serve --cache-dir cache          # solver-as-a-service
    python -m repro submit localhost:7227 g.col --colors 6  # remote job

Every command is deterministic given its inputs, so pipelines are
reproducible end to end.  Exit codes are uniform across every solving
command (route, solve, color, audit, portfolio, submit, fuzz): the
DIMACS convention — 10 for SAT/routable (for ``fuzz``: at least one
finding), 20 for proven UNSAT/unroutable, 0 when a ``--timeout`` or
``--conflict-budget`` stopped the run undecided (for ``fuzz``: campaign
clean) — and 2 for usage or execution errors, so shell scripts can
branch on the verdict.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .coloring import ColoringProblem, parse_col_file, write_col_file
from .core import (PORTFOLIO_2, PORTFOLIO_3, Strategy, get_encoding,
                   run_portfolio, solve_coloring)
from .core.symmetry import apply_symmetry
from .fpga import (ALL_BENCHMARKS, benchmark_spec, build_routing_csp,
                   detailed_route, load_netlist, load_routing,
                   minimum_channel_width, route_netlist)
from .fpga.io import assignment_to_json, netlist_to_json, read_netlist
from .sat import SolveLimits, SolveStatus, parse_dimacs_file, solve
from .sat.solver.cdcl import BudgetExceeded
from .sat.solver.config import preset

DEFAULT_ENCODING = "ITE-linear-2+muldirect"
DEFAULT_SYMMETRY = "s1"


def _strategy(args) -> Strategy:
    return Strategy(args.encoding, args.symmetry, solver=args.solver,
                    seed=args.seed,
                    engine=getattr(args, "engine", "arena"))


def _add_budget_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, metavar="SECONDS",
                        help="wall-clock limit; on expiry the run stops "
                             "cooperatively and exits 0 (unknown)")
    parser.add_argument("--conflict-budget", type=int, metavar="N",
                        help="stop after N conflicts (exit 0, unknown)")


def _limits(args) -> Optional[SolveLimits]:
    """The :class:`SolveLimits` implied by --timeout/--conflict-budget."""
    if args.timeout is None and args.conflict_budget is None:
        return None
    return SolveLimits(conflict_budget=args.conflict_budget,
                       wall_clock_limit=args.timeout)


def _print_stop_reason(stats) -> None:
    reason = stats.get("stop_reason")
    if reason:
        print(f"  stopped: {reason}")
    injected = stats.get("injected_faults")
    if injected:
        print(f"  injected faults: {injected}")


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", metavar="SPEC",
                        help="fault-injection plan, e.g. "
                             "'seed=7; wrong_model; crash@worker:p=0.5' "
                             "(default: $REPRO_FAULTS)")
    parser.add_argument("--chaos-seed", type=int, metavar="N",
                        help="override the fault plan's RNG seed")


def _apply_fault_options(args) -> None:
    """Publish --faults / --chaos-seed via ``REPRO_FAULTS``.

    Exporting the plan through the environment (rather than threading a
    kwarg through every layer) means worker *processes* inherit it too,
    which is exactly how chaos runs are meant to propagate.
    """
    faults = getattr(args, "faults", None)
    chaos_seed = getattr(args, "chaos_seed", None)
    if faults is None and chaos_seed is None:
        return
    import os

    from .reliability.faults import ENV_VAR, FaultPlan
    plan = (FaultPlan.parse(faults) if faults is not None
            else FaultPlan.from_env())
    if plan is None:
        if chaos_seed is not None:
            print("warning: --chaos-seed given but no fault plan "
                  "(--faults or $REPRO_FAULTS); nothing to seed",
                  file=sys.stderr)
        return
    if chaos_seed is not None:
        plan = plan.with_seed(chaos_seed)
    os.environ[ENV_VAR] = plan.to_text()


#: CLI-activated observability state: sink path and the environment
#: values to restore at flush time (see ``_apply_obs_options``).
_OBS_STATE: dict = {}


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", dest="trace_out",
                        help="record a structured trace of this run as "
                             "JSON Lines at PATH (render it with `repro "
                             "trace PATH`); also enables the metrics "
                             "registry, whose snapshot is appended to "
                             "the same file (default: $REPRO_TRACE)")


def _apply_obs_options(args) -> None:
    """Activate tracing + metrics for ``--trace PATH``.

    The sink path is also exported as ``REPRO_TRACE`` (and the registry
    as ``REPRO_METRICS``) so worker *processes* inherit the setting —
    they record locally and ship their telemetry back over the result
    queues; only this process writes the file.  The previous environment
    is remembered and restored by ``_flush_obs``.
    """
    path = getattr(args, "trace_out", None)
    if not path:
        return
    import os

    from .obs import metrics as obs_metrics
    from .obs import trace as obs_trace
    _OBS_STATE["path"] = path
    _OBS_STATE["env"] = {var: os.environ.get(var)
                         for var in (obs_trace.ENV_VAR, obs_metrics.ENV_VAR)}
    os.environ[obs_trace.ENV_VAR] = path
    os.environ[obs_metrics.ENV_VAR] = "1"
    obs_trace.enable(path)
    obs_metrics.enable()


def _flush_obs() -> None:
    """End of a ``--trace`` run: append the buffered spans plus a final
    metrics snapshot to the sink, restore the environment, disable."""
    if not _OBS_STATE:
        return
    import os

    from .obs import metrics as obs_metrics
    from .obs import trace as obs_trace
    tracer = obs_trace.tracer()
    extra = []
    if not obs_metrics.registry().empty:
        extra.append(obs_metrics.snapshot_record(tracer.run_id))
    written = tracer.flush(extra_records=extra)
    path = _OBS_STATE["path"]
    for var, old in _OBS_STATE["env"].items():
        if old is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = old
    obs_trace.disable()
    obs_metrics.enable(False)
    _OBS_STATE.clear()
    if written:
        print(f"wrote trace: {path} ({written} records, run "
              f"{tracer.run_id})", file=sys.stderr)


def _add_strategy_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--encoding", default=DEFAULT_ENCODING,
                        help=f"CSP-to-SAT encoding (default "
                             f"{DEFAULT_ENCODING}; see 'repro encodings' "
                             f"for the full registry)")
    parser.add_argument("--symmetry", default=DEFAULT_SYMMETRY,
                        choices=["none", "b1", "s1", "c1"],
                        help="symmetry-breaking heuristic (default s1)")
    parser.add_argument("--solver", default="siege_like",
                        choices=["siege_like", "minisat_like"],
                        help="CDCL preset (default siege_like)")
    parser.add_argument("--seed", type=int, default=0,
                        help="solver seed (default 0)")
    parser.add_argument("--engine", default="arena",
                        choices=["arena", "arena+inprocess"],
                        help="solver engine (default arena); "
                             "'arena+inprocess' is the arena engine "
                             "with inprocessing + tier reduction (see "
                             "docs/performance.md)")


def _print_solver_stats(stats) -> None:
    """Print the solver's performance counters (the ``--stats`` flag)."""
    print("  solver stats:")
    for key in ("decisions", "conflicts", "propagations", "restarts",
                "learned_clauses", "deleted_clauses", "minimized_literals"):
        if key in stats:
            print(f"    {key:20s} {int(stats[key]):>12,}")
    if "props_per_sec" in stats:
        print(f"    {'props_per_sec':20s} {stats['props_per_sec']:>12,.0f}")
    # Absent when the run stopped before the search (e.g. a deadline
    # that ran out during encoding).
    inspections = stats.get("watch_inspections")
    if inspections:
        hits = stats.get("blocker_hits", 0)
        print(f"    {'watch_inspections':20s} {int(inspections):>12,}")
        print(f"    {'blocker_hits':20s} {int(hits):>12,} "
              f"({hits / inspections:.1%} hit rate)")
    if "arena_compactions" in stats:
        print(f"    {'arena_compactions':20s} "
              f"{int(stats['arena_compactions']):>12,}")


def _print_outcome_report(outcome, *, show_stats: bool = False) -> None:
    """Shared per-run report: problem size, the paper's Table-2 time
    split (graph + encode + solve), and optional solver counters.

    One helper for every solving command — route, color, audit and the
    portfolio's winner all print the same lines, so the time split is
    never a privilege of one code path.
    """
    print(f"  {outcome.num_vars} vars, {outcome.num_clauses} clauses, "
          f"{int(outcome.solver_stats.get('conflicts', 0))} conflicts")
    print(f"  time: graph {outcome.graph_time:.3f}s + "
          f"encode {outcome.encode_time:.3f}s + "
          f"solve {outcome.solve_time:.3f}s = {outcome.total_time:.3f}s")
    if show_stats:
        print(f"  encode split: cnf {outcome.cnf_time:.3f}s + "
              f"symmetry {outcome.symmetry_time:.3f}s")
        _print_solver_stats(outcome.solver_stats)


def _load_routing_arg(circuit: str, scale: float):
    """A circuit argument is either a benchmark name or a netlist JSON."""
    if circuit in ALL_BENCHMARKS:
        return load_routing(circuit, scale=scale)
    netlist = read_netlist(circuit)
    return route_netlist(netlist, congestion_penalty=1.0)


def cmd_benchmarks(args) -> int:
    print(f"{'name':12s} {'grid':8s} {'nets':>5s}  suite")
    for name in ALL_BENCHMARKS:
        spec = benchmark_spec(name, args.scale)
        suite = "table2" if name in ALL_BENCHMARKS[:8] else "extra"
        print(f"{name:12s} {spec.cols}x{spec.rows:<6d} {spec.num_nets:5d}  {suite}")
    return 0


def cmd_encodings(args) -> int:
    from .core.encodings import (ALL_ENCODINGS, EXTENSION_ENCODINGS,
                                 MODERN_ENCODINGS, REGISTRY_ENCODINGS)
    families = [("paper", ALL_ENCODINGS), ("extension", EXTENSION_ENCODINGS),
                ("modern", MODERN_ENCODINGS)]
    family_of = {name: family for family, names in families
                 for name in names}
    num_colors = args.colors
    print(f"{'encoding':28s} {'family':10s} {'vars/vtx':>8s} "
          f"{'struct.clauses':>14s}  (K={num_colors})")
    for name in REGISTRY_ENCODINGS:
        vertex = get_encoding(name).vertex_encoding(num_colors)
        print(f"{name:28s} {family_of[name]:10s} {vertex.num_vars:8d} "
              f"{len(vertex.clauses):14d}")
    print(f"{len(REGISTRY_ENCODINGS)} registered encodings")
    return 0


def cmd_generate(args) -> int:
    netlist = load_netlist(args.circuit, scale=args.scale)
    text = netlist_to_json(netlist)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({netlist.num_nets} nets)")
    else:
        print(text)
    return 0


def cmd_width(args) -> int:
    routing = _load_routing_arg(args.circuit, args.scale)
    limits = _limits(args)
    try:
        if args.incremental:
            from .core.incremental import IncrementalColoringSolver
            problem = build_routing_csp(routing, 1).problem
            solver = IncrementalColoringSolver(problem, _strategy(args),
                                               limits=limits)
            width = solver.minimum_colors()
            print(f"{routing.netlist.name}: minimum channel width W = {width} "
                  f"({solver.stats.queries} incremental queries)")
        else:
            width = minimum_channel_width(routing, _strategy(args),
                                          limits=limits)
            print(f"{routing.netlist.name}: minimum channel width W = {width}")
    except BudgetExceeded as stop:
        # An undecided probe leaves the width unknown, not an error.
        print(f"{routing.netlist.name}: minimum channel width UNKNOWN "
              f"({stop})")
        return SolveStatus.TIMEOUT.exit_code
    return 0


def cmd_route(args) -> int:
    _apply_fault_options(args)
    routing = _load_routing_arg(args.circuit, args.scale)
    result = detailed_route(routing, args.width, _strategy(args),
                            limits=_limits(args))
    outcome = result.outcome
    if result.status.decided:
        verdict = "ROUTABLE" if result.routable else "UNROUTABLE (proven)"
    else:
        verdict = f"UNDECIDED ({result.status})"
    print(f"{routing.netlist.name} @ W={args.width}: {verdict}")
    if not result.status.decided:
        _print_stop_reason(outcome.solver_stats)
    print(f"  encoding {args.encoding}, symmetry {args.symmetry}, "
          f"solver {args.solver}")
    _print_outcome_report(outcome, show_stats=args.stats)
    if result.routable and args.tracks_out:
        with open(args.tracks_out, "w", encoding="utf-8") as handle:
            handle.write(assignment_to_json(result.assignment))
        print(f"  wrote track assignment to {args.tracks_out}")
    if result.status is SolveStatus.UNSAT and args.certify:
        from .core.symmetry import apply_symmetry
        from .sat import check_rup_proof, solve_with_proof
        csp = build_routing_csp(routing, args.width)
        encoded = get_encoding(args.encoding).encode(csp.problem)
        apply_symmetry(encoded, args.symmetry)
        proof_result, proof = solve_with_proof(
            encoded.cnf, _strategy(args).solver_config())
        assert proof_result.status is SolveStatus.UNSAT
        steps = check_rup_proof(encoded.cnf, proof)
        print(f"  certificate: {steps} proof steps, independently "
              f"verified (RUP)")
    # DIMACS convention: 10 = SAT/routable, 20 = UNSAT/unroutable,
    # 0 = undecided (budget or deadline).
    return result.status.exit_code


def cmd_extract(args) -> int:
    routing = _load_routing_arg(args.circuit, args.scale)
    csp = build_routing_csp(routing, args.width)
    write_col_file(csp.problem.graph, args.out,
                   comments=[f"{routing.netlist.name} @ W={args.width}",
                             f"{csp.num_two_pin_nets} two-pin nets"])
    print(f"wrote {args.out}: {csp.problem.num_vertices} vertices, "
          f"{csp.problem.graph.num_edges} edges (color with K={args.width})")
    return 0


def cmd_encode(args) -> int:
    graph = parse_col_file(args.col_file)
    problem = ColoringProblem(graph, args.colors)
    encoded = get_encoding(args.encoding).encode(problem)
    added = apply_symmetry(encoded, args.symmetry)
    comments = [f"{args.col_file} with K={args.colors}",
                f"encoding {args.encoding}, symmetry {args.symmetry} "
                f"({added} clauses)"]
    if args.out:
        encoded.cnf.write_dimacs_file(args.out, comments=comments)
        print(f"wrote {args.out}: {encoded.cnf.num_vars} vars, "
              f"{encoded.cnf.num_clauses} clauses")
    else:
        sys.stdout.write(encoded.cnf.to_dimacs(comments=comments))
    return 0


def cmd_color(args) -> int:
    _apply_fault_options(args)
    graph = parse_col_file(args.col_file)
    problem = ColoringProblem(graph, args.colors)
    outcome = solve_coloring(problem, _strategy(args))
    if outcome.is_sat:
        print(f"SATISFIABLE: {args.colors}-coloring found")
        if args.show:
            for vertex in range(problem.num_vertices):
                print(f"  vertex {vertex + 1}: color {outcome.coloring[vertex]}")
        _print_outcome_report(outcome, show_stats=args.stats)
    elif outcome.status is SolveStatus.UNSAT:
        print(f"UNSATISFIABLE: no {args.colors}-coloring exists")
        _print_outcome_report(outcome, show_stats=args.stats)
    else:
        print(f"UNDECIDED ({outcome.status})")
        _print_stop_reason(outcome.solver_stats)
    # Uniform DIMACS convention (same as route/solve/portfolio):
    # 10 = SAT, 20 = UNSAT, 0 = undecided, 2 = error.
    return outcome.status.exit_code


def cmd_audit(args) -> int:
    _apply_fault_options(args)
    graph = parse_col_file(args.col_file)
    problem = ColoringProblem(graph, args.colors)
    outcome = solve_coloring(problem, _strategy(args), limits=_limits(args),
                             keep_model=True, proof_log=True)
    from .reliability.audit import audit_outcome
    report = audit_outcome(problem, outcome)
    if outcome.status is SolveStatus.SAT:
        verdict = f"SATISFIABLE ({args.colors}-coloring found)"
    elif outcome.status is SolveStatus.UNSAT:
        verdict = f"UNSATISFIABLE (no {args.colors}-coloring exists)"
    else:
        verdict = f"UNDECIDED ({outcome.status})"
    print(f"{args.col_file} with K={args.colors}: {verdict}")
    _print_stop_reason(outcome.solver_stats)
    _print_outcome_report(outcome, show_stats=args.stats)
    print(report.summary())
    # A failed audit dominates the solver's own verdict.
    if report.failed:
        return 2
    return outcome.status.exit_code


def cmd_solve(args) -> int:
    _apply_fault_options(args)
    cnf = parse_dimacs_file(args.cnf_file)
    limits = _limits(args)
    overrides = limits.as_config_kwargs() if limits is not None else {}
    result = solve(cnf, preset(args.solver, seed=args.seed, **overrides))
    if result.status is SolveStatus.SAT:
        print("s SATISFIABLE")
        if args.show:
            lits = [v if result.model.value(v) else -v
                    for v in range(1, cnf.num_vars + 1)]
            print("v " + " ".join(map(str, lits)) + " 0")
    elif result.status is SolveStatus.UNSAT:
        print("s UNSATISFIABLE")
    else:
        print("s UNKNOWN")
        _print_stop_reason(result.stats)
    if args.stats:
        _print_solver_stats(result.stats)
    # DIMACS convention: 10 = SAT, 20 = UNSAT, 0 = unknown.
    return result.status.exit_code


def cmd_portfolio(args) -> int:
    _apply_fault_options(args)
    routing = _load_routing_arg(args.circuit, args.scale)
    csp = build_routing_csp(routing, args.width)
    strategies = list(PORTFOLIO_2 if args.members == 2 else PORTFOLIO_3)
    result = run_portfolio(csp.problem, strategies, timeout=args.timeout,
                           limits=_limits(args), audit=args.audit)
    name = routing.netlist.name
    if result.decided:
        routable = result.status is SolveStatus.SAT
        print(f"{name} @ W={args.width}: "
              f"{'ROUTABLE' if routable else 'UNROUTABLE (proven)'}")
        print(f"  winner: {result.winner.label} "
              f"after {result.wall_time:.3f}s "
              f"({result.num_strategies} strategies raced)")
        _print_outcome_report(result.outcome, show_stats=args.stats)
        if args.audit and result.winner.label in result.audits:
            print(f"  {result.audits[result.winner.label].summary()}")
    else:
        print(f"{name} @ W={args.width}: UNDECIDED ({result.status})")
        for label, status in sorted(result.member_status.items()):
            line = f"  {label}: {status}"
            if label in result.failures:
                line += f" ({result.failures[label]})"
            print(line)
    return result.status.exit_code


def cmd_dist(args) -> int:
    _apply_fault_options(args)
    routing = _load_routing_arg(args.circuit, args.scale)
    name = routing.netlist.name
    limits = _limits(args)
    if args.mode == "shards":
        from .bench.batch import BatchJob
        from .dist import run_sharded
        strategy = _strategy(args)
        jobs = [BatchJob(f"{name}@W{width}",
                         build_routing_csp(routing, width).problem,
                         strategy)
                for width in args.width]
        result = run_sharded(jobs, num_shards=args.shards,
                             max_workers=args.workers,
                             job_timeout=args.timeout, limits=limits)
        print(f"{name}: {len(result.results)} jobs over "
              f"{args.shards} shards, {result.steals} stolen, "
              f"{result.wall_time:.3f}s")
        for record in result.results:
            line = f"  {record.job.instance}: {record.status}"
            if record.attempts > 1:
                line += f" (attempt {record.attempts})"
            print(line)
        for shard, stats in sorted(result.shards.items()):
            print(f"  {shard}: " + ", ".join(
                f"{key}={value}" for key, value in stats.items()))
        return 0 if result.complete else 1
    width = args.width[0]
    problem = build_routing_csp(routing, width).problem
    if args.mode == "portfolio":
        from .dist import run_cooperative
        result = run_cooperative(problem, _strategy(args),
                                 members=args.members,
                                 timeout=args.timeout, limits=limits)
        if result.decided:
            routable = result.status is SolveStatus.SAT
            print(f"{name} @ W={width}: "
                  f"{'ROUTABLE' if routable else 'UNROUTABLE (proven)'}")
            print(f"  winner: {result.winner.label} after "
                  f"{result.wall_time:.3f}s "
                  f"({result.num_strategies} cooperating members)")
            stats = result.outcome.solver_stats
            print(f"  shared: exported={stats.get('shared_exported', 0)} "
                  f"imported={stats.get('shared_imported', 0)} "
                  f"discarded={stats.get('shared_discarded', 0)}")
        else:
            print(f"{name} @ W={width}: UNDECIDED ({result.status})")
        return result.status.exit_code
    from .dist import run_cubed
    result = run_cubed(problem, _strategy(args), max_workers=args.workers,
                       limits=limits, timeout=args.timeout)
    plan = result.plan
    print(f"{name} @ W={width}: {result.status} in {result.wall_time:.3f}s")
    print(f"  cubes: {len(plan.cubes)} over vertices {list(plan.vertices)} "
          f"(depth {plan.depth}, {plan.pruned} pruned), "
          f"{result.cubes_closed} closed"
          + (f", winner cube {result.winner}"
             if result.winner is not None else ""))
    return result.status.exit_code


def cmd_fuzz(args) -> int:
    _apply_fault_options(args)
    from .qa import StrategyMatrix, run_fuzz
    try:
        matrix = StrategyMatrix.parse(args.matrix)
    except ValueError as error:
        print(f"error: bad --matrix: {error}", file=sys.stderr)
        return 2
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    limits = SolveLimits(conflict_budget=args.conflict_budget,
                         wall_clock_limit=args.timeout)
    report = run_fuzz(seeds, matrix=matrix,
                      budget_seconds=args.budget_seconds,
                      shrink=not args.no_shrink,
                      metamorphic=not args.no_metamorphic,
                      include_routing=not args.no_routing,
                      out_dir=args.out, limits=limits,
                      progress=lambda message: print(message,
                                                     file=sys.stderr))
    print(report.summary())
    # Uniform scheme: 0 = campaign clean (nothing decided against the
    # code), 10 = at least one finding (a decided positive answer, with
    # bundles written under --out), 2 = usage errors above.
    return 0 if report.ok else SolveStatus.SAT.exit_code


def cmd_serve(args) -> int:
    import asyncio

    from .serve import AdmissionPolicy, SolveService
    _apply_fault_options(args)
    policy = AdmissionPolicy(
        max_queue_depth=args.max_queue_depth,
        max_inflight_per_client=args.max_inflight,
        max_vertices=args.max_vertices,
        job_limits=_limits(args))
    service = SolveService(host=args.host, port=args.port,
                           workers=args.workers,
                           cache_capacity=args.cache_capacity,
                           cache_dir=args.cache_dir,
                           policy=policy,
                           job_timeout=args.job_timeout,
                           journal_dir=args.journal_dir,
                           heartbeat_interval=args.heartbeat_interval,
                           watchdog=not args.no_watchdog,
                           drain_deadline=args.drain_deadline,
                           warm_start=not args.no_warm_start)

    async def _run() -> None:
        await service.start()
        disk = (f", disk cache {service.cache.disk_dir}"
                if service.cache.disk_dir else "")
        journal = (f", journal {service.journal_dir}"
                   if service.journal_dir else "")
        print(f"repro serve listening on {service.host}:{service.port} "
              f"({service.workers} workers, cache capacity "
              f"{service.cache.capacity}{disk}{journal})", flush=True)
        await service.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: interrupted", file=sys.stderr)
    return 0


def _parse_server_address(text: str) -> tuple:
    host, separator, port = text.rpartition(":")
    if not separator or not port.isdigit():
        raise ValueError(f"server address must be HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


def cmd_submit(args) -> int:
    from . import api
    from .serve.client import ServeClient, ServeError, ServeRejected
    from .serve.resilience import ResilientClient, RetryPolicy
    host, port = _parse_server_address(args.server)
    graph = parse_col_file(args.col_file)
    request = api.SolveRequest(graph=graph, colors=args.colors,
                               strategies=(_strategy(args),),
                               limits=_limits(args), client=args.client,
                               tag=args.col_file)
    if args.retries > 0:
        # Retrying is safe: submission is idempotent by content address
        # (a resubmitted duplicate coalesces or hits the cache).
        retry = RetryPolicy(max_attempts=args.retries + 1)
        factory = lambda: ResilientClient(host, port, retry=retry)
    else:
        factory = lambda: ServeClient(host, port)
    try:
        with factory() as client:
            response = client.solve(request, deadline=args.deadline)
            dump = client.metrics() if args.show_metrics else None
    except ServeRejected as error:
        print(f"rejected: {error}", file=sys.stderr)
        return 2
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    origin = "cache hit" if response.cached else "solved"
    audit = f", audit {response.audit}" if response.audit else ""
    if response.status is SolveStatus.SAT:
        print(f"SATISFIABLE: {args.colors}-coloring found "
              f"({origin}{audit}, {response.winner})")
        if args.show and response.coloring:
            for vertex in sorted(response.coloring):
                print(f"  vertex {vertex + 1}: "
                      f"color {response.coloring[vertex]}")
    elif response.status is SolveStatus.UNSAT:
        print(f"UNSATISFIABLE: no {args.colors}-coloring exists "
              f"({origin}{audit}, {response.winner})")
    else:
        print(f"UNDECIDED ({response.status}): {response.report.detail}")
    print(f"  digest {response.digest[:16]}…  "
          f"solve {response.report.wall_time:.3f}s")
    if dump is not None:
        from .obs.report import render_metrics
        print(f"server cache: {dump.get('cache')}")
        print(render_metrics(dump.get("metrics")))
    return response.exit_code


def cmd_trace(args) -> int:
    from .obs.report import parse_trace_file, render_trace
    records = parse_trace_file(args.trace_file)
    print(render_trace(records, show_events=not args.no_events,
                       max_events=args.max_events))
    return 0


def cmd_metrics(args) -> int:
    from .obs import metrics as obs_metrics
    from .obs.report import (metrics_snapshots, parse_trace_file,
                             render_metrics)
    if args.trace_file:
        snapshots = metrics_snapshots(parse_trace_file(args.trace_file))
        if not snapshots:
            print(f"no metrics snapshots in {args.trace_file}",
                  file=sys.stderr)
            return 1
        for snapshot in snapshots:
            print(render_metrics(snapshot))
        return 0
    print(render_metrics(obs_metrics.registry().snapshot()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAT-based FPGA detailed routing "
                    "(Velev & Gao, DATE 2008 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("benchmarks", help="list benchmark circuit profiles")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_benchmarks)

    p = sub.add_parser("encodings",
                       help="list every registered CSP-to-SAT encoding")
    p.add_argument("--colors", type=int, default=7,
                   help="domain size K for the per-vertex size columns "
                        "(default 7)")
    p.set_defaults(func=cmd_encodings)

    p = sub.add_parser("generate", help="emit a placed netlist as JSON")
    p.add_argument("circuit", help="benchmark name")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("width", help="minimum channel width by SAT search")
    p.add_argument("circuit", help="benchmark name or netlist JSON path")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--incremental", action="store_true",
                   help="reuse one solver across widths (assumptions)")
    _add_strategy_options(p)
    _add_budget_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("route", help="detailed-route at a fixed width")
    p.add_argument("circuit", help="benchmark name or netlist JSON path")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--tracks-out", help="write the track assignment JSON here")
    p.add_argument("--certify", action="store_true",
                   help="on UNSAT, emit and verify a DRUP certificate")
    p.add_argument("--stats", action="store_true",
                   help="print solver performance counters")
    _add_strategy_options(p)
    _add_budget_options(p)
    _add_fault_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("portfolio",
                       help="race the paper's strategy portfolio on one "
                            "routing instance; first decided answer wins")
    p.add_argument("circuit", help="benchmark name or netlist JSON path")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--members", type=int, default=3, choices=[2, 3],
                   help="portfolio size: the paper's 2- or 3-member set")
    p.add_argument("--stats", action="store_true",
                   help="print the winner's solver counters")
    p.add_argument("--audit", action="store_true",
                   help="independently re-check candidate winners; an "
                        "answer that fails its audit cannot win")
    _add_budget_options(p)
    _add_fault_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser("extract",
                       help="stage 1: routing problem -> DIMACS .col")
    p.add_argument("circuit", help="benchmark name or netlist JSON path")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True, help=".col output path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("encode", help="stage 2: DIMACS .col -> DIMACS CNF")
    p.add_argument("col_file")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--out", help="output path (default: stdout)")
    _add_strategy_options(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("color", help="solve a DIMACS .col coloring problem")
    p.add_argument("col_file")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--show", action="store_true",
                   help="print the coloring on success")
    p.add_argument("--stats", action="store_true",
                   help="print solver performance counters")
    _add_strategy_options(p)
    _add_fault_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("audit",
                       help="solve a .col instance, then independently "
                            "re-check the answer (model check or RUP "
                            "proof replay)")
    p.add_argument("col_file")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--stats", action="store_true",
                   help="print solver performance counters")
    _add_strategy_options(p)
    _add_budget_options(p)
    _add_fault_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("solve", help="run the CDCL solver on a DIMACS CNF")
    p.add_argument("cnf_file")
    p.add_argument("--show", action="store_true",
                   help="print the model on success")
    p.add_argument("--stats", action="store_true",
                   help="print solver performance counters")
    p.add_argument("--solver", default="siege_like",
                   choices=["siege_like", "minisat_like"])
    p.add_argument("--seed", type=int, default=0)
    _add_budget_options(p)
    _add_fault_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("dist",
                       help="distributed solving on one routing "
                            "benchmark: work-stealing shards, a "
                            "clause-sharing portfolio, or "
                            "cube-and-conquer (see docs/distributed.md)")
    p.add_argument("circuit", help="benchmark name or netlist JSON path")
    p.add_argument("--width", type=int, nargs="+", required=True,
                   help="channel width(s); shards mode solves one job "
                        "per width, the other modes use the first")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--mode", default="shards",
                   choices=["shards", "portfolio", "cubes"],
                   help="parallelism mode (default shards)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes (default 2)")
    p.add_argument("--shards", type=int, default=2,
                   help="shard queues in shards mode (default 2)")
    p.add_argument("--members", type=int, default=2,
                   help="cooperating members in portfolio mode "
                        "(default 2)")
    _add_strategy_options(p)
    _add_budget_options(p)
    _add_fault_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("fuzz",
                       help="differential fuzzing: race seeded instances "
                            "through an encoding x symmetry x engine "
                            "matrix, cross-check every answer, shrink "
                            "and bundle any disagreement")
    p.add_argument("--seeds", type=int, default=5, metavar="N",
                   help="number of generator seeds to fuzz (default 5)")
    p.add_argument("--seed-base", type=int, default=1, metavar="N",
                   help="first generator seed (nightly CI rotates this; "
                        "default 1)")
    p.add_argument("--budget-seconds", type=float, metavar="SECONDS",
                   help="stop the campaign after this much wall time "
                        "(instances are never cut mid-matrix)")
    p.add_argument("--matrix", default="full",
                   help="strategy matrix: 'full', 'quick', 'engines', or "
                        "'encodings=...;symmetry=...;engine=...' "
                        "(default full)")
    p.add_argument("--out", metavar="DIR",
                   help="write minimized reproducer bundles under DIR")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without ddmin minimization")
    p.add_argument("--no-metamorphic", action="store_true",
                   help="skip the metamorphic oracles")
    p.add_argument("--no-routing", action="store_true",
                   help="skip the FPGA routing-derived instances")
    p.add_argument("--timeout", type=float, metavar="SECONDS",
                   default=10.0,
                   help="per-solve wall-clock limit (default 10)")
    p.add_argument("--conflict-budget", type=int, metavar="N",
                   default=50_000,
                   help="per-solve conflict budget (default 50000)")
    _add_fault_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("serve",
                       help="run the long-lived solve service: JSON-lines "
                            "TCP over a worker pool, with a "
                            "content-addressed audit-verified result "
                            "cache (see docs/serving.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=7227,
                   help="bind port; 0 picks a free one (default 7227)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker processes (default: cores - 1)")
    p.add_argument("--cache-capacity", type=int, default=256, metavar="N",
                   help="in-memory LRU entries (default 256)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent on-disk result store (atomic "
                        "per-digest JSON files; survives restarts)")
    p.add_argument("--job-timeout", type=float, metavar="SECONDS",
                   help="server-side wall-clock bound merged into every "
                        "job's budget")
    p.add_argument("--max-queue-depth", type=int, default=64, metavar="N",
                   help="reject new jobs past this many in flight "
                        "(default 64)")
    p.add_argument("--max-inflight", type=int, default=8, metavar="N",
                   help="per-client concurrent-job cap (default 8)")
    p.add_argument("--max-vertices", type=int, default=100_000, metavar="N",
                   help="reject instances larger than this (default "
                        "100000)")
    p.add_argument("--journal-dir", metavar="DIR",
                   help="durable write-ahead request journal; a crashed "
                        "server replays unfinished admitted requests "
                        "from here on the next boot")
    p.add_argument("--drain-deadline", type=float, default=10.0,
                   metavar="SECONDS",
                   help="how long a SIGTERM/shutdown drain waits for "
                        "in-flight jobs before abandoning them to the "
                        "journal (default 10)")
    p.add_argument("--heartbeat-interval", type=float, default=0.5,
                   metavar="SECONDS",
                   help="worker heartbeat period for the watchdog "
                        "(default 0.5)")
    p.add_argument("--no-watchdog", action="store_true",
                   help="disable the worker watchdog (hung jobs are "
                        "then bounded only by their own budgets)")
    p.add_argument("--no-warm-start", action="store_true",
                   help="skip promoting recent disk-cache entries into "
                        "memory at boot")
    _add_budget_options(p)
    _add_fault_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit",
                       help="submit a .col coloring job to a running "
                            "`repro serve` instance")
    p.add_argument("server", help="server address as HOST:PORT")
    p.add_argument("col_file")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--client", default="cli",
                   help="client name for admission control and "
                        "per-client budgets (default cli)")
    p.add_argument("--show", action="store_true",
                   help="print the coloring on success")
    p.add_argument("--show-metrics", action="store_true",
                   help="also fetch and print the server's metrics dump")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry transient transport failures up to N "
                        "times with jittered exponential backoff (safe: "
                        "submission is idempotent by content address; "
                        "default 0 = single attempt)")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="per-request deadline bounding this "
                        "submission's socket waits (default: the "
                        "client-wide timeout)")
    _add_strategy_options(p)
    _add_budget_options(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("trace",
                       help="render a recorded trace file (from --trace "
                            "or $REPRO_TRACE) as a span tree with the "
                            "critical path marked")
    p.add_argument("trace_file", help="JSONL trace file")
    p.add_argument("--no-events", action="store_true",
                   help="hide span events (show timings only)")
    p.add_argument("--max-events", type=int, default=8, metavar="N",
                   help="events shown per span before eliding (default 8)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("metrics",
                       help="render the metrics snapshots embedded in a "
                            "trace file (or the live registry)")
    p.add_argument("trace_file", nargs="?",
                   help="JSONL trace file (default: this process's "
                        "registry)")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_obs_options(args)
    try:
        return args.func(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        _flush_obs()


if __name__ == "__main__":
    sys.exit(main())
