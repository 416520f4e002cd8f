"""Layer spans for the traced pass, and self-time attribution.

The traced pass wraps each layer's public entry points in a span opened
from this file (product code is not edited) and records them with the
product tracer, :mod:`repro.obs.trace`.  Using that tracer means worker
processes of the batch pool ship their spans back over the pool's own
result queue, and the written file has the JSONL shape that
``python -m repro trace FILE`` already renders.

A layer span is named ``layer.<layer>``.  Product spans (``coloring.solve``,
``encode``, ``dist.schedule``, ...) are recorded too and are transparent to
attribution: a layer's self time is its span's wall time minus the part of
that interval covered by its nearest layer descendants.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import trace

PREFIX = "layer."
UNIT_SPAN = "bench.unit"

Counters = Callable[[tuple, dict, object], Dict[str, int]]


def _hpwl(args, kwargs, netlist) -> Dict[str, int]:
    return {"hpwl": netlist.total_wirelength_lower_bound()}


def _global_route(args, kwargs, routing) -> Dict[str, int]:
    return {"two_pin_nets": routing.num_two_pin_nets,
            "max_segment_usage": routing.max_segment_usage()}


def _edges(args, kwargs, csp) -> Dict[str, int]:
    return {"edges": csp.problem.graph.num_edges}


def _cnf_size(args, kwargs, encoded) -> Dict[str, int]:
    return {"vars": encoded.cnf.num_vars, "clauses": encoded.cnf.num_clauses}


def _proof_steps(args, kwargs, report) -> Dict[str, int]:
    outcome = args[1] if len(args) > 1 else kwargs["outcome"]
    return {"proof_steps": len(outcome.proof or ())}


def _width(args, kwargs, width) -> Dict[str, int]:
    return {"width": width}


#: Every binding through which a layer's public call is reached:
#: (module, attribute, layer, counters).  A function imported by name
#: into another module is a separate binding and is patched there too.
FUNCTIONS: List[Tuple[str, str, str, Optional[Counters]]] = [
    ("repro.fpga.placement", "place_netlist", "placement", _hpwl),
    ("repro.fpga.global_route", "route_netlist", "global_route",
     _global_route),
    ("repro.fpga.flow", "build_routing_csp", "detailed", _edges),
    ("repro.fpga.detailed", "build_routing_csp", "detailed", _edges),
    ("repro.fpga.flow", "assignment_from_coloring", "tracks", None),
    ("repro.fpga.flow", "verify_track_assignment", "tracks", None),
    ("repro.fpga.tracks", "assignment_from_coloring", "tracks", None),
    ("repro.fpga.tracks", "verify_track_assignment", "tracks", None),
    ("repro.reliability.audit", "audit_outcome", "audit", _proof_steps),
    ("repro.fpga.flow", "minimum_channel_width", "flow.width_search",
     _width),
    ("repro.fpga.flow", "detailed_route", "flow.route", None),
    ("repro.api", "solve", "api", None),
    ("repro.api", "solve_batch", "api", None),
    ("repro.dist.scheduler", "run_sharded", "pool", None),
]

#: Methods patched on their class: (module, class, method, layer, counters).
METHODS: List[Tuple[str, str, str, str, Optional[Counters]]] = [
    ("repro.core.encodings.registry", "Encoding", "encode", "encodings",
     _cnf_size),
    ("repro.core.encodings.base", "EncodedProblem", "decode",
     "pipeline.decode", None),
    ("repro.coloring.problem", "ColoringProblem", "is_valid_coloring",
     "pipeline.decode", None),
]

#: Bindings of ``apply_symmetry`` (counts the clauses it appends).
SYMMETRY = [("repro.core.pipeline", "apply_symmetry"),
            ("repro.core.symmetry.clauses", "apply_symmetry")]

#: The solver class as the pipeline sees it: construction is timed as
#: ``solver.load``, each ``solve()`` as ``solver.search``.
SOLVER = ("repro.core.pipeline", "CDCLSolver")

SOLVER_STATS = ("conflicts", "propagations", "watch_inspections")


def _wrap(fn, layer: str, counters: Optional[Counters]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace.span(PREFIX + layer) as span:
            result = fn(*args, **kwargs)
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    span.set(key, value)
        return result
    return wrapper


def _wrap_symmetry(fn):
    @functools.wraps(fn)
    def wrapper(encoded, *args, **kwargs):
        before = encoded.cnf.num_clauses
        with trace.span(PREFIX + "symmetry") as span:
            result = fn(encoded, *args, **kwargs)
            span.set("clauses", encoded.cnf.num_clauses - before)
        return result
    return wrapper


def _wrap_solver(solver_class):
    def make(cnf, config=None):
        with trace.span(PREFIX + "solver.load"):
            solver = solver_class(cnf, config)
        search = solver.solve

        @functools.wraps(search)
        def solve(*args, **kwargs):
            with trace.span(PREFIX + "solver.search") as span:
                result = search(*args, **kwargs)
                for key in SOLVER_STATS:
                    span.set(key, int(result.stats.get(key, 0)))
            return result

        solver.solve = solve
        return solver
    return make


class LayerPatches:
    """Install the layer wrappers; ``restore()`` puts the originals back.

    Installed before a pool forks, the wrappers are inherited by its
    workers.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        for module, attr, layer, counters in FUNCTIONS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, _wrap(getattr(owner, attr), layer,
                                           counters))
        for module, cls, method, layer, counters in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._patch(owner, method, _wrap(getattr(owner, method), layer,
                                             counters))
        for module, attr in SYMMETRY:
            owner = importlib.import_module(module)
            self._patch(owner, attr, _wrap_symmetry(getattr(owner, attr)))
        owner = importlib.import_module(SOLVER[0])
        self._patch(owner, SOLVER[1],
                    _wrap_solver(getattr(owner, SOLVER[1])))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


# -- attribution ------------------------------------------------------------

def _interval(span: dict) -> Tuple[float, float]:
    return span["t0"], span["t0"] + span["wall"]


def _covered(intervals: Iterable[Tuple[float, float]],
             window: Tuple[float, float]) -> float:
    """Length of the union of ``intervals`` clipped to ``window``."""
    low, high = window
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def _pid(span: dict) -> str:
    return str(span.get("id", "")).split("-", 1)[0]


class Attribution:
    """Per-layer self times, wall times and counters from trace records.

    ``main_covered`` is the part of the main process's wall time spent
    inside some layer (its layers' self time plus the time they waited
    on worker processes), which is what the attribution check compares
    with the measured wall time.  Spans from worker processes add to
    their layers' busy time but not to ``main_covered``: two workers
    overlap in wall time.
    """

    def __init__(self, records: List[dict]) -> None:
        spans = [r for r in records if r.get("type") == "span"]
        by_id = {s["id"]: s for s in spans}
        main = str(os.getpid())

        def layer_of(span: dict) -> Optional[str]:
            name = span["name"]
            if name.startswith(PREFIX):
                return name[len(PREFIX):]
            parent = by_id.get(span.get("parent"))
            if parent is not None and _pid(parent) != _pid(span):
                return "pool.worker"   # a worker's root span
            return None

        layers = {s["id"]: layer_of(s) for s in spans}

        def ancestors(span: dict):
            parent = by_id.get(span.get("parent"))
            while parent is not None:
                yield parent
                parent = by_id.get(parent.get("parent"))

        children: Dict[str, List[dict]] = defaultdict(list)
        ancestry: Dict[str, List[str]] = {}
        for span in spans:
            if layers[span["id"]] is None:
                continue
            chain = [a for a in ancestors(span) if layers[a["id"]]]
            ancestry[span["id"]] = [layers[a["id"]] for a in chain]
            if chain:
                children[chain[0]["id"]].append(span)

        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.main_covered = 0.0
        self.pool_busy = 0.0
        for span in spans:
            layer = layers[span["id"]]
            if layer is None:
                continue
            window = _interval(span)
            kids = children[span["id"]]
            covered = _covered((_interval(k) for k in kids), window)
            self_s = max(0.0, span["wall"] - covered)
            self.self_s[layer] += self_s
            self.wall_s[layer] += span["wall"]
            for key, value in (span.get("attrs") or {}).items():
                if isinstance(value, int) and not isinstance(value, bool):
                    self.counters[f"{layer}.{key}"] += value
            if layer == "pool.worker":
                self.pool_busy += span["wall"]
            if _pid(span) == main:
                # Time only workers covered: the main process's own
                # children account for their intervals themselves.
                own = _covered((_interval(k) for k in kids
                                if _pid(k) == main), window)
                self.main_covered += span["wall"] - own
        self.probes = sum(
            1 for s in spans if layers[s["id"]] == "flow.route"
            and ancestry[s["id"]][:1] == ["flow.width_search"])
        self.probe_conflicts = sum(
            s["attrs"]["conflicts"] for s in spans
            if layers[s["id"]] == "solver.search"
            and "flow.width_search" in ancestry[s["id"]])
