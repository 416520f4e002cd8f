"""Detailed routing → graph coloring (the paper's §2 reduction).

Every 2-pin net becomes a CSP vertex whose domain is the track set
``0..W-1``.  Because switch blocks are track-preserving, a 2-pin net keeps
one track along its whole route, so the exclusivity constraints collapse
to: *two 2-pin nets of different multi-pin nets that share at least one
channel segment must take different tracks* — one graph edge per such
pair, "imposed once" even when the pair shares several connection blocks,
exactly as the paper notes.

The resulting :class:`~repro.coloring.problem.ColoringProblem` with K = W
is satisfiable iff a detailed routing with W tracks per channel exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from ..coloring.dimacs import to_col_string
from ..coloring.problem import ColoringProblem, Graph
from ..obs import trace
from .arch import Segment
from .global_route import GlobalRouting, TwoPinNet


@dataclass
class RoutingCSP:
    """The coloring problem induced by a global routing at width W.

    Vertex ``v`` of ``problem.graph`` is ``routing.two_pin_nets[v]``.
    """

    routing: GlobalRouting
    width: int
    problem: ColoringProblem
    build_time: float

    @property
    def num_two_pin_nets(self) -> int:
        return self.routing.num_two_pin_nets

    def two_pin(self, vertex: int) -> TwoPinNet:
        return self.routing.two_pin_nets[vertex]

    def to_dimacs_col(self) -> str:
        """The conflict graph in DIMACS ``.col`` format — the intermediate
        artifact of the paper's two-stage tool flow."""
        comments = [
            f"conflict graph of {self.routing.netlist.name} "
            f"({self.routing.num_two_pin_nets} two-pin nets)",
            f"color with W = {self.width} tracks per channel",
        ]
        return to_col_string(self.problem.graph, comments=comments)


def build_conflict_graph(routing: GlobalRouting) -> Graph:
    """Build the track-exclusivity conflict graph of a global routing."""
    graph = Graph(routing.num_two_pin_nets)
    by_segment: Dict[Segment, List[int]] = {}
    for vertex, two_pin in enumerate(routing.two_pin_nets):
        for segment in two_pin.segments:
            by_segment.setdefault(segment, []).append(vertex)
    for vertices in by_segment.values():
        for i, u in enumerate(vertices):
            net_u = routing.two_pin_nets[u].net_index
            for v in vertices[i + 1:]:
                if routing.two_pin_nets[v].net_index != net_u:
                    graph.add_edge(u, v)
    return graph


def build_routing_csp(routing: GlobalRouting, width: int) -> RoutingCSP:
    """Translate a global routing into a coloring problem at width ``width``
    (timed: this is the "translation to graph coloring" column of Table 2).

    One ``fpga.csp`` span carries the deterministic counters
    ``two_pin_nets``, ``edges`` (of the conflict graph) and ``width``.
    """
    if width < 1:
        raise ValueError("channel width must be at least 1")
    with trace.span("fpga.csp", two_pin_nets=routing.num_two_pin_nets,
                    width=width) as span:
        start = time.perf_counter()
        graph = build_conflict_graph(routing)
        names = [two_pin.name for two_pin in routing.two_pin_nets]
        problem = ColoringProblem(graph, width, vertex_names=names)
        build_time = time.perf_counter() - start
        span.set("edges", graph.num_edges)
    return RoutingCSP(routing=routing, width=width, problem=problem,
                      build_time=build_time)


def validate_global_routing(routing: GlobalRouting) -> List[str]:
    """Structural checks on a global routing; returns human-readable
    violations (empty list = valid).

    Checks that each 2-pin net's segment list is a connected path starting
    at a segment adjacent to its source block and ending adjacent to its
    sink block.
    """
    arch = routing.arch
    violations: List[str] = []
    for two_pin in routing.two_pin_nets:
        if not two_pin.segments:
            violations.append(f"{two_pin.name}: empty route")
            continue
        for segment in two_pin.segments:
            if not arch.contains_segment(segment):
                violations.append(f"{two_pin.name}: segment {segment} off-array")
        if two_pin.segments[0] not in arch.block_segments(*two_pin.source):
            violations.append(
                f"{two_pin.name}: route does not start at source "
                f"{two_pin.source}")
        if two_pin.segments[-1] not in arch.block_segments(*two_pin.sink):
            violations.append(
                f"{two_pin.name}: route does not end at sink {two_pin.sink}")
        for a, b in zip(two_pin.segments, two_pin.segments[1:]):
            if b not in arch.segment_neighbors(a):
                violations.append(
                    f"{two_pin.name}: segments {a} and {b} not adjacent")
    return violations
