"""Global routing: multi-pin decomposition and congestion-aware maze search.

This plays the role SEGA-1.1's global routings play in the paper: it fixes,
for every 2-pin connection, *which channel segments* the connection passes
through — but not which track.  Detailed routing (the SAT part) then
assigns tracks.

Decomposition follows the paper's §2: "each multi-pin net is decomposed
into a collection of 2-pin nets".  We use Prim-style spanning decomposition
(each sink connects from the nearest already-connected pin), the standard
choice in global routers.

Each 2-pin net is routed by Dijkstra over the segment graph with a
congestion-dependent cost, so hot channels are avoided when possible and
the per-segment demand (which determines the conflict-graph cliques and
thus the minimum channel width) stays realistic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..obs import trace
from .arch import FPGAArchitecture, Segment
from .netlist import Net, Netlist

Position = Tuple[int, int]


@dataclass(frozen=True)
class TwoPinNet:
    """One 2-pin connection of a decomposed multi-pin net.

    ``net_index`` identifies the parent multi-pin net — 2-pin nets of the
    *same* parent never conflict (they carry the same signal and may share
    tracks); 2-pin nets of different parents sharing a segment must take
    different tracks.
    """

    net_index: int
    subnet_index: int
    source: Position
    sink: Position
    segments: Tuple[Segment, ...]

    @property
    def name(self) -> str:
        return f"net{self.net_index}.{self.subnet_index}"

    @property
    def length(self) -> int:
        return len(self.segments)


@dataclass
class GlobalRouting:
    """A complete global routing of a netlist on an architecture."""

    netlist: Netlist
    arch: FPGAArchitecture
    two_pin_nets: List[TwoPinNet] = field(default_factory=list)

    @property
    def num_two_pin_nets(self) -> int:
        return len(self.two_pin_nets)

    def segment_usage(self) -> Dict[Segment, int]:
        """Number of *distinct parent nets* crossing each segment.

        The maximum over segments lower-bounds the channel width needed.
        """
        usage: Dict[Segment, set] = {}
        for two_pin in self.two_pin_nets:
            for segment in two_pin.segments:
                usage.setdefault(segment, set()).add(two_pin.net_index)
        return {segment: len(nets) for segment, nets in usage.items()}

    def max_segment_usage(self) -> int:
        usage = self.segment_usage()
        return max(usage.values()) if usage else 0


class GlobalRouter:
    """Congestion-aware sequential global router."""

    def __init__(self, arch: FPGAArchitecture,
                 congestion_penalty: float = 0.5) -> None:
        if congestion_penalty < 0:
            raise ValueError("congestion_penalty must be non-negative")
        self.arch = arch
        self.congestion_penalty = congestion_penalty
        self._usage: List[int] = []
        self._expansions = 0

    def route(self, netlist: Netlist) -> GlobalRouting:
        """Route every net; returns the full global routing.

        Nets are processed longest-HPWL-first (long nets have the fewest
        detour options), the usual ordering in sequential routers.  One
        ``fpga.global_route`` span carries the deterministic counters
        ``nets``, ``segments`` (in the array), ``two_pin_nets``,
        ``expansions`` (segments whose neighbours the searches scanned)
        and, when tracing records, ``max_segment_usage``.
        """
        if netlist.cols != self.arch.cols or netlist.rows != self.arch.rows:
            raise ValueError("netlist and architecture grids differ")
        with trace.span("fpga.global_route", nets=netlist.num_nets,
                        segments=self.arch.num_segments) as span:
            self._usage = [0] * self.arch.num_segments
            self._expansions = 0
            routing = GlobalRouting(netlist=netlist, arch=self.arch)
            order = sorted(range(netlist.num_nets),
                           key=lambda i: -self._hpwl(netlist.nets[i]))
            for net_index in order:
                routing.two_pin_nets.extend(
                    self._route_net(net_index, netlist.nets[net_index]))
            routing.two_pin_nets.sort(
                key=lambda t: (t.net_index, t.subnet_index))
            span.set("two_pin_nets", routing.num_two_pin_nets)
            span.set("expansions", self._expansions)
            if trace.enabled():
                span.set("max_segment_usage", routing.max_segment_usage())
            return routing

    @staticmethod
    def _hpwl(net: Net) -> int:
        xs = [p[0] for p in net.pins]
        ys = [p[1] for p in net.pins]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def _route_net(self, net_index: int, net: Net) -> List[TwoPinNet]:
        """Prim-style decomposition: connect each sink from the nearest
        already-connected pin, routing each 2-pin connection as we go."""
        connected: List[Position] = [net.source]
        remaining = list(net.sinks)
        result: List[TwoPinNet] = []
        segments = self.arch.tables.segments
        subnet_index = 0
        while remaining:
            best = min(
                ((sink, anchor) for sink in remaining for anchor in connected),
                key=lambda pair: self.arch.manhattan_distance(pair[0], pair[1]))
            sink, anchor = best
            path = self._route_two_pin(anchor, sink)
            result.append(TwoPinNet(net_index=net_index,
                                    subnet_index=subnet_index,
                                    source=anchor, sink=sink,
                                    segments=tuple(segments[i] for i in path)))
            subnet_index += 1
            for i in path:
                self._usage[i] += 1
            connected.append(sink)
            remaining.remove(sink)
        return result

    def _route_two_pin(self, source: Position, sink: Position) -> List[int]:
        """Dijkstra over segment ids from the source block to the sink
        block.  Equal costs pop in push order, so ties go to the path
        found first."""
        tables = self.arch.tables
        neighbors = tables.neighbors
        usage = self._usage
        penalty = self.congestion_penalty
        cols = self.arch.cols
        targets = tables.blocks[sink[1] * cols + sink[0]]
        distances = [float("inf")] * len(usage)
        parents = [-1] * len(usage)
        heap: List[Tuple[float, int, int]] = []
        counter = expansions = 0
        for segment in tables.blocks[source[1] * cols + source[0]]:
            cost = 1.0 + penalty * usage[segment]
            distances[segment] = cost
            heapq.heappush(heap, (cost, counter, segment))
            counter += 1
        while heap:
            cost, _, segment = heapq.heappop(heap)
            if cost > distances[segment]:
                continue
            if segment in targets:
                self._expansions += expansions
                path = [segment]
                while parents[path[-1]] >= 0:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            expansions += 1
            for neighbor in neighbors[segment]:
                next_cost = cost + (1.0 + penalty * usage[neighbor])
                if next_cost < distances[neighbor]:
                    distances[neighbor] = next_cost
                    parents[neighbor] = segment
                    heapq.heappush(heap, (next_cost, counter, neighbor))
                    counter += 1
        raise AssertionError("segment graph is connected; route must exist")


def route_netlist(netlist: Netlist, congestion_penalty: float = 0.5) -> GlobalRouting:
    """Convenience: build the architecture from the netlist grid and route."""
    arch = FPGAArchitecture(netlist.cols, netlist.rows)
    return GlobalRouter(arch, congestion_penalty).route(netlist)
