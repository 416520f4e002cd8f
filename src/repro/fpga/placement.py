"""Simulated-annealing placement.

The MCNC circuits the paper routes arrive *placed* (by VPR) before SEGA
computes global routes.  Our synthetic generator produces placed netlists
directly; this module provides the missing-front-end alternative: take a
*logical* netlist (nets over abstract block ids) and assign every block a
grid position, minimising total half-perimeter wirelength with the
classic VPR-style annealing schedule.

This matters for the reproduction because placement quality shapes the
conflict graph: a bad placement lengthens routes, inflates channel
overlap, and raises the minimum channel width — which the placement
benchmark demonstrates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, FrozenSet, List, Set, Tuple

from ..obs import trace
from .netlist import Net, Netlist

Position = Tuple[int, int]


@dataclass(frozen=True)
class LogicalNet:
    """A net over abstract block ids (pre-placement)."""

    name: str
    source: int
    sinks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sinks:
            raise ValueError(f"net {self.name!r} has no sinks")
        if self.source in self.sinks:
            raise ValueError(f"net {self.name!r} lists its source as a sink")
        if len(set(self.sinks)) != len(self.sinks):
            raise ValueError(f"net {self.name!r} repeats a sink")

    @property
    def blocks(self) -> List[int]:
        return [self.source] + list(self.sinks)


@dataclass
class LogicalNetlist:
    """Blocks ``0..num_blocks-1`` connected by logical nets."""

    name: str
    num_blocks: int
    nets: List[LogicalNet] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("at least one block is required")
        for net in self.nets:
            for block in net.blocks:
                if not 0 <= block < self.num_blocks:
                    raise ValueError(
                        f"net {net.name!r} references block {block}, "
                        f"outside 0..{self.num_blocks - 1}")


def random_logical_netlist(num_blocks: int, num_nets: int, seed: int,
                           max_fanout: int = 4) -> LogicalNetlist:
    """A seeded random logical netlist (for tests and demos)."""
    if num_blocks < 2:
        raise ValueError("need at least two blocks")
    rng = random.Random(seed)
    nets = []
    for index in range(num_nets):
        source = rng.randrange(num_blocks)
        fanout = rng.randint(1, max_fanout)
        candidates = [b for b in range(num_blocks) if b != source]
        sinks = tuple(rng.sample(candidates, min(fanout, len(candidates))))
        nets.append(LogicalNet(f"n{index}", source, sinks))
    return LogicalNetlist("random", num_blocks, nets)


class Placement:
    """A block-to-position map on a ``cols × rows`` grid."""

    def __init__(self, cols: int, rows: int,
                 positions: Dict[int, Position]) -> None:
        self.cols = cols
        self.rows = rows
        self.positions = dict(positions)
        occupied = list(self.positions.values())
        if len(set(occupied)) != len(occupied):
            raise ValueError("two blocks share a position")
        for x, y in occupied:
            if not (0 <= x < cols and 0 <= y < rows):
                raise ValueError(f"position ({x},{y}) off the grid")

    def wirelength(self, netlist: LogicalNetlist) -> int:
        """Total HPWL of the netlist under this placement."""
        total = 0
        for net in netlist.nets:
            xs = [self.positions[b][0] for b in net.blocks]
            ys = [self.positions[b][1] for b in net.blocks]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    def to_netlist(self, netlist: LogicalNetlist) -> Netlist:
        """Materialise a placed :class:`~repro.fpga.netlist.Netlist`.

        The blocks of one net are distinct and no two blocks share a
        position, so the pins of a placed net never coincide.
        """
        nets = []
        for net in netlist.nets:
            nets.append(Net(name=net.name,
                            source=self.positions[net.source],
                            sinks=tuple(self.positions[s] for s in net.sinks)))
        return Netlist(netlist.name, self.cols, self.rows, nets)


class AnnealingPlacer:
    """VPR-flavoured simulated annealing over block swaps.

    The schedule is the textbook one: start hot enough to accept most
    moves, attempt ``moves_per_temperature × num_blocks`` moves per step,
    cool geometrically, and stop after a step that accepted no move or
    once the temperature has cooled to 0.005 or below.
    """

    def __init__(self, cols: int, rows: int, seed: int = 0,
                 moves_per_temperature: int = 10,
                 cooling: float = 0.9,
                 initial_acceptance: float = 0.8) -> None:
        if cols < 1 or rows < 1:
            raise ValueError("grid must be at least 1x1")
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        self.cols = cols
        self.rows = rows
        self.seed = seed
        self.moves_per_temperature = moves_per_temperature
        self.cooling = cooling
        self.initial_acceptance = initial_acceptance

    def place(self, netlist: LogicalNetlist) -> Placement:
        """Anneal a placement for ``netlist``; deterministic per seed.

        Each move recomputes only the nets it changes, against a per-net
        HPWL cache that is written back when the move is accepted.  One
        ``fpga.place`` span carries the deterministic counters
        ``blocks``, ``nets``, ``moves`` (move slots drawn), ``accepted``,
        ``temperatures`` (steps run) and ``hpwl`` (the wirelength of the
        returned placement).
        """
        num_blocks = netlist.num_blocks
        if num_blocks > self.cols * self.rows:
            raise ValueError(
                f"{num_blocks} blocks do not fit a "
                f"{self.cols}x{self.rows} grid")
        with trace.span("fpga.place", blocks=num_blocks,
                        nets=len(netlist.nets)) as span:
            rng = random.Random(self.seed)
            cells = [(x, y) for x in range(self.cols)
                     for y in range(self.rows)]
            rng.shuffle(cells)
            xs = [x for x, _ in cells[:num_blocks]]
            ys = [y for _, y in cells[:num_blocks]]
            free_cells = cells[num_blocks:]

            # The netlist as index arrays: the ids of each block's nets and,
            # per net, a getter of its blocks' coordinates and its HPWL.
            nets_of: List[Set[int]] = [set() for _ in range(num_blocks)]
            for net_id, net in enumerate(netlist.nets):
                for block in net.blocks:
                    nets_of[block].add(net_id)
            block_nets = [frozenset(nets) for nets in nets_of]
            net_pins = [itemgetter(net.source, *net.sinks)
                        for net in netlist.nets]
            net_cost = [_hpwl(pins, xs, ys) for pins in net_pins]
            cost = sum(net_cost)

            temperature = self._initial_temperature(
                net_pins, block_nets, net_cost, xs, ys, rng)
            moves = max(1, self.moves_per_temperature * num_blocks)
            temperatures = total_accepted = 0
            while True:
                accepted = 0
                for _ in range(moves):
                    block = rng.randrange(num_blocks)
                    use_free = free_cells and rng.random() < 0.3
                    if use_free:
                        target_cell = rng.choice(free_cells)
                        affected = block_nets[block]
                    else:
                        other = rng.randrange(num_blocks)
                        if other == block:
                            continue
                        target_cell = (xs[other], ys[other])
                        # A net holding both blocks keeps its positions.
                        affected = block_nets[block] ^ block_nets[other]
                    source_cell = (xs[block], ys[block])
                    xs[block], ys[block] = target_cell
                    if not use_free:
                        xs[other], ys[other] = source_cell
                    after = [_hpwl(net_pins[net_id], xs, ys)
                             for net_id in affected]
                    delta = sum(after) - sum([net_cost[net_id]
                                              for net_id in affected])
                    if delta <= 0 or (temperature > 0 and rng.random()
                                      < math.exp(-delta / temperature)):
                        cost += delta
                        accepted += 1
                        for net_id, new in zip(affected, after):
                            net_cost[net_id] = new
                        if use_free:
                            free_cells.remove(target_cell)
                            free_cells.append(source_cell)
                    else:
                        xs[block], ys[block] = source_cell
                        if not use_free:
                            xs[other], ys[other] = target_cell
                temperatures += 1
                total_accepted += accepted
                temperature *= self.cooling
                if accepted == 0 or temperature <= 0.005:
                    break

            span.set("moves", temperatures * moves)
            span.set("accepted", total_accepted)
            span.set("temperatures", temperatures)
            span.set("hpwl", cost)
            return Placement(self.cols, self.rows,
                             {block: (xs[block], ys[block])
                              for block in range(num_blocks)})

    def _initial_temperature(self, net_pins: List[itemgetter],
                             block_nets: List[FrozenSet[int]],
                             net_cost: List[int], xs: List[int],
                             ys: List[int], rng: random.Random) -> float:
        """Sample swap deltas; pick T so ~initial_acceptance are accepted."""
        num_blocks = len(block_nets)
        deltas = []
        for _ in range(min(50, 5 * num_blocks)):
            a, b = rng.randrange(num_blocks), rng.randrange(num_blocks)
            if a == b:
                continue
            xs[a], xs[b] = xs[b], xs[a]
            ys[a], ys[b] = ys[b], ys[a]
            delta = sum(_hpwl(net_pins[net_id], xs, ys) - net_cost[net_id]
                        for net_id in block_nets[a] ^ block_nets[b])
            xs[a], xs[b] = xs[b], xs[a]
            ys[a], ys[b] = ys[b], ys[a]
            if delta > 0:
                deltas.append(delta)
        if not deltas:
            return 1.0
        mean_delta = sum(deltas) / len(deltas)
        return -mean_delta / math.log(self.initial_acceptance)


def _hpwl(pins: itemgetter, xs: List[int], ys: List[int]) -> int:
    """Half-perimeter wirelength of the net whose pins ``pins`` gets.

    Every net has at least two blocks, so ``pins`` returns tuples.
    """
    net_xs, net_ys = pins(xs), pins(ys)
    return (max(net_xs) - min(net_xs)) + (max(net_ys) - min(net_ys))


def place_netlist(netlist: LogicalNetlist, cols: int, rows: int,
                  seed: int = 0) -> Netlist:
    """Anneal a placement and return the placed netlist."""
    placement = AnnealingPlacer(cols, rows, seed=seed).place(netlist)
    return placement.to_netlist(netlist)
