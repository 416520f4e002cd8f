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
from typing import Callable, Dict, List, Set, Tuple

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
        if not 0.0 < initial_acceptance < 1.0:
            raise ValueError("initial_acceptance must be in (0, 1)")
        if not isinstance(moves_per_temperature, int) \
                or moves_per_temperature < 1:
            raise ValueError("moves_per_temperature must be an int >= 1")
        self.cols = cols
        self.rows = rows
        self.seed = seed
        self.moves_per_temperature = moves_per_temperature
        self.cooling = cooling
        self.initial_acceptance = initial_acceptance

    def place(self, netlist: LogicalNetlist) -> Placement:
        """Anneal a placement for ``netlist``; deterministic per seed.

        A block sits on a cell id, ``x * rows + y``.  Each net keeps two
        integer masks of its blocks' cells, a column-major one (bit
        ``x * rows + y``) and a row-major one (bit ``y * cols + x``), and
        its HPWL in a cache.  The lowest and highest set bits of the
        first mask lie in the net's leftmost and rightmost columns, those
        of the second in its bottom and top rows; a net's blocks sit in
        distinct cells, so the masks give its exact HPWL.  A move XORs
        one two-bit flip (source cell | target cell) into the masks of
        the nets it changes, and masks and costs are written back only
        when the move is accepted.  One ``fpga.place`` span carries the
        deterministic counters ``blocks``, ``nets``, ``moves`` (move
        slots drawn), ``accepted``, ``temperatures`` (steps run) and
        ``hpwl`` (the wirelength of the returned placement).
        """
        cols, rows = self.cols, self.rows
        num_cells = cols * rows
        num_blocks = netlist.num_blocks
        if num_blocks > num_cells:
            raise ValueError(
                f"{num_blocks} blocks do not fit a {cols}x{rows} grid")
        with trace.span("fpga.place", blocks=num_blocks,
                        nets=len(netlist.nets)) as span:
            rng = random.Random(self.seed)
            # Shuffle's draws depend only on the list's length, so the ids
            # take the permutation the trajectory contract pins for the
            # (x, y) pairs in x-major order (docs/fpga_flow.md).
            cells = list(range(num_cells))
            rng.shuffle(cells)
            cell_of = cells[:num_blocks]
            free_cells = cells[num_blocks:]

            # A cell's id is its bit in the column-major mask, row_index[id]
            # its bit in the row-major one.  A mask of bit length n has its
            # highest bit in column x_at[n] or in row y_at[n].
            row_index = [cell % rows * cols + cell // rows
                         for cell in range(num_cells)]
            x_at = [(n - 1) // rows for n in range(num_cells + 1)]
            y_at = [(n - 1) // cols for n in range(num_cells + 1)]

            def hpwl(col_mask: int, row_mask: int) -> int:
                return (x_at[col_mask.bit_length()]
                        - x_at[(col_mask & -col_mask).bit_length()]
                        + y_at[row_mask.bit_length()]
                        - y_at[(row_mask & -row_mask).bit_length()])

            # The netlist as index arrays: the ids of each block's nets and
            # each net's two masks and HPWL.
            nets_of: List[Set[int]] = [set() for _ in range(num_blocks)]
            for net_id, net in enumerate(netlist.nets):
                for block in net.blocks:
                    nets_of[block].add(net_id)
            block_nets = [frozenset(nets) for nets in nets_of]
            col_masks = [sum([1 << cell_of[b] for b in net.blocks])
                         for net in netlist.nets]
            row_masks = [sum([1 << row_index[cell_of[b]]
                              for b in net.blocks])
                         for net in netlist.nets]
            net_cost = [hpwl(c, r) for c, r in zip(col_masks, row_masks)]
            cost = sum(net_cost)

            def swap_delta(a: int, b: int) -> int:
                cell_a, cell_b = cell_of[a], cell_of[b]
                col_flip = 1 << cell_a | 1 << cell_b
                row_flip = 1 << row_index[cell_a] | 1 << row_index[cell_b]
                return sum(hpwl(col_masks[net_id] ^ col_flip,
                                row_masks[net_id] ^ row_flip)
                           - net_cost[net_id]
                           for net_id in block_nets[a] ^ block_nets[b])

            temperature = self._initial_temperature(num_blocks, swap_delta,
                                                    rng)
            moves = self.moves_per_temperature * num_blocks
            temperatures = total_accepted = 0
            while True:
                accepted = 0
                for _ in range(moves):
                    block = rng.randrange(num_blocks)
                    source = cell_of[block]
                    use_free = free_cells and rng.random() < 0.3
                    if use_free:
                        target = rng.choice(free_cells)
                        affected = block_nets[block]
                    else:
                        other = rng.randrange(num_blocks)
                        if other == block:
                            continue
                        target = cell_of[other]
                        # A net holding both blocks keeps its cells.
                        affected = block_nets[block] ^ block_nets[other]
                    # Each changed net holds exactly one of the two cells,
                    # so one flip moves it to the other.
                    col_flip = 1 << source | 1 << target
                    row_flip = 1 << row_index[source] | 1 << row_index[target]
                    after = []
                    delta = 0
                    for net_id in affected:
                        # hpwl(), inlined: this loop is the placer's time.
                        c = col_masks[net_id] ^ col_flip
                        r = row_masks[net_id] ^ row_flip
                        new = (x_at[c.bit_length()]
                               - x_at[(c & -c).bit_length()]
                               + y_at[r.bit_length()]
                               - y_at[(r & -r).bit_length()])
                        after.append(new)
                        delta += new - net_cost[net_id]
                    if delta <= 0 or (temperature > 0 and rng.random()
                                      < math.exp(-delta / temperature)):
                        cost += delta
                        accepted += 1
                        for net_id, new in zip(affected, after):
                            net_cost[net_id] = new
                            col_masks[net_id] ^= col_flip
                            row_masks[net_id] ^= row_flip
                        cell_of[block] = target
                        if use_free:
                            free_cells.remove(target)
                            free_cells.append(source)
                        else:
                            cell_of[other] = source
                temperatures += 1
                total_accepted += accepted
                temperature *= self.cooling
                if accepted == 0 or temperature <= 0.005:
                    break

            span.set("moves", temperatures * moves)
            span.set("accepted", total_accepted)
            span.set("temperatures", temperatures)
            span.set("hpwl", cost)
            return Placement(cols, rows,
                             {block: divmod(cell, rows)
                              for block, cell in enumerate(cell_of)})

    def _initial_temperature(self, num_blocks: int,
                             swap_delta: Callable[[int, int], int],
                             rng: random.Random) -> float:
        """Sample swap deltas; pick T so ~initial_acceptance are accepted."""
        deltas = []
        for _ in range(min(50, 5 * num_blocks)):
            a, b = rng.randrange(num_blocks), rng.randrange(num_blocks)
            if a == b:
                continue
            delta = swap_delta(a, b)
            if delta > 0:
                deltas.append(delta)
        if not deltas:
            return 1.0
        mean_delta = sum(deltas) / len(deltas)
        return -mean_delta / math.log(self.initial_acceptance)


def place_netlist(netlist: LogicalNetlist, cols: int, rows: int,
                  seed: int = 0) -> Netlist:
    """Anneal a placement and return the placed netlist."""
    placement = AnnealingPlacer(cols, rows, seed=seed).place(netlist)
    return placement.to_netlist(netlist)
