"""Tests for logical netlists and the annealing placer."""

import hashlib
import math
import random

import pytest

from repro import obs
from repro.fpga import (AnnealingPlacer, LogicalNet, LogicalNetlist,
                        Placement, place_netlist, random_logical_netlist,
                        route_netlist, validate_global_routing)
from repro.obs import trace


def _placement_digest(placement):
    cells = sorted((b, x, y) for b, (x, y) in placement.positions.items())
    return hashlib.sha256(repr(cells).encode()).hexdigest()[:16]


def _pinned_cases():
    """(name, netlist, cols, rows, seed, digest, wirelength) per case."""
    flow = [("7fb24358300a885e", 44), ("9958386c2cd33009", 51),
            ("4965f84f9d2efd61", 41), ("beb44863ac4f94ed", 54),
            ("320f55ca6c633a56", 38), ("fc2a9c5076521425", 44),
            ("7036102a94a7c646", 45), ("ad7a791a675018f4", 38),
            ("bd05cb7ba6e9885d", 51), ("f9b62db87d019b6a", 47),
            ("ca3065ec1f64376b", 50), ("25d2115d419bad01", 48)]
    # The flow benchmark's circuits.
    cases = [(f"flow{i}", random_logical_netlist(10, 20, i, max_fanout=3),
              4, 4, 0, pinned, wirelength)
             for i, (pinned, wirelength) in enumerate(flow)]
    # A full grid: no free cells, so every move is a swap.
    cases.append(("full", random_logical_netlist(8, 16, seed=6), 4, 2, 1,
                  "c0192a7f79e7cf9c", 39))
    # Block 10 is on no net.
    base = random_logical_netlist(10, 20, seed=1, max_fanout=3)
    cases.append(("isolated", LogicalNetlist("isolated", 11, base.nets),
                  4, 4, 2, "af37dc6e417fad5d", 49))
    # examples/placement_to_tracks.py.
    cases.append(("example", random_logical_netlist(30, 70, seed=11), 6, 6,
                  3, "fcf71a6baf8af272", 262))
    # One-row and one-column grids: a cell's bit in one mask is its bit
    # in the other.
    row = random_logical_netlist(6, 12, seed=7, max_fanout=3)
    cases.append(("1x8", row, 1, 8, 4, "f8446fbfadbb37e3", 22))
    cases.append(("8x1", row, 8, 1, 5, "e265a8da58cf7377", 22))
    # Grids whose column-major and row-major bit orders differ.
    mid = random_logical_netlist(15, 30, seed=8, max_fanout=3)
    cases.append(("3x7", mid, 3, 7, 6, "765db7452124d1a5", 86))
    cases.append(("7x3", mid, 7, 3, 6, "971fe84ce5f82cb1", 91))
    # 144 cells: masks wider than a machine word.
    wide = random_logical_netlist(100, 140, seed=9, max_fanout=3)
    cases.append(("12x12", wide, 12, 12, 0, "25021c16b647c60f", 637))
    return cases


def _reference_place(netlist, cols, rows, seed, moves_per_temperature,
                     cooling, initial_acceptance):
    """Reference annealer: the placer's schedule and RNG draws, with each
    net's HPWL recomputed as max - min over its blocks' coordinate lists.
    Returns the positions and the counters of the ``fpga.place`` span."""
    rng = random.Random(seed)
    cells = [(x, y) for x in range(cols) for y in range(rows)]
    rng.shuffle(cells)
    num_blocks = netlist.num_blocks
    xs = [x for x, _ in cells[:num_blocks]]
    ys = [y for _, y in cells[:num_blocks]]
    free_cells = cells[num_blocks:]
    nets_of = [set() for _ in range(num_blocks)]
    for net_id, net in enumerate(netlist.nets):
        for block in net.blocks:
            nets_of[block].add(net_id)
    block_nets = [frozenset(nets) for nets in nets_of]

    def hpwl(net_id):
        blocks = netlist.nets[net_id].blocks
        net_xs = [xs[b] for b in blocks]
        net_ys = [ys[b] for b in blocks]
        return max(net_xs) - min(net_xs) + max(net_ys) - min(net_ys)

    cost = sum(hpwl(net_id) for net_id in range(len(netlist.nets)))
    deltas = []
    for _ in range(min(50, 5 * num_blocks)):
        a, b = rng.randrange(num_blocks), rng.randrange(num_blocks)
        if a == b:
            continue
        nets = block_nets[a] ^ block_nets[b]
        before = sum(hpwl(net_id) for net_id in nets)
        xs[a], xs[b], ys[a], ys[b] = xs[b], xs[a], ys[b], ys[a]
        delta = sum(hpwl(net_id) for net_id in nets) - before
        xs[a], xs[b], ys[a], ys[b] = xs[b], xs[a], ys[b], ys[a]
        if delta > 0:
            deltas.append(delta)
    temperature = (-sum(deltas) / len(deltas) / math.log(initial_acceptance)
                   if deltas else 1.0)
    moves = moves_per_temperature * num_blocks
    temperatures = total_accepted = 0
    while True:
        accepted = 0
        for _ in range(moves):
            block = rng.randrange(num_blocks)
            use_free = free_cells and rng.random() < 0.3
            if use_free:
                other, target = None, rng.choice(free_cells)
                nets = block_nets[block]
            else:
                other = rng.randrange(num_blocks)
                if other == block:
                    continue
                target = (xs[other], ys[other])
                nets = block_nets[block] ^ block_nets[other]
            source = (xs[block], ys[block])
            before = sum(hpwl(net_id) for net_id in nets)
            xs[block], ys[block] = target
            if other is not None:
                xs[other], ys[other] = source
            delta = sum(hpwl(net_id) for net_id in nets) - before
            if delta <= 0 or (temperature > 0 and rng.random()
                              < math.exp(-delta / temperature)):
                cost += delta
                accepted += 1
                if use_free:
                    free_cells.remove(target)
                    free_cells.append(source)
            else:
                xs[block], ys[block] = source
                if other is not None:
                    xs[other], ys[other] = target
        temperatures += 1
        total_accepted += accepted
        temperature *= cooling
        if accepted == 0 or temperature <= 0.005:
            break
    positions = {block: (xs[block], ys[block]) for block in range(num_blocks)}
    counters = {"blocks": num_blocks, "nets": len(netlist.nets),
                "moves": temperatures * moves, "accepted": total_accepted,
                "temperatures": temperatures, "hpwl": cost}
    return positions, counters


def _random_cases(count, seed):
    """Seeded (netlist, cols, rows, placer keywords) cases on grids from
    1x2 to 8x8, a fifth of them full, with random schedules."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        cols, rows = rng.randint(1, 8), rng.randint(1, 8)
        if cols * rows < 2:
            continue
        cells = cols * rows
        num_blocks = (cells if rng.random() < 0.2
                      else rng.randint(2, min(cells, 24)))
        netlist = random_logical_netlist(
            num_blocks, rng.randint(1, 2 * num_blocks), rng.randrange(10**6),
            max_fanout=rng.randint(1, 4))
        keywords = {"seed": rng.randrange(10**6),
                    "moves_per_temperature": rng.randint(1, 10),
                    "cooling": rng.uniform(0.5, 0.9),
                    "initial_acceptance": rng.uniform(0.05, 0.95)}
        cases.append((netlist, cols, rows, keywords))
    return cases


@pytest.fixture
def traced():
    """Tracing on for the test, with clean observability state."""
    obs.reset()
    trace.enable()
    yield
    obs.reset()


def _place_traced(placer, netlist):
    """The placement and the attributes of its ``fpga.place`` span."""
    placement = placer.place(netlist)
    (record,) = [r for r in trace.tracer().drain_spans()
                 if r["name"] == "fpga.place"]
    return placement, record["attrs"]


class TestLogicalNet:
    def test_valid(self):
        net = LogicalNet("a", 0, (1, 2))
        assert net.blocks == [0, 1, 2]

    def test_no_sinks(self):
        with pytest.raises(ValueError):
            LogicalNet("a", 0, ())

    def test_source_as_sink(self):
        with pytest.raises(ValueError):
            LogicalNet("a", 0, (0,))

    def test_duplicate_sink(self):
        with pytest.raises(ValueError):
            LogicalNet("a", 0, (1, 1))


class TestLogicalNetlist:
    def test_block_range_checked(self):
        with pytest.raises(ValueError):
            LogicalNetlist("t", 2, [LogicalNet("a", 0, (2,))])

    def test_random_generator_deterministic(self):
        a = random_logical_netlist(10, 20, seed=4)
        b = random_logical_netlist(10, 20, seed=4)
        assert [(n.source, n.sinks) for n in a.nets] \
            == [(n.source, n.sinks) for n in b.nets]

    def test_random_generator_bounds(self):
        netlist = random_logical_netlist(6, 15, seed=1, max_fanout=2)
        assert all(1 <= len(n.sinks) <= 2 for n in netlist.nets)
        assert all(n.source not in n.sinks for n in netlist.nets)


class TestPlacement:
    def test_duplicate_position_rejected(self):
        with pytest.raises(ValueError):
            Placement(2, 2, {0: (0, 0), 1: (0, 0)})

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError):
            Placement(2, 2, {0: (2, 0)})

    def test_wirelength(self):
        netlist = LogicalNetlist("t", 3, [LogicalNet("a", 0, (1, 2))])
        placement = Placement(3, 3, {0: (0, 0), 1: (2, 0), 2: (0, 2)})
        assert placement.wirelength(netlist) == 4

    def test_to_netlist(self):
        netlist = LogicalNetlist("t", 2, [LogicalNet("a", 0, (1,))])
        placement = Placement(2, 1, {0: (0, 0), 1: (1, 0)})
        placed = placement.to_netlist(netlist)
        assert placed.nets[0].source == (0, 0)
        assert placed.nets[0].sinks == ((1, 0),)


class TestAnnealer:
    def test_too_many_blocks_rejected(self):
        placer = AnnealingPlacer(2, 2)
        with pytest.raises(ValueError):
            placer.place(random_logical_netlist(5, 3, seed=0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AnnealingPlacer(0, 2)
        with pytest.raises(ValueError):
            AnnealingPlacer(2, 2, cooling=1.0)
        # log(initial_acceptance) sets the starting temperature: 1.0
        # divided by zero, 0.0 and below had no logarithm, and above 1.0
        # the temperature came out negative.
        for initial_acceptance in (1.0, 0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                AnnealingPlacer(4, 4, initial_acceptance=initial_acceptance)
        # 0 and -3 ran one move per step; 1.5 made place() raise
        # TypeError from range().
        for moves_per_temperature in (0, -3, 1.5):
            with pytest.raises(ValueError):
                AnnealingPlacer(4, 4,
                                moves_per_temperature=moves_per_temperature)

    def test_deterministic_per_seed(self):
        netlist = random_logical_netlist(12, 25, seed=2)
        a = AnnealingPlacer(4, 4, seed=7).place(netlist)
        b = AnnealingPlacer(4, 4, seed=7).place(netlist)
        assert a.positions == b.positions
        # The annealing trajectory is pinned: every case must land on
        # exactly these positions (sha256 of the sorted (block, x, y)
        # triples) and wirelength.
        for name, netlist, cols, rows, seed, pinned, wirelength in (
                _pinned_cases()):
            placement = AnnealingPlacer(cols, rows, seed=seed).place(netlist)
            assert (_placement_digest(placement),
                    placement.wirelength(netlist)) == (pinned, wirelength), \
                name

    def test_pinned_span_hpwl_is_the_wirelength(self, traced):
        for name, netlist, cols, rows, seed, _, wirelength in (
                _pinned_cases()):
            placement, attrs = _place_traced(
                AnnealingPlacer(cols, rows, seed=seed), netlist)
            assert attrs["hpwl"] == placement.wirelength(netlist) \
                == wirelength, name

    def test_matches_the_reference_annealer(self, traced):
        cases = _random_cases(100, seed=2024)
        assert any(cols == 1 for _, cols, _, _ in cases)
        assert any(rows == 1 for _, _, rows, _ in cases)
        assert any(netlist.num_blocks == cols * rows
                   for netlist, cols, rows, _ in cases)
        for index, (netlist, cols, rows, keywords) in enumerate(cases):
            placement, attrs = _place_traced(
                AnnealingPlacer(cols, rows, **keywords), netlist)
            positions, counters = _reference_place(netlist, cols, rows,
                                                   **keywords)
            assert (placement.positions, attrs) == (positions, counters), \
                (index, cols, rows, keywords)
            assert attrs["hpwl"] == placement.wirelength(netlist)

    def test_improves_over_random(self):
        netlist = random_logical_netlist(16, 40, seed=3)
        placer = AnnealingPlacer(5, 5, seed=1)
        import random as _random
        rng = _random.Random(99)
        cells = [(x, y) for x in range(5) for y in range(5)]
        rng.shuffle(cells)
        random_placement = Placement(5, 5, {b: cells[b] for b in range(16)})
        annealed = placer.place(netlist)
        assert annealed.wirelength(netlist) \
            <= random_placement.wirelength(netlist)

    def test_clustered_nets_placed_near_each_other(self):
        # Two tight 4-cliques of nets should not be interleaved: the
        # annealed wirelength must be near the lower bound.
        nets = []
        for base, prefix in ((0, "a"), (4, "b")):
            for i in range(4):
                for j in range(i + 1, 4):
                    nets.append(LogicalNet(f"{prefix}{i}{j}",
                                           base + i, (base + j,)))
        netlist = LogicalNetlist("clusters", 8, nets)
        placement = AnnealingPlacer(4, 2, seed=0).place(netlist)
        # Lower bound: each clique fits a 2x2 square; 6 intra-clique nets
        # have wirelength >= 1, several >= 2.
        assert placement.wirelength(netlist) <= 20

    def test_placed_netlist_routes(self):
        netlist = random_logical_netlist(12, 30, seed=5)
        placed = place_netlist(netlist, 4, 4, seed=2)
        routing = route_netlist(placed)
        assert validate_global_routing(routing) == []
