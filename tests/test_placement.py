"""Tests for logical netlists and the annealing placer."""

import hashlib

import pytest

from repro.fpga import (AnnealingPlacer, LogicalNet, LogicalNetlist,
                        Placement, place_netlist, random_logical_netlist,
                        route_netlist, validate_global_routing)


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
    return cases


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
