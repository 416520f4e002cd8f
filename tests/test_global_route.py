"""Tests for multi-pin decomposition and the congestion-aware router."""

import hashlib
from dataclasses import replace

import pytest

from repro.fpga import (CircuitSpec, FPGAArchitecture, GlobalRouter, Net,
                        Netlist, generate_netlist, mcnc, place_netlist,
                        random_logical_netlist, route_netlist,
                        validate_global_routing)


def small_netlist():
    return Netlist("t", 4, 4, [
        Net("a", (0, 0), ((3, 3),)),
        Net("b", (0, 3), ((3, 0),)),
        Net("c", (1, 1), ((2, 1), (1, 2))),
    ])


class TestRouting:
    def test_all_two_pin_nets_present(self):
        routing = route_netlist(small_netlist())
        # net c has 2 sinks -> 2 two-pin nets; total 4
        assert routing.num_two_pin_nets == 4
        assert {t.net_index for t in routing.two_pin_nets} == {0, 1, 2}

    def test_routes_are_structurally_valid(self):
        routing = route_netlist(small_netlist())
        assert validate_global_routing(routing) == []

    def test_larger_random_circuit_valid(self):
        netlist = generate_netlist(CircuitSpec("c", 9, 9, 80, seed=21))
        routing = route_netlist(netlist)
        assert validate_global_routing(routing) == []

    def test_deterministic(self):
        netlist = generate_netlist(CircuitSpec("c", 6, 6, 30, seed=8))
        a = route_netlist(netlist)
        b = route_netlist(netlist)
        assert [t.segments for t in a.two_pin_nets] \
            == [t.segments for t in b.two_pin_nets]

    def test_grid_mismatch_rejected(self):
        router = GlobalRouter(FPGAArchitecture(3, 3))
        with pytest.raises(ValueError):
            router.route(Netlist("t", 4, 4, [Net("a", (0, 0), ((1, 1),))]))

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            GlobalRouter(FPGAArchitecture(3, 3), congestion_penalty=-1)

    def test_adjacent_blocks_share_channel(self):
        netlist = Netlist("t", 3, 3, [Net("a", (0, 0), ((1, 0),))])
        routing = route_netlist(netlist)
        route = routing.two_pin_nets[0]
        # A single shared channel segment suffices for abutting blocks.
        assert len(route.segments) == 1

    def test_route_length_bounded_by_distance(self):
        # Without congestion, a route should stay near-minimal.
        netlist = Netlist("t", 8, 8, [Net("a", (0, 0), ((7, 7),))])
        routing = route_netlist(netlist)
        assert routing.two_pin_nets[0].length <= 15

    def test_prim_decomposition_chains_nearby_sinks(self):
        # Sinks in a line: the second should connect from the first.
        netlist = Netlist("t", 8, 1, [Net("a", (0, 0), ((3, 0), (6, 0)))])
        routing = route_netlist(netlist)
        subnets = {t.subnet_index: t for t in routing.two_pin_nets}
        assert subnets[0].source == (0, 0) and subnets[0].sink == (3, 0)
        assert subnets[1].source == (3, 0) and subnets[1].sink == (6, 0)


def _routes_digest(routings):
    """sha256 over every 2-pin net (net, subnet, source, sink, segments)."""
    digest = hashlib.sha256()
    for routing in routings:
        for t in routing.two_pin_nets:
            digest.update(repr((t.net_index, t.subnet_index, t.source,
                                t.sink, [repr(s) for s in t.segments]))
                          .encode())
        digest.update(b";")
    return digest.hexdigest()


class TestPinnedRoutes:
    """The router's answers, pinned by hash: a faster router must return
    the same segments for every 2-pin net, ties included."""

    def test_fixed_circuits(self):
        # The 12 MCNC profiles, the batch workload's 16 generator shifts
        # (penalty 1.0) and the flow workload's 12 netlists placed on 4x4
        # (penalty 0.5).
        routings = [mcnc.load_routing(name) for name in mcnc.ALL_BENCHMARKS]
        for shift in range(4):
            for name in mcnc.EXTRA_BENCHMARKS:
                spec = mcnc.benchmark_spec(name)
                spec = replace(spec, seed=spec.seed + 7919 * shift)
                routings.append(route_netlist(generate_netlist(spec),
                                              congestion_penalty=1.0))
        for index in range(12):
            netlist = random_logical_netlist(10, 20, index, max_fanout=3)
            routings.append(route_netlist(place_netlist(netlist, 4, 4)))
        assert len(routings) == 40
        assert _routes_digest(routings) == (
            "dc0a1162e560e818854470a5b9b37704e5c0f20c9e2ec1bb54c79b2e4bd2abed")

    def test_small_netlists_at_extreme_penalties(self):
        # At penalty 0.0 every path of one length ties, so push order
        # decides each route.
        routings = []
        for penalty in (0.0, 2.0):
            for seed in range(20):
                spec = CircuitSpec(f"s{seed}", 2 + seed % 5,
                                   2 + (seed * 3) % 5, 4 + seed, seed=seed)
                routings.append(route_netlist(generate_netlist(spec),
                                              congestion_penalty=penalty))
        assert _routes_digest(routings) == (
            "65f606f59cf1f390b75db324bbe7420c40c7c1496d64d575f9f7973740468148")


class TestCongestion:
    def test_penalty_spreads_usage(self):
        # Many nets along one row: with a penalty, peak segment usage drops.
        nets = [Net(f"n{i}", (0, 0), ((5, 0),)) for i in range(6)]
        netlist = Netlist("t", 6, 3, nets)
        hot = route_netlist(netlist, congestion_penalty=0.0)
        spread = route_netlist(netlist, congestion_penalty=2.0)
        assert spread.max_segment_usage() <= hot.max_segment_usage()

    def test_segment_usage_counts_distinct_nets(self):
        # Two subnets of one net sharing a segment count once.
        netlist = Netlist("t", 5, 1, [Net("a", (0, 0), ((2, 0), (4, 0)))])
        routing = route_netlist(netlist, congestion_penalty=0.0)
        assert routing.max_segment_usage() == 1

    def test_usage_empty_routing(self):
        from repro.fpga.global_route import GlobalRouting
        routing = GlobalRouting(netlist=small_netlist(),
                                arch=FPGAArchitecture(4, 4))
        assert routing.max_segment_usage() == 0


class TestValidation:
    def test_detects_disconnected_route(self):
        routing = route_netlist(small_netlist())
        from dataclasses import replace
        from repro.fpga.arch import Segment
        broken = routing.two_pin_nets[0]
        far = Segment("h", 0, 0) if broken.segments[-1] != Segment("h", 0, 0) \
            else Segment("h", 3, 4)
        routing.two_pin_nets[0] = replace(
            broken, segments=broken.segments + (far,))
        assert validate_global_routing(routing) != []

    def test_detects_empty_route(self):
        routing = route_netlist(small_netlist())
        from dataclasses import replace
        routing.two_pin_nets[0] = replace(routing.two_pin_nets[0], segments=())
        violations = validate_global_routing(routing)
        assert any("empty route" in v for v in violations)
