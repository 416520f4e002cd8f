"""End-to-end detailed-routing flow tests (scaled-down benchmarks)."""

from dataclasses import replace

import pytest

from repro.core import Strategy
from repro.fpga import (EXTRA_BENCHMARKS, benchmark_spec, detailed_route,
                        flow, generate_netlist, is_legal, load_routing,
                        minimum_channel_width, route_netlist)
from repro.sat import SolveLimits, SolveStatus
from repro.sat.solver.cdcl import BudgetExceeded

STRATEGY = Strategy("ITE-linear-2+muldirect", "s1")
POP = Strategy("pop", "s1")

#: W_min and the widths probed, in order, under pop/s1 for the
#: circuits the benchmark pins: six Table-2 circuits at full scale, and
#: the four small profiles under four generator-seed shifts.
TABLE2_SEARCHES = {
    "alu2": (7, []), "too_large": (8, [7]), "alu4": (8, [8, 7]),
    "C880": (8, [7]), "apex7": (8, [8, 6, 7]), "C1355": (8, [7, 8]),
}
SHIFTED_SEARCHES = {
    "9symml.0": (6, [5]), "term1.0": (5, [4]), "example2.0": (7, [5, 6]),
    "vg2.0": (6, [4, 5]), "9symml.1": (7, [6]), "term1.1": (6, [5]),
    "example2.1": (7, [6]), "vg2.1": (6, [4, 5]), "9symml.2": (6, [4, 5]),
    "term1.2": (6, [5]), "example2.2": (7, [6]), "vg2.2": (7, [6]),
    "9symml.3": (6, [4, 5]), "term1.3": (6, [5]), "example2.3": (7, [5, 6]),
    "vg2.3": (6, [5]),
}


@pytest.fixture(scope="module")
def alu2_routing():
    return load_routing("alu2", scale=0.7)


@pytest.fixture(scope="module")
def alu2_width(alu2_routing):
    return minimum_channel_width(alu2_routing, STRATEGY)


class TestDetailedRoute:
    def test_routable_at_minimum_width(self, alu2_routing, alu2_width):
        result = detailed_route(alu2_routing, alu2_width, STRATEGY)
        assert result.routable
        assert result.assignment is not None
        assert is_legal(result.assignment)
        assert result.width == alu2_width
        assert result.total_time > 0

    def test_unroutable_below_minimum(self, alu2_routing, alu2_width):
        assert alu2_width >= 2
        result = detailed_route(alu2_routing, alu2_width - 1, STRATEGY)
        assert not result.routable
        assert result.assignment is None

    def test_routable_with_slack(self, alu2_routing, alu2_width):
        result = detailed_route(alu2_routing, alu2_width + 2, STRATEGY)
        assert result.routable

    @pytest.mark.parametrize("encoding", ["muldirect", "log", "ITE-log",
                                          "direct-3+muldirect"])
    def test_width_agrees_across_encodings(self, alu2_routing, alu2_width,
                                           encoding):
        """The minimum width is a property of the problem, not the
        encoding: every encoding must agree at the boundary."""
        strategy = Strategy(encoding, "b1")
        assert not detailed_route(alu2_routing, alu2_width - 1,
                                  strategy).routable
        assert detailed_route(alu2_routing, alu2_width, strategy).routable


class TestMinimumWidth:
    def test_consistent_with_bounds(self, alu2_routing, alu2_width):
        from repro.coloring import clique_lower_bound, greedy_num_colors
        from repro.fpga import build_routing_csp
        graph = build_routing_csp(alu2_routing, 1).problem.graph
        assert clique_lower_bound(graph) <= alu2_width
        assert alu2_width <= greedy_num_colors(graph)

    def test_at_least_max_segment_usage(self, alu2_routing, alu2_width):
        assert alu2_width >= alu2_routing.max_segment_usage()

    def test_explicit_bracket(self, alu2_routing, alu2_width):
        narrowed = minimum_channel_width(alu2_routing, STRATEGY,
                                         lower=alu2_width, upper=alu2_width)
        assert narrowed == alu2_width

    def test_exhausted_deadline_names_the_bracket(self, alu2_routing,
                                                  alu2_width):
        with pytest.raises(BudgetExceeded,
                           match=rf"timed out with W in \[1, {alu2_width}\]"):
            minimum_channel_width(alu2_routing, STRATEGY, lower=1,
                                  upper=alu2_width,
                                  limits=SolveLimits(wall_clock_limit=1e-9))

    def test_illegal_routing_is_an_error(self, alu2_routing, alu2_width,
                                         monkeypatch):
        monkeypatch.setattr(flow, "verify_track_assignment",
                            lambda assignment: ["net 0 and net 1 share "
                                                "track 0 of h(0,0)"])
        result = detailed_route(alu2_routing, alu2_width, STRATEGY)
        assert result.status is SolveStatus.ERROR
        assert not result.routable and result.assignment is None
        assert result.report.detail == ("decoded track assignment is "
                                        "illegal: net 0 and net 1 share "
                                        "track 0 of h(0,0)")
        with pytest.raises(BudgetExceeded, match=rf"W={alu2_width} "
                                                 r"stopped: ERROR"):
            minimum_channel_width(alu2_routing, STRATEGY, lower=alu2_width,
                                  upper=alu2_width + 1)


class TestPinnedSearch:
    """The width search probes the same widths in the same order for
    any correct strategy, so these pins also fix the benchmark's set-up
    work."""

    def _searches(self, routings, monkeypatch):
        probed = []
        route = flow.detailed_route

        def recording(routing, width, *args, **kwargs):
            probed.append(width)
            return route(routing, width, *args, **kwargs)

        monkeypatch.setattr(flow, "detailed_route", recording)
        searches = {}
        for name, routing in routings:
            probed.clear()
            width = minimum_channel_width(routing, POP)
            searches[name] = (width, list(probed))
        return searches

    def test_table2_circuits(self, monkeypatch):
        routings = ((name, load_routing(name)) for name in TABLE2_SEARCHES)
        assert self._searches(routings, monkeypatch) == TABLE2_SEARCHES

    def test_shifted_small_profiles(self, monkeypatch):
        def routings():
            for shift in range(4):
                for name in EXTRA_BENCHMARKS:
                    spec = benchmark_spec(name)
                    spec = replace(spec, seed=spec.seed + 7919 * shift)
                    yield f"{name}.{shift}", route_netlist(
                        generate_netlist(spec), congestion_penalty=1.0)
        assert self._searches(routings(), monkeypatch) == SHIFTED_SEARCHES
