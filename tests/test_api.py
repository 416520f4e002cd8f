"""The canonical request/response contract (repro.api).

Covers the cache-key semantics the serve cache relies on (edge-order
invariance, relabeling sensitivity, limits sensitivity), the wire
codecs, and the dispatch routing (pipeline / portfolio / batch).
"""

import dataclasses
import inspect
import json

import pytest

from repro import api
from repro.api import (SolveRequest, SolveResponse, limits_from_wire,
                       limits_to_wire, strategy_from_wire, strategy_to_wire)
from repro.coloring import ColoringProblem
from repro.coloring.problem import Graph
from repro.core.strategy import BEST_SINGLE_STRATEGY, PORTFOLIO_2, Strategy
from repro.sat.status import SolveLimits, SolveStatus

#: The alu2 request of the audit tests: unroutable at W=5, routable at 7.
ALU2_STRATEGY = Strategy("pop", "s1")


@pytest.fixture(scope="module")
def alu2_problems():
    from repro.fpga import build_routing_csp, load_routing
    routing = load_routing("alu2", scale=0.6)
    return {width: build_routing_csp(routing, width).problem
            for width in (5, 7)}


def triangle(order=((0, 1), (1, 2), (0, 2))):
    graph = Graph(3)
    for u, v in order:
        graph.add_edge(u, v)
    return graph


def path4_a():
    """P4 as 0-1-2-3."""
    graph = Graph(4)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(2, 3)
    return graph


def path4_b():
    """The same P4 with relabeled interior vertices (0-2-1-3):
    isomorphic, but a *different* labeled graph."""
    graph = Graph(4)
    graph.add_edge(0, 2)
    graph.add_edge(2, 1)
    graph.add_edge(1, 3)
    return graph


class TestCacheKey:
    def test_edge_order_invariance(self):
        a = SolveRequest(graph=triangle(), colors=3)
        b = SolveRequest(graph=triangle(order=((0, 2), (1, 2), (0, 1))),
                         colors=3)
        assert a.cache_key() == b.cache_key()
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_vertex_relabeling_changes_key(self):
        a = SolveRequest(graph=path4_a(), colors=2)
        b = SolveRequest(graph=path4_b(), colors=2)
        assert a.cache_key() != b.cache_key()

    def test_colors_change_key(self):
        graph = triangle()
        assert (SolveRequest(graph=graph, colors=3).cache_key()
                != SolveRequest(graph=graph, colors=4).cache_key())

    def test_limits_change_key(self):
        graph = triangle()
        free = SolveRequest(graph=graph, colors=3)
        bounded = SolveRequest(graph=graph, colors=3,
                               limits=SolveLimits(conflict_budget=100))
        tighter = SolveRequest(graph=graph, colors=3,
                               limits=SolveLimits(conflict_budget=50))
        assert free.cache_key() != bounded.cache_key()
        assert bounded.cache_key() != tighter.cache_key()

    def test_none_and_unlimited_limits_hash_equal(self):
        graph = triangle()
        assert (SolveRequest(graph=graph, colors=3).cache_key()
                == SolveRequest(graph=graph, colors=3,
                                limits=SolveLimits()).cache_key())

    def test_strategies_change_key(self):
        graph = triangle()
        one = SolveRequest(graph=graph, colors=3)
        other = SolveRequest(graph=graph, colors=3,
                             strategies=(Strategy("muldirect"),))
        both = SolveRequest(graph=graph, colors=3, strategies=PORTFOLIO_2)
        assert len({one.cache_key(), other.cache_key(),
                    both.cache_key()}) == 3

    def test_execution_opts_do_not_change_key(self):
        graph = triangle()
        base = SolveRequest(graph=graph, colors=3)
        dressed = SolveRequest(graph=graph, colors=3, audit=True,
                               client="alice", tag="run-7")
        assert base.cache_key() == dressed.cache_key()


class TestValidation:
    def test_rejects_non_graph(self):
        with pytest.raises(TypeError):
            SolveRequest(graph="not a graph", colors=3)

    def test_rejects_bad_colors(self):
        with pytest.raises(ValueError):
            SolveRequest(graph=triangle(), colors=0)

    def test_rejects_empty_strategies(self):
        with pytest.raises(ValueError):
            SolveRequest(graph=triangle(), colors=3, strategies=())

    def test_normalises_strategy_list(self):
        request = SolveRequest(graph=triangle(), colors=3,
                               strategies=[BEST_SINGLE_STRATEGY])
        assert isinstance(request.strategies, tuple)

    def test_single_constructor(self):
        problem = ColoringProblem(triangle(), 3)
        request = SolveRequest.single(problem, tag="t")
        assert request.colors == 3 and request.tag == "t"
        rebuilt = request.problem()
        assert rebuilt.num_colors == 3
        assert rebuilt.graph.num_edges == 3


class TestWire:
    def test_request_round_trip(self):
        request = SolveRequest(
            graph=path4_a(), colors=2, strategies=PORTFOLIO_2,
            limits=SolveLimits(conflict_budget=9, wall_clock_limit=1.5),
            client="bob", tag="x")
        wire = json.loads(json.dumps(request.to_wire()))
        # Every answer is audited: the wire carries no execution opts.
        assert not {"audit", "keep_model", "proof_log"} & set(wire)
        back = SolveRequest.from_wire(wire)
        assert back.cache_key() == request.cache_key()
        assert back.strategies == request.strategies
        assert back.limits == request.limits
        assert back.client == "bob" and back.tag == "x"

    def test_request_wire_rejects_unknown_format(self):
        wire = SolveRequest(graph=triangle(), colors=3).to_wire()
        wire["format"] = "bogus/9"
        with pytest.raises(ValueError):
            SolveRequest.from_wire(wire)

    def test_strategy_codec_round_trip(self):
        strategy = Strategy("muldirect", "b1", solver="minisat_like",
                            seed=3)
        assert strategy_from_wire(strategy_to_wire(strategy)) == strategy

    def test_strategy_wire_has_no_engine_key(self):
        wire = strategy_to_wire(BEST_SINGLE_STRATEGY)
        assert "engine" not in wire
        assert strategy_from_wire(wire) == BEST_SINGLE_STRATEGY

    def test_pre_2_0_wire_naming_the_arena_engine_is_accepted(self):
        # Journal entries and cached requests written before 2.0 carry
        # "engine": "arena"; they must replay to the same request, under
        # the same cache key (pinned from 1.9.0).
        wire = SolveRequest(graph=triangle(), colors=3).to_wire()
        for strategy in wire["strategies"]:
            strategy["engine"] = "arena"
        back = SolveRequest.from_wire(wire)
        assert back.strategies == (BEST_SINGLE_STRATEGY,)
        assert back.cache_key() == ("15cb7476dfb10097eb178099b1cebad4"
                                    "19f08cc0d635cdec0feb94f72dcf6b18")

    @pytest.mark.parametrize("engine", ["arena+inprocess", "legacy", ""])
    def test_wire_naming_another_engine_is_refused(self, engine):
        wire = {"encoding": "direct", "engine": engine}
        with pytest.raises(ValueError, match="engine"):
            strategy_from_wire(wire)
        request = SolveRequest(graph=triangle(), colors=3).to_wire()
        request["strategies"][0]["engine"] = engine
        with pytest.raises(ValueError, match="engine"):
            SolveRequest.from_wire(request)

    def test_limits_codec_round_trip(self):
        limits = SolveLimits(conflict_budget=5, propagation_budget=7,
                             wall_clock_limit=0.25)
        assert limits_from_wire(limits_to_wire(limits)) == limits
        assert limits_to_wire(None) is None
        assert limits_from_wire(None) is None

    def test_response_round_trip_restores_int_coloring_keys(self):
        response = api.solve(SolveRequest(graph=triangle(), colors=3))
        wire = json.loads(json.dumps(response.to_wire()))
        back = SolveResponse.from_wire(wire)
        assert back.status is SolveStatus.SAT
        assert back.coloring == response.coloring
        assert all(isinstance(v, int) for v in back.coloring)
        assert back.winner == response.winner
        assert back.timings and "solve_time" in back.timings


class TestDispatch:
    def test_single_strategy_sat(self):
        response = api.solve(SolveRequest(graph=triangle(), colors=3))
        assert response.status is SolveStatus.SAT
        assert response.exit_code == 10
        assert response.coloring and response.winner
        assert response.digest == SolveRequest(graph=triangle(),
                                               colors=3).cache_key()

    def test_single_strategy_unsat_with_audit(self):
        response = api.solve(SolveRequest(graph=triangle(), colors=2,
                                          audit=True))
        assert response.status is SolveStatus.UNSAT
        assert response.audit == "PASS"
        assert response.coloring is None
        assert response.exit_code == 20

    def test_budget_exhaustion_is_a_status(self):
        response = api.solve(SolveRequest(
            graph=triangle(), colors=3,
            limits=SolveLimits(propagation_budget=1)))
        assert response.status in (SolveStatus.BUDGET_EXHAUSTED,
                                   SolveStatus.SAT)
        assert response.exit_code in (0, 10)

    def test_portfolio_dispatch(self):
        response = api.solve(SolveRequest(graph=triangle(), colors=3,
                                          strategies=PORTFOLIO_2))
        assert response.status is SolveStatus.SAT
        assert response.winner in {s.label for s in PORTFOLIO_2}

    def test_batch_keeps_order_and_duplicates(self):
        requests = [
            SolveRequest(graph=triangle(), colors=3, tag="sat"),
            SolveRequest(graph=triangle(), colors=2, tag="unsat"),
            SolveRequest(graph=triangle(), colors=3, tag="dup"),
        ]
        responses = api.solve_batch(requests, max_workers=2)
        assert [r.status for r in responses] == [
            SolveStatus.SAT, SolveStatus.UNSAT, SolveStatus.SAT]
        assert [r.tag for r in responses] == ["sat", "unsat", "dup"]

    def test_batch_rejects_heterogeneous_limits(self):
        requests = [
            SolveRequest(graph=triangle(), colors=3),
            SolveRequest(graph=triangle(), colors=2,
                         limits=SolveLimits(conflict_budget=5)),
        ]
        with pytest.raises(ValueError, match="uniform"):
            api.solve_batch(requests)


class TestEveryAnswerAudited:
    """There is no audit switch: every decided answer is audited,
    whichever door it leaves by."""

    @pytest.mark.parametrize("width,status", [(5, SolveStatus.UNSAT),
                                              (7, SolveStatus.SAT)])
    def test_same_answer_through_either_door(self, alu2_problems, width,
                                             status):
        request = SolveRequest.single(alu2_problems[width], ALU2_STRATEGY)
        single = api.solve(request)
        [batched] = api.solve_batch([request], max_workers=1)
        assert (single.status, single.audit) == (status, "PASS")
        assert (batched.status, batched.audit) == (status, "PASS")

    def test_wire_that_turned_the_audit_off_is_loaded_and_audited(
            self, alu2_problems):
        # Journal entries written before the audit became unconditional
        # say so; they must still load, and are audited anyway.
        wire = SolveRequest.single(alu2_problems[5],
                                   ALU2_STRATEGY).to_wire()
        wire.update(audit=False, keep_model=False, proof_log=False)
        response = api.solve(SolveRequest.from_wire(wire))
        assert response.status is SolveStatus.UNSAT
        assert response.audit == "PASS"

    def test_audit_false_is_refused(self):
        with pytest.raises(ValueError, match="migration table"):
            SolveRequest(graph=triangle(), colors=3, audit=False)
        with pytest.raises(ValueError, match="migration table"):
            api.solve_batch([SolveRequest(graph=triangle(), colors=3)],
                            audit=False)

    def test_no_switch_is_left(self):
        from repro.bench.batch import run_batch, run_sharded
        from repro.core.pool import solve_attempt
        from repro.core.portfolio import run_portfolio
        fields = {f.name for f in dataclasses.fields(SolveRequest)}
        assert not {"audit", "keep_model", "proof_log"} & fields
        for engine in (run_sharded, run_batch, run_portfolio,
                       solve_attempt):
            assert "audit" not in inspect.signature(engine).parameters
