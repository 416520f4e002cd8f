"""Tests for repro.obs: tracing, metrics registry, reporting, CLI."""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.obs.report import (metrics_snapshots, parse_trace_file,
                              render_metrics, render_trace)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Observability state is process-global; isolate every test."""
    os.environ.pop(trace.ENV_VAR, None)
    os.environ.pop(obs_metrics.ENV_VAR, None)
    obs.reset()
    yield
    os.environ.pop(trace.ENV_VAR, None)
    os.environ.pop(obs_metrics.ENV_VAR, None)
    obs.reset()


class TestSpans:
    def test_disabled_span_measures_but_records_nothing(self):
        assert not trace.enabled()
        with trace.span("phase", label="x") as span:
            trace.event("something", detail=1)
            sum(range(1000))
        assert span.wall >= 0.0 and span.cpu >= 0.0
        assert span.span_id is None
        assert span.events == []
        assert trace.tracer().drain_spans() == []

    def test_enabled_spans_nest_into_a_tree(self):
        trace.enable()
        with trace.span("outer", kind="race") as outer:
            with trace.span("inner") as inner:
                inner.set("status", "SAT")
                inner.add_event("solver.finish", conflicts=3)
        records = trace.tracer().drain_spans()
        assert [r["name"] for r in records] == ["inner", "outer"]
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["attrs"] == {"kind": "race"}
        assert by_name["inner"]["attrs"]["status"] == "SAT"
        events = by_name["inner"]["events"]
        assert events[0]["name"] == "solver.finish"
        assert events[0]["attrs"] == {"conflicts": 3}

    def test_event_lands_on_innermost_open_span(self):
        trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                trace.event("mark")
        by_name = {r["name"]: r for r in trace.tracer().drain_spans()}
        assert "events" in by_name["inner"]
        assert "events" not in by_name["outer"]

    def test_event_without_open_span_is_an_orphan_record(self):
        trace.enable()
        trace.event("quarantine.offence", label="direct")
        (record,) = trace.tracer().drain_spans()
        assert record["type"] == "event"
        assert record["name"] == "quarantine.offence"
        assert record["parent"] is None

    def test_exception_marks_the_span(self):
        trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        (record,) = trace.tracer().drain_spans()
        assert record["attrs"]["error"] == "RuntimeError"

    def test_span_ids_carry_the_pid(self):
        trace.enable()
        with trace.span("a") as span:
            pass
        assert span.span_id.startswith(f"{os.getpid()}-")


class TestSinkRoundTrip:
    def test_flush_and_parse(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        trace.enable(path)
        with trace.span("solve", engine="arena"):
            trace.event("solver.finish", status="SAT")
        written = trace.tracer().flush()
        assert written == 1
        records = parse_trace_file(path)
        assert records[0]["name"] == "solve"
        assert records[0]["run"] == trace.tracer().run_id
        # The buffer is cleared: a second flush appends nothing.
        assert trace.tracer().flush() == 0
        assert len(parse_trace_file(path)) == 1

    def test_flush_appends_extra_records(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        trace.enable(path)
        with trace.span("solve"):
            pass
        obs_metrics.enable()
        obs_metrics.registry().inc("pipeline.solves")
        extra = [obs_metrics.snapshot_record(trace.tracer().run_id)]
        assert trace.tracer().flush(extra_records=extra) == 2
        records = parse_trace_file(path)
        (snap,) = metrics_snapshots(records)
        assert snap["counters"]["pipeline.solves"] == 1

    def test_parse_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_trace_file(str(path))
        path.write_text('["a", "list"]\n')
        with pytest.raises(ValueError, match="not a trace record"):
            parse_trace_file(str(path))

    def test_env_var_activates_tracing(self, tmp_path):
        os.environ[trace.ENV_VAR] = str(tmp_path / "env.trace.jsonl")
        assert trace.enabled()
        assert trace.tracer().sink_path == os.environ[trace.ENV_VAR]


class TestCrossProcessPlumbing:
    def test_ingest_reparents_roots_and_restamps_run(self):
        trace.enable()
        worker_records = [
            {"type": "span", "run": "worker-run", "id": "999-1",
             "parent": None, "name": "coloring.solve", "wall": 0.5},
            {"type": "span", "run": "worker-run", "id": "999-2",
             "parent": "999-1", "name": "encode", "wall": 0.1},
        ]
        trace.tracer().ingest_spans(worker_records, parent_id="1-1")
        ingested = trace.tracer().drain_spans()
        run_id = trace.tracer().run_id
        assert all(r["run"] == run_id for r in ingested)
        assert ingested[0]["parent"] == "1-1"      # root re-parented
        assert ingested[1]["parent"] == "999-1"    # child untouched
        # Originals are not mutated (queue payloads may be reused).
        assert worker_records[0]["run"] == "worker-run"

    def test_drain_telemetry_none_when_disabled(self):
        assert obs.drain_telemetry() is None

    def test_drain_and_ingest_telemetry(self):
        trace.enable()
        obs_metrics.enable()
        with trace.span("coloring.solve"):
            pass
        obs_metrics.registry().inc("solver.solves")
        telemetry = obs.drain_telemetry()
        assert telemetry["metrics"]["counters"]["solver.solves"] == 1

        obs.reset()
        trace.enable()
        obs_metrics.enable()
        obs.ingest_telemetry(telemetry, parent_span_id="7-1")
        (record,) = trace.tracer().drain_spans()
        assert record["parent"] == "7-1"
        snap = obs_metrics.registry().snapshot()
        assert snap["counters"]["solver.solves"] == 1

    def test_worker_begin_drops_inherited_buffers_and_sink(self):
        trace.enable("/tmp/parent.trace.jsonl")
        with trace.span("parent.phase"):
            pass
        assert trace.tracer()._records
        obs.worker_begin()
        assert trace.tracer().drain_spans() == []
        assert trace.tracer().sink_path is None   # workers never write
        assert trace.tracer().enabled             # but still record


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = obs_metrics.MetricsRegistry()
        reg.inc("c", 2)
        reg.inc("c")
        reg.set_gauge("g", 1.5)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 1.5
        hist = snap["histograms"]["h"]
        assert hist == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
                        "mean": 2.0}

    def test_merge_adds_counters_and_combines_histograms(self):
        a = obs_metrics.MetricsRegistry()
        b = obs_metrics.MetricsRegistry()
        a.inc("solver.conflicts", 10)
        a.observe("solver.solve_time", 0.5)
        a.set_gauge("g", 1.0)
        b.inc("solver.conflicts", 5)
        b.observe("solver.solve_time", 1.5)
        b.set_gauge("g", 2.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["solver.conflicts"] == 15
        hist = snap["histograms"]["solver.solve_time"]
        assert hist["count"] == 2 and hist["min"] == 0.5
        assert hist["max"] == 1.5
        assert snap["gauges"]["g"] == 2.0  # gauges take incoming value
        a.merge(None)                      # tolerated

    def test_absorb_solver_stats_is_delta_based(self):
        obs_metrics.enable()
        reg = obs_metrics.registry()
        stats = {"conflicts": 10.0, "propagations": 100.0,
                 "solve_time": 0.2, "props_per_sec": 500.0}
        marker = obs_metrics.absorb_solver_stats(stats, engine="arena")
        # Second solve() on the same (incremental) solver: stats are
        # cumulative, only the delta may land.
        stats2 = dict(stats, conflicts=14.0, propagations=160.0)
        obs_metrics.absorb_solver_stats(stats2, engine="arena",
                                        prev=marker)
        snap = reg.snapshot()
        assert snap["counters"]["solver.conflicts"] == 14
        assert snap["counters"]["solver.propagations"] == 160
        assert snap["counters"]["solver.solves"] == 2
        assert snap["counters"]["solver.solves.arena"] == 2
        assert snap["histograms"]["solver.solve_time"]["count"] == 2

    def test_env_var_activates_metrics(self):
        os.environ[obs_metrics.ENV_VAR] = "1"
        assert obs_metrics.enabled()

    def test_reset_disables_and_clears(self):
        obs_metrics.enable()
        obs_metrics.registry().inc("x")
        obs_metrics.reset()
        assert not obs_metrics.enabled()
        assert obs_metrics.registry().empty


class TestRendering:
    RECORDS = [
        {"type": "span", "run": "r1", "id": "1-1", "parent": None,
         "name": "portfolio.race", "wall": 1.0, "cpu": 0.2,
         "attrs": {"members": 2, "winner": "direct"}},
        {"type": "span", "run": "r1", "id": "1-2", "parent": "1-1",
         "name": "coloring.solve", "wall": 0.8, "cpu": 0.1,
         "attrs": {"strategy": "direct"},
         "events": [{"name": "solver.finish", "t": 0.7,
                     "attrs": {"status": "SAT"}}]},
        {"type": "span", "run": "r1", "id": "1-3", "parent": "1-1",
         "name": "audit", "wall": 0.1, "cpu": 0.05},
        {"type": "event", "run": "r1", "parent": None,
         "name": "quarantine.offence", "attrs": {"label": "direct"}},
        {"type": "metrics", "run": "r1",
         "metrics": {"counters": {"solver.solves": 2}, "gauges": {},
                     "histograms": {"solver.solve_time": {
                         "count": 2, "sum": 1.0, "min": 0.4,
                         "max": 0.6, "mean": 0.5}}}},
    ]

    def test_render_trace_tree_and_critical_path(self):
        text = render_trace(self.RECORDS)
        assert "3 spans, 1 root(s)" in text
        assert "portfolio.race" in text and "coloring.solve" in text
        # The race and its largest-wall child are on the critical path;
        # the cheap audit span is not.
        race_line = next(l for l in text.splitlines()
                         if "portfolio.race" in l)
        solve_line = next(l for l in text.splitlines()
                          if "coloring.solve" in l)
        audit_line = next(l for l in text.splitlines()
                          if l.strip().startswith(("`- audit", "|- audit")))
        assert race_line.endswith("*") and solve_line.endswith("*")
        assert not audit_line.endswith("*")
        assert "solver.finish" in text          # span event rendered
        assert "quarantine.offence" in text     # orphan event rendered
        assert "metrics snapshots: 1" in text

    def test_render_trace_event_cap(self):
        span = {"type": "span", "run": "r", "id": "1-1", "parent": None,
                "name": "s", "wall": 0.0, "cpu": 0.0,
                "events": [{"name": f"e{i}", "t": 0.0} for i in range(5)]}
        text = render_trace([span], max_events=2)
        assert "3 more event(s)" in text
        assert "e4" not in text
        assert "e0" not in render_trace([span], show_events=False)

    def test_render_metrics(self):
        snap = {"counters": {"solver.solves": 2},
                "gauges": {"bench.headline_bcp_speedup": 1.8},
                "histograms": {"solver.solve_time": {
                    "count": 2, "sum": 1.0, "min": 0.4, "max": 0.6,
                    "mean": 0.5}}}
        text = render_metrics(snap)
        assert "solver.solves" in text
        assert "bench.headline_bcp_speedup" in text
        assert "solver.solve_time" in text
        assert render_metrics({}) == "no metrics recorded"


class TestEndToEnd:
    """Tracing through the real pipeline and the CLI."""

    @pytest.fixture()
    def cycle5(self, tmp_path):
        col = str(tmp_path / "c5.col")
        with open(col, "w") as handle:
            handle.write("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
        return col

    def test_pipeline_emits_encode_and_solve_spans(self, cycle5):
        from repro.coloring import ColoringProblem, parse_col_file
        from repro.core import Strategy, solve_coloring

        trace.enable()
        problem = ColoringProblem(parse_col_file(cycle5), 3)
        outcome = solve_coloring(problem, Strategy("direct"))
        assert outcome.is_sat
        names = [r["name"] for r in trace.tracer().drain_spans()
                 if r["type"] == "span"]
        assert "coloring.solve" in names
        assert "encode" in names and "encode.cnf" in names
        assert "solve" in names

    def test_cli_trace_flag_writes_a_renderable_file(self, cycle5,
                                                     tmp_path, capsys):
        out = str(tmp_path / "color.trace.jsonl")
        assert main(["color", cycle5, "--colors", "3",
                     "--trace", out]) == 10
        assert "wrote trace:" in capsys.readouterr().err
        records = parse_trace_file(out)
        names = {r["name"] for r in records if r["type"] == "span"}
        assert "coloring.solve" in names and "solve" in names
        assert any(r["type"] == "metrics" for r in records)
        # The flag must not leave observability on for later runs.
        assert not trace.tracer().enabled
        assert not obs_metrics.enabled()

        assert main(["trace", out]) == 0
        rendered = capsys.readouterr().out
        assert "coloring.solve" in rendered and "spans" in rendered

        assert main(["metrics", out]) == 0
        assert "solver.solves" in capsys.readouterr().out

    def test_cli_trace_command_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert main(["trace", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_cli_metrics_without_snapshot_exits_nonzero(self, tmp_path,
                                                        capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps(
            {"type": "span", "run": "r", "id": "1-1", "parent": None,
             "name": "s", "wall": 0.0, "cpu": 0.0}) + "\n")
        assert main(["metrics", str(path)]) == 1
        assert "no metrics" in capsys.readouterr().err

    def test_trajectories_identical_with_tracing_on(self, cycle5):
        from repro.coloring import ColoringProblem, parse_col_file
        from repro.core import Strategy, solve_coloring

        problem = ColoringProblem(parse_col_file(cycle5), 3)
        baseline = solve_coloring(problem, Strategy("direct"))
        trace.enable()
        obs_metrics.enable()
        traced = solve_coloring(problem, Strategy("direct"))
        assert traced.status == baseline.status
        assert traced.solver_stats["conflicts"] == \
            baseline.solver_stats["conflicts"]
        assert traced.solver_stats["decisions"] == \
            baseline.solver_stats["decisions"]
        assert traced.coloring == baseline.coloring


class TestFpgaSpans:
    """Spans the FPGA tool flow opens, with their deterministic counters."""

    def test_place_span_counters_repeat_per_seed(self):
        from repro.fpga import AnnealingPlacer, random_logical_netlist

        netlist = random_logical_netlist(10, 20, seed=3, max_fanout=3)
        trace.enable()
        placements = [AnnealingPlacer(4, 4, seed=5).place(netlist)
                      for _ in range(2)]
        records = [r for r in trace.tracer().drain_spans()
                   if r["name"] == "fpga.place"]
        first, second = (r["attrs"] for r in records)
        assert first == second
        assert set(first) == {"blocks", "nets", "moves", "accepted",
                              "temperatures", "hpwl"}
        assert first["hpwl"] == placements[0].wirelength(netlist)
        assert (first["blocks"], first["nets"]) == (10, 20)
        assert first["moves"] == first["temperatures"] * 10 * 10
        assert 0 < first["accepted"] <= first["moves"]
