"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestBenchmarks:
    def test_lists_profiles(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "alu2" in out and "k2" in out and "table2" in out


class TestEncodings:
    def test_lists_whole_registry(self, capsys):
        from repro.core.encodings import REGISTRY_ENCODINGS
        assert main(["encodings"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY_ENCODINGS:
            assert name in out
        assert f"{len(REGISTRY_ENCODINGS)} registered encodings" in out
        assert "modern" in out and "paper" in out

    def test_colors_flag_changes_sizes(self, capsys):
        assert main(["encodings", "--colors", "4"]) == 0
        out = capsys.readouterr().out
        assert "(K=4)" in out
        # pop spends K-1 threshold variables per vertex.
        pop_row = next(line for line in out.splitlines()
                       if line.startswith("pop "))
        assert pop_row.split()[2] == "3"


class TestGenerate:
    def test_to_stdout(self, capsys):
        assert main(["generate", "alu2", "--scale", "0.5"]) == 0
        assert '"repro-netlist"' in capsys.readouterr().out

    def test_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "n.json")
        assert main(["generate", "alu2", "--scale", "0.5",
                     "--out", path]) == 0
        from repro.fpga import read_netlist
        assert read_netlist(path).num_nets > 0

    def test_unknown_benchmark(self, capsys):
        assert main(["generate", "nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestWidthAndRoute:
    @pytest.fixture(scope="class")
    def netlist_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli") / "alu2.json")
        assert main(["generate", "alu2", "--scale", "0.55",
                     "--out", path]) == 0
        return path

    def test_width(self, netlist_path, capsys):
        assert main(["width", netlist_path]) == 0
        out = capsys.readouterr().out
        assert "minimum channel width" in out

    def test_route_routable_exits_dimacs_sat(self, netlist_path, capsys):
        assert main(["route", netlist_path, "--width", "9"]) == 10
        assert "ROUTABLE" in capsys.readouterr().out

    def test_route_unroutable_exits_dimacs_unsat(self, netlist_path, capsys):
        assert main(["route", netlist_path, "--width", "1"]) == 20
        assert "UNROUTABLE" in capsys.readouterr().out

    def test_route_writes_tracks(self, netlist_path, tmp_path, capsys):
        tracks = str(tmp_path / "tracks.json")
        assert main(["route", netlist_path, "--width", "9",
                     "--tracks-out", tracks]) == 10
        import json
        payload = json.loads(open(tracks).read())
        assert payload["format"] == "repro-tracks"

    def test_route_benchmark_by_name(self, capsys):
        code = main(["route", "alu2", "--scale", "0.55", "--width", "9"])
        assert code == 10

    def test_route_certify_unroutable(self, netlist_path, capsys):
        code = main(["route", netlist_path, "--width", "2", "--certify",
                     "--encoding", "ITE-log"])
        assert code == 20
        out = capsys.readouterr().out
        assert "certificate" in out and "verified" in out

    def test_route_conflict_budget_exits_unknown(self, netlist_path, capsys):
        # W=4 without symmetry breaking needs ~70 conflicts to refute;
        # a budget of 5 must stop the run undecided.
        code = main(["route", netlist_path, "--width", "4",
                     "--symmetry", "none", "--conflict-budget", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "UNDECIDED" in out and "conflict budget" in out

    def test_width_budget_exits_unknown(self, netlist_path, capsys):
        code = main(["width", netlist_path, "--symmetry", "none",
                     "--conflict-budget", "3"])
        assert code == 0
        assert "UNKNOWN" in capsys.readouterr().out

    def test_width_incremental_agrees(self, netlist_path, capsys):
        assert main(["width", netlist_path]) == 0
        plain = capsys.readouterr().out
        assert main(["width", netlist_path, "--incremental"]) == 0
        incremental = capsys.readouterr().out
        import re
        get = lambda text: re.search(r"W = (\d+)", text).group(1)
        assert get(plain) == get(incremental)
        assert "incremental queries" in incremental


class TestTwoStageFlow:
    def test_extract_encode_solve(self, tmp_path, capsys):
        col = str(tmp_path / "g.col")
        cnf = str(tmp_path / "g.cnf")
        assert main(["extract", "alu2", "--scale", "0.55",
                     "--width", "2", "--out", col]) == 0
        assert main(["encode", col, "--colors", "2", "--out", cnf]) == 0
        # W=2 is far below minimum: must be UNSAT (DIMACS exit 20).
        assert main(["solve", cnf]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_encode_to_stdout(self, tmp_path, capsys):
        col = str(tmp_path / "g.col")
        assert main(["extract", "alu2", "--scale", "0.55",
                     "--width", "3", "--out", col]) == 0
        capsys.readouterr()
        assert main(["encode", col, "--colors", "3",
                     "--encoding", "muldirect"]) == 0
        assert "p cnf" in capsys.readouterr().out

    def test_color_sat_and_unsat(self, tmp_path, capsys):
        col = str(tmp_path / "g.col")
        main(["extract", "alu2", "--scale", "0.55", "--width", "2",
              "--out", col])
        assert main(["color", col, "--colors", "20", "--show"]) == 10
        assert "vertex 1" in capsys.readouterr().out
        assert main(["color", col, "--colors", "2"]) == 20

    def test_solve_show_model(self, tmp_path, capsys):
        cnf_path = str(tmp_path / "t.cnf")
        with open(cnf_path, "w") as handle:
            handle.write("p cnf 2 2\n1 2 0\n-1 0\n")
        assert main(["solve", cnf_path, "--show"]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out and "v " in out

    def test_solve_conflict_budget_exits_unknown(self, tmp_path, capsys):
        col = str(tmp_path / "g.col")
        cnf = str(tmp_path / "g.cnf")
        main(["extract", "alu2", "--scale", "0.55", "--width", "2",
              "--out", col])
        main(["encode", col, "--colors", "2", "--symmetry", "none",
              "--out", cnf])
        capsys.readouterr()
        assert main(["solve", cnf, "--conflict-budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "s UNKNOWN" in out and "conflict budget" in out


class TestPortfolioCommand:
    def test_portfolio_routable(self, capsys):
        code = main(["portfolio", "alu2", "--scale", "0.55", "--width", "9"])
        assert code == 10
        out = capsys.readouterr().out
        assert "ROUTABLE" in out and "winner" in out

    def test_portfolio_budget_exits_unknown(self, capsys):
        # W=6 needs hundreds of conflicts to refute even with symmetry
        # breaking; every member must exhaust its 1-conflict budget.
        code = main(["portfolio", "alu2", "--scale", "0.55", "--width", "6",
                     "--conflict-budget", "1", "--members", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "UNDECIDED" in out


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/file.cnf"]) == 2

    def test_bad_encoding_name(self, tmp_path, capsys):
        col = str(tmp_path / "g.col")
        with open(col, "w") as handle:
            handle.write("p edge 2 1\ne 1 2\n")
        assert main(["color", col, "--colors", "2",
                     "--encoding", "bogus"]) == 2


class TestAudit:
    """The `repro audit` command and the --faults/--chaos-seed hooks."""

    @pytest.fixture()
    def cycle5(self, tmp_path):
        col = str(tmp_path / "c5.col")
        with open(col, "w") as handle:
            handle.write("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
        return col

    @pytest.fixture(autouse=True)
    def _clean_fault_env(self):
        # --faults publishes via REPRO_FAULTS (so worker processes
        # inherit it); scrub it on both sides of every test.
        import os
        os.environ.pop("REPRO_FAULTS", None)
        yield
        os.environ.pop("REPRO_FAULTS", None)

    def test_audit_sat_passes(self, cycle5, capsys):
        assert main(["audit", cycle5, "--colors", "3",
                     "--encoding", "direct"]) == 10
        out = capsys.readouterr().out
        assert "SATISFIABLE" in out and "audit PASS" in out
        assert "model-satisfies-cnf: PASS" in out

    def test_audit_unsat_replays_proof(self, cycle5, capsys):
        assert main(["audit", cycle5, "--colors", "2",
                     "--encoding", "direct"]) == 20
        out = capsys.readouterr().out
        assert "UNSATISFIABLE" in out and "audit PASS" in out
        assert "proof-replay: PASS" in out

    def test_audit_flags_injected_wrong_model(self, cycle5, capsys):
        code = main(["audit", cycle5, "--colors", "3",
                     "--encoding", "direct",
                     "--faults", "seed=1; wrong_model"])
        # Caught either by the pipeline's own decode check (ERROR) or by
        # the audit (FAIL) — both exit 2, never a clean SAT code.
        assert code == 2
        out = capsys.readouterr().out
        assert ("audit FAIL" in out) or ("stopped:" in out)

    def test_chaos_seed_without_plan_warns(self, cycle5, capsys):
        assert main(["audit", cycle5, "--colors", "3",
                     "--encoding", "direct", "--chaos-seed", "9"]) == 10
        assert "nothing to seed" in capsys.readouterr().err

    def test_chaos_seed_reseeds_env_plan(self, cycle5, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@solver")
        code = main(["audit", cycle5, "--colors", "3",
                     "--encoding", "direct", "--chaos-seed", "5"])
        assert code == 2
        assert "stopped: solver crashed" in capsys.readouterr().out
        import os
        assert os.environ["REPRO_FAULTS"].startswith("seed=5")

    def test_malformed_col_is_a_usage_error(self, tmp_path, capsys):
        col = str(tmp_path / "bad.col")
        with open(col, "w") as handle:
            handle.write("p edge 2 1\ne 1 oops\n")
        assert main(["audit", col, "--colors", "2"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_color_with_engine_flag(self, cycle5, capsys):
        assert main(["color", cycle5, "--colors", "3",
                     "--engine", "arena+inprocess"]) == 10
        assert "SATISFIABLE" in capsys.readouterr().out
