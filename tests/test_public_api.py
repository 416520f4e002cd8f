"""Sanity checks on the public API surface."""

import importlib

import pytest

import repro

PACKAGES = ["repro", "repro.sat", "repro.sat.solver", "repro.coloring",
            "repro.core", "repro.core.encodings", "repro.core.symmetry",
            "repro.fpga", "repro.bench", "repro.obs", "repro.api",
            "repro.serve"]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_duplicate_exports(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))

    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_api_contract_exported_at_top_level(self):
        from repro import SolveRequest, SolveResponse, api
        assert callable(api.solve) and callable(api.solve_batch)
        assert SolveRequest is api.SolveRequest
        assert SolveResponse is api.SolveResponse

    def test_status_api_exported_at_top_level(self):
        from repro import (BudgetExceeded, CancelToken, SolveLimits,
                           SolveReport, SolveStatus)
        assert SolveStatus.SAT.exit_code == 10
        assert SolveStatus.UNSAT.exit_code == 20
        assert not SolveStatus.TIMEOUT.decided
        assert SolveLimits().unlimited
        assert not CancelToken().cancelled
        assert SolveReport is not None and BudgetExceeded is not None

    def test_batch_runner_exported_at_top_level(self):
        from repro import BatchJob, BatchResult, run_batch
        assert callable(run_batch)
        assert BatchJob is not None and BatchResult is not None

    def test_docstrings_on_public_callables(self):
        """Every public item of the top-level API is documented."""
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            item = getattr(repro, name)
            if callable(item) or isinstance(item, type):
                assert item.__doc__, f"repro.{name} lacks a docstring"


class TestQuickstartContract:
    """The README's quickstart snippet, kept honest by a test."""

    def test_quickstart_flow(self):
        from repro import (Strategy, detailed_route, load_routing,
                           minimum_channel_width)

        strategy = Strategy("ITE-linear-2+muldirect", "s1")
        routing = load_routing("alu2", scale=0.6)
        w_min = minimum_channel_width(routing, strategy)
        result = detailed_route(routing, w_min, strategy)
        assert result.routable
        proof = detailed_route(routing, w_min - 1, strategy)
        assert not proof.routable

    def test_paper_constant_names(self):
        from repro import (ALL_ENCODINGS, NEW_ENCODINGS, PORTFOLIO_3,
                           PREVIOUS_ENCODINGS, TABLE2_ENCODINGS)
        assert len(ALL_ENCODINGS) == 15
        assert len(NEW_ENCODINGS) == 12
        assert PREVIOUS_ENCODINGS == ["log", "muldirect"]
        assert len(TABLE2_ENCODINGS) == 7
        assert len(PORTFOLIO_3) == 3

    def test_registry_constant_names(self):
        from repro import ALL_ENCODINGS, MODERN_ENCODINGS, REGISTRY_ENCODINGS
        assert len(MODERN_ENCODINGS) == 7
        assert len(REGISTRY_ENCODINGS) == 25
        assert set(ALL_ENCODINGS) <= set(REGISTRY_ENCODINGS)
        assert set(MODERN_ENCODINGS) <= set(REGISTRY_ENCODINGS)
        assert "pop" in REGISTRY_ENCODINGS and "pop-h" in REGISTRY_ENCODINGS


class TestCompatibilityShims:
    """The 1.1 boolean shims were removed in 2.0 (docs/api.md has the
    migration table); import paths from before 1.6 still resolve."""

    def test_old_import_paths_still_resolve(self):
        # Names reachable both from their home modules and the curated
        # top-level __all__.
        from repro.core.portfolio import PortfolioResult as deep
        from repro import PortfolioResult as top
        assert deep is top
        from repro.sat.status import SolveStatus as deep_status
        from repro.sat import SolveStatus as mid_status
        from repro import SolveStatus as top_status
        assert deep_status is mid_status is top_status
