"""Tests for the differential-testing subsystem (repro.qa).

The pyramid's top: the generators are deterministic, the differential
runner and metamorphic oracles stay clean on trunk, every cross-check
fires on a crafted violation, the ddmin shrinker is 1-minimal on a
synthetic predicate — and the acceptance path: a deliberately injected
encoding bug (a dropped clause under ``--faults``) is caught by the
matrix, minimized to a tiny instance and written as a replayable
reproducer bundle.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.coloring import ColoringProblem, Graph, complete_graph
from repro.coloring.brute import is_colorable
from repro.core import Strategy
from repro.core.encodings import (CardinalityDirectScheme, MODERN_ENCODINGS,
                                  REGISTRY_ENCODINGS, amo_commander)
from repro.core.encodings import registry as encoding_registry
from repro.core.encodings.base import Level
from repro.core.pipeline import ColoringOutcome
from repro.qa import (FailureSignature, StrategyMatrix, generate_instances,
                      load_bundle, recheck_failure, run_differential,
                      run_fuzz, run_metamorphic, shrink_problem)
from repro.qa.differential import _cross_check, DifferentialResult
from repro.qa.metamorphic import (add_isolated_vertex, increment_colors,
                                  relabel_vertices, remove_random_edge)
from repro.qa.shrink import (induced_subproblem, minimal_members,
                             shrink_failure, without_edge)
from repro.reliability.faults import FaultPlan
from repro.sat import SolveStatus

#: A deliberately broken strategy set: ``drop_clause`` removes one
#: clause from every CNF the muldirect encoder emits, while ``direct``
#: stays sound — the differential matrix must catch the asymmetry.
INJECTED_BUG = "seed=7; drop_clause@encode:match=muldirect"
BUG_MATRIX = StrategyMatrix(encodings=("direct", "muldirect"),
                            symmetries=("none",), engines=("arena",))


def _instance_digest(instances):
    return [(i.name, i.kind, i.num_colors, i.expected,
             sorted(i.problem.graph.edges())) for i in instances]


class TestGenerators:
    def test_deterministic_per_seed(self):
        assert _instance_digest(generate_instances(5)) == \
            _instance_digest(generate_instances(5))

    def test_seeds_differ(self):
        assert _instance_digest(generate_instances(1)) != \
            _instance_digest(generate_instances(2))

    def test_all_families_present(self):
        kinds = {instance.kind for instance in generate_instances(1)}
        assert kinds == {"random", "near-critical", "clique-chord",
                         "disconnected", "edge-case", "routing"}

    def test_expected_labels_match_brute_force(self):
        for instance in generate_instances(3):
            if instance.expected is None:
                continue
            assert instance.expected == is_colorable(
                instance.problem.graph, instance.num_colors), \
                f"{instance.name}: generator mislabeled ground truth"

    def test_to_col_round_trips(self):
        from repro.coloring import parse_col_string
        instance = generate_instances(1)[0]
        parsed = parse_col_string(instance.to_col())
        assert sorted(parsed.edges()) == \
            sorted(instance.problem.graph.edges())

    def test_stable_across_hash_seeds(self):
        """The stream must not depend on PYTHONHASHSEED — a nightly CI
        failure has to replay locally from the seed alone."""
        script = ("from repro.qa import generate_instances\n"
                  "for i in generate_instances(4):\n"
                  "    print(i.name, i.num_colors, i.expected,"
                  " sorted(i.problem.graph.edges()))\n")
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH="src")
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], cwd=_repo_root(),
                env=env, capture_output=True, text=True, check=True).stdout)
        assert outputs[0] == outputs[1]


def _repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestStrategyMatrix:
    def test_full_default(self):
        matrix = StrategyMatrix.parse("full")
        assert matrix.size == len(matrix.encodings) * 2 * 2
        assert len(matrix.strategies()) == matrix.size

    def test_quick_preset_covers_inprocessing(self):
        # The quick (fuzz-smoke) matrix must differentially exercise
        # the inprocessing + tier-reduction flag set against the plain
        # arena engine.
        assert StrategyMatrix.parse("quick").engines == \
            ("arena", "arena+inprocess")

    def test_engines_preset_races_engines(self):
        assert StrategyMatrix.parse("engines").engines == \
            ("arena", "arena+inprocess")

    def test_full_default_covers_whole_registry(self):
        assert set(StrategyMatrix().encodings) == set(REGISTRY_ENCODINGS)

    def test_quick_preset_covers_new_families(self):
        # The fuzz-smoke run must exercise the auxiliary-variable and
        # threshold-ladder code paths, not just the paper's schemes.
        encodings = StrategyMatrix.parse("quick").encodings
        assert {"cmddirect", "pop", "pop-h"} <= set(encodings)

    def test_modern_and_registry_tokens(self):
        modern = StrategyMatrix.parse(
            "encodings=modern;symmetry=none;engine=arena")
        assert modern.encodings == tuple(MODERN_ENCODINGS)
        full = StrategyMatrix.parse(
            "encodings=registry;symmetry=none;engine=arena")
        assert full.encodings == tuple(REGISTRY_ENCODINGS)

    def test_custom_spec(self):
        matrix = StrategyMatrix.parse(
            "encodings=direct,log;symmetry=none;engine=arena+inprocess")
        assert matrix.encodings == ("direct", "log")
        assert matrix.size == 2

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            StrategyMatrix.parse("solver=cdcl")

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError):
            StrategyMatrix.parse("encodings=nosuch")


class TestDifferential:
    def test_clean_on_trunk(self):
        problem = ColoringProblem(complete_graph(4), 4)
        result = run_differential(problem, BUG_MATRIX.strategies())
        assert result.ok, result.summary()
        assert result.consensus is SolveStatus.SAT
        assert result.oracle is True
        assert all(report.failed is False
                   for report in result.audits.values())

    def test_duplicate_labels_rejected(self):
        strategy = Strategy("direct", "none")
        with pytest.raises(ValueError):
            run_differential(ColoringProblem(Graph(2), 1),
                             [strategy, strategy])

    def test_wrong_oracle_reported(self):
        """Feeding a deliberately wrong ground truth must raise an
        oracle-mismatch from every decided strategy."""
        problem = ColoringProblem(complete_graph(3), 3)  # SAT
        result = run_differential(problem, BUG_MATRIX.strategies(),
                                  oracle=False)
        kinds = {failure.kind for failure in result.failures}
        assert kinds == {"oracle-mismatch"}

    def test_status_disagreement_signature(self):
        """_cross_check turns a SAT/UNSAT split into one signature
        naming every member on each side."""
        problem = ColoringProblem(complete_graph(3), 3)

        def outcome(label, status):
            return ColoringOutcome(
                strategy=Strategy("direct", "none"), status=status,
                coloring=None, encode_time=0.0, solve_time=0.0,
                num_vars=1, num_clauses=1)

        result = DifferentialResult(problem=problem, strategies=[])
        result.outcomes = {"a": outcome("a", SolveStatus.SAT),
                           "b": outcome("b", SolveStatus.UNSAT),
                           "c": outcome("c", SolveStatus.TIMEOUT)}
        failures = _cross_check(result)
        assert [f.kind for f in failures] == ["status-disagreement"]
        assert set(failures[0].members) == {("a", "SAT"), ("b", "UNSAT")}


class TestMetamorphicTransforms:
    def test_relabel_is_isomorphism(self):
        problem = ColoringProblem(Graph(3, [(0, 1), (1, 2)]), 2)
        relabeled = relabel_vertices(problem, [2, 0, 1])
        assert sorted(relabeled.graph.edges()) == [(0, 1), (0, 2)]

    def test_relabel_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            relabel_vertices(ColoringProblem(Graph(2), 1), [0, 0])

    def test_isolated_vertex_appended(self):
        problem = ColoringProblem(complete_graph(3), 3)
        grown = add_isolated_vertex(problem)
        assert grown.num_vertices == 4
        assert grown.graph.num_edges == 3

    def test_remove_edge_none_on_edgeless(self):
        import random
        assert remove_random_edge(ColoringProblem(Graph(3), 1),
                                  random.Random(0)) is None

    def test_increment_colors(self):
        assert increment_colors(
            ColoringProblem(Graph(1), 2)).num_colors == 3


class TestMetamorphicOracles:
    @pytest.mark.parametrize("num_colors", [2, 3])
    def test_clean_on_trunk(self, num_colors):
        problem = ColoringProblem(complete_graph(3), num_colors)
        report = run_metamorphic(problem, Strategy("direct", "none"),
                                 seed=1)
        assert report.ok
        assert "vertex-relabel" in report.checked
        assert "isolated-vertex" in report.checked

    def test_sat_only_oracles_skipped_on_unsat(self):
        problem = ColoringProblem(complete_graph(4), 2)
        report = run_metamorphic(problem, Strategy("direct", "none"),
                                 seed=1)
        assert report.ok
        assert report.base_status is SolveStatus.UNSAT
        assert "edge-removal" not in report.checked
        assert "color-increment" not in report.checked


class TestShrinker:
    def test_induced_subproblem_renumbers(self):
        problem = ColoringProblem(Graph(4, [(0, 2), (2, 3)]), 2)
        reduced = induced_subproblem(problem, [0, 2, 3])
        assert reduced.num_vertices == 3
        assert sorted(reduced.graph.edges()) == [(0, 1), (1, 2)]

    def test_without_edge(self):
        problem = ColoringProblem(complete_graph(3), 2)
        assert without_edge(problem, (0, 1)).graph.num_edges == 2

    def test_minimal_members_picks_one_per_side(self):
        signature = FailureSignature(
            kind="status-disagreement",
            members=(("a", "SAT"), ("b", "SAT"), ("c", "UNSAT")))
        narrowed = minimal_members(signature)
        assert len(narrowed) == 2
        assert {answer for _, answer in narrowed} == {"SAT", "UNSAT"}

    def test_ddmin_finds_embedded_triangle(self):
        """Synthetic predicate ("contains a triangle"): the shrinker
        must land exactly on K3, 1-minimal."""
        graph = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5),
                          (6, 7), (7, 8), (2, 6)])

        def has_triangle(problem):
            g = problem.graph
            vertices = range(g.num_vertices)
            return any(g.has_edge(u, v) and g.has_edge(v, w)
                       and g.has_edge(u, w)
                       for u in vertices for v in vertices
                       for w in vertices if u < v < w)

        result = shrink_problem(ColoringProblem(graph, 2), has_triangle)
        assert result.num_vertices == 3
        assert result.problem.graph.num_edges == 3
        assert result.probes > 0 and result.reductions > 0


class TestInjectedEncodingBug:
    """Acceptance: the harness catches a deliberately broken encoding.

    ``drop_clause`` deletes one clause from every muldirect CNF; the
    resulting model fails to decode (or decodes an improper coloring),
    which the matrix flags against the sound ``direct`` strategy,
    shrinks to a tiny instance and bundles for replay.
    """

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("bundles"))
        plan = FaultPlan.parse(INJECTED_BUG)
        report = run_fuzz([1], matrix=BUG_MATRIX, faults=plan,
                          out_dir=out, metamorphic=False,
                          include_routing=False)
        return report, out

    def test_bug_is_caught(self, campaign):
        report, _ = campaign
        assert not report.ok
        for finding in report.findings:
            assert any("muldirect" in label
                       for label in finding.signature.labels)

    def test_shrunk_to_at_most_eight_vertices(self, campaign):
        report, _ = campaign
        shrunk = [f for f in report.findings if f.shrunk is not None]
        assert shrunk, "no finding was shrunk"
        for finding in shrunk:
            assert finding.shrunk.num_vertices <= 8, finding.describe()

    def test_bundle_replays(self, campaign):
        report, _ = campaign
        finding = next(f for f in report.findings if f.bundle_path)
        assert os.path.isfile(
            os.path.join(finding.bundle_path, "instance.col"))
        problem, meta = load_bundle(finding.bundle_path)
        assert meta["signature"]["kind"] == finding.signature.kind
        assert meta["faults"] != ""
        # The minimized instance still reproduces the exact signature
        # when re-solved under the recorded fault plan.
        assert recheck_failure(problem, BUG_MATRIX.strategies(),
                               finding.signature,
                               faults=FaultPlan.parse(meta["faults"]))

    def test_bundle_bytes_are_stable(self, campaign):
        report, out = campaign
        finding = next(f for f in report.findings if f.bundle_path)
        with open(os.path.join(finding.bundle_path, "meta.json"),
                  encoding="utf-8") as handle:
            before = handle.read()
        json.loads(before)  # well-formed
        # Re-writing the same campaign produces identical bytes.
        plan = FaultPlan.parse(INJECTED_BUG)
        run_fuzz([1], matrix=BUG_MATRIX, faults=plan, out_dir=out,
                 metamorphic=False, include_routing=False)
        with open(os.path.join(finding.bundle_path, "meta.json"),
                  encoding="utf-8") as handle:
            assert handle.read() == before

    def test_clean_without_the_fault(self):
        report = run_fuzz([1], matrix=BUG_MATRIX, metamorphic=False,
                          include_routing=False)
        assert report.ok, report.summary()


def _overlapping_groups(lits, group_size):
    """A wrong commander partition: consecutive groups share a literal."""
    return [list(lits[i:i + group_size + 1])
            for i in range(0, len(lits), group_size)]


class _BrokenCommanderScheme(CardinalityDirectScheme):
    """cmddirect with overlapping groups: a boundary literal sits in two
    groups, so selecting it forces *both* commanders true and trips the
    commander-level at-most-one — boundary colors become unusable and
    colorable instances go UNSAT.  The CNF is still well-formed (it
    passes ``VertexEncoding.validate``), so only differential solving
    can catch it."""

    def amo_clauses(self, values, alloc):
        return amo_commander(values, alloc, self.group_size or 2,
                             groups_fn=_overlapping_groups)


class TestBrokenCommanderGrouping:
    """Satellite acceptance: a deliberately broken commander grouping is
    caught by the strategy matrix and shrunk to a minimal instance."""

    BROKEN = "broken-cmddirect"

    @pytest.fixture()
    def broken_registry(self):
        scheme = _BrokenCommanderScheme(self.BROKEN, "commander",
                                        group_size=2)
        encoding_registry._CACHE[self.BROKEN] = encoding_registry.Encoding(
            self.BROKEN, [Level(scheme, None)])
        yield
        encoding_registry._CACHE.pop(self.BROKEN, None)

    @pytest.fixture()
    def matrix(self, broken_registry):
        return StrategyMatrix(encodings=("direct", self.BROKEN),
                              symmetries=("none",), engines=("arena",))

    def test_overconstrained_color_goes_unsat(self, broken_registry):
        """The bug mechanism itself: a triangle is 3-colorable, but the
        overlapping grouping makes the boundary color unusable."""
        from repro.core.pipeline import solve_coloring
        outcome = solve_coloring(ColoringProblem(complete_graph(3), 3),
                                 Strategy(self.BROKEN, "none"))
        assert outcome.status is SolveStatus.UNSAT

    def test_caught_by_differential_matrix(self, matrix):
        problem = ColoringProblem(complete_graph(3), 3)
        result = run_differential(problem, matrix.strategies())
        assert not result.ok
        kinds = {failure.kind for failure in result.failures}
        assert "status-disagreement" in kinds
        assert "oracle-mismatch" in kinds
        for failure in result.failures:
            assert any(self.BROKEN in label for label in failure.labels)

    def test_shrunk_to_a_triangle(self, matrix):
        """From a 7-vertex instance the shrinker must reduce the
        disagreement to its 3-vertex core and keep it reproducible."""
        graph = Graph(7, [(0, 1), (1, 2), (0, 2),  # the essential K3
                          (2, 3), (3, 4), (4, 5), (5, 6)])
        problem = ColoringProblem(graph, 3)
        strategies = matrix.strategies()
        result = run_differential(problem, strategies)
        assert not result.ok
        signature = next(f for f in result.failures
                         if f.kind == "status-disagreement")
        shrunk, narrowed = shrink_failure(problem, strategies, signature)
        assert shrunk.num_vertices == 3
        assert recheck_failure(shrunk.problem, strategies, narrowed)

    def test_sound_commander_stays_clean(self):
        """Control: the real cmddirect passes the same differential."""
        matrix = StrategyMatrix(encodings=("direct", "cmddirect"),
                                symmetries=("none",), engines=("arena",))
        problem = ColoringProblem(complete_graph(3), 3)
        result = run_differential(problem, matrix.strategies())
        assert result.ok, result.summary()


class TestShrinkFailure:
    def test_narrows_to_involved_pair(self):
        plan = FaultPlan.parse(INJECTED_BUG)
        strategies = BUG_MATRIX.strategies()
        # Not every instance trips the dropped clause (it may stay UNSAT
        # without it); take the first one that does.
        for instance in generate_instances(1):
            diff = run_differential(instance.problem, strategies,
                                    faults=plan)
            if not diff.ok:
                break
        else:
            pytest.fail("injected bug never fired across seed 1")
        signature = diff.failures[0]
        shrunk, narrowed = shrink_failure(instance.problem, strategies,
                                          signature, faults=plan)
        assert shrunk.num_vertices <= instance.num_vertices
        assert set(narrowed.labels) <= set(signature.labels)
        assert recheck_failure(shrunk.problem, strategies, narrowed,
                               faults=plan)


class TestFuzzCampaign:
    def test_budget_stops_early(self):
        report = run_fuzz(range(1, 100), matrix=BUG_MATRIX,
                          budget_seconds=0.0, include_routing=False)
        assert report.budget_exhausted
        assert report.seeds_completed < report.seeds_requested

    def test_clean_campaign_counts(self):
        report = run_fuzz([2], matrix=BUG_MATRIX, include_routing=False)
        assert report.ok
        assert report.instances > 0
        assert report.solves >= report.instances * BUG_MATRIX.size
        assert report.metamorphic_checks > 0
        assert "CLEAN" in report.summary()


class TestCli:
    @pytest.fixture(autouse=True)
    def _isolate_fault_env(self):
        """``--faults`` exports REPRO_FAULTS for worker processes; keep
        it from leaking between in-process CLI invocations (and into
        whatever test file runs after this one)."""
        os.environ.pop("REPRO_FAULTS", None)
        yield
        os.environ.pop("REPRO_FAULTS", None)

    def test_fuzz_clean_exits_zero(self, capsys):
        code = cli_main(["fuzz", "--seeds", "1", "--matrix", "engines",
                         "--no-routing"])
        assert code == 0
        assert "fuzz CLEAN" in capsys.readouterr().out

    def test_fuzz_finding_exits_ten(self, tmp_path, capsys):
        code = cli_main(["fuzz", "--seeds", "1",
                         "--matrix", "encodings=direct,muldirect;"
                                     "symmetry=none;engine=arena",
                         "--no-routing", "--no-metamorphic",
                         "--faults", INJECTED_BUG,
                         "--out", str(tmp_path / "bundles")])
        assert code == 10
        out = capsys.readouterr().out
        assert "FAILURES" in out
        assert (tmp_path / "bundles").is_dir()

    def test_bad_matrix_exits_two(self, capsys):
        assert cli_main(["fuzz", "--matrix", "nope=1"]) == 2

    def test_fuzz_emits_qa_trace_spans(self, tmp_path):
        from repro.obs.report import parse_trace_file
        trace_file = str(tmp_path / "fuzz.trace.jsonl")
        code = cli_main(["fuzz", "--seeds", "1", "--matrix", "engines",
                         "--no-routing", "--trace", trace_file])
        assert code == 0
        names = {record.get("name")
                 for record in parse_trace_file(trace_file)
                 if record.get("type") == "span"}
        assert {"qa.fuzz", "qa.instance", "qa.differential",
                "qa.metamorphic"} <= names
