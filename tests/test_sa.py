"""Static-analysis tests: feasibility, loop bounds, diagnostics, soundness.

The heart of this file is the *differential* suite: every edge/block the
static analysis calls infeasible is checked against the model checker on
the optimised model, and the prefiltered query engine must return verdicts
bit-identical to the unfiltered one.  Soundness is the whole contract --
a single disagreement here is a bug in :mod:`repro.sa`, never in the MC.
"""

from __future__ import annotations

import pytest

from repro.cfg import EdgeKind, build_cfg
from repro.mc import ModelChecker, ModelCheckerOptions, Verdict
from repro.mc.property import GoalBuilder
from repro.mc.query import QueryBudget, QueryEngine, QueryEngineOptions
from repro.minic import parse_and_analyze
from repro.optim.pipeline import OptimizationConfig, build_optimized_model
from repro.pipeline.analyzer import AnalyzerConfig, WcetAnalyzer
from repro.sa import (
    StaticPrefilter,
    analyze_feasibility,
    diagnose,
    infer_loop_bounds,
    max_severity,
    render_diagnostics,
    run_static_analysis,
)
from repro.testgen.hybrid import HybridOptions
from repro.workloads.multi import (
    generate_call_chain_workload,
    generate_multi_function_workload,
)
from repro.workloads.targetlink import generate_small_application

pytestmark = pytest.mark.sa


def analyzed_function(body: str, header: str = "void f(void)", prelude: str = ""):
    analyzed = parse_and_analyze(f"{prelude}\n{header} {{ {body} }}")
    cfg = build_cfg(analyzed.program.function("f"))
    return cfg, analyzed.table("f")


def feasibility_of(body: str, **kwargs):
    cfg, table = analyzed_function(body, **kwargs)
    return cfg, table, analyze_feasibility(cfg, table)


# ---------------------------------------------------------------------- #
# feasibility unit tests
# ---------------------------------------------------------------------- #
class TestFeasibility:
    def test_constant_false_branch_prunes_true_edge(self):
        cfg, _, result = feasibility_of("int a; a = 1; if (a > 5) { a = 2; }")
        kinds = {kind for _, _, kind in result.infeasible_edges}
        assert EdgeKind.TRUE.value in kinds
        assert result.unreachable_blocks

    def test_constant_true_branch_prunes_false_edge(self):
        cfg, _, result = feasibility_of("int a; a = 1; if (a < 5) { a = 2; }")
        kinds = {kind for _, _, kind in result.infeasible_edges}
        assert EdgeKind.FALSE.value in kinds

    def test_input_dependent_branch_is_not_pruned(self):
        cfg, _, result = feasibility_of(
            "if (x > 0) { y = 1; } else { y = 2; }",
            header="void f(int x)",
            prelude="int y;",
        )
        assert not result.infeasible_edges
        assert not result.unreachable_blocks

    def test_refinement_chains_through_nested_branches(self):
        # inside the x < 3 arm, x > 7 can never hold
        cfg, _, result = feasibility_of(
            "int a; a = 0; if (x < 3) { if (x > 7) { a = 1; } }",
            header="void f(int x)",
        )
        assert result.unreachable_blocks

    def test_pragma_input_range_enables_pruning(self):
        # the declared range [0,3] makes the > 100 arm dead
        cfg, _, result = feasibility_of(
            "int a; a = 0; if (x > 100) { a = 1; }",
            prelude="#pragma input x\n#pragma range x 0 3\nint x;",
        )
        assert result.unreachable_blocks

    def test_call_havocs_globals(self):
        # ext() may write g, so the g > 5 arm must stay feasible
        cfg, _, result = feasibility_of(
            "g = 1; ext(); if (g > 5) { g = 2; }",
            prelude="int g; void ext(void);",
        )
        assert not result.infeasible_edges

    def test_switch_case_outside_selector_range_is_dead(self):
        cfg, _, result = feasibility_of(
            "int a; a = 0;"
            "switch (x) { case 0: a = 1; break; case 9: a = 2; break; }",
            prelude="#pragma input x\n#pragma range x 0 3\nint x;",
        )
        assert any(kind == EdgeKind.CASE.value for _, _, kind in result.infeasible_edges)

    def test_loop_does_not_diverge(self):
        cfg, _, result = feasibility_of(
            "int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; }"
        )
        # widening must terminate and the loop body must stay reachable
        assert not result.unreachable_blocks

    def test_graph_walk_agrees_with_fixpoint(self):
        # plain reachability over the CFG minus the proven-infeasible edges
        # must agree with the fixpoint: nothing the fixpoint reached may be
        # cut off, and every fixpoint-unreachable block must be cut off
        cfg, _, result = feasibility_of(
            "int a; a = 1; if (a > 5) { a = 2; } else { a = 3; }"
        )
        walked = cfg.reachable_blocks(infeasible_edges=result.infeasible_edges)
        assert result.reachable <= walked
        assert not (result.unreachable_blocks & walked)

    def test_segments_within_unreachable_region(self):
        from repro.partition.partitioner import PaperPartitioner

        source = (
            "void f(void) { int a; a = 1;"
            " if (a > 5) { a = 2; ext(); a = 3; } a = 4; }"
        )
        analyzed = parse_and_analyze("void ext(void);\n" + source)
        function = analyzed.program.function("f")
        cfg = build_cfg(function)
        result = analyze_feasibility(cfg, analyzed.table("f"))
        partition = PaperPartitioner(2).partition(function, cfg)
        dead = partition.segments_within(result.unreachable_blocks)
        for segment in dead:
            assert segment.block_ids <= result.unreachable_blocks

    def test_overflowing_arithmetic_widens_instead_of_pruning(self):
        # a + a wraps at 16-bit int width; a sound analysis may not prove
        # the branch from the raw (unwrapped) sum
        cfg, _, result = feasibility_of(
            "int a; a = 30000; a = a + 30000; if (a > 0) { a = 1; }"
        )
        assert not result.infeasible_edges


# ---------------------------------------------------------------------- #
# loop-bound inference unit tests
# ---------------------------------------------------------------------- #
class TestLoopBounds:
    def bounds_of(self, body: str, **kwargs):
        cfg, table = analyzed_function(body, **kwargs)
        return infer_loop_bounds(cfg, table)

    def test_classic_counted_loop(self):
        bounds = self.bounds_of(
            "int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; }"
        )
        assert list(bounds.values()) == [10]

    def test_stride_and_inclusive_limit(self):
        bounds = self.bounds_of(
            "int i; int s; s = 0; for (i = 2; i <= 10; i = i + 3) { s = s + 1; }"
        )
        # 2, 5, 8 -- then 11 > 10
        assert list(bounds.values()) == [3]

    def test_counting_down(self):
        bounds = self.bounds_of(
            "int i; int s; s = 0; for (i = 9; i > 0; i = i - 1) { s = s + 1; }"
        )
        assert list(bounds.values()) == [9]

    def test_counter_written_in_body_refuses(self):
        bounds = self.bounds_of(
            "int i; for (i = 0; i < 10; i = i + 1) { if (i > 3) { i = 9; } }"
        )
        assert bounds == {}

    def test_input_counter_refuses(self):
        bounds = self.bounds_of(
            "int s; s = 0; for (x = 0; x < 10; x = x + 1) { s = s + 1; }",
            header="void f(int x)",
        )
        assert bounds == {}

    def test_non_constant_limit_refuses(self):
        bounds = self.bounds_of(
            "int i; int s; s = 0; for (i = 0; i < x; i = i + 1) { s = s + 1; }",
            header="void f(int x)",
        )
        assert bounds == {}


# ---------------------------------------------------------------------- #
# diagnostics unit tests
# ---------------------------------------------------------------------- #
class TestDiagnostics:
    def diags_of(self, body: str, **kwargs):
        cfg, table, result = feasibility_of(body, **kwargs)
        return diagnose(cfg, table, result)

    def test_uninitialized_read_is_reported(self):
        diagnostics = self.diags_of("int a; int b; b = a + 1;")
        assert any(d.code == "SA001" for d in diagnostics)

    def test_initialized_read_is_clean(self):
        diagnostics = self.diags_of("int a; int b; a = 1; b = a + 1;")
        assert not any(d.code == "SA001" for d in diagnostics)

    def test_unreachable_code_is_reported(self):
        diagnostics = self.diags_of("int a; a = 1; if (a > 5) { a = 2; }")
        assert any(d.code == "SA002" for d in diagnostics)

    def test_definite_division_by_zero_is_an_error(self):
        diagnostics = self.diags_of("int a; int b; b = 0; a = 4 / b;")
        hits = [d for d in diagnostics if d.code == "SA003"]
        assert hits and hits[0].severity == "error"

    def test_possible_division_by_zero_is_a_warning(self):
        diagnostics = self.diags_of(
            "int a; a = 4 / x;", header="void f(int x)"
        )
        hits = [d for d in diagnostics if d.code == "SA003"]
        assert hits and hits[0].severity == "warning"

    def test_signed_overflow_is_reported(self):
        diagnostics = self.diags_of("int a; int b; a = 30000; b = a + 30000;")
        assert any(d.code == "SA004" for d in diagnostics)

    def test_constant_branch_is_info(self):
        diagnostics = self.diags_of("int a; a = 1; if (a > 5) { a = 2; }")
        hits = [d for d in diagnostics if d.code == "SA005"]
        assert hits and hits[0].severity == "info"

    def test_render_and_severity_helpers(self):
        diagnostics = self.diags_of("int a; int b; b = 0; a = 4 / b;")
        text = render_diagnostics(diagnostics)
        assert "SA003" in text and "error:" in text
        assert max_severity(diagnostics) == "error"
        assert max_severity([]) is None

    def test_seeded_workloads_have_no_errors(self):
        # generated code must never trip an error-severity diagnostic
        for workload in (
            generate_multi_function_workload(seed=2005, functions=3, units=2),
            generate_call_chain_workload(seed=2005, units=2),
        ):
            for unit, source in workload.sources.items():
                analyzed = parse_and_analyze(source)
                for function in analyzed.program.functions:
                    if function.body is None:
                        continue
                    cfg = build_cfg(function)
                    table = analyzed.table(function.name)
                    result = analyze_feasibility(cfg, table)
                    diagnostics = diagnose(cfg, table, result)
                    assert max_severity(diagnostics) != "error", (
                        unit,
                        function.name,
                        render_diagnostics(diagnostics),
                    )


# ---------------------------------------------------------------------- #
# differential soundness: static INFEASIBLE vs the model checker
# ---------------------------------------------------------------------- #
def _assert_static_claims_hold(analyzed, function_name: str) -> int:
    """MC-verify every static unreachability claim for one function.

    Returns the number of claims checked so callers can assert the suite
    exercised something.
    """
    cfg = build_cfg(analyzed.program.function(function_name))
    table = analyzed.table(function_name)
    result = analyze_feasibility(cfg, table)
    model = build_optimized_model(
        analyzed, function_name, OptimizationConfig.cfg_preserving()
    )
    checker = ModelChecker(model.translation, ModelCheckerOptions())
    checked = 0
    for block_id in sorted(result.unreachable_blocks):
        if block_id not in model.translation.block_location:
            continue
        verdict = checker.find_test_data_for_block(block_id).verdict
        assert verdict is Verdict.UNREACHABLE, (function_name, block_id)
        checked += 1
    return checked


class TestDifferentialSoundness:
    def test_multi_function_workload(self):
        workload = generate_multi_function_workload(seed=2005, functions=3, units=2)
        checked = 0
        for source in workload.sources.values():
            analyzed = parse_and_analyze(source)
            for function in analyzed.program.functions:
                if function.body is None:
                    continue
                checked += _assert_static_claims_hold(analyzed, function.name)
        assert checked > 0, "suite proved nothing -- no differential coverage"

    def test_call_chain_workload(self):
        workload = generate_call_chain_workload(seed=2005, units=2)
        for source in workload.sources.values():
            analyzed = parse_and_analyze(source)
            for function in analyzed.program.functions:
                if function.body is None:
                    continue
                _assert_static_claims_hold(analyzed, function.name)

    def test_small_industrial_application(self):
        app = generate_small_application(seed=7)
        checked = _assert_static_claims_hold(app.analyzed, app.function_name)
        assert checked > 0

    def test_prefilter_verdicts_match_unfiltered_engine(
        self, industrial_deep_batch
    ):
        # every block goal of the small app, and the budgeted deep batch of
        # the industrial function, answered with and without the prefilter:
        # identical verdicts, strictly fewer solver runs
        app = generate_small_application(seed=7)
        model = build_optimized_model(
            app.analyzed, app.function_name, OptimizationConfig.cfg_preserving()
        )
        builder = GoalBuilder(block_location=model.translation.block_location)
        small_goals = [
            builder.reach_block(b) for b in sorted(model.translation.block_location)
        ]
        deep = industrial_deep_batch
        batches = [
            (app, model, small_goals, QueryBudget()),
            (deep.app, deep.model, deep.goals(), deep.budget),
        ]
        for app, model, goals, budget in batches:
            feasibility = analyze_feasibility(
                app.cfg, app.analyzed.table(app.function_name)
            )
            prefilter = StaticPrefilter(feasibility)

            def run(active):
                engine = QueryEngine(
                    model.translation,
                    QueryEngineOptions(budget=budget, slicing=True, prefilter=active),
                )
                return [engine.check(goal) for goal in goals], engine.stats

            baseline, base_stats = run(None)
            filtered, filt_stats = run(prefilter)
            assert [r.verdict for r in baseline] == [r.verdict for r in filtered]
            assert filt_stats.static_prunes > 0
            assert filt_stats.solver_runs < base_stats.solver_runs
            # a pruned goal is unreachable either way, so it had no witness
            # to lose; every other witness must stay bit-identical
            for before, after in zip(baseline, filtered):
                assert (before.counterexample is None) == (after.counterexample is None)
                if after.counterexample is not None:
                    assert before.counterexample.inputs == after.counterexample.inputs
                    assert (
                        before.counterexample.initial_state
                        == after.counterexample.initial_state
                    )


# ---------------------------------------------------------------------- #
# pipeline integration: --no-sa parity and schema precedence
# ---------------------------------------------------------------------- #
class TestPipelineIntegration:
    def test_wcet_bounds_identical_with_and_without_sa(self):
        workload = generate_multi_function_workload(seed=2005, functions=3, units=2)
        hybrid = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)
        bounds: dict[bool, dict[str, int]] = {}
        for sa_on in (True, False):
            config = AnalyzerConfig(
                path_bound=2,
                hybrid=hybrid,
                extra_random_vectors=5,
                exhaustive_limit=None,
                static_analysis=sa_on,
            )
            per_function: dict[str, int] = {}
            for source in workload.sources.values():
                analyzed = parse_and_analyze(source)
                for function in analyzed.program.functions:
                    if function.body is None:
                        continue
                    report = WcetAnalyzer(
                        analyzed, function.name, config
                    ).analyze()
                    per_function[function.name] = report.wcet_bound_cycles
            bounds[sa_on] = per_function
        assert bounds[True] == bounds[False]

    def test_report_carries_sa_fields(self):
        source = (
            "#pragma input x\n#pragma range x 0 3\nint x;\n"
            "int f(void) { int a; a = 0;"
            " if (x > 100) { a = 9; } return a; }"
        )
        analyzed = parse_and_analyze(source)
        config = AnalyzerConfig(
            path_bound=2,
            hybrid=HybridOptions(plateau_patterns=10, max_random_vectors=30, seed=1),
        )
        report = WcetAnalyzer(analyzed, "f", config).analyze()
        assert report.sa_edges_pruned > 0
        disabled = WcetAnalyzer(
            analyzed,
            "f",
            AnalyzerConfig(
                path_bound=2,
                hybrid=HybridOptions(
                    plateau_patterns=10, max_random_vectors=30, seed=1
                ),
                static_analysis=False,
            ),
        ).analyze()
        assert disabled.sa_edges_pruned == 0
        assert disabled.sa_diagnostics == []
        assert report.wcet_bound_cycles == disabled.wcet_bound_cycles

    def test_static_analysis_participates_in_cache_key(self):
        from repro.project.model import config_fingerprint

        on = AnalyzerConfig(path_bound=2)
        off = AnalyzerConfig(path_bound=2, static_analysis=False)
        assert config_fingerprint(on) != config_fingerprint(off)

    def test_run_static_analysis_wraps_everything(self):
        source = "int f(int x) { int a; a = 0; if (x > 0) { a = 1; } return a; }"
        analyzed = parse_and_analyze(source)
        cfg = build_cfg(analyzed.program.function("f"))
        result = run_static_analysis(cfg, analyzed.table("f"))
        assert result.prefilter is not None
        payload = result.payload()
        assert {"edges_pruned", "loop_bounds_inferred", "diagnostics"} <= set(payload)


# ---------------------------------------------------------------------- #
# lint CLI
# ---------------------------------------------------------------------- #
class TestLintCli:
    def write(self, tmp_path, source: str):
        target = tmp_path / "unit.c"
        target.write_text(source)
        return str(target)

    def test_clean_unit_exits_zero(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = self.write(tmp_path, "int f(void) { int a; a = 1; return a; }")
        assert cli_main(["lint", path]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_error_diagnostic_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = self.write(
            tmp_path, "int f(void) { int b; b = 0; return 4 / b; }"
        )
        assert cli_main(["lint", path]) == 1
        assert "SA003" in capsys.readouterr().out

    def test_warning_only_exits_zero(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = self.write(
            tmp_path,
            "int f(void) { int a; a = 1; if (a > 5) { a = 2; } return a; }",
        )
        assert cli_main(["lint", path]) == 0
        output = capsys.readouterr().out
        assert "SA002" in output

    def test_json_output(self, tmp_path, capsys):
        import json

        from repro.cli import main as cli_main

        path = self.write(
            tmp_path, "int f(void) { int b; b = 0; return 4 / b; }"
        )
        assert cli_main(["lint", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "SA003" in codes

    def test_function_filter(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = self.write(
            tmp_path,
            "int f(void) { int b; b = 0; return 4 / b; }\n"
            "int g(void) { return 1; }",
        )
        assert cli_main(["lint", path, "--function", "g"]) == 0
