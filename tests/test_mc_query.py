"""Tests of the unified query engine (repro.mc.query + repro.mc.slicing).

All cases are bounded (tiny models, tight budgets) and carry the ``mc``
marker; the cross-check class is the sliced-vs-unsliced soundness guarantee
the query-engine refactor rests on: identical verdicts, and every witness
found with slicing replays identically on the unstubbed interpreter.
"""

from __future__ import annotations

import time

import pytest

from repro.cfg.builder import build_cfg
from repro.cfg.graph import TerminatorKind
from repro.hw.board import EvaluationBoard
from repro.mc import (
    BudgetExhausted,
    EngineKind,
    ExplicitEngineOptions,
    GoalBuilder,
    ModelChecker,
    ModelCheckerOptions,
    QueryBudget,
    QueryEngine,
    QueryEngineOptions,
    ReachabilityGoal,
    Verdict,
    slice_for_goal,
)
from repro.minic import parse_and_analyze
from repro.optim.pipeline import OptimizationConfig, build_optimized_model
from repro.pipeline.analyzer import AnalyzerConfig, analyze_source
from repro.testgen.hybrid import HybridOptions
from repro.testgen.modelcheck_gen import ModelCheckGeneratorOptions
from repro.transsys import translate_function
from repro.transsys.translate import TranslationOptions

pytestmark = pytest.mark.mc


GUARDED = """
#pragma input a
#pragma input b
#pragma range a 0 20
#pragma range b 0 20
int a; int b; int out;
void f(void) {
    out = 0;
    if (a > 10) {
        if (b == a - 3) {
            out = 1;
            target_hit();
        } else {
            out = 2;
        }
    } else {
        out = 3;
    }
}
"""

#: a free 16-bit variable chain: large enough that tiny budgets trip
#: mid-search, small enough that a sane budget answers instantly
SLOW = """
#pragma input x
#pragma input y
int x; int y; int acc;
void f(void) {
    acc = 0;
    if (x > 100) { acc = acc + 1; } else { acc = acc - 1; }
    if (y > 200) { acc = acc + 2; } else { acc = acc - 2; }
    if (x + y == 12345) { acc = acc + 4; } else { acc = acc - 4; }
    if (x - y == 4321) { target_hit(); }
}
"""


def translate(source: str, use_ranges: bool = True):
    analyzed = parse_and_analyze(source)
    options = TranslationOptions(
        use_declared_ranges=use_ranges, initialize_variables=use_ranges
    )
    return analyzed, translate_function(analyzed, "f", options)


def block_calling(translation, name: str) -> int:
    from repro.minic.ast_nodes import CallExpr

    for block in translation.cfg.real_blocks():
        for stmt in block.statements:
            for node in stmt.walk():
                if isinstance(node, CallExpr) and node.name == name:
                    return block.block_id
    raise AssertionError(f"no block calls {name}")


# ---------------------------------------------------------------------- #
# slicing
# ---------------------------------------------------------------------- #
class TestSlicing:
    def test_slice_drops_control_irrelevant_variables(self):
        _, translation = translate(GUARDED)
        builder = GoalBuilder(block_location=translation.block_location)
        goal = builder.reach_block(block_calling(translation, "target_hit"))
        goal_slice = slice_for_goal(translation, goal)
        # `out` feeds no branch: the slice must not materialise it
        assert "out" in goal_slice.dropped_variables
        assert {"a", "b"} <= set(goal_slice.kept_variables)
        assert goal_slice.is_proper
        assert (
            goal_slice.kept_transition_count
            < goal_slice.original_transition_count
        )
        assert (
            goal_slice.translation.system.total_state_bits()
            < translation.system.total_state_bits()
        )

    def test_slice_drops_branches_that_cannot_reach_the_goal(self):
        _, translation = translate(GUARDED)
        builder = GoalBuilder(block_location=translation.block_location)
        goal = builder.reach_block(block_calling(translation, "target_hit"))
        goal_slice = slice_for_goal(translation, goal)
        kept_labels = {
            label
            for transition in goal_slice.translation.system.transitions
            for label in transition.labels
        }
        # the else-branches (out = 2 / out = 3) cannot lead to target_hit
        all_labels = {
            label
            for transition in translation.system.transitions
            for label in transition.labels
        }
        assert kept_labels < all_labels

    def test_sliced_witness_is_completed_to_the_full_variable_set(self):
        _, translation = translate(GUARDED)
        engine = QueryEngine(translation, QueryEngineOptions(slicing=True))
        builder = GoalBuilder(block_location=translation.block_location)
        result = engine.check(
            builder.reach_block(block_calling(translation, "target_hit"))
        )
        assert result.verdict is Verdict.REACHABLE
        # even though `out` was sliced away, the witness carries every model
        # variable so the measurement layer gets a complete initial state
        assert set(result.counterexample.initial_state) == set(
            translation.system.variables
        )
        inputs = result.counterexample.inputs
        assert inputs["a"] > 10 and inputs["b"] == inputs["a"] - 3

    def test_statistics_report_full_and_sliced_model_sizes(self):
        _, translation = translate(GUARDED)
        engine = QueryEngine(translation, QueryEngineOptions(slicing=True))
        builder = GoalBuilder(block_location=translation.block_location)
        result = engine.check(
            builder.reach_block(block_calling(translation, "target_hit"))
        )
        stats = result.statistics
        assert stats.state_bits == translation.system.total_state_bits()
        assert stats.sliced_state_bits < stats.state_bits
        assert stats.sliced_transitions < stats.transitions_in_model


# ---------------------------------------------------------------------- #
# sliced vs unsliced cross-check (the refactor's soundness guarantee)
# ---------------------------------------------------------------------- #
class TestSlicedUnslicedAgree:
    """Every verdict with slicing matches the unsliced engine, and every
    sliced witness replays identically on the unstubbed interpreter."""

    def _cross_check(self, analyzed, function_name):
        model = build_optimized_model(
            analyzed, function_name, OptimizationConfig.cfg_preserving()
        )
        translation = model.translation
        board = EvaluationBoard(model.analyzed)
        builder = GoalBuilder(block_location=translation.block_location)
        sliced = QueryEngine(translation, QueryEngineOptions(slicing=True))
        unsliced = QueryEngine(translation, QueryEngineOptions(slicing=False))
        compared = 0
        for block in translation.cfg.real_blocks():
            goal = builder.reach_block(block.block_id)
            sliced_result = sliced.check(goal)
            unsliced_result = unsliced.check(goal)
            definitive = (Verdict.REACHABLE, Verdict.UNREACHABLE)
            if unsliced_result.verdict in definitive:
                # the slice decides whatever the full model decides, which
                # is why no full-model stage follows the sliced search
                assert sliced_result.verdict == unsliced_result.verdict, (
                    f"block {block.block_id}: sliced says "
                    f"{sliced_result.verdict}, unsliced says "
                    f"{unsliced_result.verdict}"
                )
                compared += 1
            if sliced_result.verdict is Verdict.REACHABLE:
                run = board.run(
                    function_name, dict(sliced_result.counterexample.inputs)
                )
                assert block.block_id in run.executed_blocks, (
                    f"sliced witness for block {block.block_id} does not "
                    "replay on the interpreter"
                )
        assert compared > 0

    def test_cross_check_branching_program(self, branching_program):
        self._cross_check(branching_program, "classify")

    def test_cross_check_loop_program(self, small_loop_program):
        self._cross_check(small_loop_program, "accumulate")

    def test_cross_check_wiper_case_study(self, wiper_code, wiper_function_name):
        self._cross_check(wiper_code.analyzed, wiper_function_name)

    def test_edge_sequence_goals_agree(self, branching_program):
        model = build_optimized_model(
            branching_program, "classify", OptimizationConfig.cfg_preserving()
        )
        translation = model.translation
        cfg = translation.cfg
        checker_sliced = ModelChecker(
            translation, ModelCheckerOptions(slicing=True)
        )
        checker_unsliced = ModelChecker(
            translation, ModelCheckerOptions(slicing=False)
        )
        board = EvaluationBoard(model.analyzed)
        for block in cfg.real_blocks():
            if block.terminator.kind is not TerminatorKind.BRANCH:
                continue
            for edge in cfg.out_edges(block):
                edges = [(edge.source, edge.target, edge.kind.value)]
                sliced_result = checker_sliced.find_test_data_for_edge_sequence(
                    edges
                )
                unsliced_result = (
                    checker_unsliced.find_test_data_for_edge_sequence(edges)
                )
                assert sliced_result.verdict == unsliced_result.verdict
                if sliced_result.verdict is Verdict.REACHABLE:
                    run = board.run(
                        "classify", dict(sliced_result.counterexample.inputs)
                    )
                    executed = run.executed_blocks
                    pairs = list(zip(executed, executed[1:]))
                    assert (edge.source, edge.target) in pairs


# ---------------------------------------------------------------------- #
# budgets
# ---------------------------------------------------------------------- #
class TestQueryBudget:
    def _engine(self, budget: QueryBudget, slicing: bool = False) -> tuple:
        # no declared ranges: 2 x 16-bit free inputs make the search space
        # big enough that tight budgets trip mid-search
        _, translation = translate(SLOW, use_ranges=False)
        engine = QueryEngine(
            translation,
            QueryEngineOptions(
                engine=EngineKind.SYMBOLIC, budget=budget, slicing=slicing
            ),
        )
        goal = ReachabilityGoal(
            target_labels=frozenset({"call:target_hit"}),
            description="reach the guarded call",
        )
        return engine, goal

    def test_deadline_hit_mid_search(self):
        engine, goal = self._engine(QueryBudget(deadline_ms=0, max_steps=None))
        result = engine.check(goal)
        assert result.verdict is Verdict.BUDGET_EXHAUSTED
        assert isinstance(result.exhaustion, BudgetExhausted)
        assert result.exhaustion.limit == "deadline"
        assert engine.stats.budget_exhausted == 1

    def test_step_cap(self):
        engine, goal = self._engine(
            QueryBudget(max_steps=2, deadline_ms=None, max_solver_calls=None)
        )
        result = engine.check(goal)
        assert result.verdict is Verdict.BUDGET_EXHAUSTED
        assert result.exhaustion.limit == "steps"
        assert result.exhaustion.spent_steps >= 2

    def test_solver_call_cap(self):
        engine, goal = self._engine(
            QueryBudget(max_steps=None, deadline_ms=None, max_solver_calls=1)
        )
        result = engine.check(goal)
        assert result.verdict is Verdict.BUDGET_EXHAUSTED
        assert result.exhaustion.limit == "solver_calls"
        assert result.exhaustion.spent_solver_calls >= 1

    def test_generous_budget_answers(self):
        engine, goal = self._engine(
            QueryBudget(max_steps=50_000, deadline_ms=60_000), slicing=True
        )
        result = engine.check(goal)
        assert result.verdict is Verdict.REACHABLE
        inputs = result.counterexample.inputs
        assert inputs["x"] - inputs["y"] == 4321

    def test_exhaustion_describes_itself(self):
        engine, goal = self._engine(QueryBudget(deadline_ms=0))
        result = engine.check(goal)
        assert "deadline" in result.exhaustion.describe()


# ---------------------------------------------------------------------- #
# escalation
# ---------------------------------------------------------------------- #
class TestEscalation:
    def test_explicit_escalates_to_sliced_symbolic(self):
        # ranged model: small enough for explicit, but a 1-state explicit cap
        # forces the portfolio to escalate to the sliced symbolic engine
        _, translation = translate(GUARDED)
        engine = QueryEngine(
            translation,
            QueryEngineOptions(
                engine=EngineKind.AUTO,
                slicing=True,
                explicit=ExplicitEngineOptions(max_explored_states=1),
            ),
        )
        builder = GoalBuilder(block_location=translation.block_location)
        result = engine.check(
            builder.reach_block(block_calling(translation, "target_hit"))
        )
        assert result.verdict is Verdict.REACHABLE
        assert result.statistics.engines_tried[0] == "explicit"
        assert "symbolic:sliced" in result.statistics.engines_tried
        assert engine.stats.escalations >= 1

    def test_escalation_order_is_explicit_then_sliced(self):
        _, translation = translate(GUARDED)
        engine = QueryEngine(translation, QueryEngineOptions(slicing=True))
        builder = GoalBuilder(block_location=translation.block_location)
        goal = builder.reach_block(block_calling(translation, "target_hit"))
        goal_slice = engine._slice_for(goal)
        stages = [label for label, _ in engine._stages(goal_slice)]
        assert stages == ["explicit", "symbolic:sliced"]

    def test_forced_explicit_does_not_escalate(self):
        _, translation = translate(GUARDED)
        engine = QueryEngine(
            translation,
            QueryEngineOptions(engine=EngineKind.EXPLICIT, slicing=True),
        )
        builder = GoalBuilder(block_location=translation.block_location)
        result = engine.check(
            builder.reach_block(block_calling(translation, "target_hit"))
        )
        assert result.verdict is Verdict.REACHABLE
        assert result.statistics.engines_tried == ("explicit",)


# ---------------------------------------------------------------------- #
# shared work: witness reuse
# ---------------------------------------------------------------------- #
class TestSharedWork:
    def test_witness_reuse_across_block_goals(self):
        _, translation = translate(GUARDED)
        engine = QueryEngine(translation, QueryEngineOptions(slicing=True))
        builder = GoalBuilder(block_location=translation.block_location)
        target_block = block_calling(translation, "target_hit")
        first = engine.check(builder.reach_block(target_block))
        assert first.verdict is Verdict.REACHABLE
        # a block on the witness path is answered from the stored witness
        witness_blocks = {
            int(label.split(":")[1])
            for transition in first.counterexample.trace
            for label in transition.labels
            if label.startswith("block:")
        }
        witness_blocks.discard(target_block)
        assert witness_blocks
        engine.check(builder.reach_block(sorted(witness_blocks)[0]))
        assert engine.stats.witness_reuse == 1


# ---------------------------------------------------------------------- #
# batches on the synthetic applications
# ---------------------------------------------------------------------- #
#: the verdicts a budgeted query may return: answered or explicitly tripped
BUDGETED_VERDICTS = {Verdict.REACHABLE, Verdict.UNREACHABLE, Verdict.BUDGET_EXHAUSTED}


class TestSyntheticBatches:
    @pytest.mark.perf
    def test_sliced_small_batch_matches_unsliced_and_is_faster(
        self, small_app_batch
    ):
        def run(slicing: bool) -> tuple[float, list[Verdict]]:
            engine = small_app_batch.engine(slicing=slicing)
            started = time.perf_counter()
            verdicts = [engine.check(goal).verdict for goal in small_app_batch.goals()]
            return time.perf_counter() - started, verdicts

        # one unsliced run (~20x slower) against the best of three sliced runs
        unsliced_s, unsliced = run(False)
        sliced_runs = [run(True) for _ in range(3)]
        sliced_s = min(seconds for seconds, _ in sliced_runs)
        assert all(verdicts == unsliced for _, verdicts in sliced_runs)
        assert sliced_s < unsliced_s, (
            f"slicing did not speed up the small-app batch "
            f"({sliced_s:.4f}s vs {unsliced_s:.4f}s)"
        )

    @pytest.mark.perf
    def test_budgeted_deep_batch_stays_within_its_deadline(
        self, industrial_deep_batch
    ):
        batch = industrial_deep_batch
        engine = batch.engine(slicing=True)
        worst = 0.0
        for goal in batch.goals():
            started = time.perf_counter()
            verdict = engine.check(goal).verdict
            worst = max(worst, time.perf_counter() - started)
            assert verdict in BUDGETED_VERDICTS, goal.description
        assert worst <= 2 * batch.budget.deadline_ms / 1000, (
            f"a deep query overran its budget deadline: {worst:.3f}s"
        )
        # unsliced, the same budget trips instead of running for minutes
        probe = batch.engine(slicing=False).check(batch.goals()[-1])
        assert probe.verdict in BUDGETED_VERDICTS


# ---------------------------------------------------------------------- #
# budget exhaustion propagation into the WCET report
# ---------------------------------------------------------------------- #
class TestWcetPropagation:
    HARD = """
    #pragma input a
    #pragma input b
    int a; int b; int out;
    void f(void) {
        out = 0;
        if (a * 181 + b * 59 == 28657) {
            if (b - a == 777) {
                out = 1;
            }
        } else {
            out = 2;
        }
    }
    """

    def _config(self, budget: QueryBudget) -> AnalyzerConfig:
        hybrid = HybridOptions(
            plateau_patterns=5,
            max_random_vectors=10,
            use_genetic=False,
            model_checking=ModelCheckGeneratorOptions(budget=budget),
        )
        return AnalyzerConfig(
            path_bound=2,
            hybrid=hybrid,
            extra_random_vectors=2,
            exhaustive_limit=None,
        )

    def test_budget_exhaustion_reaches_the_report(self):
        config = self._config(
            QueryBudget(max_steps=1, max_solver_calls=1, deadline_ms=None)
        )
        report = analyze_source(self.HARD, "f", config)
        # the starved budget exhausts on the hard targets ...
        assert report.generator_statistics["model_checking_budget_exhausted"] > 0
        assert report.mc_diagnostics["budget_exhausted"] > 0
        assert report.mc_diagnostics["planned"] > 0
        # ... the analysis still terminates with a bound (pessimise, not hang)
        assert report.wcet_bound_cycles > 0
        text = report.to_text()
        assert "mc budget exhausted" in text
        assert "mc queries planned" in text

    def test_generous_budget_reports_no_exhaustion(self):
        report = analyze_source(self.HARD, "f", self._config(QueryBudget()))
        assert report.generator_statistics["model_checking_budget_exhausted"] == 0
        assert "mc budget exhausted" not in report.to_text()
