"""Tests of the simulated target: cost model, interpreter, evaluation board."""

from __future__ import annotations

import pytest

from repro.cfg import build_cfg
from repro.hw import (
    CostModel,
    EvaluationBoard,
    ExecutionError,
    HCS12_COST_MODEL,
    Interpreter,
    uniform_cost_model,
)
from repro.minic import parse_and_analyze
from repro.partition import build_instrumentation_plan, partition_function


def board_for(source: str, **kwargs) -> EvaluationBoard:
    return EvaluationBoard(parse_and_analyze(source), **kwargs)


class TestCostModel:
    def test_division_costs_more_than_addition(self):
        assert HCS12_COST_MODEL.binary_cost("/", 16) > HCS12_COST_MODEL.binary_cost("+", 16)

    def test_wide_operations_cost_more(self):
        assert HCS12_COST_MODEL.binary_cost("+", 16) >= HCS12_COST_MODEL.binary_cost("+", 8)

    def test_external_call_override(self):
        model = CostModel(external_call_cycles={"printf1": 55})
        assert model.external_call_cost("printf1") == 55
        assert model.external_call_cost("other") == model.default_external_call

    def test_uniform_model_flat_costs(self):
        model = uniform_cost_model(2)
        assert model.binary_cost("*", 16) == 2
        assert model.load_cost(None) == 2


class TestInterpreterSemantics:
    SOURCE = """
    #pragma input a
    #pragma input b
    #pragma range a 0 100
    #pragma range b 0 100
    int a; int b; int result;
    void f(void) {
        if (a > b) {
            result = a - b;
        } else {
            result = b - a;
        }
    }
    """

    def test_branch_semantics(self):
        board = board_for(self.SOURCE)
        assert board.run("f", {"a": 10, "b": 3}).final_environment["result"] == 7
        assert board.run("f", {"a": 3, "b": 10}).final_environment["result"] == 7

    def test_arithmetic_wraps_by_type(self):
        source = "UInt8 x; void f(void) { x = 200; x = x + 100; }"
        board = board_for(source)
        assert board.run("f").final_environment["x"] == 44

    def test_signed_wrapping(self):
        source = "int x; void f(void) { x = 32767; x = x + 1; }"
        board = board_for(source)
        assert board.run("f").final_environment["x"] == -32768

    def test_switch_dispatch(self):
        source = """
        #pragma input s
        #pragma range s 0 5
        int s; int out;
        void f(void) {
            switch (s) {
            case 0: out = 10; break;
            case 1: case 2: out = 20; break;
            default: out = 30; break;
            }
        }
        """
        board = board_for(source)
        assert board.run("f", {"s": 0}).final_environment["out"] == 10
        assert board.run("f", {"s": 2}).final_environment["out"] == 20
        assert board.run("f", {"s": 5}).final_environment["out"] == 30

    def test_loop_execution(self, small_loop_program):
        board = EvaluationBoard(small_loop_program)
        result = board.run("accumulate", {"n": 4})
        assert result.final_environment["total"] == 0 + 1 + 2 + 3

    def test_defined_function_calls(self):
        source = """
        int doubled(int v) { return v + v; }
        #pragma input x
        int x; int y;
        void f(void) { y = doubled(x) + 1; }
        """
        board = board_for(source)
        assert board.run("f", {"x": 5}).final_environment["y"] == 11

    def test_division_by_zero_raises(self):
        source = "#pragma input d\nint d; int r; void f(void) { r = 10 / d; }"
        board = board_for(source)
        with pytest.raises(ExecutionError):
            board.run("f", {"d": 0})

    def test_step_limit_detects_runaway_loops(self):
        source = "int x; void f(void) { x = 0; while (x < 10) { x = x - 1; } }"
        board = board_for(source, max_steps=5_000)
        with pytest.raises(ExecutionError):
            board.run("f")

    def test_conditional_expression(self):
        source = "#pragma input c\nint c; int r; void f(void) { r = c > 0 ? 5 : 9; }"
        board = board_for(source)
        assert board.run("f", {"c": 1}).final_environment["r"] == 5
        assert board.run("f", {"c": 0}).final_environment["r"] == 9

    def test_global_initialisers_respected(self):
        source = "int base = 40; int r; void f(void) { r = base + 2; }"
        board = board_for(source)
        assert board.run("f").final_environment["r"] == 42


class TestCycleAccounting:
    def test_cycles_deterministic(self, figure1):
        board = EvaluationBoard(figure1)
        first = board.run("main", {"i": 0}).total_cycles
        second = board.run("main", {"i": 0}).total_cycles
        assert first == second > 0

    def test_longer_path_costs_more(self, figure1):
        board = EvaluationBoard(figure1)
        long_path = board.run("main", {"i": 0}).total_cycles  # executes all printfs
        short_path = board.run("main", {"i": 1}).total_cycles
        assert long_path > short_path

    def test_cost_model_scales_cycles(self, figure1):
        cheap = EvaluationBoard(figure1, cost_model=uniform_cost_model(1))
        expensive = EvaluationBoard(figure1, cost_model=uniform_cost_model(3))
        assert (
            expensive.run("main", {"i": 0}).total_cycles
            > cheap.run("main", {"i": 0}).total_cycles
        )

    def test_block_trace_cycles_monotone(self, figure1):
        board = EvaluationBoard(figure1)
        trace = board.run("main", {"i": 0}).block_trace
        cycles = [event.cycles for event in trace]
        assert cycles == sorted(cycles)

    def test_external_call_cost_included(self):
        with_call = board_for("void f(void) { helper(); }").run("f").total_cycles
        without_call = board_for("int x; void f(void) { x = 1; }").run("f").total_cycles
        assert with_call > without_call


class TestTracesAndEvents:
    def test_block_trace_matches_cfg_path(self, figure1):
        board = EvaluationBoard(figure1)
        run = board.run("main", {"i": 1})
        cfg = board.cfg("main")
        executed = run.executed_blocks
        assert executed[0] == cfg.entry.block_id
        assert executed[-1] == cfg.exit.block_id
        # i=1 skips the then-branches
        assert 5 not in executed and 10 not in executed

    def test_edge_trace_connects_blocks(self, figure1):
        board = EvaluationBoard(figure1)
        run = board.run("main", {"i": 0})
        for edge, (source, target) in zip(
            run.edge_trace, zip(run.executed_blocks, run.executed_blocks[1:])
        ):
            assert edge.source == source and edge.target == target

    def test_branch_events_have_zero_distance_for_taken_outcome(self, figure1):
        board = EvaluationBoard(figure1)
        run = board.run("main", {"i": 0})
        for event in run.branch_events:
            if event.outcome:
                assert event.distance_true == 0.0
            else:
                assert event.distance_false == 0.0

    def test_branch_distance_decreases_toward_boundary(self):
        source = "#pragma input v\n#pragma range v 0 100\nint v; int o; " \
                 "void f(void) { if (v > 90) { o = 1; } }"
        board = board_for(source)
        far = board.run("f", {"v": 10}).branch_events[0].distance_true
        near = board.run("f", {"v": 89}).branch_events[0].distance_true
        assert near < far

    def test_branch_distances_use_wrapped_values(self):
        """b * b wraps to -25536 for b = 200, so the TRUE side is taken and
        must read distance 0, like any taken outcome."""
        source = (
            "#pragma input a\n#pragma range a 0 255\n"
            "UInt8 a; UInt8 b; Int16 out;\n"
            "int main() { b = a; if (b * b < 10) { out = 1; } else { out = 2; }"
            " return 0; }"
        )
        run = board_for(source).run("main", {"a": 200})
        event = run.branch_events[0]
        assert event.outcome is True
        assert event.distance_true == 0.0
        assert event.distance_false > 0.0

    def test_switch_events_recorded(self):
        source = """
        #pragma input s
        #pragma range s 0 3
        int s; int o;
        void f(void) { switch (s) { case 1: o = 1; break; default: o = 0; break; } }
        """
        board = board_for(source)
        run = board.run("f", {"s": 1})
        assert run.switch_events and run.switch_events[0].value == 1


class TestInstrumentedRuns:
    def test_readings_match_plan_triggers(self, figure1, figure1_cfg):
        board = EvaluationBoard(figure1)
        partition = partition_function(figure1.program.function("main"), 2, figure1_cfg)
        plan = build_instrumentation_plan(partition, figure1_cfg)
        instrumented = board.run_instrumented("main", {"i": 0}, plan)
        assert instrumented.readings
        # readings are ordered by trace position
        indices = [r.trace_index for r in instrumented.readings]
        assert indices == sorted(indices)

    def test_every_executed_segment_gets_entry_reading(self, figure1, figure1_cfg):
        board = EvaluationBoard(figure1)
        partition = partition_function(figure1.program.function("main"), 2, figure1_cfg)
        plan = build_instrumentation_plan(partition, figure1_cfg)
        instrumented = board.run_instrumented("main", {"i": 0}, plan)
        executed = set(instrumented.run.executed_blocks)
        for segment in partition.segments:
            if segment.entry_block in executed:
                assert instrumented.readings_for_segment(segment.segment_id)

    def test_interpreter_exposed_by_board(self, figure1):
        board = EvaluationBoard(figure1)
        assert isinstance(board.interpreter, Interpreter)
