"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.cfg import build_cfg
from repro.mc import GoalBuilder, QueryBudget, QueryEngine, QueryEngineOptions
from repro.minic import parse_and_analyze
from repro.optim.pipeline import OptimizationConfig, build_optimized_model
from repro.workloads.figure1 import figure1_analyzed
from repro.workloads.optimisation_eval import (
    EVAL_FUNCTION_NAME,
    optimisation_eval_program,
)
from repro.workloads.targetlink import (
    generate_small_application,
    generate_synthetic_application,
)
from repro.workloads.wiper import WIPER_FUNCTION_NAME, wiper_case_study


@pytest.fixture(scope="session")
def figure1():
    """The analysed Figure 1 example program."""
    return figure1_analyzed()


@pytest.fixture(scope="session")
def figure1_cfg(figure1):
    return build_cfg(figure1.program.function("main"))


@pytest.fixture(scope="session")
def eval_program():
    """The analysed Table 2 optimisation-evaluation program."""
    return optimisation_eval_program()


@pytest.fixture(scope="session")
def eval_function_name():
    return EVAL_FUNCTION_NAME


@pytest.fixture(scope="session")
def wiper_code():
    """The generated wiper-control case study."""
    return wiper_case_study()


@pytest.fixture(scope="session")
def wiper_function_name():
    return WIPER_FUNCTION_NAME


@pytest.fixture(scope="session")
def small_loop_program():
    """A small program with a bounded loop, shared by several test modules."""
    source = """
    #pragma input n
    #pragma range n 0 10
    int n;
    int total;

    void accumulate(void) {
        int i;
        total = 0;
        i = 0;
        #pragma loopbound(10)
        while (i < n) {
            total = total + i;
            i = i + 1;
        }
        if (total > 20) {
            total = 20;
        }
    }
    """
    return parse_and_analyze(source)


@pytest.fixture(scope="session")
def branching_program():
    """A compact program with if/else and switch used across analysis tests."""
    source = """
    #pragma input mode
    #pragma input level
    #pragma range mode 0 3
    #pragma range level 0 100
    int mode;
    int level;
    int output;
    int unused_global;

    void classify(void) {
        int severity;
        int scratch;
        severity = 0;
        scratch = level + 1;
        switch (mode) {
        case 0:
            if (level > 50) {
                severity = 2;
            } else {
                severity = 1;
            }
            break;
        case 1:
        case 2:
            severity = 3;
            break;
        default:
            severity = 4;
            break;
        }
        if (severity >= 3) {
            output = scratch;
        } else {
            output = 0;
        }
    }
    """
    return parse_and_analyze(source)


@dataclass(frozen=True)
class BlockBatch:
    """Block-reachability goals spread evenly over one synthetic function."""

    app: object
    #: the CFG-preserving optimised model the goals are checked on
    model: object
    blocks: tuple[int, ...]
    budget: QueryBudget

    @classmethod
    def of(cls, app, count: int, budget: QueryBudget) -> "BlockBatch":
        model = build_optimized_model(
            app.analyzed, app.function_name, OptimizationConfig.cfg_preserving()
        )
        blocks = sorted(
            block.block_id
            for block in app.cfg.real_blocks()
            if block.block_id in model.translation.block_location
        )
        picked = blocks[:: max(1, len(blocks) // count)][:count]
        picked[-1] = blocks[-1]  # always include the deepest block
        return cls(app, model, tuple(picked), budget)

    def goals(self, model=None) -> list:
        """The batch's goals, built against *model* (default: its own)."""
        model = model or self.model
        builder = GoalBuilder(block_location=model.translation.block_location)
        return [builder.reach_block(block_id) for block_id in self.blocks]

    def engine(self, **options) -> QueryEngine:
        """A fresh engine over the batch's model, under the batch's budget."""
        return QueryEngine(
            self.model.translation, QueryEngineOptions(budget=self.budget, **options)
        )


@pytest.fixture(scope="session")
def industrial_app():
    """The synthetic stand-in for the paper's ~857-block industrial function."""
    return generate_synthetic_application(seed=2005)


@pytest.fixture(scope="session")
def industrial_deep_batch(industrial_app):
    """9 deep block goals on the industrial function under a tight budget.

    Unsliced, one such query runs for minutes; sliced and budgeted, the
    whole batch answers in well under a second.
    """
    budget = QueryBudget(max_steps=20_000, max_solver_calls=400, deadline_ms=1_500)
    return BlockBatch.of(industrial_app, count=9, budget=budget)


@pytest.fixture(scope="session")
def small_app_batch():
    """24 block goals on the 104-block small synthetic application."""
    return BlockBatch.of(generate_small_application(), count=24, budget=QueryBudget())
