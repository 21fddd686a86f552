"""Hybrid test-data generation: random testing, model checking, genetic search.

Run with::

    python examples/test_data_generation.py

The example uses a program with a "needle in the haystack" condition
(``key == 4711``) that random testing essentially never hits, plus an
infeasible branch.  It shows the three phases of test-data generation:

1. random test data until the coverage plateau,
2. one model-checking batch over every path random testing missed --
   producing either a witness vector (replayed on the board) or an
   infeasibility proof,
3. genetic-algorithm search guided by branch distances, only for paths
   whose model-checking query ran out of budget.

The paper (Section 3) runs the genetic search before model checking because
on silicon a model-checking query took seconds to minutes.  Here a query
batch takes milliseconds while a failed genetic search spends its whole
budget of board runs, so model checking goes first; on this program the
genetic search has nothing left to do.
"""

from __future__ import annotations

from repro.cfg import build_cfg
from repro.hw import EvaluationBoard
from repro.minic import parse_and_analyze
from repro.partition import partition_function
from repro.optim import OptimizationConfig, build_optimized_model
from repro.testgen import (
    CoverageSource,
    GeneticOptions,
    HybridOptions,
    HybridTestDataGenerator,
)

SOURCE = """
#pragma input key
#pragma input level
#pragma input mode
#pragma range key 0 60000
#pragma range level 0 100
#pragma range mode 0 3
int key; int level; int mode;
int out;

void unlock(void);
void partial_unlock(void);
void reject(void);
void impossible(void);

void authorize(void) {
    out = 0;
    if (key == 4711) {
        if (level > 90) {
            unlock();
            out = 2;
        } else {
            partial_unlock();
            out = 1;
        }
    } else {
        reject();
    }
    if (mode > 1 && mode < 2) {
        impossible();
    }
}
"""


def main() -> None:
    analyzed = parse_and_analyze(SOURCE)
    function = analyzed.program.function("authorize")
    cfg = build_cfg(function)
    partition = partition_function(function, 1, cfg)
    board = EvaluationBoard(analyzed)

    print(f"program segments: {len(partition.segments)}, "
          f"required measurements: {partition.measurements}")
    print()

    options = HybridOptions(
        plateau_patterns=60,
        max_random_vectors=300,
        genetic=GeneticOptions(population_size=30, max_generations=40, seed=11),
        seed=11,
    )
    generator = HybridTestDataGenerator(
        analyzed, "authorize", board, partition, cfg, options
    )
    suite = generator.generate()

    print("per-target provenance:")
    for report in suite.reports:
        vector = f" vector={report.vector}" if report.vector else ""
        print(f"  {report.target.describe():<38} -> {report.source.value}{vector}")
    print()
    print("summary:", suite.summary())
    print(f"genetic evaluations: {suite.genetic_evaluations}")
    print(f"heuristic share: {suite.heuristic_share:.0%} "
          "(random / (random + model checking); paper expects > 90%)")
    print()

    print("the model checker's view of the program (optimised transition system):")
    model = build_optimized_model(analyzed, "authorize", OptimizationConfig.all())
    for note in model.notes:
        print("  -", note)
    print(f"  state vector: {model.state_bits} bits "
          f"(unoptimised: {model.unoptimized_state_bits} bits)")


if __name__ == "__main__":
    main()
