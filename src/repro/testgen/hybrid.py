"""The hybrid test-data generation driver (random, model checking, genetic).

Section 3 of the paper:

    "For this reason a hybrid approach has been chosen: first, test data are
    generated using heuristic methods (i.e. genetic algorithms) until a given
    coverage bound is reached.  A possible bound could be that no new paths
    have been reached with the last 10^6 generated data patterns. [...] In a
    second step the remaining test data are generated using model checking.
    If no data pattern is found for a selected path the path is deemed
    infeasible."

The paper orders the phases by their cost on silicon, where a model-checking
query took seconds to minutes (Table 2) and a heuristic test run was nearly
free.  Here the costs run the other way: the sound static prefilter plus one
budgeted, sliced query batch settles a function's targets in milliseconds,
while a genetic search that fails spends its whole budget (~1,150 simulated
board runs) -- and the targets it fails on are mostly infeasible ones the
model checker then proves so.  :class:`HybridTestDataGenerator` therefore
runs

1. random sampling until no new segment path is covered for
   ``plateau_patterns`` consecutive vectors,
2. one model-checking batch over every still-uncovered target, yielding a
   witness vector (replayed on the board) or an infeasibility proof,
3. one genetic-algorithm search per target the solver left open (unknown,
   budget exhausted, engine fault), seeded with every vector so far --
   the model-checking witnesses included.

A target counts as covered only when a board run of some phase executed its
segment path; that phase gets the credit and its vector joins the suite, so
the measurement campaign observes every covered path.  Targets no phase
executed or proved infeasible are reported uncovered, and the analyzer
pessimises their segments.

The resulting :class:`TestSuite` carries the vectors, the per-target
provenance (random / genetic / model checking / infeasible / uncovered) and
the share of covered targets found without model checking.  With the genetic
search running last it rarely covers anything, so the share is in practice
random / (random + model checking); the paper expects above 90 %.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph
from ..hw.board import EvaluationBoard
from ..minic.semantic import AnalyzedProgram
from ..resilience import InjectedFault
from ..partition.segment import PartitionResult
from .genetic import GeneticOptions, GeneticTestDataGenerator
from .inputs import InputSpace
from .modelcheck_gen import (
    ModelCheckGeneratorOptions,
    ModelCheckingTestDataGenerator,
    TargetStatus,
)
from .random_gen import RandomTestDataGenerator
from .targets import CoverageTracker, PathTarget


class CoverageSource(enum.Enum):
    """How a path target was covered."""

    RANDOM = "random"
    GENETIC = "genetic"
    MODEL_CHECKING = "model-checking"
    INFEASIBLE = "infeasible"
    UNCOVERED = "uncovered"


@dataclass
class HybridOptions:
    """Budgets of the hybrid generation process."""

    #: stop the random phase after this many consecutive vectors without a
    #: newly covered path (the paper suggests 10^6; simulation is slower than
    #: silicon, so the default is smaller but plays the same role)
    plateau_patterns: int = 200
    #: hard cap on random vectors
    max_random_vectors: int = 2_000
    genetic: GeneticOptions = field(default_factory=GeneticOptions)
    model_checking: ModelCheckGeneratorOptions = field(
        default_factory=ModelCheckGeneratorOptions
    )
    #: random seed of the random phase
    seed: int = 0
    #: skip the genetic phase entirely (for experiments)
    use_genetic: bool = True
    #: skip the model-checking phase entirely (for experiments)
    use_model_checking: bool = True


@dataclass
class TargetReport:
    """Provenance of one path target."""

    target: PathTarget
    source: CoverageSource
    vector: dict[str, int] | None = None


@dataclass
class TestSuite:
    """The outcome of hybrid test-data generation."""

    function_name: str
    vectors: list[dict[str, int]] = field(default_factory=list)
    reports: list[TargetReport] = field(default_factory=list)
    random_vectors_used: int = 0
    genetic_evaluations: int = 0
    model_checking_queries: int = 0
    #: queries whose QueryBudget ran out (their targets go to the genetic
    #: search, and are reported uncovered and pessimised if it misses them)
    budget_exhausted_queries: int = 0
    #: queries where every engine stage died on an (injected) solver fault
    engine_fault_queries: int = 0
    #: query-engine counters (planned/sliced/cache_hits/escalations/...)
    mc_diagnostics: dict[str, int] = field(default_factory=dict)
    #: injected faults that cut a generation phase short (degradation
    #: diagnostics; the analyzer pessimises the bound when any occurred)
    fault_events: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def targets_by_source(self, source: CoverageSource) -> list[TargetReport]:
        return [report for report in self.reports if report.source is source]

    @property
    def infeasible_targets(self) -> list[TargetReport]:
        return self.targets_by_source(CoverageSource.INFEASIBLE)

    @property
    def uncovered_targets(self) -> list[TargetReport]:
        return self.targets_by_source(CoverageSource.UNCOVERED)

    @property
    def heuristic_share(self) -> float:
        """Fraction of feasible, covered targets found without model checking.

        The paper (citing Tracey et al.) expects heuristics to deliver more
        than 90 % of the required test cases.  Model checking runs before the
        genetic search, which only sees what the solver left open, so this
        is in practice random / (random + model checking).
        """
        heuristic = len(self.targets_by_source(CoverageSource.RANDOM)) + len(
            self.targets_by_source(CoverageSource.GENETIC)
        )
        exact = len(self.targets_by_source(CoverageSource.MODEL_CHECKING))
        total = heuristic + exact
        return heuristic / total if total else 1.0

    def is_complete(self) -> bool:
        """True when every target is covered or proven infeasible."""
        return not self.uncovered_targets

    def add_vector(self, vector: dict[str, int]) -> None:
        if vector not in self.vectors:
            self.vectors.append(dict(vector))

    def summary(self) -> dict[str, object]:
        return {
            "targets": len(self.reports),
            "vectors": len(self.vectors),
            "random": len(self.targets_by_source(CoverageSource.RANDOM)),
            "genetic": len(self.targets_by_source(CoverageSource.GENETIC)),
            "model_checking": len(self.targets_by_source(CoverageSource.MODEL_CHECKING)),
            "infeasible": len(self.infeasible_targets),
            "uncovered": len(self.uncovered_targets),
            "budget_exhausted": self.budget_exhausted_queries,
            "heuristic_share": round(self.heuristic_share, 3),
        }


class HybridTestDataGenerator:
    """Runs the three-phase test-data generation process."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        function_name: str,
        board: EvaluationBoard,
        partition: PartitionResult,
        cfg: ControlFlowGraph,
        options: HybridOptions | None = None,
    ):
        self._analyzed = analyzed
        self._function = function_name
        self._board = board
        self._partition = partition
        self._cfg = cfg
        self._options = options or HybridOptions()
        self._space = InputSpace.from_program(analyzed, function_name)

    # ------------------------------------------------------------------ #
    @property
    def input_space(self) -> InputSpace:
        return self._space

    def generate(self) -> TestSuite:
        """Run the phases (random, model checking, genetic) and return the suite."""
        coverage = CoverageTracker.create(self._partition, self._cfg)
        suite = TestSuite(function_name=self._function)

        # an injected fault (a crashed interpreter run, a dying solver) cuts
        # the phase it hit short but never aborts generation: whatever the
        # remaining phases cover still improves the suite, uncovered targets
        # keep their pessimistic static charge, and the analyzer floors the
        # whole bound once any fault fired
        phases = [(CoverageSource.RANDOM, self._random_phase)]
        if self._options.use_model_checking:
            phases.append((CoverageSource.MODEL_CHECKING, self._model_checking_phase))
        if self._options.use_genetic:
            phases.append((CoverageSource.GENETIC, self._genetic_phase))
        for source, phase in phases:
            try:
                phase(coverage, suite)
            except InjectedFault as fault:
                suite.fault_events.append(
                    f"{source.value} phase cut short by injected fault: {fault}"
                )
            self._report_executed(coverage, suite, source)

        # whatever no phase executed or proved infeasible is pessimised
        for target in self._open_targets(coverage, suite):
            suite.reports.append(
                TargetReport(target=target, source=CoverageSource.UNCOVERED)
            )
        return suite

    # ------------------------------------------------------------------ #
    @staticmethod
    def _report_executed(
        coverage: CoverageTracker, suite: TestSuite, source: CoverageSource
    ) -> None:
        """Credit *source* with every target some board run of it executed.

        "Covered" means the coverage tracker saw the segment path on the
        board, never that a search claimed success.  Side-covered targets
        (hit while chasing another target) count for the phase that ran
        them, and their covering vector joins the suite so the measurement
        campaign observes the path.
        """
        reported = {report.target.key for report in suite.reports}
        targets = {target.key: target for target in coverage.targets}
        # the tracker's dict keeps discovery order, so the suite lists its
        # vectors in the order they first covered something
        for key, vector in coverage.covered.items():
            if key in reported:
                continue
            target = targets[key]
            suite.add_vector(vector)
            suite.reports.append(
                TargetReport(target=target, source=source, vector=dict(vector))
            )

    @staticmethod
    def _open_targets(coverage: CoverageTracker, suite: TestSuite) -> list[PathTarget]:
        """Targets neither executed nor decided by an earlier phase."""
        reported = {report.target.key for report in suite.reports}
        return [
            target
            for target in coverage.uncovered_targets()
            if target.key not in reported
        ]

    def _random_phase(self, coverage: CoverageTracker, suite: TestSuite) -> None:
        generator = RandomTestDataGenerator(self._space, seed=self._options.seed)
        without_progress = 0
        produced = 0
        while (
            produced < self._options.max_random_vectors
            and without_progress < self._options.plateau_patterns
            and not coverage.is_complete()
        ):
            vector = generator.generate(1)[0]
            produced += 1
            suite.random_vectors_used = produced
            run = self._board.run(self._function, vector)
            if coverage.record_run(run):
                without_progress = 0
            else:
                without_progress += 1

    def _model_checking_phase(self, coverage: CoverageTracker, suite: TestSuite) -> None:
        targets = self._open_targets(coverage, suite)
        if not targets:
            return
        generator = ModelCheckingTestDataGenerator(
            self._analyzed, self._function, self._options.model_checking
        )
        # one query plan for every remaining target: shared path prefixes are
        # probed once and witnesses found for one target answer its siblings
        outcomes = generator.generate_for_targets(targets)
        suite.model_checking_queries = generator.statistics.queries
        suite.budget_exhausted_queries = generator.statistics.budget_exhausted
        suite.engine_fault_queries = generator.statistics.engine_faults
        suite.mc_diagnostics = generator.query_diagnostics()
        for outcome in outcomes:
            if outcome.status is TargetStatus.COVERED and outcome.vector is not None:
                # replay the witness: only the board run makes the target
                # covered (and measured by the campaign later)
                vector = self._space.clamp(outcome.vector)
                suite.add_vector(vector)
                coverage.record_run(self._board.run(self._function, vector))
        for outcome in outcomes:
            if (
                outcome.status is TargetStatus.INFEASIBLE
                and coverage.covering_vector(outcome.target) is None
            ):
                suite.reports.append(
                    TargetReport(target=outcome.target, source=CoverageSource.INFEASIBLE)
                )
        # UNKNOWN, BUDGET_EXHAUSTED and ENGINE_FAULT targets (and a witness
        # the board did not follow) stay open for the genetic search

    def _genetic_phase(self, coverage: CoverageTracker, suite: TestSuite) -> None:
        targets = self._open_targets(coverage, suite)
        if not targets:
            return
        generator = GeneticTestDataGenerator(
            self._board, self._function, self._space, self._options.genetic
        )
        # the population starts from every vector so far, MC witnesses
        # included: they already reach deep into the function
        seeds = [dict(vector) for vector in suite.vectors]
        try:
            for target in targets:
                if coverage.covering_vector(target) is not None:
                    continue
                generator.search(target, coverage=coverage, seed_vectors=seeds)
        finally:
            suite.genetic_evaluations = generator.statistics.evaluations
