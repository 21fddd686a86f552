"""The end-to-end WCET analyzer.

:class:`WcetAnalyzer` wires the whole tool chain of the paper together:

1. parse + semantically analyse the program (``repro.minic``),
2. build the CFG and partition it into program segments for the configured
   path bound (``repro.cfg``, ``repro.partition``),
3. place instrumentation points (``repro.partition.instrument``),
4. generate test data for every segment path with the hybrid
   random / model-checking / genetic process (``repro.testgen``),
5. execute the instrumented program on the simulated HCS12 board and collect
   per-segment execution times (``repro.hw``, ``repro.measurement``),
6. combine the per-segment maxima into a WCET bound with the timing schema
   (``repro.wcet``) and, for small input spaces, compare against the
   exhaustively measured end-to-end WCET -- the paper's 250 vs 274 cycles
   comparison.

The result is a :class:`~repro.wcet.report.WcetReport`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

from .. import obs
from ..cfg.builder import build_cfg
from ..hw.board import EvaluationBoard
from ..hw.cost_model import CostModel, HCS12_COST_MODEL
from ..measurement.database import MeasurementDatabase
from ..measurement.runner import MeasurementRunner
from ..minic import AnalyzedProgram, parse_and_analyze
from ..minic.calls import call_sites
from ..partition.general import GeneralPartitionOptions, GeneralPartitioner
from ..partition.instrument import build_instrumentation_plan
from ..partition.partitioner import PaperPartitioner, PartitionOptions
from ..resilience import (
    InjectedFault,
    current as resilience_context,
    poll_deadline,
)
from ..testgen.hybrid import CoverageSource, HybridOptions, HybridTestDataGenerator
from ..testgen.inputs import InputSpace
from ..wcet.end_to_end import EndToEndResult, exhaustive_end_to_end
from ..wcet.report import WcetReport
from ..wcet.timing_schema import TimingSchema, static_segment_pessimisation


class AnalysisError(Exception):
    """Raised when the end-to-end analysis cannot be completed."""


@dataclass
class AnalyzerConfig:
    """Configuration of one WCET analysis run."""

    #: the path bound *b* of the CFG partitioning
    path_bound: int = 4
    #: "paper" reproduces the algorithm of Section 2.2, "general" the
    #: extended partitioner of Section 2.3
    partitioner: str = "paper"
    cost_model: CostModel = field(default_factory=lambda: HCS12_COST_MODEL)
    hybrid: HybridOptions = field(default_factory=HybridOptions)
    partition_options: PartitionOptions = field(default_factory=PartitionOptions)
    #: run exhaustive end-to-end measurement when the input space has at most
    #: this many vectors (None disables the comparison entirely)
    exhaustive_limit: int | None = 20_000
    #: extra random vectors measured on top of the generated suite (more
    #: observations per segment never hurt the maxima)
    extra_random_vectors: int = 50
    #: interpreter step budget per run
    max_steps_per_run: int = 1_000_000
    #: run the sound static-analysis pass (``repro.sa``): branch-feasibility
    #: prefiltering of model-checking queries, static loop-bound inference
    #: and program diagnostics.  Verdicts and bounds are identical either
    #: way -- the pass only removes provably-useless solver work and
    #: tightens provably-exact loop bounds.
    static_analysis: bool = True


def _partition_function(function, cfg, config: AnalyzerConfig):
    """Partition *function*'s CFG per the configured partitioner."""
    if config.partitioner == "paper":
        return PaperPartitioner(
            config.path_bound, config.partition_options
        ).partition(function, cfg)
    if config.partitioner == "general":
        options = config.partition_options
        if not isinstance(options, GeneralPartitionOptions):
            options = GeneralPartitionOptions(
                default_loop_bound=config.partition_options.default_loop_bound
            )
        return GeneralPartitioner(config.path_bound, options).partition(
            function, cfg
        )
    raise AnalysisError(f"unknown partitioner {config.partitioner!r}")


def static_pessimised_report(
    analyzed: AnalyzedProgram,
    function_name: str,
    config: AnalyzerConfig | None = None,
    callee_bounds: Mapping[str, int] | None = None,
    reason: str = "job quarantined",
) -> WcetReport:
    """A sound WCET report built from static estimates alone -- no execution.

    This is the quarantine route of the project scheduler: when a job keeps
    crashing or times out, the function still needs *some* sound bound so
    its callers can be analysed.  Every segment enters the timing schema at
    its :func:`static_segment_pessimisation` (which dominates anything one
    execution could cost) and summarised callees keep their interprocedural
    charges, so the resulting bound is >= any measured bound -- just much
    coarser.  Nothing here runs test generation, the board or the model
    checker, so the quarantine path cannot crash the way the job did.
    """
    config = config or AnalyzerConfig()
    bounds = dict(callee_bounds or {})
    function = analyzed.program.function(function_name)
    cfg = build_cfg(function)
    partition = _partition_function(function, cfg, config)

    cost_model = config.cost_model
    if bounds:
        cost_model = dataclasses.replace(
            cost_model,
            external_call_cycles={
                **cost_model.external_call_cycles,
                **bounds,
            },
        )
    pessimised = {
        segment.segment_id: static_segment_pessimisation(cfg, segment, cost_model)
        for segment in partition.segments
    }
    schema = TimingSchema(
        cfg,
        partition,
        default_loop_bound=config.partition_options.default_loop_bound or 1,
        callee_bounds=bounds,
        call_overhead=cost_model.call_overhead,
    )
    bound = schema.compute(
        MeasurementDatabase(), pessimised_segments=pessimised
    )
    return WcetReport(
        function_name=function_name,
        path_bound=config.path_bound,
        partition=partition,
        bound=bound,
        database=MeasurementDatabase(),
        end_to_end=None,
        test_vectors_used=0,
        infeasible_paths=0,
        callee_bounds_used=dict(sorted(bounds.items())),
        summarised_call_sites=sum(
            1 for site in call_sites(function) if site.name in bounds
        ),
        degraded=True,
        fault_events=[reason],
    )


class WcetAnalyzer:
    """Run the complete measurement-based WCET analysis for one function."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        function_name: str,
        config: AnalyzerConfig | None = None,
        callee_bounds: Mapping[str, int] | None = None,
    ):
        """``callee_bounds`` enables the interprocedural (compositional) mode.

        It maps callee names to their already-computed WCET bounds (see
        :meth:`repro.callgraph.graph.CallGraph.charges`).  Each listed callee is treated as
        opaque during measurement: the board does not execute its body but
        charges ``call_overhead + bound`` cycles per call -- the callee's
        worst case, not the cycles one particular invocation would take --
        so the resulting caller bound composes over the call graph.  The
        function under analysis may itself appear in the mapping (direct
        recursion): its top-level activation runs normally while nested
        self-calls are charged the given bound.  The exhaustive end-to-end
        verification runs on an unstubbed board, so same-unit callees
        execute for real and the safety comparison is honest for them;
        callees defined in *other* units are outside this unit's program
        and fall back to the external-call cost there, and recursive
        programs should disable the comparison (``exhaustive_limit=None``
        -- the project scheduler does so automatically for jobs on a
        recursion cycle), as real recursion does not terminate on the
        bounded interpreter.
        """
        self._analyzed = analyzed
        self._function = function_name
        self._config = config or AnalyzerConfig()
        self._callee_bounds = dict(callee_bounds or {})
        if not any(f.name == function_name for f in analyzed.program.functions):
            raise AnalysisError(f"program has no function {function_name!r}")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_source(
        cls,
        source: str,
        function_name: str,
        config: AnalyzerConfig | None = None,
        callee_bounds: Mapping[str, int] | None = None,
    ) -> "WcetAnalyzer":
        return cls(
            parse_and_analyze(source),
            function_name,
            config,
            callee_bounds=callee_bounds,
        )

    # ------------------------------------------------------------------ #
    def analyze(self) -> WcetReport:
        config = self._config
        # cooperative wall-clock timeout: the interpreter and the query
        # engine poll inside their hot loops, and the analysis stages poll
        # at their boundaries, so a job over its deadline stops at the next
        # checkpoint even when an individual stage finished quickly
        poll_deadline()
        function = self._analyzed.program.function(self._function)
        cfg = build_cfg(function)

        # 0. sound static analysis: branch feasibility (feeding the query
        #    engine's prefilter), exact loop bounds and program diagnostics.
        #    Skippable (--no-sa) and verdict-preserving by construction, so
        #    the measured bound is bit-identical either way.
        sa_result = None
        if config.static_analysis:
            from ..sa import run_static_analysis

            with obs.stage("analyze.sa", function=self._function):
                sa_result = run_static_analysis(
                    cfg, self._analyzed.table(self._function)
                )
            config = dataclasses.replace(
                config,
                hybrid=dataclasses.replace(
                    config.hybrid,
                    model_checking=dataclasses.replace(
                        config.hybrid.model_checking,
                        prefilter=sa_result.prefilter,
                    ),
                ),
            )

        # 1. partition the CFG into program segments
        with obs.stage("analyze.partition", function=self._function):
            partition = _partition_function(function, cfg, config)

        # 2. instrumentation plan + simulated board; with callee summaries the
        #    measurement board stubs every summarised callee and charges its
        #    WCET bound through the cost model's external-call table
        plan = build_instrumentation_plan(partition, cfg)
        cost_model = self._measurement_cost_model()
        board = EvaluationBoard(
            self._analyzed,
            cost_model=cost_model,
            max_steps=config.max_steps_per_run,
            stub_functions=sorted(self._callee_bounds),
        )

        # 3. hybrid test-data generation
        generator = HybridTestDataGenerator(
            self._analyzed, self._function, board, partition, cfg, config.hybrid
        )
        poll_deadline()
        with obs.stage("analyze.testgen", function=self._function):
            suite = generator.generate()
        poll_deadline()

        # 4. measurement campaign
        database = MeasurementDatabase()
        runner = MeasurementRunner(board, self._function, partition, plan, cfg)
        vectors = list(suite.vectors)
        if config.extra_random_vectors:
            from ..testgen.random_gen import RandomTestDataGenerator

            extra = RandomTestDataGenerator(generator.input_space, seed=99)
            vectors.extend(extra.generate(config.extra_random_vectors))
        if not vectors:
            raise AnalysisError(
                "test-data generation produced no vectors; cannot measure anything"
            )
        with obs.stage(
            "analyze.measure", function=self._function, vectors=len(vectors)
        ):
            campaign = runner.run_vectors(vectors, database)

        # degradation bookkeeping: any injected fault that may have cost
        # observations (a phase cut short, a vector lost, a solver query
        # dropped) floors EVERY feasible segment at its static worst-case
        # estimate below -- lost coverage can only lower measured maxima, so
        # the static floor is exactly what keeps the bound sound
        fault_events = list(suite.fault_events) + list(campaign.fault_events)
        if suite.engine_fault_queries:
            fault_events.append(
                f"{suite.engine_fault_queries} model-checking query(ies) "
                "degraded by injected solver faults"
            )

        # 5. WCET bound via the timing schema; segments whose every path was
        #    proven infeasible contribute nothing (they can never execute),
        #    while a segment with any path neither covered nor proven
        #    infeasible (uncovered targets, exhausted query budgets) weighs
        #    max(measured, static worst-case estimate): its measured maximum
        #    says nothing about the path it never ran
        degraded = bool(fault_events)
        with obs.stage("analyze.schema", function=self._function):
            unreachable = self._fully_infeasible_segments(
                partition, suite, database
            )
            open_segments = {
                report.target.segment_id for report in suite.uncovered_targets
            }
            pessimised = {
                segment.segment_id: static_segment_pessimisation(
                    cfg, segment, cost_model
                )
                for segment in partition.segments
                if segment.segment_id not in unreachable
                and (
                    degraded
                    or segment.segment_id in open_segments
                    or database.max_cycles(segment.segment_id) is None
                )
            }
            schema = TimingSchema(
                cfg,
                partition,
                default_loop_bound=config.partition_options.default_loop_bound
                or 1,
                callee_bounds=self._callee_bounds,
                call_overhead=cost_model.call_overhead,
                inferred_loop_bounds=(
                    sa_result.loop_bounds if sa_result is not None else None
                ),
            )
            bound = schema.compute(
                database,
                unreachable_segments=unreachable,
                pessimised_segments=pessimised,
            )

        # 6. optional exhaustive end-to-end comparison; the verification board
        #    executes the *real* callee bodies (no stubs), so a summarised
        #    bound is checked against genuine end-to-end behaviour.  An
        #    injected fault here only costs the comparison, never the bound.
        verification_board = board
        if self._callee_bounds:
            verification_board = EvaluationBoard(
                self._analyzed,
                cost_model=config.cost_model,
                max_steps=config.max_steps_per_run,
            )
        try:
            with obs.stage("analyze.exhaustive", function=self._function):
                end_to_end = self._maybe_exhaustive(
                    verification_board, generator.input_space
                )
        except InjectedFault as fault:
            end_to_end = None
            fault_events.append(
                f"exhaustive end-to-end comparison skipped: {fault}"
            )

        context = resilience_context()
        if context is not None:
            for event in fault_events:
                context.note(event)

        return WcetReport(
            function_name=self._function,
            path_bound=config.path_bound,
            partition=partition,
            bound=bound,
            database=database,
            end_to_end=end_to_end,
            test_vectors_used=len(vectors),
            infeasible_paths=len(suite.infeasible_targets),
            callee_bounds_used=dict(sorted(self._callee_bounds.items())),
            summarised_call_sites=self._summarised_site_count(function),
            mc_diagnostics=dict(suite.mc_diagnostics),
            degraded=degraded,
            fault_events=fault_events,
            sa_diagnostics=(
                [diagnostic.to_dict() for diagnostic in sa_result.diagnostics]
                if sa_result is not None
                else []
            ),
            sa_edges_pruned=(
                sa_result.edges_pruned if sa_result is not None else 0
            ),
            sa_loop_bounds_inferred=(
                len(sa_result.loop_bounds) if sa_result is not None else 0
            ),
            generator_statistics={
                "random_targets": len(suite.targets_by_source(CoverageSource.RANDOM)),
                "genetic_targets": len(suite.targets_by_source(CoverageSource.GENETIC)),
                "model_checking_targets": len(
                    suite.targets_by_source(CoverageSource.MODEL_CHECKING)
                ),
                "heuristic_share_percent": int(round(100 * suite.heuristic_share)),
                "model_checking_queries": suite.model_checking_queries,
                "model_checking_budget_exhausted": suite.budget_exhausted_queries,
                "model_checking_engine_faults": suite.engine_fault_queries,
                "genetic_evaluations": suite.genetic_evaluations,
                "random_vectors_used": suite.random_vectors_used,
            },
        )

    # ------------------------------------------------------------------ #
    def _measurement_cost_model(self) -> CostModel:
        """The config's cost model, with callee bounds as external-call costs."""
        base = self._config.cost_model
        if not self._callee_bounds:
            return base
        return dataclasses.replace(
            base,
            external_call_cycles={
                **base.external_call_cycles,
                **self._callee_bounds,
            },
        )

    def _summarised_site_count(self, function) -> int:
        """Syntactic call sites of *function* charged with a callee summary."""
        return sum(
            1
            for site in call_sites(function)
            if site.name in self._callee_bounds
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _fully_infeasible_segments(partition, suite, database) -> set[int]:
        """Segments with no measurements whose every path target is infeasible."""
        infeasible_by_segment: dict[int, int] = {}
        total_by_segment: dict[int, int] = {}
        for report in suite.reports:
            segment_id = report.target.segment_id
            total_by_segment[segment_id] = total_by_segment.get(segment_id, 0) + 1
            if report.source is CoverageSource.INFEASIBLE:
                infeasible_by_segment[segment_id] = (
                    infeasible_by_segment.get(segment_id, 0) + 1
                )
        unreachable: set[int] = set()
        for segment in partition.segments:
            if database.max_cycles(segment.segment_id) is not None:
                continue
            total = total_by_segment.get(segment.segment_id, 0)
            if total and infeasible_by_segment.get(segment.segment_id, 0) == total:
                unreachable.add(segment.segment_id)
        return unreachable

    def _maybe_exhaustive(
        self, board: EvaluationBoard, input_space: InputSpace
    ) -> EndToEndResult | None:
        limit = self._config.exhaustive_limit
        if limit is None:
            return None
        if input_space.size() > limit:
            return None
        return exhaustive_end_to_end(
            board, self._function, input_space.ranges(), limit=limit
        )


def analyze_source(
    source: str,
    function_name: str,
    config: AnalyzerConfig | None = None,
    callee_bounds: Mapping[str, int] | None = None,
) -> WcetReport:
    """Convenience wrapper: parse *source* and analyse *function_name*."""
    return WcetAnalyzer.from_source(
        source, function_name, config, callee_bounds=callee_bounds
    ).analyze()
