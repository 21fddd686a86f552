"""Job-graph scheduler driving :class:`WcetAnalyzer` over a whole project.

Every analyzable function becomes one :class:`AnalysisJob`.  The project
call graph (:mod:`repro.callgraph`) makes every interprocedural decision:
it orders the functions into *dependency waves* -- callees before callers
-- and :meth:`~repro.callgraph.graph.CallGraph.charges` decides what each
call site costs on a caller's board (a completed callee's bound, the
pessimistic unknown-call cost, or an inlined body).  The scheduler only
runs jobs: it executes one wave at a time and collects each completed
bound for the callers of later waves.

Result caching keys on *transitive fingerprints* (the function's content
hash closed over its resolved callees), so editing a leaf callee invalidates
exactly the leaf plus its transitive callers while unrelated functions stay
warm.

Within a wave the scheduler first probes the persistent result cache
(:mod:`repro.project.cache`); the remaining jobs are executed either
serially in-process or on a ``concurrent.futures.ProcessPoolExecutor``.
**One attempt path:** :func:`run_attempt` is the only code that runs a
job, wherever it runs -- in-process it gets the already-parsed unit, on
the pool the source text -- and :meth:`ProjectScheduler._settle` is the
only code that folds an attempt's outcome (summary, spans, counters,
query-store replay failures, query-cache I/O counts) into the run and
decides complete / retry / quarantine / fail.  Each attempt evaluates its
own fault sites against fresh injectors: the job-internal sites
(``mc.solve``, ``interp.step``) and the ``cache.read`` / ``cache.write``
sites of its query-store I/O count hits *per attempt*, while the
scheduler's own summary-cache probes and writes and ``pool.submit`` count
hits per run.  The analysis is fully seeded (random, genetic and
model-checking phases all derive from the
:class:`~repro.pipeline.analyzer.AnalyzerConfig`) and callee bounds are
fixed before a wave starts, so serial and parallel runs produce
bit-identical :class:`~repro.project.report.FunctionSummary` payloads and
degrade identically under a fault plan -- the scheduler only changes
*where* a job runs, never *what* it computes.  If the process pool cannot
be created or dies (sandboxed environments, pickling restrictions), the
scheduler falls back to serial execution and records the reason in
``ProjectReport.fallback_reason`` and the obs registry
(``project.scheduler.pool_fallback.*``) rather than failing the batch.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import enum
import pickle
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .. import obs
from ..mc.store import QueryStore, using_query_store
from ..minic import parse_and_analyze
from ..minic.semantic import AnalyzedProgram
from ..pipeline.analyzer import (
    AnalyzerConfig,
    WcetAnalyzer,
    static_pessimised_report,
)
from ..resilience import (
    Deadline,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    JobTimeout,
    ResilienceContext,
    RetryPolicy,
    activate,
    classify_error,
)
from .cache import ResultCache
from .model import Project, ProjectError, ProjectFunction
from .report import FunctionSummary, ProjectFailure, ProjectReport

if TYPE_CHECKING:
    from ..callgraph.graph import CallGraphNode


class JobState(enum.Enum):
    PENDING = "pending"
    CACHED = "cached"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    #: the job kept crashing or timed out; the function was pessimised from
    #: static estimates so its callers still analyse against a sound bound
    QUARANTINED = "quarantined"


@dataclass
class AnalysisJob:
    """One function analysis in the project job graph."""

    job_id: int
    #: the function's node in the project call graph
    node: CallGraphNode
    cache_key: str = ""
    #: job ids that must complete before this job may run
    deps: tuple[int, ...] = ()
    #: dependency wave the job runs on (assigned by the scheduler)
    wave: int = 0
    #: the job's own call sites charged with a genuine callee summary
    #: (pessimistic recursion/ambiguity charges excluded)
    summary_sites: int = 0
    #: content fingerprint closed over resolved callees (keys the cache)
    transitive_fingerprint: str = ""
    #: call name -> WCET bound charged per call site (fixed per wave)
    callee_bounds: dict[str, int] = field(default_factory=dict)
    state: JobState = JobState.PENDING
    summary: FunctionSummary | None = None
    error: str | None = None
    #: execution attempts so far (pool and serial combined)
    attempts: int = 0
    #: transient failures retried before the job settled
    retries: int = 0
    #: diagnostics of the failures/faults this job survived
    fault_events: list[str] = field(default_factory=list)

    @property
    def function(self) -> ProjectFunction:
        return self.node.function

    @property
    def qualified_name(self) -> str:
        return self.node.qualified_name


@dataclass(frozen=True)
class AttemptRequest:
    """Everything one analysis attempt needs besides the unit (picklable)."""

    function: ProjectFunction
    config: AnalyzerConfig
    callee_bounds: dict[str, int]
    #: the run's plan; the attempt evaluates the job-internal sites and the
    #: ``cache.*`` sites of its query-store I/O against fresh injectors
    fault_plan: FaultPlan
    #: 1-based attempt number, the hit index of the ``job.execute`` site
    attempt: int
    #: the scheduler-decided ``job.execute`` fault of this attempt
    execute_fault: FaultSpec | None
    timeout_seconds: float | None
    #: the span the attempt's spans hang under (None = untraced) and the
    #: event cap of the private tracer that records them
    parent_span: obs.SpanContext | None
    max_events: int | None
    #: root of the persistent query store (None = store disabled)
    query_cache_root: str | None


@dataclass
class AttemptOutcome:
    """What one attempt hands back to the scheduler, success or failure."""

    summary: FunctionSummary | None = None
    error: Exception | None = None
    #: span events and obs registry report of the attempt
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    #: query-store entries whose witness failed to replay
    replay_failures: list = field(default_factory=list)
    #: the query cache's :meth:`ResultCache.io_counts` and fired faults
    query_io: dict | None = None
    query_faults: list = field(default_factory=list)


def run_attempt(unit: AnalyzedProgram | str, request: AttemptRequest) -> AttemptOutcome:
    """Run one analysis attempt of one function: the only code that runs a job.

    *unit* is the analysed unit (in-process) or its source text (a pool
    worker re-parses it, which keeps the inter-process payload small).
    The attempt builds its own resilience context -- the job sub-plan's
    injector, the ``job.execute`` raise or delay, the deadline -- and opens
    the query store over its own :class:`ResultCache` whose ``cache.read``
    / ``cache.write`` sites count hits of this attempt only, so what fires
    never depends on where or alongside what the attempt runs.  Counters,
    stage timers and spans go to a private registry and tracer that the
    outcome carries back; errors are returned, not raised, so a failed
    attempt still reports what it observed.
    """
    outcome = AttemptOutcome()
    registry = obs.Registry()
    tracer = None
    if request.parent_span is not None:
        tracer = obs.Tracer(max_events=request.max_events)
    plan = request.fault_plan
    query_cache = store = None
    if request.query_cache_root is not None:
        query_cache = ResultCache(request.query_cache_root)
        io_plan = plan.for_sites("cache.read", "cache.write")
        if not io_plan.is_empty:
            query_cache.fault_injector = FaultInjector(io_plan)
        store = QueryStore(query_cache)
    job_plan = plan.job_plan()
    context = ResilienceContext(
        injector=None if job_plan.is_empty else FaultInjector(job_plan),
        deadline=Deadline(request.timeout_seconds) if request.timeout_seconds else None,
    )
    function = request.function
    fault = request.execute_fault
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(obs.using_registry(registry))
            stack.enter_context(obs.using_tracer(tracer, request.parent_span))
            stack.enter_context(
                obs.stage("project.job", function=function.qualified_name)
            )
            stack.enter_context(using_query_store(store))
            if context.injector or context.deadline:
                stack.enter_context(activate(context))
            if fault is not None and fault.kind is FaultKind.RAISE:
                raise InjectedFault(
                    "job.execute", "injected job crash", request.attempt
                )
            if fault is not None and fault.kind is FaultKind.DELAY:
                time.sleep(fault.delay_ms / 1000.0)
            if isinstance(unit, str):
                unit = parse_and_analyze(unit, filename=function.unit)
            report = WcetAnalyzer(
                unit, function.name, request.config,
                callee_bounds=request.callee_bounds,
            ).analyze()
            outcome.summary = FunctionSummary.from_report(
                function.unit, request.config.partitioner, report
            )
    except Exception as error:
        outcome.error = error
    outcome.spans = tracer.events() if tracer is not None else []
    outcome.counters = registry.report()
    if store is not None:
        outcome.replay_failures = store.replay_failures
        outcome.query_io = query_cache.io_counts()
        if query_cache.fault_injector is not None:
            outcome.query_faults = query_cache.fault_injector.fired
    return outcome


class ProjectScheduler:
    """Run every analyzable function of a project through the WCET pipeline."""

    def __init__(
        self,
        project: Project,
        config: AnalyzerConfig | None = None,
        cache: ResultCache | None = None,
        workers: int = 1,
        only: list[str] | None = None,
        unknown_call_cycles: int | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        job_timeout_seconds: float | None = None,
        pool_restart_budget: int = 2,
        progress_callback=None,
        flight_recorder: obs.FlightRecorder | None = None,
        query_cache: ResultCache | None = None,
    ):
        """``fault_plan``/``retry_policy``/``job_timeout_seconds`` are the
        resilience knobs: the plan injects deterministic faults (chaos
        testing; ``None`` or an empty plan changes nothing), the policy
        bounds transient-failure retries, and the timeout quarantines jobs
        that overrun their wall-clock allowance.  ``pool_restart_budget``
        caps how often a died process pool is re-created before the run
        falls back to serial execution for good.

        The fault plan is deliberately *not* part of :class:`AnalyzerConfig`:
        the config is fingerprinted into every cache key, and injecting
        faults must not re-key (or pollute) the cache of clean runs.

        ``progress_callback`` is invoked with each :class:`AnalysisJob` as
        it reaches a terminal state (cached, done, failed, quarantined) --
        the hook the analysis service uses to stream job progress to
        polling clients.  Callback errors are swallowed: observers must
        never be able to fail an analysis.

        ``flight_recorder`` receives a trace dump whenever a job is
        quarantined or a fault fires; when omitted and the cache is
        persistent, one is created over ``<cache root>/diagnostics`` (next
        to the cache's ``corrupt/`` quarantine).

        ``query_cache`` backs the persistent model-checking query store
        (per-(slice, goal) verdicts + witnesses, :mod:`repro.mc.store`).
        ``None`` shares the result cache -- a plain warm ``project`` run
        answers every unchanged reachability query from disk with zero
        solver calls -- and :meth:`ResultCache.disabled` opts out.  Every
        attempt opens the store over the cache's root, and its read/write
        failures, quarantines and diagnostics are folded back into this
        instance.  Like the fault plan it is deliberately not part of the
        fingerprinted :class:`AnalyzerConfig`: store entries are
        replay-validated on load, so where (or whether) they persist never
        changes a verdict.
        """
        # imported lazily: repro.callgraph builds on repro.project.model, so a
        # module-level import would be circular through the package __init__
        from ..callgraph.graph import DEFAULT_UNKNOWN_CALL_CYCLES

        self._project = project
        self._config = config or AnalyzerConfig()
        self._cache = cache or ResultCache.disabled()
        self._workers = max(1, int(workers))
        self._only = only
        self._unknown_call_cycles = (
            DEFAULT_UNKNOWN_CALL_CYCLES
            if unknown_call_cycles is None
            else unknown_call_cycles
        )
        #: qualified name -> WCET bound of every completed job
        self._bounds: dict[str, int] = {}
        self._jobs: list[AnalysisJob] | None = None
        self._fault_plan = fault_plan or FaultPlan()
        self._retry_policy = retry_policy or RetryPolicy(
            seed=self._fault_plan.seed
        )
        self._job_timeout = job_timeout_seconds
        self._pool_restart_budget = max(0, int(pool_restart_budget))
        self._progress_callback = progress_callback
        #: scheduler-side injector (summary-cache probes and writes,
        #: pool.submit); every attempt evaluates its own sites against
        #: fresh injectors, and job.execute is decided per attempt by
        #: :meth:`_job_execute_spec`
        self._injector = (
            FaultInjector(
                self._fault_plan.for_sites(
                    "cache.read", "cache.write", "pool.submit"
                )
            )
            if not self._fault_plan.is_empty
            else None
        )
        self._job_execute_specs = tuple(
            spec
            for spec in self._fault_plan.specs
            if spec.site == "job.execute"
        )
        if self._injector is not None:
            self._cache.fault_injector = self._injector
        #: backing cache of the persistent model-checking query store; each
        #: attempt opens the store over its root and the I/O counts it
        #: reports are folded back into this instance
        self._query_cache = query_cache if query_cache is not None else self._cache
        self._query_root = (
            str(self._query_cache.root) if self._query_cache.enabled else None
        )
        #: replay failures and query-I/O faults the attempts reported
        self._replay_failures: list[dict] = []
        self._attempt_faults: list[str] = []
        self._flight = flight_recorder
        if self._flight is None and self._cache.root is not None:
            self._flight = obs.FlightRecorder(
                self._cache.root / obs.DIAGNOSTICS_DIR
            )
        #: records of the flight dumps written by the last run
        self.flight_dumps: list[dict] = []
        #: trace id of the last run's root span (None when untraced)
        self.trace_id: str | None = None
        #: the tracer the last run recorded into (ambient or auto-armed ring)
        self._tracer: obs.Tracer | None = None
        #: the resolved project call graph (built lazily with the jobs)
        self.callgraph = None
        #: execution mode of the last run ("serial", "process-pool", or
        #: "serial-fallback" when a pool could not be created or died)
        self.mode = "serial"
        #: why the scheduler fell back to serial execution (None = no fallback)
        self.fallback_reason: str | None = None
        #: number of dependency waves executed by the last run
        self.waves_executed = 0
        #: process pools re-created after a death (capped by the budget)
        self.pool_restarts = 0

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        return self._workers

    def _notify(self, job: AnalysisJob) -> None:
        """Report a job's terminal state to the progress observer, if any."""
        if self._progress_callback is None:
            return
        try:
            self._progress_callback(job)
        except Exception:
            # observers are diagnostics-only; they must not fail the run
            pass

    def jobs(self) -> list[AnalysisJob]:
        """The job graph, built once and ordered by (unit, function).

        Building it resolves the call graph and keys every job on a
        transitive fingerprint.  With an ``only`` filter the selection is
        closed over resolved callees: a caller's bound cannot be computed
        without its callees' bounds, so restricting to ``--function caller``
        still analyses (or recalls from cache) everything the caller
        transitively calls.
        """
        if self._jobs is not None:
            return self._jobs
        from ..callgraph.graph import CallGraph

        graph = CallGraph.from_project(self._project)
        self.callgraph = graph
        if self._only is not None:
            functions = graph.closure(self._only)
        else:
            functions = graph.functions()
        if not functions:
            raise ProjectError("project defines no analyzable functions")
        fingerprints = graph.transitive_fingerprints(
            unknown_call_cycles=self._unknown_call_cycles
        )
        dependencies = graph.dependencies()
        index_of = {
            function.qualified_name: index
            for index, function in enumerate(functions)
        }
        jobs: list[AnalysisJob] = []
        for index, function in enumerate(functions):
            qualified = function.qualified_name
            jobs.append(
                AnalysisJob(
                    job_id=index,
                    node=graph.node(qualified),
                    cache_key=self._cache.key_for(
                        fingerprints[qualified], self._config
                    ),
                    deps=tuple(
                        index_of[callee]
                        for callee in dependencies[qualified]
                    ),
                    transitive_fingerprint=fingerprints[qualified],
                )
            )
        self._jobs = jobs
        return jobs

    # ------------------------------------------------------------------ #
    def run(self) -> ProjectReport:
        """Execute the job graph wave by wave and aggregate the project report."""
        started = time.perf_counter()
        jobs = self.jobs()
        obs.count("project.jobs", len(jobs))
        self.flight_dumps = []
        self.trace_id = None
        self._replay_failures = []
        self._attempt_faults = []

        with contextlib.ExitStack() as stack:
            tracer = obs.active_tracer()
            if tracer is None and not self._fault_plan.is_empty:
                # chaos runs arm a private bounded ring so a quarantine or
                # fired fault always has a recent timeline to freeze into a
                # flight dump, even without --trace
                tracer = obs.Tracer(max_events=obs.DEFAULT_RING_EVENTS)
                stack.enter_context(obs.using_tracer(tracer))
            self._tracer = tracer
            root = stack.enter_context(
                obs.stage(
                    "project.run", functions=len(jobs), workers=self._workers
                )
            )
            if root is not None:
                self.trace_id = root.trace_id

            # the call graph's waves restricted to this run's jobs; within a
            # wave, jobs keep their (unit, name) order
            by_name = {job.qualified_name: job for job in jobs}
            waves = [
                sorted(
                    (by_name[name] for name in names if name in by_name),
                    key=lambda job: job.job_id,
                )
                for names in self.callgraph.waves()
            ]
            waves = [wave for wave in waves if wave]
            self.waves_executed = len(waves)
            obs.count("project.scheduler.waves", len(waves))
            for wave_index, wave in enumerate(waves):
                ready: list[AnalysisJob] = []
                for job in wave:
                    job.wave = wave_index
                    if not self._fail_on_broken_deps(job, jobs):
                        ready.append(job)
                with obs.stage("project.wave", wave=wave_index, jobs=len(ready)):
                    runnable = self._probe_cache(ready)
                    self._execute(runnable)
                # completed bounds feed the callers of later waves
                self._bounds.update(
                    (job.qualified_name, job.summary.wcet_bound_cycles)
                    for job in wave
                    if job.summary is not None
                )

            if self._replay_failures:
                # a store entry whose witness no longer replays is hard
                # evidence of on-disk tampering/corruption (everything
                # written passed a save-time self-replay): freeze a timeline
                failures = self._replay_failures
                self._flight_dump(
                    "query-replay-failure",
                    detail=f"{len(failures)} rejected entr(y/ies): "
                    + "; ".join(
                        f"{record['goal']}: {record['reason']}"
                        for record in failures[:8]
                    ),
                )
            if not self.flight_dumps:
                fired = self._fired_fault_summary(jobs)
                if fired is not None:
                    self._flight_dump("faults-injected", detail=fired)

        failures = [
            ProjectFailure(
                unit=job.function.unit,
                function=job.function.name,
                error=job.error or "unknown error",
            )
            for job in jobs
            if job.state is JobState.FAILED
        ]
        summaries = [job.summary for job in jobs if job.summary is not None]
        reused_calls = sum(
            summary.summarised_call_sites for summary in summaries
        )
        obs.count("project.scheduler.summary_reuse_calls", reused_calls)
        # static-analysis totals for cache-served summaries: fresh in-process
        # jobs already bumped the sa.* counters inside run_static_analysis,
        # so only results answered from the cache are accounted here
        cached = [summary for summary in summaries if summary.from_cache]
        obs.count(
            "sa.edges_pruned",
            sum(summary.sa_edges_pruned for summary in cached),
        )
        obs.count(
            "sa.loop_bounds_inferred",
            sum(summary.sa_loop_bounds_inferred for summary in cached),
        )
        obs.count(
            "sa.diagnostics",
            sum(len(summary.sa_diagnostics) for summary in cached),
        )
        return ProjectReport(
            functions=summaries,
            failures=failures,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            cache_dir=str(self._cache.root) if self._cache.root else None,
            mode=self.mode,
            fallback_reason=self.fallback_reason,
            workers=self._workers,
            waves=self.waves_executed,
            summary_reuse_calls=reused_calls,
            callgraph=self.callgraph.to_dict(),
            elapsed_seconds=time.perf_counter() - started,
            pool_restarts=self.pool_restarts,
            cache_write_failures=self._cache.write_failures,
            cache_quarantined=self._cache.quarantined,
            fault_plan=self._fault_plan.describe(),
            diagnostics=list(self._cache.diagnostics),
            flight_dumps=list(self.flight_dumps),
            trace_id=self.trace_id,
            trace_spans=len(self._tracer) if self._tracer is not None else 0,
        )

    # ------------------------------------------------------------------ #
    def _fail_on_broken_deps(
        self, job: AnalysisJob, jobs: list[AnalysisJob]
    ) -> bool:
        """Fail *job* when a callee it depends on failed; True when failed."""
        broken = [
            jobs[dep].qualified_name
            for dep in job.deps
            if jobs[dep].state is JobState.FAILED
        ]
        if not broken:
            return False
        job.state = JobState.FAILED
        job.error = (
            "callee analysis failed, no summary to charge: "
            + ", ".join(sorted(broken))
        )
        obs.count("project.jobs_failed")
        self._notify(job)
        return True

    def _job_config(self, job: AnalysisJob) -> AnalyzerConfig:
        """The analyzer config for one job.

        Jobs whose call closure contains a recursion cycle -- the cycle
        members and their transitive callers -- get the exhaustive
        end-to-end comparison disabled: recursive calls are stubbed during
        measurement, but the exhaustive check runs real callee bodies and
        unbounded recursion would only die against the interpreter's step
        budget.
        """
        recursive = job.qualified_name in self.callgraph.reaches_cycle()
        if recursive and self._config.exhaustive_limit is not None:
            return dataclasses.replace(self._config, exhaustive_limit=None)
        return self._config

    def _probe_cache(self, wave: list[AnalysisJob]) -> list[AnalysisJob]:
        """Resolve cached jobs; return the ones that must actually run."""
        runnable: list[AnalysisJob] = []
        for job in wave:
            job.callee_bounds, job.summary_sites = self.callgraph.charges(
                job.qualified_name, self._bounds, self._unknown_call_cycles
            )
            summary = self._cache.get(job.cache_key)
            if summary is not None:
                self._adopt_identity(job, summary)
                job.summary = summary
                job.state = JobState.CACHED
                obs.count("project.jobs_cached")
                self._notify(job)
            else:
                runnable.append(job)
        return runnable

    @staticmethod
    def _adopt_identity(job: AnalysisJob, summary: FunctionSummary) -> None:
        """Restore this job's identity over whatever run stored the entry.

        The cache is content-addressed: identical functions in different
        units (or the same entry reached through a differently-filtered run)
        share one entry, so the labels and scheduling facts are the current
        job's, while the analysis payload is whatever the entry holds.
        """
        summary.cache_key = job.cache_key
        summary.unit = job.function.unit
        summary.function = job.function.name
        summary.wave = job.wave
        summary.callees = sorted(set(job.node.resolved.values()))
        # the analyzer counts every interprocedurally-charged site; the
        # reuse metric only counts the ones backed by a genuine summary
        summary.summarised_call_sites = job.summary_sites
        summary.transitive_fingerprint = job.transitive_fingerprint
        # retries and scheduler-level fault events are properties of this
        # run (excluded from the cached result payload), so the current
        # job's bookkeeping always wins over whatever a cache entry holds
        summary.retries = job.retries
        summary.fault_events = list(job.fault_events) + [
            event
            for event in summary.fault_events
            if event not in job.fault_events
        ]

    # ------------------------------------------------------------------ #
    def _execute(self, jobs: list[AnalysisJob]) -> None:
        if not jobs:
            return
        if self._workers > 1 and len(jobs) > 1:
            remaining = self._execute_pool(jobs)
        else:
            remaining = jobs
        for job in remaining:
            self._execute_in_process(job)

    def _note_fallback(self, reason: str) -> None:
        self.mode = "serial-fallback"
        if self.fallback_reason is None:
            self.fallback_reason = reason

    def _job_execute_spec(self, job: AnalysisJob, attempt: int) -> FaultSpec | None:
        """The ``job.execute`` fault firing on this job's *attempt*, if any.

        The hit counter of the ``job.execute`` site is the per-job attempt
        number, not a global dispatch counter: the decision is a pure
        function of (plan seed, job name, attempt), so it is identical
        whether the attempt runs serially, on the first pool or on a
        restarted one -- and ``raise@1+`` means "crash every attempt of
        every job" (the retry-exhaustion/quarantine scenario) while
        ``raise@1`` crashes only first attempts, which then retry clean.
        """
        for spec in self._job_execute_specs:
            if spec.fires_on(attempt, self._fault_plan.seed, job.qualified_name):
                obs.count("resilience.injected.job.execute")
                return spec
        return None

    def _attempt_request(self, job: AnalysisJob) -> AttemptRequest:
        """The request of *job*'s next attempt."""
        tracer = self._tracer
        attempt = job.attempts + 1
        return AttemptRequest(
            function=job.function,
            config=self._job_config(job),
            callee_bounds=job.callee_bounds,
            fault_plan=self._fault_plan,
            attempt=attempt,
            execute_fault=self._job_execute_spec(job, attempt),
            timeout_seconds=self._job_timeout,
            # the span handshake: the attempt records under the wave span
            # and ships its events back for merging
            parent_span=None if tracer is None else obs.current_context(),
            max_events=None if tracer is None else tracer.max_events,
            query_cache_root=self._query_root,
        )

    def _execute_pool(self, jobs: list[AnalysisJob]) -> list[AnalysisJob]:
        """Run *jobs* on a process pool; return the jobs still to be executed.

        One pool is created per wave rather than per run: a wave is a full
        submit/drain cycle anyway (callee bounds must be final before the
        next wave submits), and a fresh pool keeps the died-pool path simple
        -- the startup cost is tiny next to a function analysis.  A pool
        that dies mid-wave is re-created and the unfinished jobs resubmitted
        up to ``pool_restart_budget`` times; only past that budget (or on a
        permanent pickling error) does the wave fall back to serial
        execution.
        """
        pending_jobs = jobs
        while pending_jobs:
            try:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(self._workers, len(pending_jobs))
                )
            except (OSError, ValueError) as error:
                obs.count("project.scheduler.pool_fallbacks")
                obs.count("project.scheduler.pool_fallback.create_failed")
                self._note_fallback(
                    f"pool-create-failed: {type(error).__name__}: {error}"
                )
                return pending_jobs
            try:
                retry_serially = self._pool_cycle(pool, pending_jobs)
            except (
                concurrent.futures.process.BrokenProcessPool,
                InjectedFault,
                pickle.PicklingError,
            ) as error:
                # the pool died (fork bans, OOM-killed worker, an injected
                # pool.submit fault): restart it for the unfinished jobs
                # while the restart budget lasts; a request that does not
                # pickle would fail identically, so it goes straight to
                # serial
                survivors = [
                    job
                    for job in pending_jobs
                    if job.summary is None and job.state is not JobState.FAILED
                ]
                for job in survivors:
                    job.state = JobState.PENDING
                permanent = isinstance(error, pickle.PicklingError)
                if not permanent and self.pool_restarts < self._pool_restart_budget:
                    self.pool_restarts += 1
                    obs.count("project.scheduler.pool_restarts")
                    pending_jobs = survivors
                    continue
                reason = f"pool-died: {type(error).__name__}: {error}"
                if not permanent:
                    reason += (
                        f" (restart budget of {self._pool_restart_budget} spent)"
                    )
                obs.count("project.scheduler.pool_fallbacks")
                obs.count("project.scheduler.pool_fallback.pool_died")
                self._note_fallback(reason)
                return survivors
            if self.mode != "serial-fallback":
                # a fallback in an earlier wave keeps the report honest even
                # if this wave's pool came up fine
                self.mode = "process-pool"
            # jobs whose attempt failed transiently are retried in-process
            # (their attempt count carries over)
            return retry_serially
        return []

    def _pool_cycle(
        self,
        pool: concurrent.futures.ProcessPoolExecutor,
        jobs: list[AnalysisJob],
    ) -> list[AnalysisJob]:
        """One submit/drain cycle; returns jobs to retry in-process."""
        pending: dict[concurrent.futures.Future, AnalysisJob] = {}
        retry_serially: list[AnalysisJob] = []
        with pool:
            for job in jobs:
                if self._injector is not None:
                    # an injected pool.submit fault == the pool broke while
                    # feeding it work; handled by the restart loop above
                    self._injector.check("pool.submit", job.qualified_name)
                job.state = JobState.RUNNING
                future = pool.submit(
                    run_attempt,
                    self._project.unit(job.function.unit).source,
                    self._attempt_request(job),
                )
                pending[future] = job
            for future in concurrent.futures.as_completed(pending):
                job = pending.pop(future)
                try:
                    result = future.result()
                except (
                    concurrent.futures.process.BrokenProcessPool,
                    pickle.PicklingError,
                ):
                    # pool-level trouble, not a property of this job
                    raise
                except Exception as error:
                    result = error
                if self._settle(job, result):
                    retry_serially.append(job)
        return retry_serially

    def _execute_in_process(self, job: AnalysisJob) -> None:
        """Run one job in-process, retrying transient failures with backoff."""
        unit = self._project.unit(job.function.unit)
        while True:
            if job.attempts > 0:
                # a backoff sleep precedes every retry attempt; the delay is
                # a pure function of (seed, job, attempt) so chaos runs
                # sleep the same deterministic schedule every time
                time.sleep(
                    self._retry_policy.delay_for(job.attempts, job.qualified_name)
                )
            job.state = JobState.RUNNING
            outcome = run_attempt(unit.analyzed, self._attempt_request(job))
            if not self._settle(job, outcome):
                return

    def _settle(
        self, job: AnalysisJob, result: AttemptOutcome | Exception
    ) -> bool:
        """Fold one attempt into the run and decide the job; True = retry.

        Both executors end every attempt here: the outcome's spans,
        counters, replay failures and query-cache I/O join the run's, and
        the job completes, is retried (transient failure within the retry
        policy), is quarantined (timeout, or transient failures exhausted)
        or fails (a genuine, permanent analysis error).  *result* is a bare
        exception only when the pool lost the attempt's outcome.
        """
        job.attempts += 1
        error = result
        if isinstance(result, AttemptOutcome):
            if result.spans and self._tracer is not None:
                self._tracer.merge(result.spans)
            obs.active_registry().merge(result.counters)
            self._replay_failures.extend(result.replay_failures)
            self._attempt_faults.extend(result.query_faults)
            if result.query_io is not None:
                self._query_cache.absorb(result.query_io)
            error = result.error
            if error is None:
                self._complete(job, result.summary)
                return False
        if isinstance(error, JobTimeout):
            # a deterministic computation would time out again: no retry
            self._quarantine(job, f"wall-clock timeout: {error}")
            return False
        kind = classify_error(error)
        job.fault_events.append(
            f"attempt {job.attempts} failed ({kind}): "
            f"{type(error).__name__}: {error}"
        )
        max_attempts = self._retry_policy.max_attempts
        if kind == "transient" and job.attempts < max_attempts:
            job.retries += 1
            obs.count("project.scheduler.retries")
            job.state = JobState.PENDING
            return True
        if kind == "transient":
            self._quarantine(
                job,
                f"transient failures exhausted {max_attempts} attempt(s): "
                f"{type(error).__name__}: {error}",
            )
        else:
            self._fail(job, error)
        return False

    # ------------------------------------------------------------------ #
    def _flight_dump(self, trigger: str, detail: str | None = None) -> None:
        """Freeze the recent trace timeline into the diagnostics directory."""
        if self._flight is None:
            return
        record = self._flight.dump(
            trigger,
            tracer=self._tracer,
            trace_id=self.trace_id,
            detail=detail,
        )
        if record is not None:
            self.flight_dumps.append(record)
            obs.count("obs.flight.dumps")

    def _fired_fault_summary(self, jobs: list[AnalysisJob]) -> str | None:
        """One line describing the faults this run absorbed (None = clean)."""
        fired = list(self._injector.fired) if self._injector is not None else []
        fired += self._attempt_faults
        for job in jobs:
            fired.extend(job.fault_events)
            if job.summary is not None:
                fired.extend(
                    event
                    for event in job.summary.fault_events
                    if event not in job.fault_events
                )
        if not fired:
            return None
        return f"{len(fired)} fault(s): " + "; ".join(fired[:8])

    def _quarantine(self, job: AnalysisJob, reason: str) -> None:
        """Isolate a crashing/timing-out job behind a static pessimised bound.

        The job's function still gets a *sound* (much coarser) WCET summary
        from :func:`static_pessimised_report`, so its callers analyse
        normally instead of cascading into failures -- one bad job degrades
        one bound, not the wave.
        """
        unit = self._project.unit(job.function.unit)
        try:
            report = static_pessimised_report(
                unit.analyzed,
                job.function.name,
                self._job_config(job),
                callee_bounds=job.callee_bounds,
                reason=f"quarantined: {reason}",
            )
        except Exception as error:
            # not even the static route works (e.g. the partition itself is
            # broken): that is a genuine failure, not a resilience case
            self._fail(job, error)
            return
        summary = FunctionSummary.from_report(
            unit.name, self._config.partitioner, report
        )
        summary.quarantined = True
        self._adopt_identity(job, summary)
        job.summary = summary
        job.state = JobState.QUARANTINED
        job.error = reason
        obs.count("project.jobs_quarantined")
        self._flight_dump(
            f"quarantine-{job.qualified_name}",
            detail=f"{job.qualified_name}: {reason}",
        )
        self._notify(job)

    def _complete(self, job: AnalysisJob, summary: FunctionSummary) -> None:
        self._adopt_identity(job, summary)
        job.summary = summary
        job.state = JobState.DONE
        if not summary.degraded:
            # a degraded result is an artefact of this run's faults; caching
            # it would serve pessimised bounds to later clean runs
            self._cache.put(job.cache_key, summary)
        obs.count("project.jobs_executed")
        self._notify(job)

    def _fail(self, job: AnalysisJob, error: Exception) -> None:
        job.state = JobState.FAILED
        job.error = f"{type(error).__name__}: {error}"
        obs.count("project.jobs_failed")
        self._notify(job)


def analyze_project(
    project: Project,
    config: AnalyzerConfig | None = None,
    cache: ResultCache | None = None,
    workers: int = 1,
    only: list[str] | None = None,
    unknown_call_cycles: int | None = None,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    job_timeout_seconds: float | None = None,
    pool_restart_budget: int = 2,
    progress_callback=None,
    query_cache: ResultCache | None = None,
) -> ProjectReport:
    """Convenience wrapper: schedule and run every function of *project*."""
    return ProjectScheduler(
        project,
        config=config,
        cache=cache,
        workers=workers,
        only=only,
        unknown_call_cycles=unknown_call_cycles,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        job_timeout_seconds=job_timeout_seconds,
        pool_restart_budget=pool_restart_budget,
        progress_callback=progress_callback,
        query_cache=query_cache,
    ).run()
