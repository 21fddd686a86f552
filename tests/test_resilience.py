"""Tests of the resilience layer (:mod:`repro.resilience`) and its users.

All tests carry the ``chaos`` marker (registered in ``pytest.ini``); they
run in the default tier-1 suite but stay bounded -- tiny workloads, quick
hybrid options, deterministic fault plans.  The one invariant every chaos
scenario must uphold: an injected fault may make a bound *coarser* (static
pessimisation) but never smaller than the fault-free bound, and never makes
the project run raise or report a hard failure.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.pipeline import AnalyzerConfig
from repro.pipeline.analyzer import WcetAnalyzer
from repro.project import (
    FunctionSummary,
    Project,
    ProjectScheduler,
    ResultCache,
)
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    JobTimeout,
    ResilienceContext,
    RetryPolicy,
    activate,
    classify_error,
    current,
)
from repro.testgen import HybridOptions
from repro.workloads.multi import (
    generate_call_chain_workload,
    generate_multi_function_workload,
)

pytestmark = pytest.mark.chaos

QUICK_HYBRID = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)


def quick_config(**overrides) -> AnalyzerConfig:
    # static analysis is off: the prefilter answers this tiny workload's
    # residual MC queries without the solver, so fault sites like mc.solve
    # would never fire -- and these tests exist to exercise exactly those
    options = dict(
        path_bound=2,
        hybrid=QUICK_HYBRID,
        extra_random_vectors=5,
        exhaustive_limit=None,
        static_analysis=False,
    )
    options.update(overrides)
    return AnalyzerConfig(**options)


#: the call-chain project runs with static analysis on, as in production
CHAIN_CONFIG = quick_config(static_analysis=True)


@pytest.fixture(scope="module")
def workload():
    return generate_multi_function_workload(seed=2005, functions=3, units=2)


@pytest.fixture(scope="module")
def project(workload):
    return Project.from_sources(workload.sources)


@pytest.fixture(scope="module")
def clean_report(project):
    """The fault-free baseline every chaos scenario is compared against."""
    return ProjectScheduler(project, config=quick_config()).run()


@pytest.fixture(scope="module")
def chain_project():
    """The 9-function call-chain project (run under ``CHAIN_CONFIG``)."""
    return Project.from_sources(generate_call_chain_workload(seed=2005).sources)


@pytest.fixture(scope="module")
def chain_clean_report(chain_project):
    return run_with(chain_project, config=CHAIN_CONFIG)


def clean_bounds(report) -> dict[tuple[str, str], int]:
    return {(s.unit, s.function): s.wcet_bound_cycles for s in report.functions}


def payloads(report) -> list[dict]:
    return [summary.result_payload() for summary in report.functions]


def run_with(project, plan=None, config=None, **kwargs):
    return ProjectScheduler(
        project, config=config or quick_config(), fault_plan=plan, **kwargs
    ).run()


# ---------------------------------------------------------------------- #
class TestFaultSpecs:
    def test_parse_positional_forms(self):
        spec = FaultSpec.parse("cache.write:raise@3")
        assert (spec.site, spec.kind, spec.nth, spec.times) == (
            "cache.write", FaultKind.RAISE, 3, 1,
        )
        spec = FaultSpec.parse("mc.solve:raise@2x4")
        assert (spec.nth, spec.times) == (2, 4)
        spec = FaultSpec.parse("job.execute:raise@5+")
        assert (spec.nth, spec.times) == (5, 0)
        spec = FaultSpec.parse("interp.step:delay=7@100")
        assert (spec.kind, spec.delay_ms, spec.nth) == (FaultKind.DELAY, 7, 100)
        spec = FaultSpec.parse("cache.read:corrupt@1")
        assert spec.kind is FaultKind.CORRUPT

    def test_parse_rate_form(self):
        spec = FaultSpec.parse_any("job.execute:rate=0.25")
        assert spec.rate == 0.25 and spec.nth is None

    @pytest.mark.parametrize(
        "bad",
        [
            "nonsense",                    # no colon
            "no.such.site:raise",          # unknown site
            "mc.solve:explode",            # unknown kind
            "mc.solve:raise@0",            # hit index < 1
            "mc.solve:raise@x",            # non-integer hit
            "mc.solve:raise=5",            # raise takes no argument
            "interp.step:delay",           # delay needs milliseconds
            "job.execute:rate=1.5",        # rate out of range
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(FaultPlanError):
            FaultSpec.parse_any(bad)

    def test_plan_describe_roundtrip(self):
        args = ["cache.write:raise@2", "mc.solve:rate=0.5", "interp.step:delay=3@10"]
        plan = FaultPlan.from_args(args, seed=9)
        assert plan.describe() == args
        again = FaultPlan.from_args(plan.describe(), seed=9)
        assert again == plan

    def test_injector_fires_on_exact_hits(self):
        plan = FaultPlan(specs=(FaultSpec.parse("mc.solve:raise@2x2"),))
        injector = FaultInjector(plan)
        fired = []
        for hit in range(1, 6):
            try:
                injector.check("mc.solve", "q")
            except InjectedFault:
                fired.append(hit)
        assert fired == [2, 3]
        assert injector.fired_count == 2

    def test_rate_decisions_are_deterministic_and_key_scoped(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec.parse_any("mc.solve:rate=0.5"),))

        def fire_pattern(key: str) -> list[bool]:
            injector = FaultInjector(plan)
            pattern = []
            for _ in range(32):
                try:
                    injector.check("mc.solve", key)
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert fire_pattern("a") == fire_pattern("a")  # replayable
        assert fire_pattern("a") != fire_pattern("b")  # keys are independent
        assert any(fire_pattern("a")) and not all(fire_pattern("a"))

    def test_injected_fault_pickles(self):
        fault = InjectedFault("mc.solve", "boom", 3)
        clone = pickle.loads(pickle.dumps(fault))
        assert (clone.site, clone.description, clone.hit) == ("mc.solve", "boom", 3)

    def test_ambient_context_is_scoped(self):
        assert current() is None
        context = ResilienceContext(injector=None, deadline=None)
        with activate(context):
            assert current() is context
        assert current() is None


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(base_delay_ms=10, backoff_factor=2.0, seed=5)
        delays = [policy.delay_for(attempt, "job") for attempt in (1, 2, 3)]
        again = [policy.delay_for(attempt, "job") for attempt in (1, 2, 3)]
        assert delays == again
        # exponential shape survives the jitter (jitter is +/-10%)
        assert delays[0] < delays[1] < delays[2]
        assert policy.delay_for(1, "other-job") != delays[0]

    def test_backoff_is_capped(self):
        policy = RetryPolicy(
            base_delay_ms=100, max_delay_ms=150, backoff_factor=10.0, jitter=0.0
        )
        assert policy.delay_for(5, "k") == pytest.approx(0.150)

    def test_classification(self):
        assert classify_error(InjectedFault("mc.solve", "x", 1)) == "transient"
        assert classify_error(OSError("disk")) == "transient"
        assert classify_error(JobTimeout("too slow")) == "permanent"
        assert classify_error(ValueError("bug")) == "permanent"

    def test_deadline_expires(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        with pytest.raises(JobTimeout):
            deadline.poll()
        assert not Deadline(60.0).expired()


# ---------------------------------------------------------------------- #
class TestCrashSafeCache:
    SUMMARY = FunctionSummary(
        unit="u.c",
        function="f",
        path_bound=2,
        partitioner="paper",
        segments=3,
        instrumentation_points=6,
        measurements_required=5,
        measurement_runs=9,
        test_vectors_used=7,
        infeasible_paths=1,
        wcet_bound_cycles=123,
        measured_wcet_cycles=120,
        overestimation=1.025,
        safe=True,
    )

    def cache_with_faults(self, tmp_path: Path, *specs: str) -> ResultCache:
        cache = ResultCache(tmp_path / "cache")
        plan = FaultPlan.from_args(list(specs))
        cache.fault_injector = FaultInjector(plan)
        return cache

    def test_injected_write_failure_counts_and_warns_once(self, tmp_path: Path):
        cache = self.cache_with_faults(tmp_path, "cache.write:raise@1x2")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        cache.put(key, self.SUMMARY)
        assert cache.write_failures == 2
        assert cache.store_failures == 2  # backwards-compatible alias
        assert len([d for d in cache.diagnostics if "write" in d]) == 1
        # third write goes through
        cache.put(key, self.SUMMARY)
        assert cache.get(key) is not None

    def test_no_tmp_file_left_behind_on_write_failure(self, tmp_path: Path):
        cache = self.cache_with_faults(tmp_path, "cache.write:raise@1+")
        key = cache.key_for("f" * 64, quick_config())
        for _ in range(3):
            cache.put(key, self.SUMMARY)
        stray = [
            p
            for p in (tmp_path / "cache").rglob("*")
            if p.is_file() and p.suffix != ".json" and p.name != ".lock"
        ]
        assert stray == []
        assert cache.write_failures == 3

    def test_injected_read_failure_is_a_miss(self, tmp_path: Path):
        cache = self.cache_with_faults(tmp_path, "cache.read:raise@1")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        assert cache.get(key) is None
        assert cache.read_failures == 1
        assert cache.get(key) is not None  # only the first read was poisoned

    def test_corrupt_entry_quarantined_with_diagnostic(self, tmp_path: Path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        path = cache.path_for(key)
        path.write_text("{torn", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not path.exists()  # moved out of the live store
        corrupt_dir = tmp_path / "cache" / "corrupt"
        assert (corrupt_dir / path.name).exists()
        diags = list(corrupt_dir.glob("*.diag.json"))
        assert len(diags) == 1
        # the quarantined entry never poisons a later run: a rewrite works
        cache.put(key, self.SUMMARY)
        assert cache.get(key) is not None

    def test_injected_corrupt_read(self, tmp_path: Path):
        cache = self.cache_with_faults(tmp_path, "cache.read:corrupt@1")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_verify_sweep(self, tmp_path: Path):
        cache = ResultCache(tmp_path / "cache")
        config = quick_config()
        keys = [cache.key_for(c * 64, config) for c in "abc"]
        for key in keys:
            cache.put(key, self.SUMMARY)
        cache.path_for(keys[0]).write_text("{torn", encoding="utf-8")
        report = cache.verify()
        assert report["checked"] == 3
        assert report["ok"] == 2
        assert report["quarantined"] == 1
        assert report["schema_mismatch"] == 0
        assert len(report["entries"]) == 1


# ---------------------------------------------------------------------- #
class TestResilientScheduler:
    def test_clean_run_identical_with_empty_plan(
        self, project, clean_report, chain_project, chain_clean_report
    ):
        report = run_with(project, FaultPlan())
        assert payloads(report) == payloads(clean_report)
        assert report.to_dict()["resilience"]["fault_plan"] == []

        # the call-chain project, also under a plan armed on the hot paths
        # at a hit count that never arrives
        armed = FaultPlan(
            seed=2005,
            specs=(
                FaultSpec.parse("mc.solve:raise@1000000000"),
                FaultSpec.parse("interp.step:raise@1000000000"),
            ),
        )
        for plan in (FaultPlan(seed=2005), armed):
            report = run_with(chain_project, plan, config=CHAIN_CONFIG)
            assert payloads(report) == payloads(chain_clean_report)

    def test_job_crash_retries_then_succeeds(self, project, clean_report):
        # job.execute hits count per-job attempts: @1 crashes every job's
        # first attempt; the retry (attempt 2) runs clean
        plan = FaultPlan.from_args(["job.execute:raise@1"])
        report = run_with(project, plan)
        assert report.failures == []
        assert report.total_retries == len(report.functions)
        assert report.quarantined_functions == []
        # the retried jobs' *results* are indistinguishable from a clean run
        assert [s.result_payload() for s in report.functions] == [
            s.result_payload() for s in clean_report.functions
        ]
        assert all(s.retries == 1 and s.fault_events for s in report.functions)

    def test_persistent_job_crash_quarantines_with_sound_bound(
        self, project, clean_report
    ):
        # @1+ crashes *every* attempt of every job: retries exhaust and all
        # jobs quarantine behind static pessimised (still sound) bounds
        plan = FaultPlan.from_args(["job.execute:raise@1+"])
        policy = RetryPolicy(max_attempts=2, base_delay_ms=1, max_delay_ms=2)
        report = run_with(project, plan, retry_policy=policy)
        assert report.failures == []
        quarantined = [s for s in report.functions if s.quarantined]
        assert len(quarantined) == len(report.functions)
        baseline = clean_bounds(clean_report)
        for summary in quarantined:
            assert summary.wcet_bound_cycles >= baseline[
                (summary.unit, summary.function)
            ]
            assert summary.degraded and summary.degraded_reason
        payload = report.to_dict()
        assert payload["resilience"]["quarantined_functions"] == [
            f"{s.unit}:{s.function}" for s in quarantined
        ]

    def test_timeout_quarantines_with_sound_bound(self, project, clean_report):
        report = run_with(project, None, job_timeout_seconds=1e-9)
        assert report.failures == []
        assert all(s.quarantined for s in report.functions)
        baseline = clean_bounds(clean_report)
        for summary in report.functions:
            assert summary.wcet_bound_cycles >= baseline[
                (summary.unit, summary.function)
            ]
            assert "timeout" in (summary.degraded_reason or "")
        # a timeout is permanent: no retry was attempted
        assert report.total_retries == 0

    def test_every_site_plan_bound_safety(
        self, project, clean_report, chain_project, chain_clean_report
    ):
        plan = FaultPlan.from_args(
            [
                "cache.read:raise@1",
                "cache.write:raise@1",
                "pool.submit:raise@1",
                "job.execute:raise@1",
                "mc.solve:rate=0.2",
                "interp.step:raise@40000",
            ],
            seed=11,
        )
        report = run_with(project, plan)
        assert report.failures == []
        baseline = clean_bounds(clean_report)
        for summary in report.functions:
            assert summary.wcet_bound_cycles is not None
            assert summary.wcet_bound_cycles >= baseline[
                (summary.unit, summary.function)
            ]
        payload = report.to_dict()
        assert payload["resilience"]["fault_plan"] == plan.describe()

        # the call-chain project at a 10% job.execute / mc.solve fault rate
        plan = FaultPlan.from_args(
            ["job.execute:rate=0.1", "mc.solve:rate=0.1"], seed=2005
        )
        report = run_with(chain_project, plan, config=CHAIN_CONFIG)
        baseline = clean_bounds(chain_clean_report)
        for summary in report.functions:
            assert summary.wcet_bound_cycles is not None
            assert summary.wcet_bound_cycles >= baseline[
                (summary.unit, summary.function)
            ]

    def test_degraded_results_are_not_cached(self, project, tmp_path: Path):
        plan = FaultPlan.from_args(["mc.solve:rate=1.0"])
        cache = ResultCache(tmp_path / "cache")
        chaos = ProjectScheduler(
            project, config=quick_config(), cache=cache, fault_plan=plan
        ).run()
        degraded = {
            (s.unit, s.function) for s in chaos.functions if s.degraded
        }
        assert degraded  # every MC query faulted: something must degrade
        # a later *clean* run over the same cache must re-analyse the
        # degraded functions from scratch, not inherit pessimised bounds
        clean = ProjectScheduler(
            project, config=quick_config(), cache=ResultCache(tmp_path / "cache")
        ).run()
        for summary in clean.functions:
            if (summary.unit, summary.function) in degraded:
                assert not summary.from_cache
                assert not summary.degraded

    def test_cache_write_faults_surface_on_report(self, project, tmp_path: Path):
        plan = FaultPlan.from_args(["cache.write:raise@1+"])
        cache = ResultCache(tmp_path / "cache")
        # the query store is disabled so every counted write failure is a
        # function-summary write (query-namespace faults have their own test)
        report = ProjectScheduler(
            project, config=quick_config(), cache=cache, fault_plan=plan,
            query_cache=ResultCache.disabled(),
        ).run()
        assert report.failures == []
        assert report.cache_write_failures == len(report.functions)
        payload = report.to_dict()
        assert payload["cache"]["write_failures"] == len(report.functions)
        assert any("write" in d for d in payload["resilience"]["diagnostics"])
        assert "cache write failures" in report.to_text()


@pytest.mark.project
class TestResilientPool:
    def test_pool_submit_fault_restarts_within_budget(self, project, clean_report):
        plan = FaultPlan.from_args(["pool.submit:raise@1"])
        report = ProjectScheduler(
            project,
            config=quick_config(),
            workers=2,
            fault_plan=plan,
            pool_restart_budget=2,
        ).run()
        assert report.failures == []
        assert report.pool_restarts == 1
        assert report.mode == "process-pool"
        assert [s.result_payload() for s in report.functions] == [
            s.result_payload() for s in clean_report.functions
        ]

    def test_pool_submit_fault_exhausts_budget_then_serial(
        self, project, clean_report
    ):
        plan = FaultPlan.from_args(["pool.submit:raise@1+"])
        report = ProjectScheduler(
            project,
            config=quick_config(),
            workers=2,
            fault_plan=plan,
            pool_restart_budget=1,
        ).run()
        assert report.failures == []
        assert report.pool_restarts == 1
        assert report.mode == "serial-fallback"
        assert "restart budget" in (report.fallback_reason or "")
        assert [s.result_payload() for s in report.functions] == [
            s.result_payload() for s in clean_report.functions
        ]

    def test_worker_crash_retried_serially(self, project, clean_report):
        plan = FaultPlan.from_args(["job.execute:raise@1"])
        report = ProjectScheduler(
            project, config=quick_config(), workers=2, fault_plan=plan
        ).run()
        assert report.failures == []
        assert report.total_retries == len(report.functions)
        assert [s.result_payload() for s in report.functions] == [
            s.result_payload() for s in clean_report.functions
        ]


# ---------------------------------------------------------------------- #
class TestAnalyzerDegradation:
    def test_mc_fault_degrades_not_raises(self, workload):
        from repro.minic import parse_and_analyze

        analyzed = parse_and_analyze(
            workload.sources["unit_0.c"], filename="unit_0.c"
        )
        function = workload.functions[0][1]
        config = quick_config()
        clean = WcetAnalyzer(analyzed, function, config).analyze()

        plan = FaultPlan(specs=(FaultSpec.parse_any("mc.solve:rate=1.0"),))
        with activate(ResilienceContext(injector=FaultInjector(plan))):
            chaos = WcetAnalyzer(analyzed, function, config).analyze()
        assert chaos.degraded
        assert chaos.fault_events
        assert chaos.wcet_bound_cycles >= clean.wcet_bound_cycles
