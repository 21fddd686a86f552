"""Tests of the persistent model-checking query store (repro.mc.store).

The store's contract: a warm run answers every unchanged reachability
query from disk with zero solver runs and bit-identical results, and an
entry that fails its witness replay is rejected (counted + quarantined)
but can never change a verdict.  All cases are bounded (tiny models,
small workloads) and carry the ``mc`` marker; the fault-injection cases
add ``chaos``.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.mc import (
    GoalBuilder,
    QueryBudget,
    QueryEngine,
    QueryEngineOptions,
    QueryStore,
    ReachabilityGoal,
    Verdict,
    using_query_store,
)
from repro.mc.store import pack_entry, structural_error
from repro.minic import parse_and_analyze
from repro.optim.pipeline import OptimizationConfig, build_optimized_model
from repro.pipeline.analyzer import AnalyzerConfig
from repro.project import Project, ProjectScheduler, ResultCache
from repro.resilience import FaultPlan
from repro.testgen.hybrid import HybridOptions
from repro.transsys import translate_function
from repro.transsys.translate import TranslationOptions
from repro.workloads.multi import generate_multi_function_workload

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

#: like GUARDED but with a provably dead branch (a + b <= 40 < 100):
#: guarantees the goal set contains an UNREACHABLE verdict
GUARDED_DEAD = """
#pragma input a
#pragma input b
#pragma range a 0 20
#pragma range b 0 20
int a; int b; int out;
void f(void) {
    out = 0;
    if (a > 10) {
        out = 1;
        target_hit();
    }
    if (a + b > 100) {
        out = 2;
        never_hit();
    }
}
"""


def translate(source: str, function: str = "f"):
    analyzed = parse_and_analyze(source)
    options = TranslationOptions(
        use_declared_ranges=True, initialize_variables=True
    )
    return translate_function(analyzed, function, options)


def all_block_goals(translation) -> list[tuple[object, ReachabilityGoal]]:
    builder = GoalBuilder(block_location=translation.block_location)
    return [
        (block.block_id, builder.reach_block(block.block_id))
        for block in translation.cfg.real_blocks()
    ]


def run_with_store(
    translation, cache_dir, goals, budget=QueryBudget(max_steps=50_000)
):
    """One engine pass over *goals* against the store in *cache_dir*."""
    engine = QueryEngine(translation, QueryEngineOptions(budget=budget))
    store = QueryStore(ResultCache(cache_dir))
    with using_query_store(store):
        results = {key: engine.check(goal) for key, goal in goals}
    return engine, store, results


def query_entry_files(cache_dir):
    return sorted(
        path
        for path in cache_dir.rglob("*.json")
        if path.parent.name != "corrupt"
        and json.loads(path.read_text()).get("kind") == "query"
    )


def assert_identical_results(cold, warm):
    assert set(cold) == set(warm)
    for key, cold_result in cold.items():
        warm_result = warm[key]
        assert warm_result.verdict is cold_result.verdict, key
        if cold_result.counterexample is None:
            assert warm_result.counterexample is None
        else:
            assert warm_result.counterexample is not None
            assert (
                warm_result.counterexample.inputs
                == cold_result.counterexample.inputs
            )
            assert (
                warm_result.counterexample.initial_state
                == cold_result.counterexample.initial_state
            )


# ---------------------------------------------------------------------- #
# warm hits
# ---------------------------------------------------------------------- #
class TestWarmHits:
    def test_warm_engine_answers_everything_from_disk(
        self, tmp_path, industrial_deep_batch
    ):
        guarded = translate(GUARDED)
        deep = industrial_deep_batch
        batches = {
            "guarded": (
                guarded, all_block_goals(guarded), QueryBudget(max_steps=50_000)
            ),
            "deep": (
                deep.model.translation, list(enumerate(deep.goals())), deep.budget
            ),
        }
        for name, (translation, goals, budget) in batches.items():
            cold_engine, cold_store, cold = run_with_store(
                translation, tmp_path / name, goals, budget
            )
            assert cold_engine.stats.store_hits == 0
            assert cold_engine.stats.store_writes > 0
            assert cold_engine.stats.solver_runs > 0

            # a fresh engine AND a fresh store handle: everything the warm
            # run knows came through the on-disk entries
            warm_engine, warm_store, warm = run_with_store(
                translation, tmp_path / name, goals, budget
            )
            assert warm_engine.stats.store_hits == warm_engine.stats.planned, name
            assert warm_engine.stats.solver_runs == 0
            assert warm_engine.stats.store_misses == 0
            assert warm_engine.stats.replay_failures == 0
            assert_identical_results(cold, warm)

    def test_store_hits_transfer_across_identical_functions(
        self, tmp_path, small_app_batch
    ):
        # the fingerprint hashes system *content*, never the function name:
        # g's queries are answered by the entries f's run persisted
        f_translation = translate(GUARDED)
        g_translation = translate(GUARDED.replace("void f", "void g"), "g")

        run_with_store(f_translation, tmp_path / "q", all_block_goals(f_translation))
        warm_engine, _, _ = run_with_store(
            g_translation, tmp_path / "q", all_block_goals(g_translation)
        )
        assert warm_engine.stats.store_hits == warm_engine.stats.planned
        assert warm_engine.stats.solver_runs == 0

        # the same on a renamed clone of the small synthetic application
        batch = small_app_batch
        name = batch.app.function_name
        source = batch.app.source.replace(f"void {name}", f"void {name}_clone", 1)
        clone = build_optimized_model(
            parse_and_analyze(source),
            f"{name}_clone",
            OptimizationConfig.cfg_preserving(),
        )
        for model in (batch.model, clone):
            warm_engine, _, _ = run_with_store(
                model.translation,
                tmp_path / "small",
                list(enumerate(batch.goals(model))),
                batch.budget,
            )
        assert warm_engine.stats.store_hits == warm_engine.stats.planned == 24
        assert warm_engine.stats.solver_runs == 0

    def test_disabled_cache_disables_the_store(self, tmp_path):
        translation = translate(GUARDED)
        goals = all_block_goals(translation)
        engine = QueryEngine(translation)
        store = QueryStore(ResultCache.disabled())
        with using_query_store(store):
            for _, goal in goals:
                engine.check(goal)
        assert engine.stats.store_hits == 0
        assert engine.stats.store_writes == 0


# ---------------------------------------------------------------------- #
# poisoned entries
# ---------------------------------------------------------------------- #
class TestPoisonedEntries:
    def test_unreplayable_witness_is_rejected_not_served(self, tmp_path):
        translation = translate(GUARDED)
        goals = all_block_goals(translation)
        _, _, cold = run_with_store(translation, tmp_path / "q", goals)

        # poison one REACHABLE entry: re-label a trace step so no current
        # transition matches its signature, and re-checksum so the forgery
        # is structurally perfect -- only the replay can catch it
        poisoned = 0
        for path in query_entry_files(tmp_path / "q"):
            payload = json.loads(path.read_text())
            entry = payload["entry"]
            witness = entry.get("witness")
            if not witness or not witness["trace"] or poisoned:
                continue
            witness["trace"][0]["labels"] = ["no-such-label"]
            payload["entry"] = pack_entry(
                entry["slice_fingerprint"],
                entry["goal_fingerprint"],
                Verdict.REACHABLE,
                witness,
            )
            assert structural_error(payload["entry"]) is None
            path.write_text(json.dumps(payload))
            poisoned += 1
        assert poisoned == 1

        warm_engine, warm_store, warm = run_with_store(
            translation, tmp_path / "q", goals
        )
        # the verdict is recomputed, never taken from the forged entry
        assert_identical_results(cold, warm)
        assert warm_engine.stats.replay_failures == 1
        assert warm_engine.stats.store_hits == warm_engine.stats.planned - 1
        assert warm_store.replay_failures[0]["reason"] == "witness replay failed"
        corrupt = [
            path
            for path in (tmp_path / "q" / "corrupt").glob("*.json")
            if not path.name.endswith(".diag.json")
        ]
        assert len(corrupt) == 1

    def test_flipped_verdict_cannot_fool_the_loader(self, tmp_path):
        translation = translate(GUARDED_DEAD)
        goals = all_block_goals(translation)
        _, _, cold = run_with_store(translation, tmp_path / "q", goals)
        unreachable = {
            key for key, result in cold.items()
            if result.verdict is Verdict.UNREACHABLE
        }
        assert unreachable, "workload must include an infeasible goal"

        # forge every UNREACHABLE proof into a REACHABLE claim backed by a
        # structurally valid but empty witness
        flipped = 0
        for path in query_entry_files(tmp_path / "q"):
            payload = json.loads(path.read_text())
            entry = payload["entry"]
            if entry["verdict"] != Verdict.UNREACHABLE.value:
                continue
            payload["entry"] = pack_entry(
                entry["slice_fingerprint"],
                entry["goal_fingerprint"],
                Verdict.REACHABLE,
                {"initial_state": {}, "trace": []},
            )
            path.write_text(json.dumps(payload))
            flipped += 1
        assert flipped > 0

        warm_engine, _, warm = run_with_store(translation, tmp_path / "q", goals)
        for key in unreachable:
            assert warm[key].verdict is Verdict.UNREACHABLE
        assert warm_engine.stats.replay_failures >= flipped

    def test_bitrot_is_caught_structurally(self, tmp_path):
        translation = translate(GUARDED)
        goals = all_block_goals(translation)
        _, _, cold = run_with_store(translation, tmp_path / "q", goals)

        # flip a byte without fixing the checksum
        path = query_entry_files(tmp_path / "q")[0]
        payload = json.loads(path.read_text())
        payload["entry"]["slice_fingerprint"] = "0" * 16
        path.write_text(json.dumps(payload))

        warm_engine, _, warm = run_with_store(translation, tmp_path / "q", goals)
        assert_identical_results(cold, warm)
        assert warm_engine.stats.replay_failures == 1


# ---------------------------------------------------------------------- #
# cache-verify sweep over the query namespace
# ---------------------------------------------------------------------- #
class TestVerifySweep:
    def test_verify_checks_and_quarantines_query_entries(self, tmp_path):
        translation = translate(GUARDED)
        run_with_store(translation, tmp_path / "q", all_block_goals(translation))
        cache = ResultCache(tmp_path / "q")

        report = cache.verify()
        assert report["query_checked"] > 0
        assert report["query_ok"] == report["query_checked"]
        assert report["query_quarantined"] == 0

        # corrupt one entry (stale checksum) and sweep again
        path = query_entry_files(tmp_path / "q")[0]
        payload = json.loads(path.read_text())
        payload["entry"]["verdict"] = "tampered"
        path.write_text(json.dumps(payload))
        report = cache.verify()
        assert report["query_quarantined"] == 1
        assert any("query entry invalid" in note for note in report["entries"])
        assert not path.exists()
        assert list((tmp_path / "q" / "corrupt").glob("*.json"))


# ---------------------------------------------------------------------- #
# scheduler integration (cross-run / cross-process population)
# ---------------------------------------------------------------------- #
QUICK_HYBRID = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)


def quick_config(**overrides) -> AnalyzerConfig:
    # static analysis is off here on purpose: the prefilter proves every
    # residual MC query on this tiny workload unreachable without the
    # solver, leaving nothing for the query store to persist -- and these
    # tests exist to exercise the store
    options = dict(
        path_bound=2,
        hybrid=QUICK_HYBRID,
        extra_random_vectors=5,
        exhaustive_limit=None,
        static_analysis=False,
    )
    options.update(overrides)
    return AnalyzerConfig(**options)


@pytest.fixture(scope="module")
def small_project():
    workload = generate_multi_function_workload(seed=2005, functions=3, units=2)
    return Project.from_sources(workload.sources)


class TestSchedulerIntegration:
    def test_warm_project_run_is_solver_free(self, small_project, tmp_path):
        query_cache = ResultCache(tmp_path / "query")
        # run 1 populates the store through pool workers (serial fallback
        # in sandboxed environments still populates it in-process)
        ProjectScheduler(
            small_project,
            config=quick_config(),
            cache=ResultCache(tmp_path / "cache-a"),
            workers=2,
            query_cache=query_cache,
        ).run()
        assert query_entry_files(tmp_path / "query")

        # run 2 misses the *function* cache (fresh directory) but shares
        # the query store: every reachability query must come from disk
        registry = obs.Registry()
        with obs.using_registry(registry):
            cold_equivalent = ProjectScheduler(
                small_project,
                config=quick_config(),
                cache=ResultCache(tmp_path / "cache-b"),
                query_cache=ResultCache(tmp_path / "query"),
            ).run()
        assert cold_equivalent.failures == []
        assert registry.counter("mc.query.solver_runs") == 0
        assert registry.counter("mc.query.store_hits") > 0
        assert registry.counter("mc.query.replay_failures") == 0

    def test_scheduler_shares_result_cache_by_default(
        self, small_project, tmp_path
    ):
        cache = ResultCache(tmp_path / "shared")
        ProjectScheduler(
            small_project, config=quick_config(), cache=cache
        ).run()
        assert query_entry_files(tmp_path / "shared")

    @pytest.mark.chaos
    def test_query_read_faults_degrade_to_misses(self, small_project, tmp_path):
        clean = ProjectScheduler(
            small_project,
            config=quick_config(),
            cache=ResultCache(tmp_path / "clean"),
        ).run()
        # every cache read fails -- function probes and query loads alike;
        # the run must complete with identical bounds, charging misses
        cache = ResultCache(tmp_path / "faulty")
        report = ProjectScheduler(
            small_project,
            config=quick_config(),
            cache=cache,
            fault_plan=FaultPlan.from_args(["cache.read:raise@1+"]),
        ).run()
        assert report.failures == []
        # reads failed beyond the per-function probes: the query namespace
        # was exercised under the same fault site
        assert cache.read_failures > len(report.functions)
        bounds = {
            (s.unit, s.function): s.wcet_bound_cycles for s in report.functions
        }
        for summary in clean.functions:
            assert bounds[(summary.unit, summary.function)] == (
                summary.wcet_bound_cycles
            )

    @pytest.mark.chaos
    def test_query_write_faults_never_fail_the_run(self, small_project, tmp_path):
        cache = ResultCache(tmp_path / "wf")
        report = ProjectScheduler(
            small_project,
            config=quick_config(),
            cache=cache,
            fault_plan=FaultPlan.from_args(["cache.write:raise@1+"]),
        ).run()
        assert report.failures == []
        # both kinds of writes were attempted and absorbed
        assert report.cache_write_failures > len(report.functions)
        assert query_entry_files(tmp_path / "wf") == []
