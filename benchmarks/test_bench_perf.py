"""Perf trajectory benchmark: pipeline hot paths on the synthetic apps.

Unlike the figure/table benchmarks (which reproduce paper numbers), this one
tracks the repo's own engineering: it times live-variable analysis, reaching
definitions and the interval analysis with the seed reference versus the
optimised engines (cross-checked for identical results), plus the
partitioning and model-checking stages.  The test writes its report and
summary to a temporary directory, so running the suite leaves the tracked
``BENCH_perf.json`` (the whole-pipeline perf trajectory, regenerated by
``repro-wcet bench`` or ``benchmarks/run_perf.py``) and
``benchmarks/results/perf.txt`` untouched.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.bench import format_summary, run_perf_bench

from conftest import write_result

#: acceptance floor: the optimised fixpoint must beat the seed by this factor
MIN_COMBINED_SPEEDUP = 3.0


@pytest.mark.perf
def test_bench_perf_dataflow_speedup(benchmark, industrial_app, tmp_path: Path):
    bench_output = tmp_path / "BENCH_perf.json"
    report = benchmark.pedantic(
        run_perf_bench,
        kwargs={"app": industrial_app, "repeats": 3, "output": bench_output},
        rounds=1,
        iterations=1,
    )

    # the optimisations must not change a single analysis fact
    assert report["results_match"], "optimised engines diverged from the seed reference"
    assert report["speedup"]["combined"] >= MIN_COMBINED_SPEEDUP, (
        f"liveness+reaching speedup {report['speedup']['combined']:.1f}x "
        f"below the {MIN_COMBINED_SPEEDUP}x floor"
    )
    # the interval analysis rides the same cached-RPO machinery: it must not
    # be slower than the seed-era iteration order
    assert report["speedup"]["ranges"] >= 1.0

    # the whole-pipeline trajectory: partitioning and model checking recorded
    timings = report["timings_seconds"]
    for key in (
        "ranges_reference",
        "partition_paper",
        "partition_general",
        "modelcheck_build_industrial",
        "modelcheck_build_small",
        "modelcheck_queries_small",
    ):
        assert timings[key] >= 0.0, key
    pipeline = report["pipeline"]
    assert pipeline["partition_segments_paper"] > 0
    assert pipeline["modelcheck_queries"] > 0
    assert sum(pipeline["modelcheck_verdicts"].values()) == pipeline["modelcheck_queries"]

    # the query-engine section: the sliced batch must answer the same goals
    # with identical verdicts measurably faster, and the budgeted deep batch
    # on the industrial function must leave no query unbounded
    mcquery = report["mcquery"]
    assert mcquery["small_verdicts_match"], (
        "sliced and unsliced query batches diverged: "
        f"{mcquery['small_verdicts_sliced']} != {mcquery['small_verdicts_unsliced']}"
    )
    assert timings["mcquery_small_sliced"] < timings["mcquery_small_unsliced"], (
        "slicing did not speed up the small-app query batch "
        f"({timings['mcquery_small_sliced']:.4f}s vs "
        f"{timings['mcquery_small_unsliced']:.4f}s)"
    )
    assert sum(mcquery["deep_verdicts"].values()) == mcquery["deep_queries"]
    assert set(mcquery["deep_verdicts"]) <= {
        "reachable",
        "unreachable",
        "budget-exhausted",
    }, "a deep query returned an unbudgeted verdict"
    deadline_s = mcquery["deep_budget"]["deadline_ms"] / 1000.0
    assert mcquery["deep_worst_query_seconds"] <= deadline_s * 2.0, (
        "a deep query overran its budget deadline: "
        f"{mcquery['deep_worst_query_seconds']:.3f}s"
    )
    assert mcquery["deep_unsliced_probe_verdict"] in (
        "reachable",
        "unreachable",
        "budget-exhausted",
    )

    # the query-store section: the warm industrial batch must answer every
    # query from disk -- zero solver runs, full hit rate, bit-identical
    # verdicts and witness payloads -- and the renamed clone must hit the
    # original's entries (fingerprints ignore function names)
    querystore = report["querystore"]
    assert querystore["warm_zero_solver_runs"], (
        "warm run re-ran the solver: "
        f"{querystore['warm_stats']['solver_runs']} solver runs, "
        f"{querystore['warm_stats']['store_hits']} store hits of "
        f"{querystore['warm_stats']['planned']} planned"
    )
    assert querystore["warm_identical"], (
        "warm store-served results diverged from the cold run"
    )
    assert querystore["cross_run_hit_rate"] == 1.0
    assert querystore["cross_function_hit_rate"] == 1.0, (
        "renamed clone missed the store: "
        f"hit rate {querystore['cross_function_hit_rate']:.2f}"
    )
    assert querystore["warm_stats"]["replay_failures"] == 0
    for key in (
        "querystore_cold_deep",
        "querystore_warm_deep",
        "querystore_cross_function",
    ):
        assert timings[key] >= 0.0, key

    # the static-analysis section: the prefiltered cold batch must answer
    # some goals without the solver, with bit-identical verdicts, and the
    # end-to-end pipeline must produce bit-identical bounds with sa on
    # (the overhead percentage is reported, not gated)
    sa = report["sa"]
    assert sa["static_prunes"] > 0
    assert sa["solver_runs_on"] < sa["solver_runs_off"]
    assert sa["verdicts_identical"]
    assert sa["pipeline_bounds_identical"]
    for key in (
        "sa_prefilter_analysis",
        "sa_deep_prefilter_off",
        "sa_deep_prefilter_on",
        "sa_pipeline_off",
        "sa_pipeline_on",
    ):
        assert timings[key] >= 0.0, key

    # the call-graph scheduling section: multiple waves, summaries reused,
    # and a warm cache pass that hits for every function
    callgraph = report["callgraph"]
    assert callgraph["waves"] > 1
    assert callgraph["summary_reuse_calls"] > 0
    assert callgraph["cache_warm_misses"] == 0
    assert callgraph["cache_warm_hits"] == callgraph["functions"]
    for key in (
        "callgraph_flat",
        "callgraph_interprocedural",
        "callgraph_cache_cold",
        "callgraph_cache_warm",
    ):
        assert timings[key] >= 0.0, key

    # the service section: the daemon's warm hits are content-addressed
    # lookups, an incremental session re-analyses only the frontier, and
    # the served payloads match a cold run of the edited sources exactly
    service = report["service"]
    assert service["incremental_identical"], (
        "served incremental result diverged from a cold run of the same sources"
    )
    assert service["incremental_frontier"] == [
        "unit_0.c:diamond_left",
        "unit_0.c:task_0",
    ]
    assert len(service["incremental_reused"]) == 7
    assert service["jobs"]["completed"] == 2
    assert service["jobs"]["deduplicated"] >= 1
    assert service["requests_per_second"] > 0
    for key in (
        "service_cold_run",
        "service_incremental_run",
        "service_warm_submit",
        "service_result_fetch",
        "service_result_304",
    ):
        assert timings[key] >= 0.0, key

    # the report written to disk matches the one returned
    on_disk = json.loads(bench_output.read_text(encoding="utf-8"))
    assert on_disk["speedup"]["combined"] == report["speedup"]["combined"]
    assert on_disk["workload"]["basic_blocks"] == industrial_app.basic_blocks
    assert on_disk["pipeline"] == pipeline
    assert on_disk["mcquery"] == mcquery
    assert on_disk["querystore"] == querystore
    assert on_disk["service"] == service

    lines = [
        "Perf trajectory: pipeline hot paths on the synthetic applications",
        *format_summary(report).splitlines(),
        "",
        f"fixpoint iterations: liveness {report['iterations']['liveness_bitset']}, "
        f"reaching {report['iterations']['reaching_bitset']}",
        f"full report: {bench_output.name}",
    ]
    write_result(tmp_path, "perf.txt", lines)
