"""Command-line interface of the WCET analysis tool.

The sub-commands cover the paper's workflow and the repo's batch, service
and tracing tooling:

``repro-wcet partition FILE --function F --bounds 1,2,3``
    print the instrumentation-point / measurement trade-off table (Table 1
    style) for a mini-C source file.

``repro-wcet analyze FILE --function F --bound B``
    run the complete measurement-based WCET analysis and print the report.
    ``--mc-budget-steps`` / ``--mc-deadline-ms`` bound every model-checking
    query (exhausted queries are pessimised instead of hanging);
    ``--no-slicing`` disables per-goal cone-of-influence slicing.  The same
    flags apply to ``project``.

``repro-wcet case-study``
    regenerate the paper's wiper-control case study end to end.

``repro-wcet project FILE... --jobs N``
    batch-analyse every function of one or many source files through the
    project orchestration layer: interprocedural call-graph scheduling
    (callees before callers, callee bounds charged at call sites),
    process-pool parallelism and a persistent result cache keyed by
    transitive fingerprints.  ``--demo`` runs the synthetic multi-function
    workload, ``--demo-calls`` the call-chain/diamond workload;
    ``--call-graph`` prints the resolved call graph with waves and
    diagnostics.

``repro-wcet project ... --trace out.json``
    additionally record every request/wave/job/analysis-stage span of the
    run and export them as Chrome trace-event JSON (Perfetto-loadable;
    a ``.jsonl`` path exports JSONL instead).

``repro-wcet trace FILE``
    summarise a recorded trace (span counts and per-name durations) or
    convert between the two export formats (``--chrome`` / ``--jsonl``).

``repro-wcet serve --cache-dir DIR --jobs N``
    run the long-running analysis service: an HTTP/JSON daemon that keeps
    one result cache warm across submissions, deduplicates identical
    in-flight work by transitive fingerprint and serves content-addressed
    reports with ETag conditional gets (see README "Running as a service").

``repro-wcet submit FILE... --server URL``
    submit source files to a running service and print the job status;
    ``--watch`` polls to completion and prints the report JSON,
    ``--session NAME`` enables incremental re-analysis across edits.

``repro-wcet lint FILE...``
    run the sound static analysis (``repro.sa``) over every function of the
    given units and print its program diagnostics (uninitialised reads,
    unreachable code, division by zero, signed overflow, constant branches;
    codes SA001..SA005).  ``--json`` emits machine-readable findings; the
    exit status is non-zero iff any ``error``-severity diagnostic was found.
    ``analyze`` and ``project`` run the same pass as a model-checking
    prefilter and loop-bound source; ``--no-sa`` turns it off.

``repro-wcet cache-verify``
    sweep the persistent result cache, moving corrupt entries into its
    ``corrupt/`` quarantine directory and reporting what was found
    (``--json`` for machine-readable output including live cache stats).

``analyze`` and ``project`` additionally take ``--inject-fault SITE:SPEC``
(repeatable) and ``--fault-seed`` for deterministic chaos testing;
``project`` adds ``--job-timeout``, ``--retry-attempts`` and
``--pool-restarts`` to control the resilient scheduler.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cfg.builder import build_cfg
from .minic import parse_and_analyze
from .partition.partitioner import measurement_effort_table
from .pipeline.analyzer import AnalyzerConfig, WcetAnalyzer
from .workloads.wiper import WIPER_FUNCTION_NAME, wiper_case_study


def _load(path: str):
    source = Path(path).read_text(encoding="utf-8")
    return parse_and_analyze(source, filename=path)


def _cmd_partition(args: argparse.Namespace) -> int:
    analyzed = _load(args.file)
    function = analyzed.program.function(args.function)
    cfg = build_cfg(function)
    bounds = [int(b) for b in args.bounds.split(",")]
    rows = measurement_effort_table(function, bounds, cfg)
    print(f"function {args.function!r}: {len(cfg.real_blocks())} basic blocks")
    print(f"{'bound b':>8} {'instr. points ip':>18} {'measurements m':>16} {'segments':>9}")
    for row in rows:
        print(
            f"{row['bound']:>8} {row['instrumentation_points']:>18} "
            f"{row['measurements']:>16} {row['segments']:>9}"
        )
    return 0


def _apply_mc_flags(config: AnalyzerConfig, args: argparse.Namespace) -> None:
    """Plumb the --mc-* flags into the model-checking QueryBudget."""
    import dataclasses

    mc = config.hybrid.model_checking
    budget = mc.budget
    if args.mc_budget_steps is not None:
        budget = dataclasses.replace(budget, max_steps=args.mc_budget_steps)
    if args.mc_deadline_ms is not None:
        budget = dataclasses.replace(budget, deadline_ms=args.mc_deadline_ms)
    mc.budget = budget
    if args.no_slicing:
        mc.slicing = False


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-fault", action="append", dest="inject_faults",
        metavar="SITE:SPEC", default=None,
        help="inject a deterministic fault, e.g. cache.write:raise@1, "
        "mc.solve:raise, job.execute:rate=0.1, interp.step:delay=5@100 "
        "(repeatable; sites: cache.read, cache.write, pool.submit, "
        "job.execute, mc.solve, interp.step, service.request)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for rate=... fault decisions and retry backoff jitter",
    )


def _fault_plan(args: argparse.Namespace):
    from .resilience import FaultPlan

    return FaultPlan.from_args(args.inject_faults or [], seed=args.fault_seed)


def _add_mc_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mc-budget-steps", type=int, default=None, metavar="N",
        help="explored-state budget per model-checking query (default 200000)",
    )
    parser.add_argument(
        "--mc-deadline-ms", type=int, default=None, metavar="MS",
        help="wall-clock deadline per model-checking query (default 120000)",
    )
    parser.add_argument(
        "--no-slicing", action="store_true",
        help="disable per-goal cone-of-influence slicing of the model",
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .resilience import FaultInjector, ResilienceContext, activate

    analyzed = _load(args.file)
    config = AnalyzerConfig(path_bound=args.bound, partitioner=args.partitioner)
    if args.no_exhaustive:
        config.exhaustive_limit = None
    if args.no_sa:
        config.static_analysis = False
    _apply_mc_flags(config, args)
    plan = _fault_plan(args)
    if plan.is_empty:
        report = WcetAnalyzer(analyzed, args.function, config).analyze()
    else:
        # single-function analysis runs in-process: only the in-pipeline
        # sites (mc.solve, interp.step) can fire here
        with activate(ResilienceContext(injector=FaultInjector(plan))):
            report = WcetAnalyzer(analyzed, args.function, config).analyze()
    print(report.to_text())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .sa import diagnose, analyze_feasibility, render_diagnostics

    worst = {"error": 2, "warning": 1, "info": 0}
    exit_code = 0
    total = 0
    findings = []
    for path in args.files:
        analyzed = _load(path)
        unit = Path(path).stem
        for function in analyzed.program.functions:
            if args.functions and function.name not in args.functions:
                continue
            cfg = build_cfg(function)
            table = analyzed.table(function.name)
            feasibility = analyze_feasibility(cfg, table)
            diagnostics = diagnose(cfg, table, feasibility)
            total += len(diagnostics)
            if any(d.severity == "error" for d in diagnostics):
                exit_code = 1
            if args.json_output:
                findings.extend(
                    {"unit": unit, **d.to_dict()} for d in diagnostics
                )
            elif diagnostics:
                for line in render_diagnostics(diagnostics).splitlines():
                    print(f"{unit}:{line}")
    if args.json_output:
        findings.sort(
            key=lambda d: (
                d["unit"],
                d["function"],
                d["line"] or 0,
                -worst.get(d["severity"], 0),
                d["code"],
            )
        )
        print(json.dumps({"diagnostics": findings}, indent=2))
    elif total == 0:
        print("no diagnostics")
    return exit_code


def _cmd_case_study(args: argparse.Namespace) -> int:
    code = wiper_case_study()
    config = AnalyzerConfig(path_bound=args.bound)
    report = WcetAnalyzer(code.analyzed, WIPER_FUNCTION_NAME, config).analyze()
    print(report.to_text())
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from .project import Project, ProjectScheduler, ResultCache

    if args.demo or args.demo_calls:
        if args.demo and args.demo_calls:
            print(
                "error: --demo and --demo-calls are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        if args.files:
            print(
                "error: --demo/--demo-calls and source files are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        if args.demo_calls:
            from .workloads.multi import generate_call_chain_workload

            workload = generate_call_chain_workload(seed=args.demo_seed)
        else:
            from .workloads.multi import generate_multi_function_workload

            workload = generate_multi_function_workload(
                seed=args.demo_seed, functions=args.demo_functions
            )
        project = Project.from_sources(workload.sources)
    elif args.files:
        project = Project.from_paths(args.files)
    else:
        print("error: no source files given (or use --demo)", file=sys.stderr)
        return 2

    config = AnalyzerConfig(path_bound=args.bound, partitioner=args.partitioner)
    if args.no_exhaustive:
        config.exhaustive_limit = None
    if args.no_sa:
        config.static_analysis = False
    _apply_mc_flags(config, args)
    cache = (
        ResultCache.disabled()
        if args.no_cache
        else ResultCache(args.cache_dir)
    )
    if args.no_query_cache:
        query_cache = ResultCache.disabled()
    elif args.query_cache_dir is not None:
        query_cache = ResultCache(args.query_cache_dir)
    else:
        # share the result cache directory (the scheduler default)
        query_cache = None
    from .resilience import RetryPolicy

    plan = _fault_plan(args)
    scheduler = ProjectScheduler(
        project,
        config=config,
        cache=cache,
        workers=args.jobs,
        only=args.functions,
        unknown_call_cycles=args.unknown_call_cycles,
        fault_plan=plan,
        retry_policy=RetryPolicy(
            max_attempts=args.retry_attempts, seed=args.fault_seed
        ),
        job_timeout_seconds=args.job_timeout,
        pool_restart_budget=args.pool_restarts,
        query_cache=query_cache,
    )
    if args.trace_output:
        from . import obs

        # an unbounded tracer: the export must hold the complete span tree
        tracer = obs.Tracer()
        with obs.using_tracer(tracer):
            report = scheduler.run()
        if args.trace_output.endswith(".jsonl"):
            count = tracer.write_jsonl(args.trace_output)
        else:
            count = tracer.write_chrome(args.trace_output)
        print(
            f"trace written to {args.trace_output} "
            f"({count} span(s), trace {report.trace_id}; "
            "load in Perfetto / chrome://tracing or summarise with "
            "'repro-wcet trace')"
        )
    else:
        report = scheduler.run()
    if args.call_graph:
        print(scheduler.callgraph.to_text())
    print(report.to_text())
    if args.json_output:
        report.write_json(args.json_output)
        print(f"JSON report written to {args.json_output}")
    return 1 if report.failures else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from . import obs

    events = obs.read_trace_file(args.file)
    if args.chrome_output:
        obs.write_chrome(args.chrome_output, events)
        print(f"Chrome trace written to {args.chrome_output}")
    if args.jsonl_output:
        obs.write_jsonl(args.jsonl_output, events)
        print(f"JSONL trace written to {args.jsonl_output}")
    summary = obs.summarize(events)
    if args.json_output:
        print(json.dumps(summary, indent=2))
        return 0
    print(
        f"{summary['spans']} span(s) in {len(summary['traces'])} trace(s); "
        f"{summary['roots']} root(s), {summary['orphans']} orphan(s)"
    )
    for trace_id, count in summary["traces"].items():
        print(f"  trace {trace_id}: {count} span(s)")
    print(f"  {'span name':<24} {'spans':>6} {'total ms':>10} {'max ms':>10}")
    for name, stat in summary["by_name"].items():
        print(
            f"  {name:<24} {stat['spans']:>6} "
            f"{stat['total_us'] / 1000.0:>10.2f} "
            f"{stat['max_us'] / 1000.0:>10.2f}"
        )
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    import json

    from .project import ResultCache

    cache = ResultCache(args.cache_dir)
    report = cache.verify()
    if args.json_output:
        payload = dict(report)
        payload["stats"] = cache.stats()
        print(json.dumps(payload, indent=2))
        return 0 if not report["quarantined"] else 1
    print(f"cache directory : {args.cache_dir}")
    print(f"entries checked : {report['checked']}")
    print(f"entries ok      : {report['ok']}")
    print(f"quarantined     : {report['quarantined']}")
    print(f"schema mismatch : {report['schema_mismatch']}")
    print(
        f"query entries   : {report['query_checked']} checked, "
        f"{report['query_ok']} ok, {report['query_quarantined']} quarantined"
    )
    for note in report["entries"]:
        print(f"  ! {note}")
    return 0 if not report["quarantined"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .project import ResultCache
    from .resilience import RetryPolicy
    from .service import AnalysisServer

    config = AnalyzerConfig(path_bound=args.bound, partitioner=args.partitioner)
    if args.no_exhaustive:
        config.exhaustive_limit = None
    _apply_mc_flags(config, args)
    cache = (
        ResultCache.disabled()
        if args.no_cache
        else ResultCache(args.cache_dir)
    )
    server = AnalysisServer(
        host=args.host,
        port=args.port,
        config=config,
        cache=cache,
        workers=args.jobs,
        fault_plan=_fault_plan(args),
        retry_policy=RetryPolicy(
            max_attempts=args.retry_attempts, seed=args.fault_seed
        ),
        job_timeout_seconds=args.job_timeout,
        pool_restart_budget=args.pool_restarts,
        request_timeout_seconds=args.request_timeout,
        verbose=args.verbose,
    )
    cache_note = "disabled" if args.no_cache else args.cache_dir
    print(
        f"repro-wcet service listening on {server.base_url} "
        f"(cache: {cache_note}, jobs: {args.jobs})"
    )
    print("endpoints: POST /v1/analyze  GET /v1/jobs/<id>  "
          "GET /v1/results/<fp>  GET /v1/healthz  GET /v1/stats  "
          "GET /v1/metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        server.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceClient, ServiceClientError

    units = {
        Path(path).stem: Path(path).read_text(encoding="utf-8")
        for path in args.files
    }
    config: dict[str, object] = {}
    if args.bound is not None:
        config["path_bound"] = args.bound
    if args.partitioner is not None:
        config["partitioner"] = args.partitioner
    if args.no_exhaustive:
        config["no_exhaustive"] = True
    client = ServiceClient(args.server)
    try:
        status = client.analyze(
            units, config=config or None, session=args.session
        )
        if args.watch and status.get("state") not in ("done", "failed"):
            status = client.wait_for(status["job_id"], timeout=args.timeout)
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"job        : {status['job_id']} ({status['state']})")
    print(f"fingerprint: {status['fingerprint']}")
    incremental = status.get("incremental")
    if incremental:
        frontier = incremental.get("frontier") or []
        reused = incremental.get("reused") or []
        print(
            f"incremental: {len(frontier)} function(s) re-analysed, "
            f"{len(reused)} reused"
        )
    if status.get("state") == "failed":
        print(f"error      : {status.get('error')}", file=sys.stderr)
        return 1
    if args.watch and status.get("state") == "done":
        code, _, body = client.result(status["fingerprint"])
        if code == 200:
            print(body, end="")
    elif status.get("state") not in ("done", "failed"):
        print(
            f"poll   : GET {args.server}/v1/jobs/{status['job_id']}\n"
            f"result : GET {args.server}/v1/results/{status['fingerprint']}"
        )
    else:
        print(json.dumps(status, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wcet",
        description="Measurement-based WCET analysis by CFG partitioning and model checking",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    partition = subparsers.add_parser("partition", help="print the ip/m trade-off table")
    partition.add_argument("file", help="mini-C source file")
    partition.add_argument("--function", required=True, help="function to analyse")
    partition.add_argument(
        "--bounds", default="1,2,3,4,5,6,7", help="comma-separated path bounds"
    )
    partition.set_defaults(handler=_cmd_partition)

    analyze = subparsers.add_parser("analyze", help="run the full WCET analysis")
    analyze.add_argument("file", help="mini-C source file")
    analyze.add_argument("--function", required=True, help="function to analyse")
    analyze.add_argument("--bound", type=int, default=4, help="path bound b")
    analyze.add_argument(
        "--partitioner", choices=("paper", "general"), default="paper",
        help="partitioning algorithm",
    )
    analyze.add_argument(
        "--no-exhaustive", action="store_true",
        help="skip the exhaustive end-to-end comparison",
    )
    analyze.add_argument(
        "--no-sa", action="store_true",
        help="skip the sound static pre-analysis (query prefilter, "
        "loop-bound inference, diagnostics)",
    )
    _add_mc_arguments(analyze)
    _add_fault_arguments(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    case_study = subparsers.add_parser(
        "case-study", help="run the wiper-control case study of the paper"
    )
    case_study.add_argument("--bound", type=int, default=2, help="path bound b")
    case_study.set_defaults(handler=_cmd_case_study)

    lint = subparsers.add_parser(
        "lint",
        help="run the static program diagnostics (SA001..SA005) over units",
    )
    lint.add_argument("files", nargs="+", help="mini-C source files")
    lint.add_argument(
        "--function", action="append", dest="functions", metavar="NAME",
        help="restrict linting to this function (repeatable)",
    )
    lint.add_argument(
        "--json", dest="json_output", action="store_true",
        help="print the diagnostics as JSON instead of text",
    )
    lint.set_defaults(handler=_cmd_lint)

    project = subparsers.add_parser(
        "project",
        help="batch-analyse every function of a project (parallel, cached)",
    )
    project.add_argument("files", nargs="*", help="mini-C source files")
    project.add_argument(
        "--demo", action="store_true",
        help="analyse the synthetic multi-function workload instead of files",
    )
    project.add_argument(
        "--demo-calls", action="store_true",
        help="analyse the synthetic call-chain workload (3-deep chain, "
        "diamond, cross-unit calls) instead of files",
    )
    project.add_argument(
        "--demo-functions", type=int, default=4,
        help="number of generated functions with --demo (default 4)",
    )
    project.add_argument(
        "--demo-seed", type=int, default=2005, help="workload generator seed"
    )
    project.add_argument(
        "--call-graph", action="store_true",
        help="also print the resolved call graph (waves, cycles, diagnostics)",
    )
    project.add_argument(
        "--unknown-call-cycles", type=int, default=None, metavar="CYCLES",
        help="pessimistic charge for unsummarisable project calls "
        "(recursion cycles); default: repro.callgraph default",
    )
    project.add_argument(
        "--function", action="append", dest="functions", metavar="NAME",
        help="restrict the analysis to this function (repeatable)",
    )
    project.add_argument("--bound", type=int, default=4, help="path bound b")
    project.add_argument(
        "--partitioner", choices=("paper", "general"), default="paper",
        help="partitioning algorithm",
    )
    project.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool workers (1 = serial, default)",
    )
    project.add_argument(
        "--cache-dir", default=".repro-wcet-cache",
        help="persistent result-cache directory (default: .repro-wcet-cache)",
    )
    project.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    project.add_argument(
        "--query-cache", dest="query_cache_dir", metavar="DIR", default=None,
        help="directory of the persistent model-checking query store "
        "(per-goal verdicts + replay-validated witnesses); default: share "
        "the result cache directory",
    )
    project.add_argument(
        "--no-query-cache", action="store_true",
        help="disable the persistent query store (solver runs are never "
        "answered from disk)",
    )
    project.add_argument(
        "--no-exhaustive", action="store_true",
        help="skip the exhaustive end-to-end comparison",
    )
    project.add_argument(
        "--no-sa", action="store_true",
        help="skip the sound static pre-analysis (query prefilter, "
        "loop-bound inference, diagnostics); bounds are identical either "
        "way, only more solver queries run",
    )
    project.add_argument(
        "--json", dest="json_output", metavar="PATH",
        help="also write the project report as JSON to PATH",
    )
    project.add_argument(
        "--trace", dest="trace_output", metavar="PATH",
        help="record every analysis stage as trace spans and export them to "
        "PATH: Chrome trace-event JSON (Perfetto-loadable), or JSONL when "
        "PATH ends in .jsonl",
    )
    project.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock timeout per function job; overrunning jobs are "
        "quarantined behind a static pessimised (still sound) bound",
    )
    project.add_argument(
        "--retry-attempts", type=int, default=3, metavar="N",
        help="attempts per job before a transiently failing job is "
        "quarantined (default 3)",
    )
    project.add_argument(
        "--pool-restarts", type=int, default=2, metavar="N",
        help="times a died process pool is re-created before falling back "
        "to serial execution (default 2)",
    )
    _add_mc_arguments(project)
    _add_fault_arguments(project)
    project.set_defaults(handler=_cmd_project)

    cache_verify = subparsers.add_parser(
        "cache-verify",
        help="sweep the result cache, quarantining corrupt entries",
    )
    cache_verify.add_argument(
        "--cache-dir", default=".repro-wcet-cache",
        help="persistent result-cache directory (default: .repro-wcet-cache)",
    )
    cache_verify.add_argument(
        "--json", dest="json_output", action="store_true",
        help="print the verification report (plus cache stats) as JSON",
    )
    cache_verify.set_defaults(handler=_cmd_cache_verify)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-running analysis service (HTTP/JSON daemon)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8537,
        help="TCP port (default 8537; 0 = ephemeral)",
    )
    serve.add_argument(
        "--cache-dir", default=".repro-wcet-cache",
        help="shared warm result-cache directory (default: .repro-wcet-cache)",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool workers per analysis run (1 = serial, default)",
    )
    serve.add_argument("--bound", type=int, default=4, help="default path bound b")
    serve.add_argument(
        "--partitioner", choices=("paper", "general"), default="paper",
        help="default partitioning algorithm",
    )
    serve.add_argument(
        "--no-exhaustive", action="store_true",
        help="skip the exhaustive end-to-end comparison by default",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="upper bound on blocking waits within one request (default 30)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock timeout per function job (quarantined if exceeded)",
    )
    serve.add_argument(
        "--retry-attempts", type=int, default=3, metavar="N",
        help="attempts per job before quarantine (default 3)",
    )
    serve.add_argument(
        "--pool-restarts", type=int, default=2, metavar="N",
        help="pool re-creations before serial fallback (default 2)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    _add_mc_arguments(serve)
    _add_fault_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit source files to a running analysis service",
    )
    submit.add_argument("files", nargs="+", help="mini-C source files")
    submit.add_argument(
        "--server", default="http://127.0.0.1:8537", metavar="URL",
        help="service base URL (default http://127.0.0.1:8537)",
    )
    submit.add_argument(
        "--session", default=None, metavar="NAME",
        help="incremental session name: repeat submissions re-analyse only "
        "the functions whose transitive fingerprint changed",
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="poll the job to completion and print the report JSON",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="give up watching after this long (default 600)",
    )
    submit.add_argument("--bound", type=int, default=None, help="path bound b")
    submit.add_argument(
        "--partitioner", choices=("paper", "general"), default=None,
        help="partitioning algorithm override",
    )
    submit.add_argument(
        "--no-exhaustive", action="store_true",
        help="skip the exhaustive end-to-end comparison",
    )
    submit.set_defaults(handler=_cmd_submit)

    trace = subparsers.add_parser(
        "trace",
        help="summarise or convert a trace file written by project --trace",
    )
    trace.add_argument(
        "file", help="trace file (Chrome trace-event JSON or JSONL)"
    )
    trace.add_argument(
        "--chrome", dest="chrome_output", metavar="PATH",
        help="re-export as Chrome trace-event JSON to PATH",
    )
    trace.add_argument(
        "--jsonl", dest="jsonl_output", metavar="PATH",
        help="re-export as JSONL to PATH",
    )
    trace.add_argument(
        "--json", dest="json_output", action="store_true",
        help="print the summary as JSON instead of text",
    )
    trace.set_defaults(handler=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as error:  # pragma: no cover - CLI convenience
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
