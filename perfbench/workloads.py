"""The four benchmark workloads and the checks of their outputs.

Every workload is a closed loop with one client.  A workload builds its
inputs in :meth:`Workload.prepare`, lists the requests of one pass in a
seeded order (:meth:`Workload.requests`), answers one request in
:meth:`Workload.run` (the timed part) and checks the answers afterwards,
outside the timed loop, in :meth:`Workload.verify`.  ``run`` returns one
row per item: a function bounded, an edit answered or a target decided.

The work in one pass is the same for every seed: the seed orders the
requests (for service_edit, the rotation over the functions) and draws
the random vectors the checks use.  Deriving the functions themselves from the seed
made the cost of one pass differ by 2x between seeds (see CHANGES.md),
which no regression bound can absorb.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import math
import multiprocessing
import random
import re
import shutil
import time
from pathlib import Path

from repro import obs
from repro.cfg.builder import build_cfg
from repro.hw.board import EvaluationBoard
from repro.mc.query import QueryBudget
from repro.minic import parse_and_analyze
from repro.partition.partitioner import PaperPartitioner
from repro.pipeline.analyzer import AnalyzerConfig, WcetAnalyzer
from repro.project import Project, ResultCache, analyze_project
from repro.sa import run_static_analysis
from repro.service.client import ServiceClient
from repro.service.server import AnalysisServer
from repro.testgen.inputs import InputSpace
from repro.testgen.modelcheck_gen import (
    ModelCheckGeneratorOptions,
    ModelCheckingTestDataGenerator,
    TargetStatus,
)
from repro.testgen.targets import build_targets
from repro.wcet.end_to_end import enumerate_input_space, exhaustive_end_to_end
from repro.workloads import generate_call_chain_workload
from repro.workloads.targetlink import (
    generate_small_application,
    generate_synthetic_application,
)

#: generate_small_application seeds of the single_cold catalog (seed 7 is
#: the 104-block app named in ROADMAP defect 1c)
CATALOG_SEEDS = (7, 8, 9)
#: generate_call_chain_workload seed of project_cold and service_edit
PROJECT_SEED = 2005
#: generate_synthetic_application seed of mc_industrial (the paper-scale app)
INDUSTRIAL_SEED = 2005
#: mc_industrial: every STRIDE-th segment-path target, dealt into BATCHES
MC_STRIDE = 6
MC_BATCHES = 3
#: step and solver-call limits, no wall-clock deadline: verdicts do not
#: depend on machine speed
MC_BUDGET = {"max_steps": 20_000, "max_solver_calls": 400, "deadline_ms": None}
#: random vectors of the sampled reference WCET (single_cold, whose
#: input spaces are far beyond the exhaustive limit)
REFERENCE_SAMPLE = 2000
#: random vectors replayed against INFEASIBLE verdicts (mc_industrial)
INFEASIBLE_SAMPLE = 500
#: the analyzer's exhaustive limit: the reference is exhaustive below it
EXHAUSTIVE_LIMIT = AnalyzerConfig().exhaustive_limit


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 1.0


def fail(row: dict, reason: str) -> None:
    row["ok"] = False
    row.setdefault("failures", []).append(reason)


def segment_path(segment, executed: list[int]) -> tuple[int, ...]:
    """First traversal of *segment* in a run's block sequence.

    The same extraction the coverage tracker uses, re-stated here so the
    check does not lean on the code it checks.
    """
    inside: list[int] = []
    for block_id in executed:
        if not inside:
            if block_id == segment.entry_block:
                inside.append(block_id)
        elif block_id in segment.block_ids:
            inside.append(block_id)
        else:
            break
    return tuple(inside)


def link_units(sources: dict[str, str]) -> str:
    """One program from all units, for end-to-end references.

    The units declare the same sensor inputs; a later unit's pragma and
    plain declaration lines already present in an earlier unit are
    dropped, as a linker merges the tentative definitions.
    """
    seen: set[str] = set()
    lines: list[str] = []
    for name in sorted(sources):
        for line in sources[name].splitlines():
            stripped = line.strip()
            shared = stripped.startswith("#pragma") or re.fullmatch(r"\w+ \w+;", stripped)
            if shared and stripped in seen:
                continue
            seen.add(stripped)
            lines.append(line)
    return "\n".join(lines) + "\n"


def exhaustive_references(sources: dict[str, str], functions: list[str]) -> dict[str, int]:
    """End-to-end WCET of every function over its whole input space."""
    linked = parse_and_analyze(link_units(sources), filename="linked.c")
    board = EvaluationBoard(linked)
    references = {}
    for function in functions:
        space = InputSpace.from_program(linked, function)
        references[function] = exhaustive_end_to_end(
            board, function, space.ranges(), limit=EXHAUSTIVE_LIMIT
        ).max_cycles
    return references


@contextlib.contextmanager
def captured_reports():
    """Collect every WcetReport analysed in this process (checks only)."""
    original = WcetAnalyzer.analyze
    reports: dict[str, object] = {}

    def analyze(self):
        report = original(self)
        reports[report.function_name] = report
        return report

    WcetAnalyzer.analyze = analyze
    try:
        yield reports
    finally:
        WcetAnalyzer.analyze = original


def direct_cold_project(sources: dict[str, str]) -> dict[str, dict]:
    """A serial, cacheless analyze_project of *sources*, per function.

    Module-level so process-pool workers can run it.
    """
    with captured_reports() as reports:
        report = analyze_project(Project.from_sources(sources), workers=1)
    return {
        summary.function: {
            "bound": summary.wcet_bound_cycles,
            "segments_charged": len(reports[summary.function].bound.contributions)
            - len(unreachable_segments(reports[summary.function])),
            "pessimised": reports[summary.function].bound.pessimised_segments,
        }
        for summary in report.functions
    }


def cold_with_references(sources: dict[str, str]) -> tuple[dict[str, dict], dict[str, int]]:
    """:func:`direct_cold_project` plus the exhaustive references of *sources*."""
    functions = sorted(f.name for f in Project.from_sources(sources).functions())
    return direct_cold_project(sources), exhaustive_references(sources, functions)


def unreachable_segments(report) -> list[int]:
    """Segments the bound charges nothing because their paths are infeasible."""
    return sorted(
        sid
        for sid, contribution in report.bound.contributions.items()
        if not contribution.pessimised and report.database.max_cycles(sid) is None
    )


def summary_decided(summary: dict) -> tuple[int, int]:
    """(targets decided, targets) of one function summary payload.

    The sum of per-source target counts can exceed the target count: the
    hybrid generator can report one target both covered (by the genetic
    search) and infeasible (by model checking).  Callers cap the decided
    count and record the excess as ``double_reported``.
    """
    stats = summary["generator_statistics"]
    decided = (
        stats.get("random_targets", 0)
        + stats.get("genetic_targets", 0)
        + stats.get("model_checking_targets", 0)
        + summary["infeasible_paths"]
    )
    return decided, summary["measurements_required"]


class Workload:
    """Common shape of a workload; see the module docstring."""

    #: quality metrics a workload cannot measure report this neutral value
    NOT_APPLICABLE = 1.0
    #: passes the timed loop runs at least (without --trace)
    min_passes = 1
    #: requests of the first pass answered untimed before the timed loop
    warmup = 0
    #: nominal seconds of one pass on a 2-core Xeon VM with Python 3.11;
    #: a run makes round(--seconds / pass_seconds) passes
    pass_seconds = 1.0

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.small = small
        self.workdir = workdir

    def prepare(self) -> tuple[float, float]:
        """Build the inputs; return (generation seconds, pre-warm seconds)."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def requests(self, pass_index: int) -> list:
        raise NotImplementedError

    def run(self, request, recorder=None) -> list[dict]:
        raise NotImplementedError

    def verify(self, rows: list[dict]) -> None:
        raise NotImplementedError

    def quality(self, rows: list[dict]) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _order(self, count: int, pass_index: int) -> list[int]:
        order = list(range(count))
        random.Random(f"{self.seed}/order/{pass_index}").shuffle(order)
        return order


def same_across_iterations(rows: list[dict], key: str, value: str) -> None:
    """Fail every row whose *value* differs from the first row with its *key*."""
    first: dict = {}
    for row in rows:
        expected = first.setdefault(row[key], row[value])
        if row[value] != expected:
            fail(row, f"{value} {row[value]} differs from an earlier iteration ({expected})")


# ---------------------------------------------------------------------- #
class SingleCold(Workload):
    """Small TargetLink-style functions, each analysed cold."""

    pass_seconds = 13.0

    def prepare(self):
        started = time.perf_counter()
        if self.small:
            self.apps = [generate_small_application(seed=7, target_blocks=40)]
        else:
            self.apps = [generate_small_application(seed=s) for s in CATALOG_SEEDS]
        return time.perf_counter() - started, 0.0

    def sizes(self):
        functions = []
        for app in self.apps:
            function = app.analyzed.program.function(app.function_name)
            partition = PaperPartitioner(4).partition(function, app.cfg)
            space = InputSpace.from_program(app.analyzed, app.function_name)
            functions.append(
                {
                    "generator_seed": app.seed,
                    "blocks": app.basic_blocks,
                    "branches": app.conditional_branches,
                    "inputs": len(space.names),
                    "input_space": space.size(),
                    "targets": len(build_targets(partition, app.cfg)),
                }
            )
        return {"functions": len(self.apps), "per_function": functions}

    def requests(self, pass_index):
        return self._order(len(self.apps), pass_index)

    def run(self, request, recorder=None):
        app = self.apps[request]
        report = WcetAnalyzer(app.analyzed, app.function_name).analyze()
        unreachable = unreachable_segments(report)
        decided, targets = summary_decided(
            {
                "generator_statistics": report.generator_statistics,
                "infeasible_paths": report.infeasible_paths,
                "measurements_required": report.partition.measurements,
            }
        )
        return [
            {
                "item": f"small_app_seed{app.seed}",
                "app": request,
                "bound": report.wcet_bound_cycles,
                "pessimised": report.bound.pessimised_segments,
                "unreachable": unreachable,
                "segments_charged": len(report.bound.contributions) - len(unreachable),
                "targets_decided": min(decided, targets),
                "double_reported": max(decided - targets, 0),
                "targets": targets,
            }
        ]

    def reference(self, index: int) -> tuple[int, list[set[int]]]:
        """Reference WCET on a fresh board, plus the blocks of every run.

        Exhaustive when the input space is within the analyzer's
        exhaustive limit, else the maximum over a seeded random sample.
        """
        app = self.apps[index]
        space = InputSpace.from_program(app.analyzed, app.function_name)
        if space.size() <= EXHAUSTIVE_LIMIT:
            vectors = enumerate_input_space(space.ranges(), limit=EXHAUSTIVE_LIMIT)
        else:
            rng = random.Random(f"{self.seed}/reference/{app.seed}")
            count = 200 if self.small else REFERENCE_SAMPLE
            vectors = [space.random_vector(rng) for _ in range(count)]
        board = EvaluationBoard(app.analyzed)
        worst, executed = 0, []
        for vector in vectors:
            run = board.run(app.function_name, vector)
            worst = max(worst, run.total_cycles)
            executed.append(set(run.executed_blocks))
        return worst, executed

    def verify(self, rows, references=None):
        references = references or {}
        for row in rows:
            row.setdefault("ok", True)
            if row["app"] not in references:
                references[row["app"]] = self.reference(row["app"])
            worst, executed = references[row["app"]]
            row["reference"] = worst
            if row["bound"] < worst:
                fail(row, f"bound {row['bound']} < reference WCET {worst}")
            app = self.apps[row["app"]]
            function = app.analyzed.program.function(app.function_name)
            partition = PaperPartitioner(4).partition(function, app.cfg)
            entries = {s.segment_id: s.entry_block for s in partition.segments}
            for sid in row["unreachable"]:
                if any(entries[sid] in blocks for blocks in executed):
                    fail(row, f"segment {sid} reported infeasible but a sampled run entered it")
        same_across_iterations(rows, "item", "bound")

    def quality(self, rows):
        charged = sum(r["segments_charged"] for r in rows)
        pessimised = sum(len(r["pessimised"]) for r in rows)
        return {
            "pessimised_segments": pessimised,
            "bound_tightness": geometric_mean([r["bound"] / r["reference"] for r in rows]),
            "measured_segment_ratio": (charged - pessimised) / charged,
            "decided_ratio": sum(r["targets_decided"] for r in rows)
            / sum(r["targets"] for r in rows),
        }


# ---------------------------------------------------------------------- #
class ProjectCold(Workload):
    """The call-chain project, cold, on a two-process pool."""

    workers = 2
    pass_seconds = 1.6
    # the first run in a process is about a tenth slower than the rest
    warmup = 1

    def prepare(self):
        started = time.perf_counter()
        units = 1 if self.small else 2
        self.sources = generate_call_chain_workload(seed=PROJECT_SEED, units=units).sources
        self.runs = 0
        return time.perf_counter() - started, 0.0

    def sizes(self):
        project = Project.from_sources(self.sources)
        per_function = []
        for function in project.functions():
            analyzed = project.unit(function.unit).analyzed
            definition = analyzed.program.function(function.name)
            cfg = build_cfg(definition)
            partition = PaperPartitioner(4).partition(definition, cfg)
            space = InputSpace.from_program(analyzed, function.name)
            summary = cfg.summary()
            per_function.append(
                {
                    "function": function.name,
                    "blocks": summary["blocks"],
                    "branches": summary["conditional_branches"],
                    "inputs": len(space.names),
                    "input_space": space.size(),
                    "targets": len(build_targets(partition, cfg)),
                }
            )
        return {"functions": len(per_function), "units": len(self.sources), "per_function": per_function}

    def requests(self, pass_index):
        return [pass_index]

    def _analyze(self, recorder):
        directory = self.workdir / f"cache-{self.runs}"
        self.runs += 1
        tracer = obs.Tracer() if recorder is not None else None
        offset = time.time() - time.perf_counter()
        try:
            with obs.using_tracer(tracer):
                report = analyze_project(
                    Project.from_sources(self.sources),
                    cache=ResultCache(directory),
                    workers=self.workers,
                )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if recorder is not None:
            from layers import worker_spans

            recorder.counters["project.workers"] = self.workers
            worker_spans(tracer.events(), recorder, offset)
        return report

    def run(self, request, recorder=None):
        report = self._analyze(recorder)
        return [
            {
                "item": summary.function,
                "bound": summary.wcet_bound_cycles,
                "analyzer_safe": summary.safe,
                "summary": {
                    "generator_statistics": summary.generator_statistics,
                    "infeasible_paths": summary.infeasible_paths,
                    "measurements_required": summary.measurements_required,
                },
            }
            for summary in report.functions
        ]

    def verify(self, rows):
        references = exhaustive_references(self.sources, sorted({r["item"] for r in rows}))
        serial = direct_cold_project(self.sources)
        for row in rows:
            row.setdefault("ok", True)
            row["reference"] = references[row["item"]]
            row["serial"] = serial[row["item"]]
            if row["bound"] < row["reference"]:
                fail(row, f"bound {row['bound']} < exhaustive WCET {row['reference']}")
            if not row["analyzer_safe"]:
                fail(row, "analyzer reports its bound unsafe")
            if row["bound"] != row["serial"]["bound"]:
                fail(row, f"workers=2 bound {row['bound']} != workers=1 bound {row['serial']['bound']}")
        same_across_iterations(rows, "item", "bound")

    def quality(self, rows):
        decided = [summary_decided(r["summary"]) for r in rows]
        charged = sum(r["serial"]["segments_charged"] for r in rows)
        pessimised = sum(len(r["serial"]["pessimised"]) for r in rows)
        return {
            "pessimised_segments": pessimised,
            "bound_tightness": geometric_mean([r["bound"] / r["reference"] for r in rows]),
            "measured_segment_ratio": (charged - pessimised) / charged,
            "decided_ratio": sum(min(d, t) for d, t in decided) / sum(t for _, t in decided),
        }


# ---------------------------------------------------------------------- #
class ServiceEdit(Workload):
    """Session edits against an in-process analysis server with a warm cache."""

    session = "bench"
    # the edits' latencies are spread over 50x; two copies of each keep
    # the median from jumping between neighbouring functions
    min_passes = 2
    pass_seconds = 6.4
    warmup = 1

    def prepare(self):
        started = time.perf_counter()
        units = 1 if self.small else 2
        self.sources = generate_call_chain_workload(seed=PROJECT_SEED, units=units).sources
        self.functions = sorted(f.name for f in Project.from_sources(self.sources).functions())
        self.edits = 0
        self.cache_dir = self.workdir / f"service-cache-{id(self)}"
        self.server = AnalysisServer(cache=ResultCache(self.cache_dir), workers=1)
        self.server.start()
        self.client = ServiceClient(self.server.base_url, timeout=120.0)
        generation = time.perf_counter() - started
        started = time.perf_counter()
        self._submit(self.sources)
        return generation, time.perf_counter() - started

    def close(self):
        self.server.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def sizes(self):
        return {"functions": len(self.functions), "units": len(self.sources)}

    def requests(self, pass_index):
        # one seeded rotation over the functions, repeated every pass
        return [self.functions[i] for i in self._order(len(self.functions), 0)]

    def _submit(self, sources):
        status = self.client.analyze(sources, session=self.session, wait=120.0)
        if status["state"] not in ("done", "failed"):
            status = self.client.wait_for(status["job_id"], timeout=120.0)
        if status["state"] != "done":
            raise RuntimeError(f"service job failed: {status.get('error')}")
        code, etag, body = self.client.result(status["fingerprint"])
        if code != 200:
            raise RuntimeError(f"result fetch answered {code}")
        return status, etag, body

    def run(self, request, recorder=None):
        self.edits += 1
        # new to this session's server and cache, and small enough that
        # the Int16 output never wraps
        constant = self.edits
        pattern = re.compile(rf"out_{request} = acc( \+ \d+)?;")
        self.sources = {
            unit: pattern.sub(f"out_{request} = acc + {constant};", source)
            for unit, source in self.sources.items()
        }
        status, etag, body = self._submit(self.sources)
        job = self.server.queue.get(status["job_id"])
        functions = json.loads(body)["functions"]
        frontier = status.get("incremental", {}).get("frontier", [])
        return [
            {
                "item": f"edit_{self.edits}:{request}",
                "function": request,
                "constant": constant,
                "frontier": frontier,
                "frontier_size": len(frontier),
                "queue_wait_s": job.started_at - job.created_at,
                "fingerprint": status["fingerprint"],
                "etag": etag,
                "_sources": dict(self.sources),
                "bounds": {f["function"]: f["wcet_bound_cycles"] for f in functions},
                "_summaries": {f["function"]: f for f in functions},
            }
        ]

    def verify(self, rows):
        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(2, mp_context=context) as pool:
            checked = list(pool.map(cold_with_references, [r["_sources"] for r in rows]))
        for row, (cold, references) in zip(rows, checked):
            row.setdefault("ok", True)
            row["references"] = references
            row["direct"] = cold
            code, _, _ = self.client.result(row["fingerprint"], etag=row["etag"])
            if code != 304:
                fail(row, f"conditional result fetch answered {code}, not 304")
            if not any(q.endswith(f":{row['function']}") for q in row["frontier"]):
                fail(row, f"edited function {row['function']} missing from the frontier")
            for function, bound in sorted(row["bounds"].items()):
                if bound != cold[function]["bound"]:
                    fail(row, f"{function}: served bound {bound} != cold bound {cold[function]['bound']}")
                if bound < row["references"][function]:
                    fail(row, f"{function}: bound {bound} < exhaustive WCET {row['references'][function]}")

    def quality(self, rows):
        ratios, decided, targets, charged, pessimised = [], 0, 0, 0, 0
        for row in rows:
            for function, bound in row["bounds"].items():
                ratios.append(bound / row["references"][function])
                d, t = summary_decided(row["_summaries"][function])
                decided, targets = decided + min(d, t), targets + t
                charged += row["direct"][function]["segments_charged"]
                pessimised += len(row["direct"][function]["pessimised"])
        return {
            "pessimised_segments": pessimised,
            "bound_tightness": geometric_mean(ratios),
            "measured_segment_ratio": (charged - pessimised) / charged,
            "decided_ratio": decided / targets,
        }


# ---------------------------------------------------------------------- #
class McIndustrial(Workload):
    """Model-checking batches over the paper-scale function's path targets."""

    # one batch's latency swings by a fifth between repeats on a shared
    # machine and the three batches differ by half; three copies of each
    # batch steady the median
    min_passes = 3
    pass_seconds = 8.0

    def prepare(self):
        started = time.perf_counter()
        if self.small:
            self.app = generate_small_application(seed=7, target_blocks=40)
        else:
            self.app = generate_synthetic_application(seed=INDUSTRIAL_SEED)
        function = self.app.analyzed.program.function(self.app.function_name)
        self.partition = PaperPartitioner(4).partition(function, self.app.cfg)
        self.targets = build_targets(self.partition, self.app.cfg)
        stride, batches = (2, 2) if self.small else (MC_STRIDE, MC_BATCHES)
        population = self.targets[::stride]
        self.batches = [population[b::batches] for b in range(batches)]
        return time.perf_counter() - started, 0.0

    def sizes(self):
        space = InputSpace.from_program(self.app.analyzed, self.app.function_name)
        return {
            "blocks": self.app.basic_blocks,
            "branches": self.app.conditional_branches,
            "inputs": len(space.names),
            "input_space": space.size(),
            "segments": len(self.partition.segments),
            "targets": len(self.targets),
            "targets_sampled": sum(len(b) for b in self.batches),
            "batches": len(self.batches),
        }

    def requests(self, pass_index):
        return self._order(len(self.batches), pass_index)

    def run(self, request, recorder=None):
        app = self.app
        sa = run_static_analysis(app.cfg, app.analyzed.table(app.function_name))
        generator = ModelCheckingTestDataGenerator(
            app.analyzed,
            app.function_name,
            ModelCheckGeneratorOptions(budget=QueryBudget(**MC_BUDGET), prefilter=sa.prefilter),
        )
        outcomes = generator.generate_for_targets(self.batches[request])
        return [
            {
                "item": f"segment{o.target.segment_id}:" + "-".join(map(str, o.target.blocks)),
                "batch": request,
                "status": o.status.value,
                "vector": o.vector,
                "decided": o.status in (TargetStatus.COVERED, TargetStatus.INFEASIBLE),
            }
            for o in outcomes
        ]

    def verify(self, rows):
        app = self.app
        board = EvaluationBoard(app.analyzed)
        segments = {s.segment_id: s for s in self.partition.segments}
        targets = {
            f"segment{t.segment_id}:" + "-".join(map(str, t.blocks)): t for t in self.targets
        }
        space = InputSpace.from_program(app.analyzed, app.function_name)
        rng = random.Random(f"{self.seed}/infeasible")
        sample = [
            board.run(app.function_name, space.random_vector(rng)).executed_blocks
            for _ in range(50 if self.small else INFEASIBLE_SAMPLE)
        ]
        for row in rows:
            row.setdefault("ok", True)
            target = targets[row["item"]]
            segment = segments[target.segment_id]
            if row["status"] == TargetStatus.COVERED.value:
                executed = board.run(app.function_name, row["vector"]).executed_blocks
                if segment_path(segment, executed) != target.blocks:
                    fail(row, "REACHABLE witness does not execute its target path")
            elif row["status"] == TargetStatus.INFEASIBLE.value:
                if any(segment_path(segment, blocks) == target.blocks for blocks in sample):
                    fail(row, "INFEASIBLE target executed by a sampled run")
        same_across_iterations(rows, "item", "status")

    def quality(self, rows):
        return {
            "pessimised_segments": 0,
            "bound_tightness": self.NOT_APPLICABLE,
            "measured_segment_ratio": self.NOT_APPLICABLE,
            "decided_ratio": sum(1 for r in rows if r["decided"]) / len(rows),
        }


WORKLOADS = {
    "single_cold": SingleCold,
    "project_cold": ProjectCold,
    "service_edit": ServiceEdit,
    "mc_industrial": McIndustrial,
}
