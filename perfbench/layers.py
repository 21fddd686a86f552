"""Traced run: wrappers around the public entry points of every layer.

The untraced runs time unmodified code.  For the traced run,
:func:`install` replaces each entry point listed in :data:`FUNCTIONS` and
:data:`METHODS` with a wrapper that records one span (layer name, start,
end, parent) into a :class:`Recorder`, and returns an ``uninstall``
callable that puts every original object back.  Functions imported with
``from ... import`` are patched in every loaded module that holds them,
so the module that calls them sees the wrapper.

Spans are kept in memory on a per-thread stack.  A span opened on a
thread whose stack is empty (the service's worker thread, an HTTP handler
thread) takes the main thread's innermost open span as its parent, so
server-side work nests under the client call that waits for it.

Work inside process-pool workers is invisible to wrappers in this
process; :func:`worker_spans` maps the ``repro.obs`` spans the scheduler
already ships back from its workers onto the same layer names.

:func:`layer_metrics` turns the spans into per-layer calls, busy time and
self time (as shares of the traced wall time).  Self time is wall-clock
self time: at every instant the elapsed wall time is split equally among
the open spans that have no open child (on any thread or process), so the
self times of all layers plus ``unattributed`` add up to the traced wall
time even when two pool workers run at once.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import weakref

#: (module, attribute, layer) of every wrapped module-level function
FUNCTIONS = [
    ("repro.minic", "parse_and_analyze", "minic.parse"),
    ("repro.cfg.builder", "build_cfg", "cfg.build"),
    ("repro.sa", "run_static_analysis", "sa.run"),
    ("repro.testgen.targets", "build_targets", "testgen.targets"),
    ("repro.optim.pipeline", "build_optimized_model", "optim.build_model"),
    ("repro.wcet.end_to_end", "exhaustive_end_to_end", "wcet.exhaustive"),
]

#: (module, class, method, layer) of every wrapped method
METHODS = [
    ("repro.partition.partitioner", "PaperPartitioner", "partition", "partition"),
    ("repro.testgen.hybrid", "HybridTestDataGenerator", "generate", "testgen.generate"),
    ("repro.testgen.genetic", "GeneticTestDataGenerator", "search", "testgen.genetic.search"),
    (
        "repro.testgen.modelcheck_gen",
        "ModelCheckingTestDataGenerator",
        "generate_for_targets",
        "testgen.mc.generate_for_targets",
    ),
    ("repro.hw.board", "EvaluationBoard", "run", "hw.board_run"),
    ("repro.hw.board", "EvaluationBoard", "run_instrumented", "hw.board_run"),
    ("repro.measurement.runner", "MeasurementRunner", "run_vectors", "measurement.run_vectors"),
    ("repro.mc.query", "QueryEngine", "check", "mc.check"),
    ("repro.wcet.timing_schema", "TimingSchema", "compute", "wcet.schema"),
    ("repro.callgraph.graph", "CallGraph", "from_project", "callgraph.build"),
    ("repro.project.scheduler", "ProjectScheduler", "run", "project.run"),
    ("repro.project.cache", "ResultCache", "get", "project.cache.get"),
    ("repro.project.cache", "ResultCache", "put", "project.cache.put"),
    ("repro.project.cache", "ResultCache", "get_query", "project.cache.get_query"),
    ("repro.project.cache", "ResultCache", "put_query", "project.cache.put_query"),
    ("repro.service.client", "ServiceClient", "analyze", "service.request"),
    ("repro.service.client", "ServiceClient", "job", "service.request"),
    ("repro.service.client", "ServiceClient", "result", "service.request"),
]

#: every layer that reports calls, busy time and self time
LAYERS = sorted(
    {layer for *_, layer in FUNCTIONS}
    | {layer for *_, layer in METHODS}
    | {"project.job"}
)

#: board-run phases, by the nearest enclosing span that decides them
BOARD_PHASES = ("random", "genetic", "mc_replay", "measure", "exhaustive")

#: repro.obs span names recorded inside pool workers -> layer
WORKER_LAYERS = {
    "project.job": "project.job",
    "analyze.sa": "sa.run",
    "analyze.partition": "partition",
    "analyze.testgen": "testgen.generate",
    "analyze.measure": "measurement.run_vectors",
    "analyze.schema": "wcet.schema",
    "analyze.exhaustive": "wcet.exhaustive",
    "mc.plan": "testgen.mc.generate_for_targets",
    "mc.solve": "mc.check",
    # inside a worker the cache is only read and written by the query store
    "cache.read": "project.cache.get_query",
    "cache.write": "project.cache.put_query",
}

#: QueryEngineStats fields summed into ``mc.<field>``
MC_COUNTERS = (
    "planned",
    "solver_runs",
    "static_prunes",
    "witness_reuse",
    "store_hits",
    "budget_exhausted",
)


class Span:
    __slots__ = ("layer", "start", "end", "parent", "worker", "mc_done")

    def __init__(self, layer, start, parent, worker=False):
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        #: recorded by a pool worker (from its repro.obs span)
        self.worker = worker
        #: testgen.generate only: its model-checking batch has returned
        self.mc_done = False


class Recorder:
    """In-memory span store plus the counters the wrappers observe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._main_stack: list[Span] = self._stack()
        #: generator -> its engine counters at its previous batch
        self._mc_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def open(self, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(layer, time.perf_counter(), parent)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    # -- per-layer observations ---------------------------------------- #
    def board_phase(self, span: Span) -> str:
        node = span.parent
        while node is not None:
            if node.layer == "testgen.genetic.search":
                return "genetic"
            if node.layer == "measurement.run_vectors":
                return "measure"
            if node.layer == "wcet.exhaustive":
                return "exhaustive"
            if node.layer == "testgen.generate":
                return "mc_replay" if node.mc_done else "random"
            node = node.parent
        return "other"

    def observe(self, span: Span, owner, args, result) -> None:
        layer = span.layer
        if layer == "hw.board_run":
            phase = self.board_phase(span)
            self.add(f"hw.board_run.{phase}")
            if phase == "random":
                self.add("testgen.random.vectors")
            elif phase == "genetic":
                self.add("testgen.genetic.evaluations")
        elif layer == "testgen.genetic.search":
            self.add("testgen.genetic.covered", 1 if result.covered else 0)
        elif layer == "testgen.mc.generate_for_targets":
            # the batch's engine counters, as returned to the caller
            # (a generator may answer several batches: count the delta)
            stats = owner.query_diagnostics()
            seen = self._mc_seen.get(owner, {})
            for name in MC_COUNTERS:
                self.add(f"mc.{name}", stats.get(name, 0) - seen.get(name, 0))
            self._mc_seen[owner] = stats
            if span.parent is not None and span.parent.layer == "testgen.generate":
                span.parent.mc_done = True  # later board runs replay witnesses
        elif layer == "sa.run":
            self.add("sa.edges_pruned", result.edges_pruned)
        elif layer == "testgen.targets":
            self.add("testgen.targets.count", len(result))
        elif layer == "measurement.run_vectors":
            self.add("measurement.vectors", len(args[0]))
        elif layer == "optim.build_model":
            bits = result.state_bits
            self.counters["transsys.state_bits"] = max(
                self.counters.get("transsys.state_bits", 0), bits
            )
        elif layer == "wcet.exhaustive":
            self.add("wcet.exhaustive.vectors", result.runs)
        elif layer == "project.cache.get":
            self.add("project.cache.gets")
            self.add("project.cache.hits", 0 if result is None else 1)
        elif layer == "project.run":
            self.add("project.waves", owner.waves_executed)
            self.add(
                "project.jobs_executed",
                sum(1 for f in result.functions if not f.from_cache),
            )


def _wrap(recorder: Recorder, layer: str, original, method: bool):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.open(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if method:
            recorder.observe(span, args[0], args[1:], result)
        else:
            recorder.observe(span, None, args, result)
        return result

    return wrapper


def install(recorder: Recorder):
    """Wrap every entry point; return a callable restoring the originals."""
    import importlib

    saved: list[tuple[object, str, object]] = []
    for module_name, attr, layer in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(recorder, layer, original, method=False)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(attr) is original:
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
    for module_name, class_name, attr, layer in METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        raw = owner.__dict__[attr]
        saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            # CallGraph.from_project: wrap the function, keep it a classmethod
            wrapped = classmethod(_wrap(recorder, layer, raw.__func__, method=False))
        else:
            wrapped = _wrap(recorder, layer, raw, method=True)
        setattr(owner, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def worker_spans(events: list[dict], recorder: Recorder, clock_offset: float) -> None:
    """Add the pool workers' ``repro.obs`` spans to *recorder*.

    *events* are the tracer's span events; those from this process are
    skipped (the wrappers saw that work).  ``clock_offset`` converts the
    events' wall-clock start (``time.time``) to ``time.perf_counter``.
    Each kept span hangs under its nearest kept ``repro.obs`` ancestor, or
    else under the ``project.run`` span that encloses it in time.
    """
    pid = os.getpid()
    by_id = {event["span_id"]: event for event in events}
    runs = [span for span in recorder.spans if span.layer == "project.run"]
    made: dict[str, Span] = {}

    def convert(event) -> Span | None:
        if event["span_id"] in made:
            return made[event["span_id"]]
        if event.get("pid") == pid or event["name"] not in WORKER_LAYERS:
            return None
        start = event["ts_us"] / 1e6 - clock_offset
        parent = None
        ancestor = by_id.get(event.get("parent_id"))
        while ancestor is not None and parent is None:
            parent = convert(ancestor)
            ancestor = by_id.get(ancestor.get("parent_id"))
        if parent is None:
            enclosing = [r for r in runs if r.start <= start <= r.end]
            parent = enclosing[-1] if enclosing else None
        span = Span(WORKER_LAYERS[event["name"]], start, parent, worker=True)
        span.end = start + event["dur_us"] / 1e6
        made[event["span_id"]] = span
        return span

    for event in events:
        span = convert(event)  # each event once: made by recursion or here
        if span is None:
            continue
        recorder.spans.append(span)
        name = event["name"]
        if name == "mc.solve":
            recorder.add("mc.solver_runs")
        elif name == "mc.plan":
            recorder.add("mc.planned", (event.get("attrs") or {}).get("goals", 0))
        elif name == "project.job":
            recorder.add("project.job_seconds", event["dur_us"] / 1e6)


def self_times(spans: list[Span]) -> list[float]:
    """Wall-clock self time of every span (see the module docstring)."""
    index = {id(span): i for i, span in enumerate(spans)}
    parent = [index.get(id(span.parent)) for span in spans]
    depth = []
    for i in range(len(spans)):
        d, p = 0, parent[i]
        while p is not None:
            d, p = d + 1, parent[p]
        depth.append(d)
    events = []
    for i, span in enumerate(spans):
        events.append((span.start, 1, depth[i], i))
        events.append((span.end, 0, -depth[i], i))
    events.sort()
    self_time = [0.0] * len(spans)
    active = [False] * len(spans)
    open_children = [0] * len(spans)
    counted = [False] * len(spans)
    leaves: set[int] = set()
    previous = None
    for moment, kind, _, i in events:
        if leaves and previous is not None and moment > previous:
            share = (moment - previous) / len(leaves)
            for leaf in leaves:
                self_time[leaf] += share
        previous = moment
        p = parent[i]
        if kind == 1:
            active[i] = True
            leaves.add(i)
            if p is not None and active[p]:
                counted[i] = True
                open_children[p] += 1
                leaves.discard(p)
        else:
            active[i] = False
            leaves.discard(i)
            if counted[i]:
                open_children[p] -= 1
                if open_children[p] == 0 and active[p]:
                    leaves.add(p)
    return self_time


def layer_metrics(recorder: Recorder, wall: float) -> dict[str, float]:
    """Per-layer calls, busy share and self share plus derived counters.

    Busy and self time are reported as shares of the traced wall time
    (``trace.wall_s``): a layer a workload never enters then reads 0, not
    a time of 0 s on every run.  The self shares plus
    ``unattributed / trace.wall_s`` add up to 1.
    """
    spans = recorder.spans
    own = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    alone = dict.fromkeys(LAYERS, 0.0)
    metrics: dict[str, float] = {f"{layer}.calls": 0 for layer in LAYERS}
    for span, self_s in zip(spans, own):
        metrics[f"{span.layer}.calls"] += 1
        busy[span.layer] += span.end - span.start
        alone[span.layer] += self_s
    for layer in LAYERS:
        metrics[f"{layer}.share"] = busy[layer] / wall
        metrics[f"{layer}.self_share"] = alone[layer] / wall
    counters = recorder.counters
    get = lambda name: counters.get(name, 0)  # noqa: E731
    for phase in BOARD_PHASES:
        metrics[f"hw.board_run.{phase}"] = get(f"hw.board_run.{phase}")
    metrics["sa.edges_pruned"] = get("sa.edges_pruned")
    metrics["testgen.targets"] = get("testgen.targets.count")
    metrics["testgen.random.vectors"] = get("testgen.random.vectors")
    metrics["testgen.random.self_share"] = _random_phase_self(spans) / wall
    metrics["testgen.genetic.evaluations"] = get("testgen.genetic.evaluations")
    searches = metrics["testgen.genetic.search.calls"]
    metrics["testgen.genetic.covered_ratio"] = (
        get("testgen.genetic.covered") / searches if searches else 0.0
    )
    metrics["measurement.vectors"] = get("measurement.vectors")
    metrics["transsys.state_bits"] = get("transsys.state_bits")
    for name in MC_COUNTERS:
        metrics[f"mc.{name}"] = get(f"mc.{name}")
    metrics["mc.solver_runs_per_planned"] = (
        metrics["mc.solver_runs"] / metrics["mc.planned"]
        if metrics["mc.planned"]
        else 0.0
    )
    metrics["wcet.exhaustive.vectors"] = get("wcet.exhaustive.vectors")
    metrics["project.waves"] = get("project.waves")
    metrics["project.jobs_executed"] = get("project.jobs_executed")
    run_wall = busy["project.run"]
    workers = get("project.workers") or 1
    metrics["project.pool_efficiency"] = (
        get("project.job_seconds") / (run_wall * workers)
        if run_wall and get("project.job_seconds")
        else 0.0
    )
    gets = get("project.cache.gets")
    metrics["project.cache.hit_ratio"] = get("project.cache.hits") / gets if gets else 0.0
    metrics["service.queue_wait_share"] = get("service.queue_wait_s") / wall
    metrics["service.frontier_size"] = get("service.frontier_size")
    attributed = sum(own)
    metrics["trace.wall_s"] = wall
    metrics["unattributed"] = wall - attributed
    return metrics


def _random_phase_self(spans: list[Span]) -> float:
    """Random-phase time of ``testgen.generate`` minus its board runs.

    The hybrid generator runs random, genetic and model-checking phases in
    that order, so its random phase is the stretch before its first
    genetic search or model-checking batch starts.  Pool workers' spans
    are skipped: their phases and board runs are not visible.
    """
    spans = [span for span in spans if not span.worker]
    phase_end: dict[int, float] = {}
    for span in spans:
        parent = span.parent
        if parent is not None and parent.layer == "testgen.generate" and span.layer in (
            "testgen.genetic.search",
            "testgen.mc.generate_for_targets",
        ):
            key = id(parent)
            phase_end[key] = min(phase_end.get(key, span.start), span.start)
    total = 0.0
    for span in spans:
        if span.layer == "testgen.generate":
            total += phase_end.get(id(span), span.end) - span.start
    for span in spans:
        parent = span.parent
        if (
            span.layer == "hw.board_run"
            and parent is not None
            and parent.layer == "testgen.generate"
            and span.start < phase_end.get(id(parent), parent.end)
        ):
            total -= span.end - span.start
    return max(total, 0.0)


#: per-layer metrics that are not a count where less is better
_UNITS = {
    "trace.wall_s": ("s", "lower"),
    "unattributed": ("s", "lower"),
    "testgen.genetic.covered_ratio": ("ratio", "higher"),
    "mc.solver_runs_per_planned": ("ratio", "lower"),
    "project.pool_efficiency": ("ratio", "higher"),
    "project.cache.hit_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "transsys.state_bits": ("bits", "lower"),
    "sa.edges_pruned": ("count", "higher"),
    "mc.static_prunes": ("count", "higher"),
    "mc.witness_reuse": ("count", "higher"),
    "mc.store_hits": ("count", "higher"),
}


def per_layer_units(name: str) -> tuple[str, str]:
    """(unit, better) of one per-layer metric."""
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("share"):
        return ("ratio", "lower")
    return ("count", "lower")
