"""repro.obs -- the one instrumentation path of the analysis pipeline.

Instrumented code calls two things: ``obs.stage(name, **attrs)`` around a
timed region and ``obs.count(name, n)`` for a counter.  Everything else
reads what those two record:

- :mod:`repro.obs.registry` -- the counters and stage timers (with fixed
  histogram buckets) of the ambient :class:`Registry`; pool workers and
  service jobs record into their own registry and merge or report it;
- :mod:`repro.obs.trace` -- :func:`stage` itself, which under an active
  :class:`Tracer` is also a structured span with ``trace_id``/``span_id``/
  parent links, propagated from a service HTTP request through the job
  queue, scheduler waves and process-pool workers down to analyzer stages,
  model-checking queries and cache I/O; exportable as JSONL and Chrome
  trace-event JSON (``repro-wcet project --trace`` / ``repro-wcet trace``);
- :mod:`repro.obs.metrics` -- Prometheus text exposition of a registry
  report (histogram timers included), served by ``GET /v1/metrics``;
- :mod:`repro.obs.flight` -- the crash flight recorder: a bounded ring of
  recent spans dumped to ``diagnostics/`` when a job is quarantined, a
  fault fires or the server answers 5xx.

Every stage and counter name is listed in ``obs/NAMES.md``.  Tracing is off
unless a :class:`Tracer` is activated.
"""

from __future__ import annotations

from .flight import (
    DEFAULT_MAX_DUMPS,
    DIAGNOSTICS_DIR,
    FLIGHT_SCHEMA,
    FlightRecorder,
)
from .metrics import PROMETHEUS_CONTENT_TYPE, metric_name, prometheus_text
from .registry import (
    HISTOGRAM_BOUNDS,
    Registry,
    TimerStat,
    active_registry,
    count,
    report,
    reset,
    using_registry,
)
from .trace import (
    DEFAULT_RING_EVENTS,
    TRACE_SCHEMA,
    SpanContext,
    Tracer,
    active_tracer,
    chrome_trace,
    current_context,
    read_trace_file,
    stage,
    summarize,
    using_tracer,
    write_chrome,
    write_jsonl,
)

__all__ = [
    "DEFAULT_MAX_DUMPS",
    "DEFAULT_RING_EVENTS",
    "DIAGNOSTICS_DIR",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "HISTOGRAM_BOUNDS",
    "PROMETHEUS_CONTENT_TYPE",
    "Registry",
    "SpanContext",
    "TRACE_SCHEMA",
    "TimerStat",
    "Tracer",
    "active_registry",
    "active_tracer",
    "chrome_trace",
    "count",
    "current_context",
    "metric_name",
    "prometheus_text",
    "read_trace_file",
    "report",
    "reset",
    "stage",
    "summarize",
    "using_registry",
    "using_tracer",
    "write_chrome",
    "write_jsonl",
]
