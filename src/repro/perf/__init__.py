"""Performance instrumentation: counters and timers.

:mod:`repro.perf.instrument` provides the registry the hot paths record
into; the service's ``/v1/metrics`` exposition reads it.
"""

from __future__ import annotations

from .instrument import (
    HISTOGRAM_BOUNDS,
    PerfRegistry,
    TimerStat,
    active_registry,
    add,
    global_registry,
    record_time,
    report,
    reset,
    timed,
    using_registry,
)

__all__ = [
    "HISTOGRAM_BOUNDS",
    "PerfRegistry",
    "TimerStat",
    "active_registry",
    "add",
    "global_registry",
    "record_time",
    "report",
    "reset",
    "timed",
    "using_registry",
]
