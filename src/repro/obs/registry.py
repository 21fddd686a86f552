"""Counters and stage timers: the numeric half of the instrumentation path.

Instrumented code records into a :class:`Registry` through two calls:
:func:`count` bumps a named counter, and :func:`repro.obs.stage` times a
named region (and, when a tracer is active, records the span of the same
name).  The registry is deliberately simple -- plain dicts behind a lock --
so that instrumenting a hot loop costs one dict update per *call*, not per
iteration: callers aggregate locally and record once.

The *ambient* registry is a :class:`contextvars.ContextVar` whose default is
the process-wide registry: single-process batch runs (the CLI, the
benchmarks) record there, while work whose numbers must stay separate --
one pool-worker job, one service job -- activates its own registry with
:func:`using_registry`.  ``ContextVar`` gives every thread (and every
:mod:`asyncio` task) its own activation slot.  A registry's report merges
into another one (:meth:`Registry.merge`), which is how pool workers hand
their counts back to the scheduler.
"""

from __future__ import annotations

import bisect
import contextvars
import threading
from contextlib import contextmanager
from typing import Any, Iterator

#: schema tag written into every JSON report; /2 added min/max and the
#: bounded histogram buckets to every timer
REPORT_SCHEMA = "repro-perf/2"

#: upper bounds (seconds) of the fixed latency-histogram buckets; one
#: implicit +Inf bucket follows the last bound.  Log-scaled from sub-ms
#: cache lookups to multi-second scheduler runs -- fixed bounds keep every
#: timer's histogram mergeable and the Prometheus exposition label-stable.
HISTOGRAM_BOUNDS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class TimerStat:
    """Accumulated wall-clock time of one named stage."""

    __slots__ = ("calls", "total_seconds", "min_seconds", "max_seconds", "buckets")

    def __init__(self) -> None:
        self.calls = 0
        self.total_seconds = 0.0
        self.min_seconds = 0.0
        self.max_seconds = 0.0
        #: per-bucket call counts; ``buckets[i]`` counts calls with
        #: ``seconds <= HISTOGRAM_BOUNDS[i]`` (last slot = +Inf overflow)
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def record(self, seconds: float) -> None:
        if self.calls == 0:
            self.min_seconds = seconds
            self.max_seconds = seconds
        else:
            if seconds < self.min_seconds:
                self.min_seconds = seconds
            if seconds > self.max_seconds:
                self.max_seconds = seconds
        self.calls += 1
        self.total_seconds += seconds
        self.buckets[bisect.bisect_left(HISTOGRAM_BOUNDS, seconds)] += 1

    def merge(self, stat: dict[str, Any]) -> None:
        """Fold one timer of another registry's report into this one."""
        calls = int(stat["calls"])
        if not calls:
            return
        if self.calls == 0:
            self.min_seconds = stat["min_seconds"]
            self.max_seconds = stat["max_seconds"]
        else:
            self.min_seconds = min(self.min_seconds, stat["min_seconds"])
            self.max_seconds = max(self.max_seconds, stat["max_seconds"])
        self.calls += calls
        self.total_seconds += stat["total_seconds"]
        for index, count in enumerate(stat["histogram"]["counts"]):
            self.buckets[index] += count

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
            "histogram": {
                "bounds": list(HISTOGRAM_BOUNDS),
                "counts": list(self.buckets),
            },
        }


class Registry:
    """Named monotonic counters and stage timers (thread-safe)."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._timers: dict[str, TimerStat] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter *name* by *amount*."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def record_time(self, name: str, seconds: float) -> None:
        """Record one timed call of *seconds* under *name*."""
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.record(seconds)

    def merge(self, report: dict[str, Any]) -> None:
        """Fold another registry's :meth:`report` into this registry."""
        with self._lock:
            for name, amount in report["counters"].items():
                self._counters[name] = self._counters.get(name, 0) + amount
            for name, stat in report["timers"].items():
                mine = self._timers.get(name)
                if mine is None:
                    mine = self._timers[name] = TimerStat()
                mine.merge(stat)

    # ------------------------------------------------------------------ #
    # inspection and reporting
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def timer(self, name: str) -> TimerStat | None:
        with self._lock:
            return self._timers.get(name)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()

    def report(self) -> dict[str, Any]:
        """Snapshot of all counters and timers as plain JSON-friendly data."""
        with self._lock:
            return {
                "schema": REPORT_SCHEMA,
                "counters": dict(sorted(self._counters.items())),
                "timers": {
                    name: stat.as_dict()
                    for name, stat in sorted(self._timers.items())
                },
            }


#: process-wide default registry
_GLOBAL_REGISTRY = Registry()

#: the ambient registry :func:`count` and stages record into
_ACTIVE_REGISTRY: contextvars.ContextVar[Registry] = contextvars.ContextVar(
    "repro_obs_registry", default=_GLOBAL_REGISTRY
)


def active_registry() -> Registry:
    """The registry :func:`count` and stages currently record into."""
    return _ACTIVE_REGISTRY.get()


@contextmanager
def using_registry(registry: Registry) -> Iterator[Registry]:
    """Make *registry* the ambient recording target for the body.

    Activations are per-context (thread/task): a registry activated on one
    worker thread is invisible to every other thread.
    """
    token = _ACTIVE_REGISTRY.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE_REGISTRY.reset(token)


def count(name: str, amount: int = 1) -> None:
    """Increment counter *name* of the ambient registry by *amount*."""
    _ACTIVE_REGISTRY.get().add(name, amount)


def report() -> dict[str, Any]:
    return _ACTIVE_REGISTRY.get().report()


def reset() -> None:
    _ACTIVE_REGISTRY.get().reset()


__all__ = [
    "HISTOGRAM_BOUNDS",
    "REPORT_SCHEMA",
    "Registry",
    "TimerStat",
    "active_registry",
    "count",
    "report",
    "reset",
    "using_registry",
]
