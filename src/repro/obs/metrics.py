"""Prometheus text-format exposition of a registry report.

Renders the counters and stage timers of a :class:`repro.obs.Registry`
report (schema ``repro-perf/2``) in the Prometheus text exposition format
0.0.4: counters as ``<name>_total``, timers as ``<name>_seconds``
histograms backed by the registry's bounded latency buckets
(``_bucket{le=...}`` cumulative counts plus ``_sum``/``_count``).  Metric
names are sanitised (dots become underscores) and prefixed, so
``service.request`` scrapes as ``repro_service_request_seconds``.

The renderer works on the plain report *dict*, not the registry object:
the server snapshots its aggregate registry under its own lock and hands
the frozen report here, and the same code can expose a report loaded from
disk.
"""

from __future__ import annotations

import re
from typing import Any, Iterable

#: Content-Type of the exposition (served by ``GET /v1/metrics``)
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, prefix: str = "repro_") -> str:
    """A raw counter/timer name as a valid Prometheus metric name."""
    sanitised = _INVALID.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return prefix + sanitised


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_le(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


def _labels(labels: dict[str, str] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{str(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_counter(
    name: str, value: int | float, labels: dict[str, str] | None = None
) -> list[str]:
    return [f"{name}{_labels(labels)} {_format_value(value)}"]


def prometheus_text(
    report: dict[str, Any],
    prefix: str = "repro_",
    extra_counters: Iterable[tuple[str, dict[str, str] | None, int]] = (),
) -> str:
    """Render one registry report (plus optional labelled counters) as text.

    ``extra_counters`` is ``(metric name, labels, value)`` triples for
    counters that live outside the registry (the server's per-endpoint and
    per-status request counts).
    """
    lines: list[str] = []
    for raw_name, value in (report.get("counters") or {}).items():
        name = metric_name(raw_name, prefix) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.extend(render_counter(name, value))
    timers = report.get("timers") or {}
    for raw_name, stat in timers.items():
        name = metric_name(raw_name, prefix) + "_seconds"
        calls = int(stat.get("calls", 0))
        total = float(stat.get("total_seconds", 0.0))
        lines.append(f"# TYPE {name} histogram")
        histogram = stat["histogram"]
        cumulative = 0
        for bound, count in zip(
            list(histogram["bounds"]) + [float("inf")], histogram["counts"]
        ):
            cumulative += int(count)
            lines.append(
                f'{name}_bucket{{le="{_format_le(float(bound))}"}} {cumulative}'
            )
        lines.append(f"{name}_sum {_format_value(total)}")
        lines.append(f"{name}_count {calls}")
    grouped: dict[str, list[str]] = {}
    for raw_name, labels, value in extra_counters:
        name = metric_name(raw_name, prefix) + "_total"
        grouped.setdefault(name, []).extend(render_counter(name, value, labels))
    for name in sorted(grouped):
        lines.append(f"# TYPE {name} counter")
        lines.extend(grouped[name])
    return "\n".join(lines) + "\n"


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "metric_name",
    "prometheus_text",
]
