"""Unified observability plane: spans, metrics, exporters.

The SC'94 paper's whole argument is a per-phase wall-clock breakdown of
an MD step; this package is the instrument that produces it from live
runs.  It is deliberately **stdlib-only** (no numpy in the hot path, no
third-party tracing client) and OpenTelemetry-*shaped* rather than
OpenTelemetry-*dependent*: hierarchical spans with attributes and a
thread-safe context stack, a registry of counters / gauges / bounded
histograms, and JSONL / Chrome-trace-event exporters that Perfetto and
``tools/trace_report.py`` can read.

Everything process-wide is off by default and the disabled path
allocates nothing: ``span()`` returns a module-level singleton no-op and
the metric helpers are a single boolean check.  Enable per process with
:func:`enable_tracing` / :func:`enable_metrics` (the CLI ``--trace`` /
``--metrics`` flags do exactly this), or record one block's spans with
:func:`recording`.  The one always-on part is an
owner's :class:`MetricsScope` — the single bookkeeper behind every
``state_report()`` / ``stats()``, whose writes also reach the process
registry when metrics are enabled.

Everything here is per process; a helper thread nests its spans under
its caller's through :meth:`Span.carry`.
"""

from repro.obs.export import (
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    counter_inc,
    disable_metrics,
    enable_metrics,
    gauge_set,
    get_registry,
    metrics_enabled,
    observe,
)
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    get_tracer,
    recording,
    span,
    tracing_enabled,
)

__all__ = [
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "counter_inc",
    "current_span",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "gauge_set",
    "get_registry",
    "get_tracer",
    "metrics_enabled",
    "observe",
    "read_jsonl",
    "recording",
    "span",
    "tracing_enabled",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_json",
]
