"""Cross-process telemetry: the ``map_tasks`` serialization contract.

Spans and metrics recorded inside a ``ProcessPoolExecutor`` worker live
in *that* process's globals and would be lost when the task returns.
This module defines the round trip:

- :class:`TelemetryWorker` wraps the task callable (picklable as long as
  the callable is).  In the worker it swaps in a **fresh, enabled**
  tracer/registry for the duration of the task — a fork-started worker
  inherits the parent's buffers, and without the swap it would re-ship
  every parent span with every task — then returns the real result
  boxed in a :class:`TelemetryEnvelope` together with the captured span
  records and metrics snapshot (plain dicts, cheap to pickle).

- :func:`absorb_results` runs in the parent: it unboxes each envelope,
  merges the metrics into the parent registry, and adopts the spans into
  the parent tracer re-parented under the span that dispatched the pool
  call — so a worker's timings nest inside the span that fanned it out
  in the final trace.

``repro.parallel.pool.map_tasks`` applies the wrapper only on its
process-pool paths and only while telemetry is enabled; inline and
thread-pool execution records straight into the parent's globals.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from repro.obs import metrics as _metrics
from repro.obs import spans as _spans


def telemetry_active() -> bool:
    """True when either tracing or metrics collection is enabled."""
    return _spans.tracing_enabled() or _metrics.metrics_enabled()


class TelemetryEnvelope:
    """Box pairing a task result with the telemetry captured around it."""

    __slots__ = ("result", "spans", "metrics")

    def __init__(self, result: Any, spans: list[dict],
                 metrics: dict | None) -> None:
        self.result = result
        self.spans = spans
        self.metrics = metrics


class TelemetryWorker:
    """Picklable wrapper enabling capture around one task call."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, task: Any) -> TelemetryEnvelope:
        tracer = _spans.Tracer(enabled=True)
        registry = _metrics.MetricsRegistry()
        old_tracer = _spans._swap_tracer(tracer)
        old_registry = _metrics._swap_registry(registry)
        was_enabled = _metrics._ENABLED
        _metrics._ENABLED = True
        try:
            result = self.fn(task)
        finally:
            _metrics._ENABLED = was_enabled
            _spans._swap_tracer(old_tracer)
            _metrics._swap_registry(old_registry)
        return TelemetryEnvelope(result, tracer.drain(), registry.snapshot())


def absorb_results(results: Iterable[Any]) -> list:
    """Unbox envelopes, merging their telemetry into this process.

    Plain (non-envelope) results pass through untouched, so the caller
    can apply this unconditionally to a mixed or already-plain list.
    """
    tracer = _spans.get_tracer()
    registry = _metrics.get_registry()
    parent = tracer.current() if tracer.enabled else None
    parent_id = parent.span_id if parent is not None else None
    out = []
    for item in results:
        if isinstance(item, TelemetryEnvelope):
            if tracer.enabled and item.spans:
                tracer.adopt(item.spans, parent_id=parent_id)
            if _metrics.metrics_enabled() and item.metrics:
                registry.merge(item.metrics)
            out.append(item.result)
        else:
            out.append(item)
    return out
