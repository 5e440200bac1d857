"""Trace and metrics exporters: JSONL and Chrome trace events.

Two on-disk formats, chosen by extension at the CLI:

``*.jsonl``
    One JSON object per line: a ``{"type": "meta"}`` header, one
    ``{"type": "span"}`` record per finished span, and a final
    ``{"type": "metrics"}`` record holding the registry snapshot.  This
    is the format ``tools/trace_report.py`` reads.

``*.json``
    The Chrome trace-event format — ``{"traceEvents": [...]}`` with
    complete (``"ph": "X"``) events in microseconds — which Perfetto
    (https://ui.perfetto.dev) and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import json
import time
from os import PathLike

StrPath = str | PathLike[str]

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.spans import Tracer, get_tracer

FORMAT_VERSION = 1


def _meta(tracer: Tracer) -> dict:
    return {"type": "meta", "version": FORMAT_VERSION,
            "written_at": time.time(), "dropped_spans": tracer.dropped}


def write_jsonl(path: StrPath, tracer: Tracer | None = None,
                registry: MetricsRegistry | None = None) -> int:
    """Write the JSONL trace; returns the number of span records."""
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    spans = tracer.finished()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_meta(tracer)) + "\n")
        for rec in spans:
            fh.write(json.dumps(dict(rec, type="span")) + "\n")
        fh.write(json.dumps({"type": "metrics",
                             "data": registry.snapshot()}) + "\n")
    return len(spans)


def read_jsonl(path: StrPath) -> tuple[dict, list[dict], dict]:
    """Parse a JSONL trace → ``(meta, span_records, metrics_snapshot)``."""
    meta: dict = {}
    spans: list[dict] = []
    metrics: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("type")
            if kind == "meta":
                meta = rec
            elif kind == "span":
                spans.append(rec)
            elif kind == "metrics":
                metrics = rec.get("data") or {}
    return meta, spans, metrics


def aggregate_phases(spans: list[dict]) -> list[dict]:
    """Span records → per-name totals sorted by total time, descending.

    Each row is ``{"name", "calls", "seconds", "errors", "mean_s"}`` —
    the SC'94 phase table of ``tools/trace_report.py`` and the per-phase
    seconds :func:`repro.parallel.calibrate_step` fits its model to.
    """
    agg: dict[str, dict] = {}
    for rec in spans:
        row = agg.setdefault(rec.get("name", "?"),
                             {"calls": 0, "seconds": 0.0, "errors": 0})
        row["calls"] += 1
        row["seconds"] += float(rec.get("dur", 0.0))
        if rec.get("status") == "error":
            row["errors"] += 1
    out = [dict(name=name, **row,
                mean_s=row["seconds"] / row["calls"] if row["calls"] else 0.0)
           for name, row in agg.items()]
    out.sort(key=lambda r: r["seconds"], reverse=True)
    return out


def chrome_trace_events(spans: list[dict]) -> list[dict]:
    """Span records → Chrome trace-event dicts (complete events, µs)."""
    events = []
    for rec in spans:
        ev = {"name": rec.get("name", "?"), "ph": "X", "cat": "repro",
              "ts": float(rec.get("ts", 0.0)) * 1e6,
              "dur": float(rec.get("dur", 0.0)) * 1e6,
              "pid": int(rec.get("pid", 0)), "tid": int(rec.get("tid", 0))}
        args = dict(rec.get("attrs") or {})
        if rec.get("status") == "error":
            args["status"] = "error"
        if args:
            ev["args"] = args
        events.append(ev)
    return events


def write_chrome_trace(path: StrPath, tracer: Tracer | None = None,
                       registry: MetricsRegistry | None = None) -> int:
    """Write a Perfetto-viewable Chrome trace; returns the event count."""
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    events = chrome_trace_events(tracer.finished())
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": {"format_version": FORMAT_VERSION,
                         "dropped_spans": tracer.dropped,
                         "metrics": registry.snapshot(samples=False)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(events)


def write_trace(path: StrPath, tracer: Tracer | None = None,
                registry: MetricsRegistry | None = None) -> int:
    """Dispatch on extension: ``.json`` → Chrome trace, else JSONL."""
    if str(path).endswith(".json"):
        return write_chrome_trace(path, tracer, registry)
    return write_jsonl(path, tracer, registry)


def write_metrics_json(path: StrPath, registry: MetricsRegistry | None = None) -> dict:
    """Dump the registry snapshot as one JSON document; returns it."""
    registry = registry if registry is not None else get_registry()
    snap = registry.snapshot()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snap
