#!/usr/bin/env python
"""Summarize a ``--trace out.jsonl`` run as the SC'94-style phase table.

Reads the JSONL trace written by ``repro.obs.export.write_jsonl`` (the
``--trace`` CLI flag), aggregates span durations by name, and prints:

* a phase table — total seconds, share of the slowest top-level span
  tree, call count and mean per call — the shape of Table 1 in the
  Goedecker/Colombo SC'94 paper (neighbors / Hamiltonian / Chebyshev
  recursion / forces breakdown);
* cache-efficiency ratios from the embedded metrics snapshot: the
  fused-path hit rate (warm-μ one-pass solves vs two-pass), the sparse
  Hamiltonian pattern-cache hit rate, neighbor-list reuse, spectral
  window reuse, and the region-cache reuse rate;
* optionally (``--chrome out.json``) a Chrome trace-event conversion of
  the same spans, viewable at https://ui.perfetto.dev.

Usage::

    PYTHONPATH=src python tools/trace_report.py run.jsonl
    PYTHONPATH=src python tools/trace_report.py run.jsonl --json summary.json
    PYTHONPATH=src python tools/trace_report.py run.jsonl --chrome run.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.export import (  # noqa: E402
    aggregate_phases, chrome_trace_events, read_jsonl,
)


def wall_seconds(spans: list[dict]) -> float:
    """Wall time covered by the trace (earliest start → latest end)."""
    if not spans:
        return 0.0
    t0 = min(float(s.get("ts", 0.0)) for s in spans)
    t1 = max(float(s.get("ts", 0.0)) + float(s.get("dur", 0.0))
             for s in spans)
    return t1 - t0


def _ratio(counters: dict, hit_keys, miss_keys) -> tuple[float | None, int]:
    hits = sum(counters.get(k, 0) for k in hit_keys)
    total = hits + sum(counters.get(k, 0) for k in miss_keys)
    return (hits / total if total else None), int(total)


def hit_rates(metrics: dict) -> dict:
    """Cache-efficiency ratios from a registry snapshot (None = no data).

    The fused-path rate counts warm-μ single-pass solves (``foe.fused``)
    against everything that needed a second Chebyshev pass — cold
    two-pass solves (``foe.cold``) *and* fused attempts whose μ landed
    outside the μ-Taylor radius (``foe.fallback``).  The complete-close
    rate is the share of the socket transport's coalesced batches that
    closed because nobody else could contribute, not by waiting out the
    window or hitting the cap.
    """
    counters = metrics.get("counters") or {}
    fused, n_solves = _ratio(counters, ["foe.fused"],
                             ["foe.fallback", "foe.cold"])
    pattern, n_builds = _ratio(counters, ["tb.bonds.pattern_reuse"],
                               ["tb.bonds.pattern_build"])
    window, n_window = _ratio(counters, ["window.reuse"],
                              ["window.refresh", "window.invalidated"])
    regions, n_regions = _ratio(counters, ["regions.reuse"],
                                ["regions.rebuild"])
    neigh, n_neigh = _ratio(
        counters, ["neighbors.reuse"],
        [k for k in counters if k.startswith("neighbors.rebuild.")])
    complete, n_closed = _ratio(
        counters, ["service.batch_close.complete"],
        ["service.batch_close.window", "service.batch_close.cap"])
    return {
        "fused_path": {"rate": fused, "n": n_solves},
        "pattern_cache": {"rate": pattern, "n": n_builds},
        "window_reuse": {"rate": window, "n": n_window},
        "region_reuse": {"rate": regions, "n": n_regions},
        "neighbor_reuse": {"rate": neigh, "n": n_neigh},
        "complete_close": {"rate": complete, "n": n_closed},
    }


def build_summary(path) -> dict:
    meta, spans, metrics = read_jsonl(path)
    return {
        "trace": str(path),
        "dropped_spans": meta.get("dropped_spans", 0),
        "wall_seconds": wall_seconds(spans),
        "n_spans": len(spans),
        "phases": aggregate_phases(spans),
        "hit_rates": hit_rates(metrics),
        "counters": metrics.get("counters") or {},
    }


def print_report(summary: dict, file=None) -> None:
    out = file or sys.stdout
    wall = summary["wall_seconds"]
    print(f"trace            : {summary['trace']}", file=out)
    print(f"spans            : {summary['n_spans']}"
          + (f" ({summary['dropped_spans']} dropped)"
             if summary["dropped_spans"] else ""), file=out)
    print(f"wall time        : {wall:.3f} s", file=out)
    print(file=out)
    print(f"{'phase':<24} {'seconds':>10} {'share':>7} {'calls':>7} "
          f"{'mean':>10}", file=out)
    for row in summary["phases"]:
        share = row["seconds"] / wall if wall > 0 else 0.0
        flag = f"  ({row['errors']} errors)" if row["errors"] else ""
        print(f"{row['name']:<24} {row['seconds']:>10.4f} {share:>6.1%} "
              f"{row['calls']:>7d} {row['mean_s']:>10.6f}{flag}", file=out)
    print(file=out)
    labels = {"fused_path": "fused-path hit rate",
              "pattern_cache": "pattern-cache hits",
              "window_reuse": "window reuse",
              "region_reuse": "region reuse",
              "neighbor_reuse": "neighbor-list reuse",
              "complete_close": "batches closed complete"}
    for key, label in labels.items():
        stat = summary["hit_rates"][key]
        if stat["rate"] is None:
            continue
        print(f"{label:<24} {stat['rate']:>7.1%}  (of {stat['n']})",
              file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="JSONL trace from a --trace run")
    ap.add_argument("--json", metavar="PATH",
                    help="also write the summary as JSON here")
    ap.add_argument("--chrome", metavar="PATH",
                    help="also convert the spans to a Chrome trace-event "
                         "file (open in Perfetto)")
    args = ap.parse_args(argv)
    summary = build_summary(args.trace)
    print_report(summary)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"\nwrote {args.json}")
    if args.chrome:
        _, spans, _ = read_jsonl(args.trace)
        doc = {"traceEvents": chrome_trace_events(spans),
               "displayTimeUnit": "ms"}
        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        print(f"wrote {args.chrome}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
