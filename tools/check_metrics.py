#!/usr/bin/env python
"""CI smoke gate on a ``--metrics`` snapshot: cache hit-rate floors.

The bench-smoke CI job runs a short warm MD (the SC'94 A8 shape) with
``--metrics`` and hands the snapshot JSON to this script.  The state
machinery this repo is built around — warm-μ fused solves, sparse-
pattern reuse, Verlet-list reuse — only shows up as *ratios*, so a
regression that silently drops the calculator to its cold path keeps
every test green while doubling step cost.  This gate fails the build
instead.

Exit 1 if the fused-path or pattern-cache hit rate falls below its
pinned floor (rates with no observations pass — a diag-solver snapshot
has no fused counters).  The A11 sweep snapshot is gated on the same
fused-path rate: there it counts strain points that stayed inside the
μ-Taylor radius.  The backend benchmark's speedup gauge
(``foe.backend_speedup``, batched vs per-region-loop MD step) is gated
the same way with ``--min-backend-speedup``.  The A9 socket leg is
gated on *why its batches closed* (``--min-complete-close``): lock-step
clients whose batches wait out the coalescing window pay it for nobody.
Several snapshots may be given (a shell glob); each is gated on its own.
Run::

    python tools/check_metrics.py metrics.json \
        --min-fused-hit 0.4 --min-pattern-hit 0.5
    python tools/check_metrics.py bench.json --min-backend-speedup 1.05
    python tools/check_metrics.py bench-metrics/test_a9_*.json \
        --min-complete-close 0.9
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from trace_report import hit_rates  # noqa: E402

GATES = {
    # name -> (trace_report.hit_rates key, CLI floor attribute); the
    # counter names behind each rate are spelled once, in hit_rates
    "fused-path": ("fused_path", "min_fused_hit"),
    "pattern-cache": ("pattern_cache", "min_pattern_hit"),
    "neighbor-reuse": ("neighbor_reuse", "min_neighbor_reuse"),
    "complete-close": ("complete_close", "min_complete_close"),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("snapshot", nargs="+",
                    help="metrics JSON from a --metrics run")
    ap.add_argument("--min-fused-hit", type=float, default=0.0,
                    help="floor on the warm-mu fused-path hit rate")
    ap.add_argument("--min-pattern-hit", type=float, default=0.0,
                    help="floor on the sparse-pattern cache hit rate")
    ap.add_argument("--min-neighbor-reuse", type=float, default=0.0,
                    help="floor on the Verlet-list reuse rate")
    ap.add_argument("--min-complete-close", type=float, default=0.0,
                    help="floor on the share of coalesced service batches "
                         "that closed complete (service.batch_close.*)")
    ap.add_argument("--min-backend-speedup", type=float, default=0.0,
                    help="floor on the foe.backend_speedup gauge (batched "
                         "vs loop MD-step ratio from the A8 benchmark)")
    ap.add_argument("--min-traj-size-ratio", type=float, default=0.0,
                    help="floor on the trajio.xyz_size_ratio gauge (XYZ "
                         "vs PTRJ file size from the A12 benchmark)")
    args = ap.parse_args(argv)
    failed = False
    for path in args.snapshot:
        if len(args.snapshot) > 1:
            print(f"== {path}")
        with open(path, encoding="utf-8") as fh:
            snap = json.load(fh)
        rates = hit_rates(snap)
        gauges = snap.get("gauges") or {}
        for name, (key, attr) in GATES.items():
            floor = getattr(args, attr)
            value, n = rates[key]["rate"], rates[key]["n"]
            if value is None:
                status = "no data"
            elif value + 1e-12 < floor:
                status, failed = "FAIL", True
            else:
                status = "ok"
            shown = "   --" if value is None else f"{value:5.1%}"
            print(f"{name:<16} {shown}  (floor {floor:.1%}, n={n})  "
                  f"{status}")
        gauge_gates = [
            ("backend-speedup", "foe.backend_speedup",
             args.min_backend_speedup),
            ("traj-size-ratio", "trajio.xyz_size_ratio",
             args.min_traj_size_ratio),
        ]
        for label, gauge_name, floor in gauge_gates:
            value = gauges.get(gauge_name)
            if value is None:
                status = "no data"
            elif value + 1e-12 < floor:
                status, failed = "FAIL", True
            else:
                status = "ok"
            shown = "   --" if value is None else f"{value:4.2f}x"
            print(f"{label:<16} {shown}  (floor {floor:.2f}x)  {status}")
    if failed:
        print("\nmetrics gate FAILED: a cache-efficiency rate regressed "
              "below its floor", file=sys.stderr)
        return 1
    print("\nmetrics gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
