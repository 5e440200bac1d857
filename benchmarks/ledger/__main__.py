"""Command line of the perf ledger.

``run``      all four workloads (or ``--workload NAME``), ``REPEATS``
             times each, every metric's median printed by name with its
             unit; ``--trace`` adds a traced run of each for the per-layer
             numbers; ``--out FILE`` writes the result ``compare`` reads
``compare``  verdicts between two result files
``bench``    one workload, one JSON line — the BENCHMARK.json contract
``child``    (internal) the pinned workload process
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from benchmarks.ledger import compare, runner, spec

#: Untraced runs per workload in ``run``: the median is the value, and
#: every run is kept — three is the fewest ``compare``'s spread test reads.
REPEATS = 3


def _print_record(record: dict) -> None:
    print(f"\n== {record['workload']}  seed {record['seed']}  "
          f"ops {record['ops']}  backend {record['backend']}  "
          f"host slowdown {record['host_slowdown']:.3f}")
    for name, m in record["metrics"].items():
        if m["value"] is None:
            print(f"  {name:<22} {'null':>14} {m['unit']}")
            continue
        note = f"  [{record['tail_percentile']}]" if name == "op_tail_ms" else ""
        wall = record["wall_clock"].get(name)
        if wall is not None:
            note += f"  (by the wall clock: {wall:.5g})"
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}"
              f"  runs [{', '.join(f'{v:.5g}' for v in m['samples'])}]{note}")
    for name, chk in record["checks"].items():
        print(f"  check {name:<40} {'ok' if chk['ok'] else 'FAILED'} "
              f"({chk['value']:.3g})")


def _print_layers(record: dict) -> None:
    print(f"\n-- {record['workload']} traced: {record['spans_recorded']} spans")
    for name, m in record["layers"].items():
        if m["value"]:
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for row in record["top_spans"]:
        print(f"  top span {row['span']:<30} {row['self_ms_per_op']:>10.4g} "
              f"ms/op  {100 * row['share_of_op_wall']:.1f}% of op wall")


def _median_record(records: list[dict]) -> dict:
    """Fold the repeats of one workload into one record: every metric's
    value becomes the median of its per-run ``samples`` (the wall-clock
    readings and the host slowdown likewise, without the samples)."""
    record = dict(records[0])
    record["metrics"] = {}
    for name, m in records[0]["metrics"].items():
        samples = [r["metrics"][name]["value"] for r in records]
        applies = m["value"] is not None
        record["metrics"][name] = dict(
            m, value=statistics.median(samples) if applies else None,
            samples=samples if applies else [])
    record["host_slowdown"] = statistics.median(
        r["host_slowdown"] for r in records)
    record["wall_clock"] = {
        name: None if v is None else statistics.median(
            r["wall_clock"][name] for r in records)
        for name, v in records[0]["wall_clock"].items()}
    record["checks_ok"] = all(
        r["checks_ok"] and r["child_exit_code"] == 0 for r in records)
    record["failed"] = sum(r["failed"] for r in records)
    record["attempted"] = sum(r["attempted"] for r in records)
    return record


def cmd_run(args) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    result = runner.new_result(args.seed, args.seconds)
    result["repeats"] = REPEATS
    ok = True
    # repeats are interleaved across workloads, so each workload's runs
    # sample the host's slow speed drift instead of sharing one phase; the
    # traced run follows the last untraced one directly, and the overhead
    # is taken against that neighbour, not against a median minutes away
    runs: dict = {name: [] for name in names}
    traced: dict = {}
    for k in range(REPEATS):
        for name in names:
            runs[name].append(runner.spawn(name, args.seed, args.seconds))
            if args.trace and k == REPEATS - 1:
                trace_out = f"{args.out}.trace.{name}.json" if args.out else None
                traced[name] = runner.spawn(name, args.seed, args.seconds,
                                            traced=True, trace_out=trace_out)
    for name in names:
        record = _median_record(runs[name])
        _print_record(record)
        if name in traced:
            layers = traced[name]["layers"]
            neighbour = runs[name][-1]["metrics"]["ops_per_s"]["value"]
            layers["bench.trace_overhead_frac"] = {
                "value": 1.0 - layers["bench.traced_ops_per_s"]["value"] / neighbour,
                "unit": "ratio"}
            _print_layers(traced[name])
            record["layers"] = layers
            record["top_spans"] = traced[name]["top_spans"]
            ok = ok and traced[name]["checks_ok"]
        ok = ok and record["checks_ok"]
        result["workloads"][name] = record
    result["checks_ok"] = ok
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
        print(f"\nwrote {args.out}")
    print(f"\nchecks_ok: {str(ok).lower()}")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    traced = bool(args.trace)
    record = runner.spawn(args.workload, args.seed, args.seconds, traced=traced)
    if traced:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in record["layers"].items()}
    else:
        metrics = {m.name: {"value": record["metrics"][m.name]["value"],
                            "unit": m.unit}
                   for m in spec.DRIVER_END_TO_END}
    print(json.dumps({"correct": bool(record["checks_ok"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    return 0 if record["checks_ok"] and record["child_exit_code"] == 0 else 1


def cmd_child(args) -> int:
    record = runner.run_workload(
        args.workload, args.seed, spec.scaled_ops(args.workload, args.seconds),
        args.workdir, traced=bool(args.trace), trace_out=args.trace_out)
    print(json.dumps(record))
    return 0 if record["checks_ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, need_workload):
        p.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                       required=need_workload)
        p.add_argument("--seed", type=int, default=12)
        p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                       help=f"scales the fixed op counts (sized for "
                            f"{spec.RUN_SECONDS}); the clock never ends a run")

    p = sub.add_parser("run", help="run the ledger, print every metric")
    common(p, need_workload=False)
    p.add_argument("--trace", action="store_true",
                   help="also run each workload traced (per-layer metrics)")
    p.add_argument("--out", help="write the result JSON here")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="one workload, BENCHMARK.json contract")
    common(p, need_workload=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("child")
    common(p, need_workload=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out")
    p.set_defaults(fn=cmd_child)

    p = sub.add_parser("compare", help="verdicts between two result files")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=lambda a: compare.main(a.base, a.new))

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except runner.LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
