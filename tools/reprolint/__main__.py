"""CLI: ``python -m tools.reprolint [paths...]``.

Exit status is 1 iff any non-baselined finding exists — the same
contract the tier-1 test and the CI static-analysis job enforce.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.reprolint.engine import (
    REPO_ROOT,
    RunConfig,
    counts_snapshot,
    load_baseline,
    run_paths,
    split_baselined,
    write_baseline,
)
from tools.reprolint.rules import all_rules

DEFAULT_PATHS = ("src", "tools", "benchmarks")
#: the checked repository's baseline, relative to ``--root``
BASELINE_REL = Path("tools") / "reprolint" / "baseline.json"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="AST contract checker for the pytbmd repository")
    ap.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                    help="files/directories to check "
                         f"(default: {' '.join(DEFAULT_PATHS)})")
    ap.add_argument("--root", type=Path, default=REPO_ROOT,
                    help="repository root for path scoping and the "
                         "telemetry catalog (default: this repo)")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="baseline JSON of grandfathered findings "
                         "(default: tools/reprolint/baseline.json under "
                         "--root)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="report every finding, baseline ignored")
    ap.add_argument("--write-baseline", action="store_true",
                    help="write current findings to --baseline and exit "
                         "(then document every 'reason')")
    ap.add_argument("--format", choices=("text", "github"), default="text",
                    help="finding output format")
    ap.add_argument("--counts-json", type=Path, metavar="FILE",
                    help="write per-rule finding counts as an obs-snapshot "
                         "JSON artifact")
    ap.add_argument("--list-rules", action="store_true",
                    help="list rule ids and descriptions, then exit")
    args = ap.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for r in rules:
            print(f"{r.id:25s} {r.description}")
        return 0

    config = RunConfig(root=args.root.resolve())
    root = config.root
    baseline_path = args.baseline or root / BASELINE_REL
    paths = [p if Path(p).is_absolute() else root / p for p in args.paths]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"reprolint: no such path: "
              f"{', '.join(str(m) for m in missing)}", file=sys.stderr)
        return 2
    findings = run_paths(paths, rules=rules, config=config)

    if args.write_baseline:
        write_baseline(baseline_path, findings)
        print(f"reprolint: wrote {len(findings)} entries to {baseline_path}")
        return 0

    baseline = {} if args.no_baseline else load_baseline(baseline_path)
    new, baselined = split_baselined(findings, baseline)

    for f in new:
        print(f.format(args.format))

    if args.counts_json:
        args.counts_json.parent.mkdir(parents=True, exist_ok=True)
        args.counts_json.write_text(
            json.dumps(counts_snapshot(new, baselined), indent=2,
                       sort_keys=True) + "\n")

    stale = set(baseline) - {f.baseline_key for f in findings}
    for key in sorted(stale):
        print(f"reprolint: stale baseline entry (finding fixed — remove "
              f"it): {key}", file=sys.stderr)

    summary = (f"reprolint: {len(new)} finding(s), "
               f"{len(baselined)} baselined, {len(stale)} stale baseline "
               f"entr{'y' if len(stale) == 1 else 'ies'}")
    print(summary, file=sys.stderr)
    return 1 if new or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
