"""``compare A.json B.json``: per (workload, metric) verdicts.

``ok``          the new median is no worse than the base median by more
                than the metric's bound
``regressed``   it is worse by more than the bound (or ``fail_frac``
                rose at all, or a correctness check went red)
``unresolved``  the difference says nothing about the code: the files
                were measured on different hosts, or the run-to-run
                spread of either side (interquartile range / median of
                its ``samples``) is wider than the bound — unless every
                new run beats every base run (``ok``) or loses to every
                base run (``regressed``)

Every ratio is printed with its base.  Two files *agree* only where the
verdict is ``ok``: an ``unresolved`` row is a bound the host could not
hold, not a pass (the exit code is non-zero on ``regressed`` only).
"""

from __future__ import annotations

import json
import statistics

from benchmarks.ledger import spec


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def worsening(metric: spec.MetricSpec, base: float, new: float) -> float:
    """How much worse *new* is than *base*, as a share of *base*
    (negative = better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def spread(samples: list[float]) -> float:
    """Interquartile range over the median; 0 for fewer than 3 runs."""
    if len(samples) < 3 or statistics.median(samples) == 0:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / abs(statistics.median(samples))


def verdict(metric: spec.MetricSpec, base: list[float], new: list[float],
            same_host: bool) -> str:
    """Verdict from the per-run samples of both sides (see module doc)."""
    if metric.name == "fail_frac":      # one failing run is a failure
        return "regressed" if max(new) > max(base) else "ok"
    worse = worsening(metric, statistics.median(base), statistics.median(new))
    if not same_host:
        return "unresolved"
    if max(spread(base), spread(new)) > metric.bound:
        pairs = [worsening(metric, b, n) for b in base for n in new]
        if all(w <= 0 for w in pairs):
            return "ok"
        if all(w > 0 for w in pairs) and worse > metric.bound:
            return "regressed"
        return "unresolved"
    return "ok" if worse <= metric.bound else "regressed"


def compare(base: dict, new: dict) -> tuple[list[dict], bool]:
    """Rows for every (workload, metric) both files hold, and whether
    anything regressed."""
    same_host = base.get("host") == new.get("host")
    rows: list[dict] = []
    bad = False
    for name in spec.WORKLOAD_NAMES:
        b, n = base["workloads"].get(name), new["workloads"].get(name)
        if b is None or n is None:
            continue
        if b.get("checks_ok") and not n.get("checks_ok"):
            rows.append({"workload": name, "metric": "checks_ok", "unit": "",
                         "base": 1.0, "new": 0.0, "ratio": 0.0,
                         "bound": 0.0, "verdict": "regressed"})
            bad = True
        for metric in spec.END_TO_END:
            mb = b["metrics"].get(metric.name)
            mn = n["metrics"].get(metric.name)
            if mb is None or mn is None:
                continue
            vb, vn = mb["value"], mn["value"]
            if vb is None or vn is None:    # does not apply on this workload
                continue
            v = verdict(metric, mb.get("samples", [vb]),
                        mn.get("samples", [vn]), same_host)
            bad = bad or v == "regressed"
            rows.append({"workload": name, "metric": metric.name,
                         "unit": metric.unit, "base": vb, "new": vn,
                         "ratio": vn / vb if vb else float("nan"),
                         "bound": metric.bound, "verdict": v})
    return rows, bad


def render(rows: list[dict], base: dict, new: dict) -> str:
    lines = [
        f"base: {base['git'].get('sha')} seed {base.get('seed')}   "
        f"new: {new['git'].get('sha')} seed {new.get('seed')}",
    ]
    if base.get("host") != new.get("host"):
        lines.append("host fingerprints differ: every timing verdict is "
                     "'unresolved'")
    lines.append(f"{'workload':<20} {'metric':<22} {'base':>12} {'new':>12} "
                 f"{'new/base':>9} {'bound':>6}  verdict")
    for r in rows:
        lines.append(
            f"{r['workload']:<20} {r['metric']:<22} {r['base']:>12.5g} "
            f"{r['new']:>12.5g} {r['ratio']:>8.3f}x {r['bound']:>6.2f}  "
            f"{r['verdict']} (base {r['base']:.5g} {r['unit']})")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("ok", "unresolved", "regressed")}
    lines.append(f"{counts['ok']} ok, {counts['unresolved']} unresolved (not "
                 f"agreement), {counts['regressed']} regressed")
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    base, new = load(path_a), load(path_b)
    rows, bad = compare(base, new)
    print(render(rows, base, new))
    return 1 if bad else 0
