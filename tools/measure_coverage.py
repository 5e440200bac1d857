"""Dependency-free line-coverage measurement for the electronic engines.

CI enforces a ``pytest-cov`` floor over ``src/repro/tb`` and
``src/repro/linscale`` (the numerics where a silently-dead branch means
silently-wrong physics).  The container this repo grows in has no
``coverage`` package, so this tool measures the same quantity with the
stdlib only — ``sys.monitoring`` (PEP 669) on Python ≥ 3.12, or a
targeted ``sys.settrace`` (local tracing enabled only for frames inside
the target trees, so foreign code pays one call-event per function) on
3.11.  "Executable lines" are taken from the compiled code objects, the
same source of truth coverage.py uses.  Use it to (re)calibrate the CI
``--cov-fail-under`` floor::

    PYTHONPATH=src python tools/measure_coverage.py            # full tier-1
    PYTHONPATH=src python tools/measure_coverage.py tests/test_linscale.py

Numbers track coverage.py to within a couple of points (it prunes a few
more pragmas/continue-lines than raw code objects do), which is why the
CI floor is set a margin below the measured baseline.
"""

from __future__ import annotations

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
TARGETS = ("src/repro/tb", "src/repro/linscale")


def executable_lines(path: pathlib.Path) -> set[int]:
    """Line numbers carrying executable code, from the compiled module."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(ln for _, _, ln in co.co_lines() if ln is not None)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    lines.discard(0)
    return lines


def _run_pytest(argv: list[str]) -> int:
    import pytest

    # `python -m pytest` gets the repo root on sys.path for free; an
    # in-process pytest.main launched from tools/ must add it itself or
    # `from tests.helpers import ...` fails at collection
    if str(REPO) not in sys.path:
        sys.path.insert(0, str(REPO))
    return pytest.main(argv or ["tests", "-q", "--no-header", "-p",
                                "no:cacheprovider"])


def _trace_monitoring(argv, prefixes, covered) -> int:
    """Python ≥ 3.12: PEP 669 line events, near-zero foreign overhead."""
    mon = sys.monitoring
    tool = mon.COVERAGE_ID

    def on_line(code, line):
        fn = code.co_filename
        if fn.startswith(prefixes):
            covered.setdefault(fn, set()).add(line)
            return None
        return mon.DISABLE          # never pay for this code object again

    mon.use_tool_id(tool, "pytbmd-coverage")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        return _run_pytest(argv)
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)


def _trace_settrace(argv, prefixes, covered) -> int:
    """Python 3.11 fallback: local tracing only inside the targets."""

    def local(frame, event, arg):
        if event == "line":
            covered[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        fn = frame.f_code.co_filename
        if fn.startswith(prefixes):
            covered.setdefault(fn, set()).add(frame.f_lineno)
            return local
        return None                 # foreign frame: no line tracing

    sys.settrace(global_trace)
    import threading

    threading.settrace(global_trace)
    try:
        return _run_pytest(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]


def main(argv: list[str]) -> int:
    prefixes = tuple(str(REPO / t) + "/" for t in TARGETS)
    # the executable lines of the code the run imports: read before it
    # starts, so a file edited while the tests run is reported as it ran
    executable = {path: executable_lines(path) for target in TARGETS
                  for path in sorted((REPO / target).rglob("*.py"))}
    covered: dict[str, set[int]] = {}
    if sys.version_info >= (3, 12):
        rc = _trace_monitoring(argv, prefixes, covered)
    else:
        rc = _trace_settrace(argv, prefixes, covered)

    total_exec = total_hit = 0
    rows = []
    for path, must in executable.items():
        hit = covered.get(str(path), set()) & must
        total_exec += len(must)
        total_hit += len(hit)
        pct = 100.0 * len(hit) / len(must) if must else 100.0
        rows.append((str(path.relative_to(REPO)), len(must),
                     len(must) - len(hit), pct))

    width = max(len(r[0]) for r in rows)
    print(f"\n{'module':<{width}}  {'lines':>6} {'miss':>6} {'cover':>7}")
    for name, n, miss, pct in rows:
        print(f"{name:<{width}}  {n:>6} {miss:>6} {pct:>6.1f}%")
    overall = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"{'TOTAL':<{width}}  {total_exec:>6} "
          f"{total_exec - total_hit:>6} {overall:>6.1f}%")
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
