#!/usr/bin/env python
"""Docs CI: execute documentation code blocks and verify relative links.

Keeps README.md and docs/ honest:

* every fenced ``python`` code block is executed — blocks within one
  file share a namespace (tutorials build up state block by block), and
  any exception fails the check;
* every relative markdown link target (``[text](path)``, anchors
  stripped) must exist on disk;
* every number in README's "Performance headlines" table is the value
  the committed ledger run (``BENCH_LEDGER.json``) holds for that
  workload and metric, at the precision the table prints, and the
  section names that run's git sha and CPU model;
* every ``### `Name(signature)` `` heading of docs/api.md lists the
  parameter names, in order, that ``inspect.signature`` reports for
  ``Name`` in the module its ``## `repro.x` `` section names;
* the "Ops:" sentence of docs/service.md names, in order, exactly the
  ops of ``repro.service.protocol.OPS``.

Blocks that must not run (e.g. illustrative pseudo-code) can be fenced
as ``python no-exec``.  Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DOC_FILES = [README, *sorted((ROOT / "docs").glob("*.md"))]
LEDGER = ROOT / "BENCH_LEDGER.json"
PERF_HEADING = "## Performance headlines"

FENCE_RE = re.compile(r"^```(\w+)?([^\n`]*)\n(.*?)^```\s*$",
                      re.MULTILINE | re.DOTALL)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
API = ROOT / "docs" / "api.md"
API_HEADING_RE = re.compile(r"^(##|###) `([\w.]+)(?:\((.*)\))?`", re.MULTILINE)
SERVICE = ROOT / "docs" / "service.md"
OPS_SENTENCE_RE = re.compile(r"^Ops: (.*?)\.\s", re.MULTILINE | re.DOTALL)


def iter_python_blocks(text: str):
    for match in FENCE_RE.finditer(text):
        lang = (match.group(1) or "").lower()
        info = (match.group(2) or "").strip()
        if lang == "python" and "no-exec" not in info:
            line = text[: match.start()].count("\n") + 2
            yield line, match.group(3)


def check_code_blocks(path: Path) -> list[str]:
    failures = []
    namespace: dict = {"__name__": f"docs::{path.name}"}
    for line, code in iter_python_blocks(path.read_text()):
        t0 = time.perf_counter()
        try:
            exec(compile(code, f"{path.name}:{line}", "exec"), namespace)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(
                f"{path.relative_to(ROOT)}:{line}: code block raised "
                f"{type(exc).__name__}: {exc}")
        else:
            print(f"  ok   {path.name}:{line} "
                  f"({time.perf_counter() - t0:.2f}s)")
    return failures


def check_links(path: Path) -> list[str]:
    failures = []
    for target in LINK_RE.findall(path.read_text()):
        if "://" in target or target.startswith(("mailto:", "#")):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        if not (path.parent / rel).exists():
            failures.append(
                f"{path.relative_to(ROOT)}: broken link -> {target}")
    return failures


def check_api_signatures(path: Path) -> list[str]:
    """Signature headings of the API reference against the code."""
    failures = []
    module = None
    for level, name, sig in API_HEADING_RE.findall(path.read_text()):
        if level == "##":
            module = name
            continue
        if not sig:
            continue
        # defaults may hold commas: drop strings and bracketed values first
        flat = re.sub(r'"[^"]*"|\([^()]*\)', "", sig)
        documented = [p.split("=")[0].strip() for p in flat.split(",")]
        try:
            obj = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            failures.append(f"{path.name}: heading names {name}, which is "
                            f"not in its section's module {module!r}")
            continue
        actual = list(inspect.signature(obj).parameters)
        if documented != actual:
            failures.append(
                f"{path.name}: heading {name}({', '.join(documented)}) but "
                f"the code has {name}({', '.join(actual)})")
    return failures


def check_service_ops(path: Path) -> list[str]:
    """The service docs' "Ops:" sentence against the protocol's op tuple."""
    from repro.service.protocol import OPS

    match = OPS_SENTENCE_RE.search(path.read_text())
    if match is None:
        return [f"{path.name}: no 'Ops:' sentence"]
    documented = re.findall(r"`(\w+)`", match.group(1))
    if documented != list(OPS):
        return [f"{path.name}: 'Ops:' names {', '.join(documented)} but "
                f"protocol.OPS is {', '.join(OPS)}"]
    return []


def check_perf_table(readme: Path, ledger: Path) -> list[str]:
    """README's ledger table against the committed ledger run.

    A table row whose first cell is a ledger workload is checked in every
    column whose header is one of that workload's metric names: the cell
    must be the recorded value rounded to the decimals the cell prints.
    Every workload in the file needs a row; rows that name something
    else (the A7 script) are not the ledger's to check.
    """
    result = json.loads(ledger.read_text())
    text = readme.read_text()
    start = text.find(PERF_HEADING)
    if start < 0:
        return [f"{readme.name}: no '{PERF_HEADING}' section"]
    end = text.find("\n## ", start + 1)
    section = text[start:end if end > 0 else None]
    failures = [
        f"{readme.name}: '{PERF_HEADING}' does not name the ledger run's "
        f"{what} {value!r}"
        for what, value in (("git sha", result["git"]["sha"][:7]),
                            ("CPU model", result["host"]["cpu_model"]))
        if value not in section]
    header: list[str] = []
    seen = set()
    for line in section.splitlines():
        if not line.startswith("|"):
            header = []
            continue
        cells = [c.strip().strip("*`") for c in line.strip().strip("|").split("|")]
        if not header:
            header = cells
            continue
        record = result["workloads"].get(cells[0])
        if record is None:
            continue
        seen.add(cells[0])
        for name, cell in zip(header, cells):
            metric = record["metrics"].get(name)
            if metric is None:
                continue
            decimals = len(cell.partition(".")[2])
            want = f"{metric['value']:.{decimals}f}"
            if cell != want:
                failures.append(
                    f"{readme.name}: {name} @ {cells[0]} prints {cell} but "
                    f"{ledger.name} holds {metric['value']!r} ({want})")
    failures += [f"{readme.name}: no table row for ledger workload {name}"
                 for name in result["workloads"] if name not in seen]
    return failures


def main() -> int:
    failures: list[str] = check_perf_table(README, LEDGER)
    failures += check_api_signatures(API)
    failures += check_service_ops(SERVICE)
    for doc in DOC_FILES:
        if not doc.exists():
            failures.append(f"missing documentation file: {doc}")
            continue
        print(f"checking {doc.relative_to(ROOT)}")
        failures += check_code_blocks(doc)
        failures += check_links(doc)
    if failures:
        print("\nDOCS CHECK FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\ndocs check passed ({len(DOC_FILES)} files, performance table "
          f"== {LEDGER.name})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
