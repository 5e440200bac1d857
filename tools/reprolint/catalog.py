"""Telemetry-name catalog, parsed from ``docs/observability.md``.

The trace report's hit rates and the ``state_report()`` / ``stats()``
projections key on *names*: a counter that drifts from ``foe.fused`` to
``foe.fused_total`` silently reads 0 there.  The catalog is therefore the doc itself — every metric and span name that
appears in inline backticks in ``docs/observability.md``.  The
telemetry-catalog rule checks instrumented call sites against this set,
so adding an instrument *requires* documenting it, in the same commit.
"""

from __future__ import annotations

import re
from pathlib import Path

#: the area.noun[_qualifier] convention: 2-4 lowercase dotted segments
#: (hyphens allowed after the first segment: neighbors.rebuild.cell-unmappable)
NAME_RE = re.compile(r"[a-z][a-z0-9_]*(\.[a-z0-9_-]+){1,3}")

_BACKTICK_RE = re.compile(r"`([^`\n]+)`")

CATALOG_DOC = "docs/observability.md"


def matches_convention(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def parse_catalog(root: Path) -> frozenset[str]:
    """Every convention-shaped name in backticks in the catalog doc.

    Returns the empty set when the doc is absent (fixture trees); the
    rule treats that as "no catalog → only the convention is checked".
    """
    doc = Path(root) / CATALOG_DOC
    if not doc.exists():
        return frozenset()
    names = set()
    for m in _BACKTICK_RE.finditer(doc.read_text()):
        text = m.group(1).strip()
        if matches_convention(text):
            names.add(text)
    return frozenset(names)
