"""Rule: one clock, owned by ``obs``/``utils.timing``.

Span timestamps are wall-clock-aligned: ``repro.obs.spans`` anchors an
epoch offset once (``time.time() - perf_counter()``) and stamps every
span with ``offset + perf_counter()``, which is what lets traces from
different processes merge onto one timeline.  A call site reading
``time.time()`` directly produces timestamps that *almost* agree with
the spans — drifting apart exactly when NTP steps the wall clock
mid-run, the least debuggable moment possible.  Durations measured with
a private ``perf_counter()`` pair are harmless today and wrong tomorrow
(no span, no histogram, invisible to the trace report).

So: outside ``src/repro/obs/`` and ``src/repro/utils/timing.py``,
``time.time()`` and ``time.perf_counter()`` are off limits under
``src/repro/`` — use ``repro.utils.timing.tick()`` for durations,
``wall_now()`` for span-aligned wall time, or an ``obs.span``.
``time.monotonic()`` (deadline arithmetic) stays allowed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.engine import Finding, ModuleContext, Rule

BANNED_ATTRS = frozenset({"time", "perf_counter"})
EXEMPT = ("src/repro/obs", "src/repro/utils/timing.py")


class ClockDisciplineRule(Rule):
    id = "clock-discipline"
    hint = ("use repro.utils.timing.tick() for durations and wall_now() "
            "for span-aligned wall time (time.monotonic is fine for "
            "deadlines)")
    description = ("no raw time.time()/time.perf_counter() outside "
                   "obs/ and utils/timing.py")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_dir("src/repro") or ctx.in_dir(*EXEMPT):
            return
        time_aliases = {"time"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "time" and a.asname:
                        time_aliases.add(a.asname)
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                banned = sorted(a.name for a in node.names
                                if a.name in BANNED_ATTRS)
                if banned:
                    yield self.finding(
                        ctx, node,
                        f"importing {', '.join(banned)} from time — raw "
                        f"clocks drift from the span timeline")
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in time_aliases
                    and node.attr in BANNED_ATTRS):
                yield self.finding(
                    ctx, node,
                    f"raw time.{node.attr}() — drifts from the "
                    f"wall-aligned span timeline")
