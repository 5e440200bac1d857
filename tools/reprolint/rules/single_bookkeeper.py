"""Rule: one bookkeeper per event — ``repro.obs`` counts, no twins.

An event used to be written up to three times: a private
``self._counters["foe_fused"] += 1`` (or ``self.n_builds += 1``) feeding
a hand-assembled ``state_report()`` / ``stats()``, and an
``obs.counter_inc("foe.fused")`` on the next line for the exported
registry.  The stores disagreed in practice (a cache hit counted by one
calculator only; a latency histogram missing from the export).  An
object that reports its own counts now owns a
:class:`repro.obs.MetricsScope`; its report is a projection of the
scope, and this rule keeps the parallel stores from regrowing.

Under ``src/``, outside ``src/repro/obs/`` itself:

* a ``counter_inc(...)`` call (module helper or scope method) directly
  before or after a ``self._*counters*[...] += …`` / ``self.n_* += …``
  statement in the same block is the same event written twice;
* a ``*_counters`` name or attribute assigned a dict literal (or a
  ``dict(...)`` call) is an ad-hoc counter store.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.engine import Finding, ModuleContext, Rule


def _is_counter_inc(stmt: ast.stmt) -> bool:
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return False
    func = stmt.value.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", "")
    return name == "counter_inc"


def _private_tally(stmt: ast.stmt) -> str | None:
    """``self._x_counters[...] += n`` / ``self.n_x += n`` → attribute name."""
    if not (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add)):
        return None
    target = stmt.target
    subscripted = isinstance(target, ast.Subscript)
    if subscripted:
        target = target.value
    if not (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return None
    attr = target.attr
    if (subscripted and "counters" in attr) or \
            (not subscripted and attr.startswith("n_")):
        return attr
    return None


def _blocks(tree: ast.AST) -> Iterator[list[ast.stmt]]:
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and \
                    isinstance(block[0], ast.stmt):
                yield block


class SingleBookkeeperRule(Rule):
    id = "single-bookkeeper"
    hint = ("give the object a repro.obs.MetricsScope, write the event "
            "once with scope.counter_inc(name) and project stats()/"
            "state_report() from scope.count(name)")
    description = ("no private counter store beside repro.obs: no "
                   "counter_inc next to a self._counters[...]/self.n_* "
                   "+= and no _counters dict outside obs/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_dir("src") or ctx.in_dir("src/repro/obs"):
            return
        for block in _blocks(ctx.tree):
            for a, b in zip(block, block[1:]):
                for inc, tally in ((a, b), (b, a)):
                    attr = _private_tally(tally)
                    if attr is not None and _is_counter_inc(inc):
                        yield self.finding(
                            ctx, tally,
                            f"self.{attr} is incremented next to a "
                            f"counter_inc(...) — the same event is "
                            f"counted twice")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if not (isinstance(value, ast.Dict)
                    or (isinstance(value, ast.Call)
                        and getattr(value.func, "id", "") == "dict")):
                continue
            for t in targets:
                name = t.attr if isinstance(t, ast.Attribute) else \
                    getattr(t, "id", "")
                if name.endswith("_counters"):
                    yield self.finding(
                        ctx, node,
                        f"{name} is an ad-hoc counter dict outside "
                        f"repro.obs")
