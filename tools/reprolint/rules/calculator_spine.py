"""Rule: every calculator hangs off the one ``CalculatorBase`` spine.

The result cache, the virial → stress/pressure tail and the ``get_*``
getters were once re-implemented by four calculators (and the Γ / k
evaluation by two code paths per engine), and the copies drifted: a
cache keyed without species here, a zero-temperature filler without the
degenerate-shell split there.  :class:`repro.state.CalculatorBase` owns
those pieces now; this rule keeps the twins from regrowing.

A class under ``src/`` that defines the native calculator entry point
``compute(self, atoms, forces=...)`` must list ``CalculatorBase`` among
its bases, and no such class may define what the base already provides:
``get_potential_energy`` / ``get_forces`` / ``get_stress`` /
``get_pressure`` or any ``_attach_*`` method.  Adapters that speak
another protocol (the ASE bridge implements ``calculate``) are out of
scope by construction.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.engine import Finding, ModuleContext, Rule

BASE_NAME = "CalculatorBase"

#: methods only the base may define
BASE_ONLY = frozenset({
    "get_potential_energy", "get_forces", "get_stress", "get_pressure",
})


def _is_native_compute(fn: ast.FunctionDef) -> bool:
    """``compute(self, atoms, ..., forces...)``."""
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args
             + fn.args.kwonlyargs]
    return fn.name == "compute" and names[1:2] == ["atoms"] \
        and "forces" in names


def _base_names(cls: ast.ClassDef) -> set[str]:
    return {b.id if isinstance(b, ast.Name) else b.attr
            for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))}


class CalculatorSpineRule(Rule):
    id = "calculator-spine"
    hint = ("derive the class from repro.state.CalculatorBase and use its "
            "_cached/_store/_attach_forces and get_* instead of a local copy")
    description = ("classes defining compute(atoms, forces) subclass "
                   "CalculatorBase and do not re-implement its getters or "
                   "stress tail")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_dir("src"):
            return
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef) or cls.name == BASE_NAME:
                continue
            methods = [m for m in cls.body if isinstance(m, ast.FunctionDef)]
            on_spine = BASE_NAME in _base_names(cls)
            native = any(_is_native_compute(m) for m in methods)
            if native and not on_spine:
                yield self.finding(
                    ctx, cls,
                    f"class {cls.name} defines compute(atoms, forces) but "
                    f"does not subclass {BASE_NAME}")
            if not (native or on_spine):
                continue
            for m in methods:
                if m.name in BASE_ONLY or m.name.startswith("_attach_"):
                    yield self.finding(
                        ctx, m,
                        f"class {cls.name} re-implements {m.name}, which "
                        f"{BASE_NAME} owns")
