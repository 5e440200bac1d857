"""Rule: analysis-only dependencies import where they are used.

``networkx`` (the ring census of :mod:`repro.analysis.rings`, the
``analysis`` extra) and ``scipy.optimize`` (the EOS fits of
:mod:`repro.analysis.eos`) serve a few analysis functions that no MD
step, service request, sweep point or trajectory read calls.  Imported
at module top level they load into every process that imports
``repro`` — about 24 MB of resident memory and 0.3 s of start-up on a
2-core Xeon host — and a missing networkx breaks ``import repro``
itself.  They are imported inside the functions that use them; the
placements
:class:`~tools.reprolint.rules.import_guard.ImportGuardRule` accepts
(a function body, ``try/except ImportError``, ``if TYPE_CHECKING:``)
are the allowed ones here too.
"""

from __future__ import annotations

from tools.reprolint.rules.import_guard import ImportGuardRule


class OptionalImportRule(ImportGuardRule):
    id = "optional-import"
    hint = ("import it inside the function that uses it (or under "
            "if TYPE_CHECKING for annotations)")
    description = ("analysis-only deps (networkx, scipy.optimize) must "
                   "not import at module top level under src/repro")
    modules = frozenset({"networkx", "scipy.optimize"})

    def message(self, hit: list[str]) -> str:
        return (f"module-level import of {', '.join(hit)} — loads into "
                "every process that imports repro; import it where it is "
                "used")
