"""Rule registry: every reprolint rule, instantiated once.

To add a rule: write a module in this package with a class deriving
:class:`tools.reprolint.engine.Rule` (set ``id``, ``hint``,
``description``, implement ``check``), import it here and append it to
:data:`RULE_CLASSES`.  The CLI, the tier-1 test and the CI job all pick
it up from :func:`all_rules` — there is no second list to update.
"""

from __future__ import annotations

from tools.reprolint.engine import Rule
from tools.reprolint.rules.cache_invalidation import CacheInvalidationRule
from tools.reprolint.rules.calculator_spine import CalculatorSpineRule
from tools.reprolint.rules.clock_discipline import ClockDisciplineRule
from tools.reprolint.rules.error_discipline import ErrorDisciplineRule
from tools.reprolint.rules.import_guard import ImportGuardRule
from tools.reprolint.rules.optional_import import OptionalImportRule
from tools.reprolint.rules.result_envelope import ResultEnvelopeRule
from tools.reprolint.rules.shared_state import SharedStateRule
from tools.reprolint.rules.single_bookkeeper import SingleBookkeeperRule
from tools.reprolint.rules.single_frame_sink import SingleFrameSinkRule
from tools.reprolint.rules.telemetry_catalog import TelemetryCatalogRule

RULE_CLASSES: tuple[type[Rule], ...] = (
    CacheInvalidationRule,
    ResultEnvelopeRule,
    TelemetryCatalogRule,
    ImportGuardRule,
    OptionalImportRule,
    ErrorDisciplineRule,
    ClockDisciplineRule,
    SharedStateRule,
    CalculatorSpineRule,
    SingleBookkeeperRule,
    SingleFrameSinkRule,
)


def all_rules() -> list[Rule]:
    return [cls() for cls in RULE_CLASSES]


def rule_ids() -> tuple[str, ...]:
    return tuple(cls.id for cls in RULE_CLASSES)
