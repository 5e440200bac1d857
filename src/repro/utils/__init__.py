"""Small shared utilities: timing, table formatting, RNG, validation."""

from repro.utils.timing import Timer, PhaseTimer
from repro.utils.tables import Table, format_series
from repro.utils.rng import default_rng
from repro.utils.validation import (
    as_float_array,
    check_positive,
    check_shape,
)

__all__ = [
    "Timer",
    "PhaseTimer",
    "Table",
    "format_series",
    "default_rng",
    "as_float_array",
    "check_positive",
    "check_shape",
]
