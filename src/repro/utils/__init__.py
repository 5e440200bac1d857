"""Small shared utilities: timing, table formatting, RNG, validation."""

from repro.utils.timing import Timer, PhaseTimer
from repro.utils.tables import Table
from repro.utils.rng import default_rng
from repro.utils.validation import (
    as_float_array,
    check_shape,
)

__all__ = [
    "Timer",
    "PhaseTimer",
    "Table",
    "default_rng",
    "as_float_array",
    "check_shape",
]
