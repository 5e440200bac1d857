"""The one duration clock and span-aligned wall time.

Per-phase breakdowns of an MD step (the SC'94 neighbours / H build /
diagonalisation / forces table) are ``calc.*`` spans of
:mod:`repro.obs`; this module only supplies the clock readings that
hand-measured durations and wall-clock stamps use, so they land on the
span timeline.
"""

from __future__ import annotations

import time

from repro.obs import spans as _spans


def tick() -> float:
    """The one sanctioned duration clock: ``perf_counter`` seconds.

    Every ``dt = tick() - t0`` in the codebase measures on the same
    monotonic clock the span timeline is built from, so hand-measured
    durations and span durations agree exactly.  Call sites outside
    ``repro.obs`` / this module must use this (the clock-discipline
    lint rule enforces it) rather than ``time.perf_counter()`` —
    one indirection point keeps the clock swappable and greppable.
    """
    return time.perf_counter()


def wall_now() -> float:
    """Span-aligned wall-clock seconds since the epoch.

    Returns the tracer's epoch anchor plus the monotonic delta — the
    exact timestamp arithmetic :mod:`repro.obs.spans` stamps on spans —
    instead of a fresh ``time.time()`` read, so wall-clock fields in
    results and artifacts land on the same timeline as the trace even
    if NTP steps the system clock mid-run.
    """
    return _spans._EPOCH_OFFSET + time.perf_counter()

