"""Lightweight timing instrumentation.

The SC'94-style evaluation needs per-phase wall-clock breakdowns of an MD
step (neighbours / H build / diagonalisation / forces / integration).
:class:`PhaseTimer` accumulates named phases with negligible overhead; the
calculator and MD driver accept one optionally so instrumentation never
contaminates the hot path when not requested.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator

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


@dataclass
class Timer:
    """A resettable stopwatch accumulating total elapsed seconds."""

    elapsed: float = 0.0
    calls: int = 0
    _start: float | None = None

    def start(self) -> None:
        if self._start is not None:
            raise RuntimeError("Timer already running")
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer not running")
        dt = time.perf_counter() - self._start
        self.elapsed += dt
        self.calls += 1
        self._start = None
        return dt

    def reset(self) -> None:
        self.elapsed = 0.0
        self.calls = 0
        self._start = None

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def mean(self) -> float:
        """Mean seconds per call (0.0 before any call completes)."""
        return self.elapsed / self.calls if self.calls else 0.0


@dataclass
class PhaseTimer:
    """Accumulates wall-clock time for named phases.

    Example
    -------
    >>> pt = PhaseTimer()
    >>> with pt.phase("diag"):
    ...     pass
    >>> "diag" in pt.timers
    True
    """

    timers: dict[str, Timer] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[Timer]:
        """Time one phase; doubles as a span adapter.

        When tracing is enabled (:mod:`repro.obs`), each phase also opens
        a span of the same name, so the calculators' existing
        ``self.timer.phase("foe")`` call sites emit a hierarchical trace
        with no further instrumentation.  With tracing off the extra cost
        is one attribute check.
        """
        timer = self.timers.setdefault(name, Timer())
        if _spans._TRACER.enabled:
            with _spans.span(name):
                timer.start()
                try:
                    yield timer
                finally:
                    timer.stop()
            return
        timer.start()
        try:
            yield timer
        finally:
            timer.stop()

    def elapsed(self, name: str) -> float:
        """Total seconds accumulated in phase *name* (0.0 if never entered)."""
        t = self.timers.get(name)
        return t.elapsed if t is not None else 0.0

    def total(self) -> float:
        """Sum over all phases."""
        return sum(t.elapsed for t in self.timers.values())

    def fractions(self) -> dict[str, float]:
        """Per-phase fraction of the total (empty dict if nothing timed)."""
        tot = self.total()
        if tot <= 0.0:
            return {}
        return {k: t.elapsed / tot for k, t in self.timers.items()}

    def reset(self) -> None:
        for t in self.timers.values():
            t.reset()

    def report(self) -> str:
        """Human-readable multi-line breakdown, longest phase first."""
        rows = sorted(self.timers.items(), key=lambda kv: -kv[1].elapsed)
        tot = self.total() or 1.0
        lines = [f"{'phase':<16}{'seconds':>12}{'share':>9}{'calls':>8}"]
        for name, t in rows:
            lines.append(
                f"{name:<16}{t.elapsed:>12.6f}{t.elapsed / tot:>8.1%}{t.calls:>8d}"
            )
        return "\n".join(lines)
