"""Counters, gauges and bounded-reservoir histograms.

A :class:`MetricsRegistry` owns named instruments.  Counters and gauges
are a float behind a lock; :class:`Histogram` keeps running ``count`` /
``sum`` / ``min`` / ``max`` plus a **bounded ring buffer** of recent
samples (a ``deque(maxlen=...)``) from which percentiles are computed —
never an unbounded per-event list, so a long-lived server's latency
tracking has a hard memory ceiling.

Registries snapshot to plain dicts (what the metrics JSON export and
the service ``metrics`` op return).

The module-level helpers (:func:`counter_inc`, :func:`observe`,
:func:`gauge_set`) are the instrumented call sites' interface: a single
boolean check when metrics are disabled, so the fast path pays nothing.

An object that *reports* its own event counts (a calculator's
``state_report()``, ``VerletList.stats()``, ``BatchService.stats()``)
owns a :class:`MetricsScope`: an always-on registry whose one write per
event also lands in the process registry when metrics are enabled.  The
report is a projection of the scope — there is no second store.
"""

from __future__ import annotations

import threading
from collections import deque


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """Last-written value (queue depth, resident structures, ...)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)


def _percentile(data: list, q: float) -> float:
    """Linear-interpolated q-th percentile (0–100) of *sorted* data."""
    if not data:
        return 0.0
    pos = (len(data) - 1) * (float(q) / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class Histogram:
    """Running stats + a bounded reservoir of recent samples.

    ``count`` / ``sum`` / ``min`` / ``max`` cover *every* observation;
    percentiles come from the last ``maxlen`` samples (a ring buffer).
    For the stationary distributions we care about (request latency,
    per-region solve time) a recent-window percentile is the right
    estimator anyway — and it is O(maxlen) memory forever.
    """

    __slots__ = ("name", "maxlen", "count", "sum", "min", "max",
                 "_samples", "_lock")

    def __init__(self, name: str, maxlen: int = 512) -> None:
        self.name = name
        self.maxlen = int(maxlen)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: deque = deque(maxlen=self.maxlen)
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        v = float(v)
        with self._lock:
            self.count += 1
            self.sum += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            self._samples.append(v)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """q-th percentile (0–100) of the sample window, by linear
        interpolation; 0.0 when no samples were observed."""
        with self._lock:
            data = sorted(self._samples)
        return _percentile(data, q)

    def summary(self) -> dict:
        """Count/sum/mean/min/max plus p50/p90/p99 of the window."""
        with self._lock:
            data = sorted(self._samples)
            count, total = self.count, self.sum
            vmin = self.min if self.count else 0.0
            vmax = self.max if self.count else 0.0
        return {"count": count, "sum": total,
                "mean": total / count if count else 0.0,
                "min": vmin, "max": vmax,
                "p50": _percentile(data, 50.0),
                "p90": _percentile(data, 90.0),
                "p99": _percentile(data, 99.0)}


class MetricsRegistry:
    """Thread-safe name → instrument map with a plain-dict snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str, maxlen: int = 512) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(
                    name, Histogram(name, maxlen=maxlen))

    # -- snapshot -----------------------------------------------------------
    def snapshot(self, samples: bool = True) -> dict:
        """Plain-dict snapshot: JSON-ready.

        ``samples=False`` omits the raw histogram reservoirs (summaries
        only) — the compact form the service ``metrics`` op returns.
        """
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            hists = list(self._histograms.items())
        out_h = {}
        for name, h in hists:
            rec = h.summary()
            rec["maxlen"] = h.maxlen
            if samples:
                with h._lock:
                    rec["samples"] = list(h._samples)
            out_h[name] = rec
        return {"counters": counters, "gauges": gauges, "histograms": out_h}

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: process-global registry; inert until ``enable_metrics()``
_REGISTRY = MetricsRegistry()
_ENABLED = False


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def metrics_enabled() -> bool:
    return _ENABLED


def enable_metrics() -> MetricsRegistry:
    """Turn metric collection on for this process (idempotent)."""
    global _ENABLED
    _ENABLED = True
    return _REGISTRY


def disable_metrics() -> None:
    global _ENABLED
    _ENABLED = False


def counter_inc(name: str, n: float = 1.0) -> None:
    """Increment counter *name* iff metrics are enabled (else free)."""
    if _ENABLED:
        _REGISTRY.counter(name).inc(n)


def gauge_set(name: str, v: float) -> None:
    """Set gauge *name* iff metrics are enabled (else free)."""
    if _ENABLED:
        _REGISTRY.gauge(name).set(v)


def observe(name: str, v: float) -> None:
    """Observe *v* into histogram *name* iff metrics are enabled."""
    if _ENABLED:
        _REGISTRY.histogram(name).observe(v)


class MetricsScope(MetricsRegistry):
    """One owner's always-on registry — the single bookkeeper per event.

    ``counter_inc`` / ``observe`` record into the scope unconditionally
    and, when metrics are enabled, into the process registry under the
    same name; :meth:`count` is what the owner's ``stats()`` /
    ``state_report()`` projections read.  A histogram the owner wants a
    non-default reservoir for is created once up front
    (``scope.histogram(name, maxlen=...)``); the process-registry twin
    inherits that ``maxlen``.
    """

    def counter_inc(self, name: str, n: float = 1.0) -> None:
        self.counter(name).inc(n)
        counter_inc(name, n)

    def observe(self, name: str, v: float) -> None:
        h = self.histogram(name)
        h.observe(v)
        if _ENABLED:
            _REGISTRY.histogram(name, maxlen=h.maxlen).observe(v)

    def count(self, name: str) -> int:
        """Events counted under *name* so far (0 if it never fired)."""
        c = self._counters.get(name)
        return int(c.value) if c is not None else 0


def _swap_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as the global one; returns the old registry."""
    global _REGISTRY
    old, _REGISTRY = _REGISTRY, registry
    return old
