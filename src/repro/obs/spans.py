"""Hierarchical spans with attributes and a thread-safe context stack.

A :class:`Span` measures one timed operation; entering it pushes it onto
a thread-local stack so spans opened inside nest under it, exactly like
an OpenTelemetry context.  Finished spans accumulate on the process-wide
:class:`Tracer` as plain dicts (picklable, JSON-ready) with a bounded
buffer — a runaway loop drops spans and counts them rather than eating
memory.

The module-level :func:`span` is the only call sites use::

    with obs.span("foe") as sp:
        sp.set(mode="fused")

When tracing is disabled (the default) it returns :data:`NULL_SPAN`, a
module-level singleton whose every method is a no-op — the disabled fast
path is one attribute load and one ``is True`` check, with **zero**
allocations (asserted by a tier-1 test).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from collections.abc import Iterator
from types import TracebackType
from typing import Any

#: converts ``time.perf_counter()`` readings to wall-clock seconds so span
#: timestamps from different processes on the same host are comparable.
_EPOCH_OFFSET = time.time() - time.perf_counter()


class Span:
    """One timed operation; context manager; records on exit.

    Attributes are set with :meth:`set` (keyword form) and land in the
    exported record's ``attrs`` dict.  An exception raised inside the
    ``with`` block marks ``status: "error"`` with the exception type and
    message, then propagates.
    """

    __slots__ = ("name", "span_id", "parent_id", "pid", "tid", "start",
                 "duration", "attrs", "status", "_tracer", "_t0")

    def __init__(self, name: str, tracer: "Tracer") -> None:
        self.name = name
        self._tracer = tracer
        self.span_id = tracer.next_id()
        self.parent_id: str | None = None
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.start = 0.0
        self.duration = 0.0
        self.attrs: dict | None = None
        self.status = "ok"
        self._t0 = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (last write per key wins)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)
        return self

    @contextlib.contextmanager
    def carry(self) -> Iterator[None]:
        """Nest the calling thread's new spans under this (live) span."""
        stack = self._tracer._stack()
        stack.append(self)
        try:
            yield
        finally:
            stack.pop()

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._t0 = time.perf_counter()
        self.start = _EPOCH_OFFSET + self._t0
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.status = "error"
            self.set(exception=exc_type.__name__, message=str(exc))
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit, keep the stack sane
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._tracer.record(self)

    def to_record(self) -> dict:
        """Plain-dict form (what the exporters and the pool contract ship)."""
        rec = {"name": self.name, "id": self.span_id,
               "parent": self.parent_id, "pid": self.pid, "tid": self.tid,
               "ts": self.start, "dur": self.duration, "status": self.status}
        if self.attrs:
            rec["attrs"] = dict(self.attrs)
        return rec


class _NullSpan:
    """Singleton no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def carry(self) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        """Never suppresses the exception (implicitly returns None)."""


#: the one instance every disabled ``span()`` call returns
NULL_SPAN = _NullSpan()


class Tracer:
    """Process-wide collector of finished spans.

    ``max_spans`` bounds memory: once full, further spans are dropped and
    counted in :attr:`dropped`.  The context stack is thread-local, so
    concurrent service workers each get correct nesting; the finished
    buffer is guarded by a lock.
    """

    def __init__(self, enabled: bool = False,
                 max_spans: int = 200_000) -> None:
        self.enabled = bool(enabled)
        self.max_spans = int(max_spans)
        self.dropped = 0
        self._finished: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    # -- context stack ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """Innermost live span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span lifecycle -----------------------------------------------------
    def next_id(self) -> str:
        return f"{self._pid:x}.{next(self._ids):x}"

    def span(self, name: str) -> Span:
        return Span(name, self)

    def record(self, sp: Span) -> None:
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self.dropped += 1
            else:
                self._finished.append(sp.to_record())

    # -- harvesting ---------------------------------------------------------
    def finished(self) -> list[dict]:
        """Snapshot (copy) of the finished-span records."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> list[dict]:
        """Return finished spans and clear the buffer (for worker capture)."""
        with self._lock:
            out = self._finished
            self._finished = []
            return out

    def adopt(self, records: list[dict], parent_id: str | None = None) -> None:
        """Merge foreign span records (e.g. from a pool worker).

        Records whose parent is not among the adopted batch (the worker's
        roots) are re-parented under *parent_id* so the worker's activity
        nests inside the span that dispatched it.
        """
        if not records:
            return
        ids = {rec.get("id") for rec in records}
        with self._lock:
            for rec in records:
                if rec.get("parent") not in ids:
                    rec = dict(rec, parent=parent_id)
                if len(self._finished) >= self.max_spans:
                    self.dropped += 1
                else:
                    self._finished.append(rec)

    def reset(self) -> None:
        with self._lock:
            self._finished = []
            self.dropped = 0


#: process-global tracer; disabled until ``enable_tracing()``
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER.enabled


def enable_tracing(max_spans: int | None = None) -> Tracer:
    """Turn span collection on for this process (idempotent)."""
    _TRACER.enabled = True
    if max_spans is not None:
        _TRACER.max_spans = int(max_spans)
    return _TRACER


def disable_tracing() -> None:
    _TRACER.enabled = False


def span(name: str) -> "Span | _NullSpan":
    """A live span when tracing is on, :data:`NULL_SPAN` otherwise.

    The disabled path must stay allocation-free: no kwargs, no closure,
    just a flag test and the shared singleton.
    """
    if _TRACER.enabled:
        return Span(name, _TRACER)
    return NULL_SPAN


def current_span() -> "Span | _NullSpan":
    """The innermost live span on this thread (:data:`NULL_SPAN` if none).

    Lets deep call sites annotate the operation that is already being
    timed (``obs.current_span().set(mode="fused")``) without opening a
    new span.
    """
    if _TRACER.enabled:
        cur = _TRACER.current()
        if cur is not None:
            return cur
    return NULL_SPAN


def _swap_tracer(tracer: Tracer) -> Tracer:
    """Install *tracer* as the process-global one; returns the old tracer.

    Used by the worker-capture contract (fresh tracer per task batch) and
    by tests that need isolation.
    """
    global _TRACER
    old, _TRACER = _TRACER, tracer
    return old
