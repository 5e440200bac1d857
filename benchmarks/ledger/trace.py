"""Outside-in span tracing: timing wrappers around public callables.

Nothing under ``src/`` knows about this module.  :class:`Tracer` patches
timing wrappers over public functions and methods *at the attribute
where their callers look them up*, keeps the spans in per-thread memory
buffers, and restores every attribute on :meth:`Tracer.uninstall`.

A span is ``(name, start, end, parent, thread, ops)``.  ``ops`` are the
ids of the timed operations (MD step, sweep point, request, seek) the
span worked for; a batch-level span (``submit_many``) carries several.
Same-thread nesting gives the parent directly; a span that starts a
thread's stack (a server-side span of a request) is adopted afterwards
by the tightest span of the same op that encloses it in time
(:func:`resolve_parents`).  A span's **self time** is its duration minus
the part of that interval its children cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter


class TraceError(Exception):
    """A callable the trace table names does not exist (renamed API)."""


class Span:
    __slots__ = ("name", "fn", "start", "end", "parent", "thread", "ops",
                 "phase", "value")

    def __init__(self, name, fn, start, end, parent, thread, ops, phase,
                 value=0.0):
        self.name = name        # layer span name (spec.SPAN_NAMES)
        self.fn = fn            # the wrapped callable's own name
        self.start = start
        self.end = end
        self.parent = parent    # Span | None (same-thread stack parent)
        self.thread = thread
        self.ops = ops          # tuple of op ids
        self.phase = phase      # "setup" | "timed[.section]"
        self.value = value      # bytes / flop attached by a hook

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(dotted: str):
    """``"pkg.mod:Class.attr"`` → ``(owner, attr, callable)``."""
    modname, _, path = dotted.partition(":")
    try:
        owner = importlib.import_module(modname)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
    except (ImportError, AttributeError) as exc:
        raise TraceError(
            f"traced callable {dotted!r} not found ({exc}); the public API "
            f"the ledger measures was renamed or removed") from exc


class Tracer:
    """Span recorder + monkey-patch bookkeeping.

    ``phase`` gates recording: while it is ``None`` every wrapper is a
    pass-through, so set-up repeats and correctness checks stay out of
    the trace.
    """

    def __init__(self) -> None:
        self.phase: str | None = None
        self._tls = threading.local()
        self._buffers: list[list[Span]] = []
        self._lock = threading.Lock()
        self._op_ids = itertools.count()
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- recording ----------------------------------------------------------
    def _state(self) -> tuple[list, list]:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = ([], [])          # (finished spans, open-span stack)
            self._tls.st = st
            with self._lock:
                self._buffers.append(st[0])
        return st

    def record(self, name: str, fn: str, start: float, end: float,
               ops: tuple, phase: str) -> None:
        """Append a finished span that never sat on a stack (a wait)."""
        self._state()[0].append(Span(name, fn, start, end, None,
                                     threading.get_ident(), ops, phase))

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for buf in self._buffers for s in buf]

    def wrap(self, func, name: str, *, starts_op: bool = False,
             ops_of=None, after=None):
        """Timing wrapper for *func* recording spans called *name*.

        *ops_of(args, kwargs)* names the ops explicitly (request ids);
        otherwise the span inherits its stack parent's ops, and with
        *starts_op* an op-less span opens a new op.  *after(span, args,
        result)* may attach ops/value once the call has returned.
        """
        fn = getattr(func, "__name__", name)
        op_ids = self._op_ids

        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return func(*args, **kwargs)
            buf, stack = self._state()
            parent = stack[-1] if stack else None
            ops = ops_of(args, kwargs) if ops_of is not None else ()
            if not ops and parent is not None:
                ops = parent.ops
            if not ops and starts_op:
                ops = (f"{name}#{next(op_ids)}",)
            span = Span(name, fn, perf_counter(), 0.0, parent,
                        threading.get_ident(), ops, phase)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                buf.append(span)
            if after is not None:
                after(span, args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------
    def patch(self, owner, attr: str, new) -> None:
        """``setattr(owner, attr, new)``, remembered for :meth:`uninstall`."""
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def patch_callable(self, dotted: str, name: str, **kw) -> None:
        """Wrap the callable *dotted* names, wherever ``repro`` holds it.

        A method is replaced on its class.  A module-level function is
        replaced in **every** loaded ``repro`` module that imported it
        by name (``from x import f`` binds a second reference the
        defining module's attribute does not reach).
        """
        owner, attr, func = resolve(dotted)
        if isinstance(owner, type):
            self.patch(owner, attr, self.wrap(vars(owner).get(attr, func),
                                              name, **kw))
            return
        wrapped = self.wrap(func, name, **kw)
        for mod, key in self.holders(func):
            self.patch(mod, key, wrapped)

    @staticmethod
    def holders(func) -> list[tuple[object, str]]:
        """Every ``(repro module, attribute)`` currently bound to *func*."""
        return [(mod, key)
                for mod in list(sys.modules.values())
                if getattr(mod, "__name__", "").startswith("repro")
                for key, val in list(vars(mod).items()) if val is func]

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        self.phase = None
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# -- span arithmetic --------------------------------------------------------

def resolve_parents(spans: list[Span], root_names: tuple = ()
                    ) -> dict[int, list[Span]]:
    """``id(span) -> parents``: the stack parent, or for a stack-less
    span one adoptive parent per op — the latest-starting span of that
    op (another thread's) whose interval encloses it.  Spans named in
    *root_names* are never adopted.
    """
    by_op: dict = defaultdict(list)
    for s in spans:
        for op in s.ops:
            by_op[op].append(s)
    parents: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            parents[id(s)] = [s.parent]
            continue
        found: list[Span] = []
        if s.name not in root_names:
            for op in s.ops:
                best = None
                for c in by_op[op]:
                    if c is s or c.thread == s.thread:
                        continue
                    if c.start <= s.start and s.end <= c.end and (
                            best is None or c.start > best.start):
                        best = c
                if best is not None and best not in found:
                    found.append(best)
        parents[id(s)] = found
    return parents


def covered(intervals: list[tuple[float, float]], lo: float, hi: float
            ) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span], root_names: tuple = ()
               ) -> dict[int, float]:
    """``id(span) -> self time``: duration minus what its children
    (same-thread and adopted) cover, overlapping children counted once."""
    parents = resolve_parents(spans, root_names)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        for p in parents[id(s)]:
            children[id(p)].append((s.start, s.end))
    return {id(s): s.duration - covered(children.get(id(s), []), s.start, s.end)
            for s in spans}


def aggregate(spans: list[Span], root_names: tuple = ()) -> dict[str, dict]:
    """Per span name: ``calls``, ``total_s``, ``self_s``, ``value``."""
    selfs = self_times(spans, root_names)
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0, "value": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += selfs[id(s)]
        row["value"] += s.value
    return rows


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
    t0 = min((s.start for s in spans), default=0.0)
    events = [{"name": s.name, "cat": s.phase, "ph": "X", "pid": 1,
               "tid": s.thread, "ts": (s.start - t0) * 1e6,
               "dur": s.duration * 1e6,
               "args": {"fn": s.fn, "ops": [str(o) for o in s.ops]}}
              for s in sorted(spans, key=lambda s: s.start)]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: list[Span]) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh)
