"""Request coalescing for the socket transport.

Connection reader threads push ``(request, reply, connection)`` items
into a :class:`CoalescingQueue`; a single dispatcher thread pulls
*batches*: it blocks for the first item, then keeps gathering until the
batch is **complete** (the queue is empty and the transport's predicate
says nobody else can contribute), the coalescing window expires, or the
batch cap is hit.  The window is an upper bound on the wait, not the
wait: a lone closed-loop client pays none of it.  The gathered batch
goes to :meth:`BatchService.submit_many` in one call, so requests that
arrive close together — 16 MD clients all asking for forces at once —
are grouped into per-worker batches instead of paying one dispatch
round-trip each.

The queue is also the service's back-pressure signal: its depth is what
the ``stats`` endpoint reports.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable


class CoalescingQueue:
    """A thread-safe queue drained in adaptive batches (one consumer)."""

    def __init__(self, batch_window_s: float = 0.002, max_batch: int = 64):
        self._items: deque = deque()
        self._cond = threading.Condition()
        self.batch_window_s = float(batch_window_s)
        self.max_batch = int(max_batch)
        #: why the batch last returned by :meth:`get_batch` closed:
        #: ``"complete"``, ``"window"`` or ``"cap"``
        self.closed_by: str | None = None

    def put(self, item) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify()

    def notify(self) -> None:
        """Wake a coalescing :meth:`get_batch` to ask its *complete*
        predicate again — the producer's state changed without a put."""
        with self._cond:
            self._cond.notify()

    def depth(self) -> int:
        return len(self._items)

    def get_batch(self, timeout: float = 0.25, *,
                  complete: Callable[[list], bool] | None = None) -> list:
        """Block up to *timeout* for the first item, then coalesce.

        Everything already queued is drained first (up to ``max_batch``);
        only then is ``complete(batch)`` consulted, and a true answer
        returns the batch without sleeping.  A false answer (or no
        predicate) waits for the next :meth:`put` / :meth:`notify`, at
        most until ``batch_window_s`` after the first item was taken.
        *complete* runs with the queue locked: it must not call back
        into the queue.

        Returns an empty list on timeout (the dispatcher uses that to
        poll its stop flag).
        """
        with self._cond:
            if not self._cond.wait_for(lambda: self._items, timeout):
                return []
            batch: list = []
            deadline = time.monotonic() + self.batch_window_s
            while True:
                while self._items and len(batch) < self.max_batch:
                    batch.append(self._items.popleft())
                if len(batch) >= self.max_batch:
                    self.closed_by = "cap"
                    return batch
                if complete is not None and complete(batch):
                    self.closed_by = "complete"
                    return batch
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.closed_by = "window"
                    return batch
                self._cond.wait(remaining)
