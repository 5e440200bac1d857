"""JSON-lines-over-Unix-socket transport for the batch service.

One accept thread, one reader thread per connection, one dispatcher
thread.  Readers decode lines into request dicts and enqueue them on the
shared :class:`~repro.service.batcher.CoalescingQueue` together with a
reply callback bound to their connection; the dispatcher drains the
queue in coalesced batches, hands each batch to
:meth:`BatchService.submit_many`, and routes every response back to the
connection its request came from.  Malformed lines are answered
immediately with an error response (id ``null``) — a broken client never
reaches the service core, let alone takes it down.

A batch closes as soon as it is **complete** — the queue is empty, every
open connection already has a request in it, and no reader is mid-chunk
or holding a partial line (the feed guard: a pipelined
``request_many`` is enqueued one line at a time and must not be split).
Otherwise it closes at ``batch_window_s``, the upper bound: an idle
extra connection costs the others the window, never more.  Why each
batch closed is counted as ``service.batch_close.*`` on the service.

A ``shutdown`` request (or :meth:`UnixSocketServer.stop`) drains the
queue, closes the listener and unlinks the socket path.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
from types import MappingProxyType

from repro.errors import ServiceError
from repro.service import protocol
from repro.service.batcher import CoalescingQueue
from repro.service.service import BatchService
from repro.utils.timing import tick

#: CoalescingQueue.closed_by -> the service counter that records it
_CLOSE_COUNTERS = MappingProxyType({
    "complete": "service.batch_close.complete",
    "window": "service.batch_close.window",
    "cap": "service.batch_close.cap",
})


class UnixSocketServer:
    """Serve a :class:`BatchService` on a Unix stream socket.

    Parameters
    ----------
    service :
        The :class:`~repro.service.service.BatchService` to expose.
    socket_path :
        Filesystem path of the Unix socket (created on :meth:`start`,
        unlinked on :meth:`stop`).
    batch_window_s, max_batch :
        Coalescing knobs (see :class:`CoalescingQueue`): the longest a
        request waits for company, and the batch-size cap.
    """

    def __init__(self, service: BatchService, socket_path: str,
                 batch_window_s: float = 0.002, max_batch: int = 64):
        self.service = service
        self.socket_path = str(socket_path)
        self.queue = CoalescingQueue(batch_window_s=batch_window_s,
                                     max_batch=max_batch)
        service._queue_depth_fn = self.queue.depth
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._dispatch_thread: threading.Thread | None = None
        self._reader_threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        # feed guard: connections whose reader is mid-chunk or holds a
        # partial line, i.e. may still add to the batch being gathered
        self._feeding: set[socket.socket] = set()
        self._conns_lock = threading.Lock()     # guards both sets
        self._stop = threading.Event()
        self._started = threading.Event()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Bind, listen and spin up the accept + dispatch threads."""
        if self._listener is not None:
            raise ServiceError("server already started")
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True)
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="service-dispatch", daemon=True)
        self._accept_thread.start()
        self._dispatch_thread.start()
        self._started.set()

    def serve_forever(self) -> None:
        """start() then block until a shutdown request (or stop())."""
        if self._listener is None:
            self.start()
        try:
            while not self._stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            pass
        self.stop()

    def stop(self) -> None:
        """Drain in-flight work, close the listener, unlink the socket.

        Order matters: the dispatcher is joined *first* so every queued
        request is answered over its still-open connection; only then
        are the client sockets closed.
        """
        self._stop.set()
        me = threading.current_thread()
        if self._dispatch_thread is not None and self._dispatch_thread is not me:
            # generous: a full coalesced batch of heavy evals may
            # legitimately take minutes, and clients were promised their
            # queued responses
            self._dispatch_thread.join(timeout=300.0)
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
            self._listener = None
        with self._conns_lock:
            conns, self._conns = list(self._conns), set()
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.close()
        for t in [self._accept_thread, *self._reader_threads]:
            if t is not None and t is not me:
                t.join(timeout=5.0)
        self._reader_threads.clear()
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        self.service.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    # -- threads ------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                # periodic pass: also prune reader threads whose
                # connections are long gone
                self._reader_threads = [t for t in self._reader_threads
                                        if t.is_alive()]
                continue
            except OSError:
                return
            with self._conns_lock:
                self._conns.add(conn)
            t = threading.Thread(target=self._reader_loop, args=(conn,),
                                 name="service-reader", daemon=True)
            t.start()
            self._reader_threads.append(t)

    def _reply_fn(self, conn: socket.socket, lock: threading.Lock):
        def reply(resp: dict) -> None:
            try:
                payload = protocol.dumps(resp)
            except (TypeError, ValueError) as exc:
                payload = protocol.dumps(protocol.error_response(
                    {"id": resp.get("id")},
                    ServiceError(f"unserializable response: {exc}")))
            try:
                with lock:
                    # the connection's 0.2 s recv-poll timeout is far too
                    # tight for a multi-MB force payload to a client that
                    # is momentarily busy; give the send its own bound
                    conn.settimeout(30.0)
                    try:
                        conn.sendall(payload)
                    finally:
                        conn.settimeout(0.2)
            except OSError:
                # a failed/partial send leaves the JSON-lines stream
                # unparsable — kill the connection rather than keep
                # appending mid-line garbage the client cannot frame
                self._close_conn(conn)
        return reply

    def _close_conn(self, conn: socket.socket) -> None:
        with self._conns_lock:
            self._conns.discard(conn)
            self._feeding.discard(conn)
        self.queue.notify()     # one fewer connection to wait for
        with contextlib.suppress(OSError):
            conn.close()

    def _batch_complete(self, batch: list) -> bool:
        """Nobody else can contribute to *batch*: no reader is feeding
        and every open connection already has a request in it."""
        with self._conns_lock:
            return not self._feeding and self._conns <= {
                conn for _, _, conn in batch}

    def _reader_loop(self, conn: socket.socket) -> None:
        reply = self._reply_fn(conn, threading.Lock())
        conn.settimeout(0.2)
        buf = b""
        while not self._stop.is_set():
            try:
                chunk = conn.recv(1 << 16)
            except socket.timeout:
                continue
            except OSError:
                self._close_conn(conn)
                return
            if not chunk:          # peer hung up
                self._close_conn(conn)
                return
            with self._conns_lock:
                self._feeding.add(conn)
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if not line.strip():
                    continue
                self._handle_line(line, reply, conn)
            if not buf:            # every line of the chunk is queued
                with self._conns_lock:
                    self._feeding.discard(conn)
                self.queue.notify()
        # shutting down: requests this client already sent (kernel- or
        # userspace-buffered) are still admitted — shutdown stops
        # *future* traffic, not work in flight
        with contextlib.suppress(OSError):
            conn.setblocking(False)
            while True:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    break
                buf += chunk
        *lines, _partial = buf.split(b"\n")   # no trailing \n = incomplete
        for line in lines:
            if line.strip():
                self._handle_line(line, reply, conn)
        # leave the connection open — the dispatcher may still owe this
        # client responses; stop() closes it after the queue is drained

    def _handle_line(self, line: bytes, reply, conn: socket.socket) -> None:
        try:
            req = protocol.validate_request(protocol.loads(line))
        except Exception as exc:
            reply(protocol.error_response(None, exc))
            return
        req["_t0"] = tick()     # queue wait counts as latency
        if req["op"] == "shutdown":
            # answer first, then let the dispatcher drain what is queued
            reply(protocol.ok_response(req, draining=True))
            self._stop.set()
            return
        self.queue.put((req, reply, conn))

    def _dispatch_loop(self) -> None:
        while True:
            batch = self.queue.get_batch(timeout=0.1,
                                         complete=self._batch_complete)
            if not batch:
                if self._stop.is_set() and not any(
                        t.is_alive() for t in self._reader_threads):
                    return   # stop requested, readers done, queue drained
                continue
            self.service.counts.counter_inc(
                _CLOSE_COUNTERS[self.queue.closed_by])
            requests = [req for req, _, _ in batch]
            try:
                responses = self.service.submit_many(requests)
            except Exception as exc:   # pragma: no cover - defensive
                responses = [protocol.error_response(r, exc)
                             for r in requests]
            for (_, reply, _), resp in zip(batch, responses):
                reply(resp)
