"""The multi-structure batch service: sticky workers, batching, lifecycle.

:class:`BatchService` is the transport-independent core behind both the
Unix-socket server and the in-process :class:`~repro.service.client.BatchClient`.
It owns

* a **worker pool** (:class:`~repro.service.worker.Worker`) — each worker
  is the exclusive owner of a set of structures and their resident
  calculators, so per-structure state reuse needs no cross-worker
  coordination;
* a **sticky routing table** — a structure is assigned to the
  least-loaded worker at ``load`` and every later request for it goes to
  the same worker (the whole point: the calculator that has the warm
  Verlet lists / H pattern / regions / window / μ must be the one that
  answers);
* a **batcher** — :meth:`submit_many` coalesces concurrent requests into
  one ordered batch per worker and fans the per-worker batches through
  :func:`repro.parallel.pool.map_tasks` (inline on the calling thread
  when the requests touch one worker, a shared thread executor when
  they touch several — worker objects are not picklable).
  Threads overlap per-worker batches only while a kernel has the GIL
  released (BLAS on large blocks); small structures are
  interpreter-bound and a batch then takes the *sum* of its evals, on
  one worker or several — measured 4.57 ms for 2 × 2.19 ms 8-atom
  ``diag`` evals (docs/service.md "Batching");
* **lifecycle** — per-structure eviction under a memory budget (LRU on
  measured resident bytes — measured when read, not per request —
  snapshot retained), worker crash recovery
  (crashed worker replaced, its structures lazily re-materialized from
  their :class:`~repro.state.StructureSnapshot`), graceful drain, and a
  ``stats`` endpoint (queue depth, reuse hit rate, p50/p99 latency).

Consistency guarantees:

* requests for one structure are totally ordered (sticky worker + one
  batch at a time per worker);
* a re-materialized structure answers exactly like a cold calculator —
  snapshots capture only client-visible state, never calculator caches.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ReproError, ServiceError
from repro.log import get_logger
from repro.parallel.pool import map_tasks
from repro.service import protocol
from repro.service.worker import Worker
from repro.state import StructureSnapshot
from repro.utils.timing import tick

log = get_logger(__name__)


@dataclass
class _StructureRecord:
    """Master-side bookkeeping for one registered structure."""

    structure_id: str
    worker_id: int
    snapshot: StructureSnapshot
    calc_spec: dict
    resident: bool = True
    evals: int = 0
    last_used: float = field(default_factory=time.monotonic)


class BatchService:
    """Transport-independent batch-evaluation service.

    Parameters
    ----------
    nworkers :
        Resident calculator workers.  Structures are spread over workers
        at ``load`` time and stay put (sticky routing).
    memory_budget_bytes :
        Soft cap on measured resident calculator state, enforced after
        every batch by LRU eviction (the most recently used structure is
        never evicted — a budget smaller than one structure must degrade
        to per-request re-materialization, not to an empty service).
        ``None`` disables eviction.
    debug_ops :
        Honour the ``debug_crash`` fault-injection op (tests only).
    traj_dir :
        Directory for the service's trajectory result store.  ``None``
        (the default) uses a temporary directory that lives as long as
        the service — refs then resolve only against this instance.
    """

    LATENCY_WINDOW = 4096

    def __init__(self, nworkers: int = 1,
                 memory_budget_bytes: int | None = None,
                 debug_ops: bool = False,
                 traj_dir: str | None = None):
        if nworkers < 1:
            raise ServiceError("nworkers must be >= 1")
        self.debug_ops = bool(debug_ops)
        self.memory_budget_bytes = memory_budget_bytes
        self._traj_dir = traj_dir
        self._traj_store = None     # built on first use (most sessions
        self._traj_store_lock = threading.Lock()   # never produce one)
        self.workers: list[Worker] = [
            Worker(i, debug_ops=debug_ops, traj_store=self._get_traj_store)
            for i in range(nworkers)]
        self._worker_locks = [threading.RLock() for _ in range(nworkers)]
        self._registry_lock = threading.RLock()
        self._records: dict[str, _StructureRecord] = {}
        # a submit_many that touches several workers fans its per-worker
        # batches through this shared executor; one worker dispatches inline
        self._executor = (ThreadPoolExecutor(max_workers=min(nworkers, 4))
                          if nworkers > 1 else None)
        # the service's one bookkeeper: stats() projects it.  The latency
        # reservoir is a ring of the last LATENCY_WINDOW observations
        # (+ lifetime count/sum/min/max) — a long-lived server's latency
        # tracking has a hard memory ceiling
        self.counts = obs.MetricsScope()
        self.counts.histogram("service.request_ms",
                              maxlen=self.LATENCY_WINDOW)
        self._queue_depth_fn = None     # set by the socket transport
        self._started = time.monotonic()
        self._draining = False

    # -- public API ---------------------------------------------------------
    def submit(self, request: dict) -> dict:
        """Handle one request synchronously (== a batch of one)."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: list[dict]) -> list[dict]:
        """Handle a batch of requests; responses align with *requests*.

        Requests touching different workers run on separate pool
        threads (concurrent only where the kernels release the GIL —
        see the module docstring); requests that all land on one worker
        run on the calling thread, with no hand-off.  Requests for one
        structure run in list order on its sticky worker.
        """
        t_submit = tick()
        responses: list[dict | None] = [None] * len(requests)
        per_worker: dict[int, list[tuple[int, dict]]] = {}

        for idx, req in enumerate(requests):
            try:
                req = protocol.validate_request(req)
                op = req["op"]
                if op in ("ping", "stats", "metrics", "list", "shutdown",
                          "frames"):
                    responses[idx] = self._service_op(req)
                    continue
                if op == "load":
                    # decode + snapshot the payload *before* routing —
                    # never inside the registry lock (a big structure
                    # must not stall every other client's routing)
                    req["_atoms"] = protocol.decode_atoms(
                        req.get("structure"))
                    req["_snapshot"] = StructureSnapshot.capture(
                        req["_atoms"])
                wid = self._route(req)
                per_worker.setdefault(wid, []).append((idx, req))
            except Exception as exc:
                responses[idx] = protocol.error_response(req, exc)

        if per_worker:
            batches = sorted(per_worker.items())
            for _, b in batches:
                self.counts.observe("service.batch_size", len(b))
            self.counts.counter_inc("service.batches", len(batches))
            # one worker's batch runs right here: a pool thread could
            # overlap it with nothing, and handing it over and waiting
            # for it back are two thread wake-ups whose cost is the
            # host scheduler's, not the request's
            results = map_tasks(
                self._run_worker_batch, batches, nworkers=1,
                executor=self._executor if len(batches) > 1 else None)
            for batch_out in results:
                for idx, resp in batch_out:
                    responses[idx] = resp

        now = tick()
        n_errors = 0
        for req, resp in zip(requests, responses):
            if resp is not None and not resp.get("ok", False):
                n_errors += 1
            t0 = req.get("_t0", t_submit) if isinstance(req, dict) \
                else t_submit
            self.counts.observe("service.request_ms", 1e3 * (now - t0))
            if isinstance(req, dict) and "_t0" in req:
                # transport-stamped arrival time → time spent queued
                # and coalesced before the batch started executing
                self.counts.observe("service.queue_wait_ms",
                                    1e3 * (t_submit - req["_t0"]))
        self.counts.counter_inc("service.requests", len(requests))
        if n_errors:
            self.counts.counter_inc("service.errors", n_errors)
        self._enforce_memory_budget()
        return responses

    def drain(self) -> None:
        """Stop admitting new work and wait for in-flight batches."""
        self._draining = True
        for lock in self._worker_locks:
            with lock:
                pass

    def close(self) -> None:
        """Drain and release the dispatch thread pool."""
        self.drain()
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        with self._traj_store_lock:
            if self._traj_store is not None:
                self._traj_store.close()
                self._traj_store = None

    def _get_traj_store(self):
        """The service's :class:`~repro.trajio.store.TrajStore`, built on
        first use (shared by every worker and the ``frames`` op)."""
        with self._traj_store_lock:
            if self._traj_store is None:
                from repro.trajio.store import TrajStore
                self._traj_store = TrajStore(self._traj_dir)
            return self._traj_store

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- routing and service-level ops --------------------------------------
    def _route(self, req: dict) -> int:
        """Sticky worker id for a structure op (assigning on ``load``)."""
        sid = req["structure_id"]
        with self._registry_lock:
            if self._draining and req["op"] != "unload":
                raise ServiceError("service is draining; not accepting work")
            rec = self._records.get(sid)
            if req["op"] == "load":
                if rec is None:
                    counts = {i: 0 for i in range(len(self.workers))}
                    for r in self._records.values():
                        counts[r.worker_id] += 1
                    wid = min(counts, key=lambda i: (counts[i], i))
                    # provisional until the worker accepts the load —
                    # _bookkeep_success commits it, a failure removes it
                    rec = _StructureRecord(
                        structure_id=sid, worker_id=wid,
                        snapshot=req["_snapshot"],
                        calc_spec=dict(req.get("calc") or {}),
                        resident=False)
                    self._records[sid] = rec
                    req["_new_record"] = True
                # reload keeps the sticky assignment; snapshot and spec
                # are replaced only after the worker accepts the load
                return rec.worker_id
            if rec is None:
                raise ServiceError(
                    f"unknown structure {sid!r} — load it first")
            return rec.worker_id

    def _service_op(self, req: dict) -> dict:
        op = req["op"]
        if op == "ping":
            return protocol.ok_response(req, pong=True)
        if op == "list":
            with self._registry_lock:
                return protocol.ok_response(req, structures=sorted(
                    self._records))
        if op == "stats":
            return protocol.ok_response(req, stats=self.stats())
        if op == "metrics":
            # stats plus the process registry snapshot (summaries only —
            # raw reservoirs stay server-side) under the service's own
            # always-on counts, which are its superset for every
            # instrument the service owns
            snap = obs.get_registry().snapshot(samples=False)
            for kind, own in self.counts.snapshot(samples=False).items():
                snap[kind].update(own)
            return protocol.ok_response(
                req, stats=self.stats(), metrics=snap)
        if op == "shutdown":
            # the transport watches for this and stops its loops; the
            # in-process client treats it as a drain request
            self._draining = True
            return protocol.ok_response(req, draining=True)
        if op == "frames":
            return self._frames_op(req)
        raise ServiceError(f"unhandled service op {op!r}")  # pragma: no cover

    def _frames_op(self, req: dict) -> dict:
        """Serve a frame range straight from the trajectory store.

        No worker is involved and nothing is re-materialized: the
        chunk index finds the range, each chunk it touches is decoded
        once (CRC + the few deflated sections of its bytes) and only
        the frames requested are materialised from it — a stride of 64
        pays one chunk decode per frame but never 64 frames' worth of
        arrays — so a client can page through a huge stored run lazily.
        """
        ref = req["traj_ref"]
        start = int(req.get("start") or 0)
        stop = req.get("stop")
        raw_stride = req.get("stride")
        stride = 1 if raw_stride is None else int(raw_stride)
        if stride < 1:
            raise ServiceError(f"stride must be >= 1, got {stride}")
        try:
            reader = self._get_traj_store().open(ref)
        except KeyError:
            raise ServiceError(f"unknown traj_ref {ref!r}") from None
        with obs.span("service.frames") as sp, reader:
            total = len(reader)
            if start < 0:
                start += total
            stop_ = total if stop is None else min(int(stop), total)
            frames = [protocol.encode_frame(f)
                      for f in reader.iter_frames(start, stop_, stride)]
            symbols = reader.symbols
            sp.set(ref=ref, frames=len(frames))
        self.counts.counter_inc("service.frames_served", len(frames))
        return protocol.ok_response(
            req, traj_ref=ref, total=total, start=start, stop=stop_,
            stride=stride, symbols=symbols, frames=frames)

    # -- worker batch execution ---------------------------------------------
    def _run_worker_batch(self, batch: tuple[int, list[tuple[int, dict]]]
                          ) -> list[tuple[int, dict]]:
        wid, items = batch
        out: list[tuple[int, dict]] = []
        with self._worker_locks[wid]:
            for idx, req in items:
                out.append((idx, self._run_one(wid, req)))
        return out

    def _run_one(self, wid: int, req: dict) -> dict:
        with obs.span("service.request") as sp:
            resp = self._run_one_impl(wid, req)
            sp.set(op=req.get("op"), structure=req.get("structure_id"),
                   worker=wid, ok=bool(resp.get("ok")))
            if "warm" in resp:
                sp.set(warm=bool(resp["warm"]))
        return resp

    def _run_one_impl(self, wid: int, req: dict) -> dict:
        worker = self.workers[wid]
        sid = req.get("structure_id")
        with self._registry_lock:
            rec = self._records.get(sid)
        try:
            if rec is not None and not rec.resident \
                    and req["op"] not in ("load", "unload"):
                # unload is excluded: rebuilding a calculator just to
                # discard it would be pure waste
                try:
                    self._rematerialize(worker, rec)
                except ReproError as exc:
                    # a calculator that cannot be rebuilt (e.g. model
                    # parameters went away) is this request's problem,
                    # not grounds to discard the whole worker
                    return protocol.error_response(req, ServiceError(
                        f"re-materializing structure "
                        f"{rec.structure_id!r} failed: {exc}"))
            resp = worker.handle(req)
        except Exception as exc:
            log.warning("worker %d crashed handling op %r on %r: %s: %s",
                        wid, req.get("op"), sid, type(exc).__name__, exc)
            self._handle_crash(wid, exc)
            resp = protocol.error_response(req, ServiceError(
                f"worker {wid} crashed handling this request "
                f"({type(exc).__name__}: {exc}); its structures will be "
                f"re-materialized from their last snapshots"))
        if resp.get("ok"):
            self._bookkeep_success(rec, req, resp)
        elif req["op"] == "load" and req.get("_new_record"):
            # a first load the worker rejected — or crashed on — must
            # not leave a registry entry behind; later requests still
            # answer "load it first"
            with self._registry_lock:
                self._records.pop(req["structure_id"], None)
        return resp

    def _bookkeep_success(self, rec: _StructureRecord | None, req: dict,
                          resp: dict) -> None:
        op = req["op"]
        with self._registry_lock:
            if rec is None:
                return
            if op == "unload":
                self._records.pop(rec.structure_id, None)
                return
            rec.last_used = time.monotonic()
            if op == "load":
                # the worker accepted the (re)load: commit snapshot + spec
                rec.snapshot = req["_snapshot"]
                rec.calc_spec = dict(req.get("calc") or {})
                rec.resident = True
                return
            rec.evals += 1
            if "warm" in resp:
                if resp["warm"]:
                    self.counts.counter_inc("service.warm_evals")
                else:
                    self.counts.counter_inc("service.cold_evals")
            # advance the snapshot to the client-visible geometry
            pos = req.get("positions")
            cell = req.get("cell")
            if pos is not None or cell is not None:
                rec.snapshot.update(positions=pos, cell=cell)

    def _rematerialize(self, worker: Worker, rec: _StructureRecord) -> None:
        """Bring an evicted / crash-lost structure back from its snapshot
        (a cold calculator — answers must match a fresh one exactly)."""
        atoms = rec.snapshot.materialize()
        worker.load_structure(rec.structure_id, atoms, rec.calc_spec)
        with self._registry_lock:
            rec.resident = True
        self.counts.counter_inc("service.rematerializations")
        log.info("re-materialized structure %r on worker %d",
                 rec.structure_id, worker.worker_id)

    def _handle_crash(self, wid: int, exc: Exception) -> None:
        """Replace a crashed worker; its structures rebuild lazily."""
        with self._registry_lock:
            self.workers[wid] = Worker(wid, debug_ops=self.debug_ops,
                                       traj_store=self._get_traj_store)
            for rec in self._records.values():
                if rec.worker_id == wid:
                    rec.resident = False
        self.counts.counter_inc("service.worker_crashes")

    # -- eviction ------------------------------------------------------------
    def _enforce_memory_budget(self) -> None:
        if self.memory_budget_bytes is None:
            return
        held = self._resident_bytes()
        with self._registry_lock:
            resident = [r for r in self._records.values() if r.resident]
            if len(resident) <= 1:
                return
            usage = sum(held.values())
            if usage <= self.memory_budget_bytes:
                return
            # LRU first; never evict the most recently used structure
            resident.sort(key=lambda r: r.last_used)
            victims = []
            for rec in resident[:-1]:
                if usage <= self.memory_budget_bytes:
                    break
                if rec.structure_id not in held:
                    rec.resident = False    # stale flag, nothing held
                    continue
                usage -= held[rec.structure_id]
                victims.append((rec, rec.last_used))
        for rec, seen_last_used in victims:
            # worker-then-registry, the same order the batch path uses
            with self._worker_locks[rec.worker_id], self._registry_lock:
                if not rec.resident or rec.last_used != seen_last_used:
                    continue   # touched since selection — spare it
                rec.resident = False
                evicted = self.workers[rec.worker_id].slots.pop(
                    rec.structure_id, None)
                if evicted is not None:
                    self.counts.counter_inc("service.evictions")
                    log.info("evicted structure %r from worker %d "
                             "(LRU, over memory budget)",
                             rec.structure_id, rec.worker_id)

    def _resident_bytes(self) -> dict[str, int]:
        """Measured bytes per resident structure.  Each worker's slots
        are read under that worker's lock (a stale estimate re-walks the
        calculator, which a running batch may be mutating), one worker
        at a time and never inside the registry lock."""
        held: dict[str, int] = {}
        for wid, lock in enumerate(self._worker_locks):
            with lock:
                for sid, slot in self.workers[wid].slots.items():
                    held[sid] = slot.bytes_estimate
        return held

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """The ``stats`` endpoint payload (all plain-JSON values)."""
        count = self.counts.count
        lat = self.counts.histogram("service.request_ms")
        sizes = self.counts.histogram("service.batch_size")
        warm, cold = count("service.warm_evals"), count("service.cold_evals")
        held = self._resident_bytes()
        with self._registry_lock:
            now = time.monotonic()
            structures = {}
            for sid, rec in sorted(self._records.items()):
                structures[sid] = {
                    "worker": rec.worker_id,
                    "resident": rec.resident,
                    "natoms": len(rec.snapshot.symbols),
                    "evals": rec.evals,
                    "idle_s": round(now - rec.last_used, 3),
                    "resident_bytes": held.get(sid, 0),
                }
            return {
                "uptime_s": round(now - self._started, 3),
                "n_workers": len(self.workers),
                "draining": self._draining,
                "queue_depth": (self._queue_depth_fn()
                                if self._queue_depth_fn else 0),
                "requests_total": count("service.requests"),
                "errors_total": count("service.errors"),
                "batches": {"count": count("service.batches"),
                            "mean_size": round(sizes.mean, 3),
                            "max_size": (int(sizes.max) if sizes.count
                                         else 0),
                            # why the transport closed each coalesced
                            # batch (all 0 without a socket transport)
                            "closed_by": {
                                "complete": count(
                                    "service.batch_close.complete"),
                                "window": count(
                                    "service.batch_close.window"),
                                "cap": count("service.batch_close.cap")}},
                "latency_ms": {
                    "count": int(lat.count),
                    "p50": (round(lat.percentile(50), 3)
                            if lat.count else None),
                    "p99": (round(lat.percentile(99), 3)
                            if lat.count else None),
                },
                "state_reuse": {
                    "warm_evals": warm,
                    "cold_evals": cold,
                    "hit_rate": (round(warm / (warm + cold), 4)
                                 if warm + cold else None),
                },
                "lifecycle": {
                    "worker_crashes": count("service.worker_crashes"),
                    "evictions": count("service.evictions"),
                    "rematerializations": count(
                        "service.rematerializations"),
                },
                "memory": {
                    "budget_bytes": self.memory_budget_bytes,
                    "resident_bytes": sum(held.values()),
                },
                "structures": structures,
            }
