"""Batch service: protocol, routing, batching, lifecycle, failure modes.

Everything here drives the service through the in-process
:class:`BatchClient` (identical core code path to the socket transport);
the socket transport itself is covered in ``test_service_server.py``.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.calculators import make_calculator
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.geometry import bulk_silicon, rattle
from repro.service import BatchClient, BatchService, CoalescingQueue
from repro.service import protocol
from repro.state import StructureSnapshot
from repro.utils.memory import resident_bytes

SW = {"model": "sw-si"}
DIAG = {"model": "gsp-si", "solver": "diag", "kT": 0.1}
LINSCALE = {"model": "gsp-si", "solver": "linscale", "kT": 0.3, "order": 60}


@pytest.fixture()
def si8():
    return rattle(bulk_silicon(), 0.04, seed=7)


@pytest.fixture()
def service():
    svc = BatchService(nworkers=2, debug_ops=True)
    yield svc
    svc.close()


@pytest.fixture()
def client(service):
    return BatchClient(service)


# -- protocol ----------------------------------------------------------------
def test_encode_decode_atoms_roundtrip(si8):
    decoded = protocol.decode_atoms(protocol.encode_atoms(si8))
    assert decoded.symbols == si8.symbols
    assert np.array_equal(decoded.positions, si8.positions)
    assert np.array_equal(decoded.cell.matrix, si8.cell.matrix)
    assert tuple(decoded.cell.pbc) == tuple(si8.cell.pbc)


def test_json_roundtrip_is_bit_exact(si8):
    wire = protocol.loads(protocol.dumps(
        {"id": 1, "structure": protocol.encode_atoms(si8)}))
    decoded = protocol.decode_atoms(wire["structure"])
    assert np.array_equal(decoded.positions, si8.positions)


def test_validate_request_rejects_garbage():
    with pytest.raises(ProtocolError):
        protocol.validate_request([1, 2, 3])
    with pytest.raises(ProtocolError):
        protocol.validate_request({"op": "sudo"})
    with pytest.raises(ProtocolError):
        protocol.validate_request({"op": "eval"})          # no structure_id
    with pytest.raises(ProtocolError):
        protocol.validate_request({"op": "eval", "structure_id": ""})


def test_loads_rejects_non_json():
    with pytest.raises(ProtocolError):
        protocol.loads(b"definitely not json")


# -- basic evaluation --------------------------------------------------------
def test_eval_matches_standalone_calculator(client, si8):
    client.load("si", si8, calc=SW)
    res = client.evaluate("si")
    ref = make_calculator(SW).compute(si8, forces=True)
    assert res["energy"] == ref["energy"]
    assert np.array_equal(res["forces"], ref["forces"])
    assert res["warm"] is False
    assert client.evaluate("si")["warm"] is True


def test_eval_sequence_state_reuse_parity(client, si8):
    """Resident-state evals must be bit-for-bit identical to a standalone
    calculator driven through the same position sequence."""
    client.load("si", si8, calc=LINSCALE)
    ref_calc = make_calculator(LINSCALE)
    ref_atoms = si8.copy()
    rng = np.random.default_rng(3)
    pos = si8.positions.copy()
    for step in range(4):
        pos = pos + rng.normal(0.0, 0.01, pos.shape)
        res = client.evaluate("si", positions=pos)
        ref_atoms.positions[:] = pos
        ref = ref_calc.compute(ref_atoms, forces=True)
        assert res["energy"] == ref["energy"]
        assert np.array_equal(res["forces"], ref["forces"])
        assert res["warm"] is (step > 0)
    stats = client.stats()
    assert stats["state_reuse"]["warm_evals"] == 3
    assert stats["state_reuse"]["hit_rate"] == pytest.approx(0.75)


def test_response_forces_never_alias_calculator_cache(client, si8):
    client.load("si", si8, calc=SW)
    first = client.evaluate("si")
    first["forces"][:] = 0.0          # a rude in-process client
    again = client.evaluate("si")     # cache hit at unchanged geometry
    ref = make_calculator(SW).compute(si8, forces=True)
    assert np.array_equal(again["forces"], ref["forces"])


def test_energy_only_then_forces(client, si8):
    client.load("si", si8, calc=DIAG)
    e = client.evaluate("si", forces=False)
    assert "forces" not in e
    f = client.evaluate("si")
    assert f["energy"] == e["energy"]
    assert f["forces"].shape == (len(si8), 3)


def test_reload_replaces_structure(client, si8):
    client.load("si", si8, calc=SW)
    e0 = client.evaluate("si")["energy"]
    shifted = si8.copy()
    shifted.positions += np.array([0.1, 0.0, 0.0])  # rigid shift, same E
    client.load("si", shifted, calc=SW)
    res = client.evaluate("si")
    assert res["warm"] is False              # reload starts a cold slot
    assert res["energy"] == pytest.approx(e0, abs=1e-9)


# -- malformed requests ------------------------------------------------------
def test_unknown_structure_is_an_error_response(service):
    client = BatchClient(service, raise_on_error=False)
    resp = client.request("eval", structure_id="nope")
    assert resp["ok"] is False
    assert resp["error"]["type"] == "ServiceError"
    assert "load it first" in resp["error"]["message"]


def test_malformed_requests_answer_not_crash(service, si8):
    client = BatchClient(service, raise_on_error=False)
    client.load("si", si8, calc=SW)
    bad = client.request_many([
        {"op": "warp", "structure_id": "si"},                # unknown op
        {"op": "eval"},                                      # missing sid
        {"op": "eval", "structure_id": "si",
         "positions": [[0.0, 0.0]]},                         # bad shape
        {"op": "eval", "structure_id": "si",
         "positions": [["x", "y", "z"]]},                    # not numeric
        {"op": "load", "structure_id": "s2", "structure": 42},
        {"op": "load", "structure_id": "s3",
         "structure": {"symbols": ["Si"],
                       "positions": [[0.0, 0.0, 0.0]]},
         "calc": {"model": "sw-si", "typo_key": 1}},         # bad spec
    ])
    assert [r["ok"] for r in bad] == [False] * 6
    # the service survived all of it
    assert client.request("eval", structure_id="si")["ok"] is True
    assert service.stats()["errors_total"] == 6


def test_mismatched_position_count_is_rejected(service, si8):
    client = BatchClient(service, raise_on_error=False)
    client.load("si", si8, calc=SW)
    resp = client.request("eval", structure_id="si",
                          positions=np.zeros((len(si8) + 1, 3)))
    assert resp["ok"] is False and "shape" in resp["error"]["message"]


def test_raise_on_error_client(client):
    with pytest.raises(ServiceError, match="load it first"):
        client.evaluate("ghost")


def test_failed_first_load_leaves_no_record(service, si8):
    client = BatchClient(service, raise_on_error=False)
    bad = client.request("load", structure_id="si",
                         structure=protocol.encode_atoms(si8),
                         calc={"model": "unobtainium"})
    assert bad["ok"] is False
    # the rejected load must not leave a half-registered structure behind
    resp = client.request("eval", structure_id="si")
    assert resp["ok"] is False and "load it first" in resp["error"]["message"]
    assert client.request("list")["structures"] == []
    # and a good load afterwards works normally
    assert client.load("si", si8, calc=SW)["ok"] is True
    assert client.request("eval", structure_id="si")["ok"] is True


def test_failed_reload_keeps_old_structure(si8):
    svc = BatchService(nworkers=1, debug_ops=True)
    client = BatchClient(svc, raise_on_error=False)
    client.load("si", si8, calc=SW)
    e_old = client.request("eval", structure_id="si")["energy"]

    shifted = si8.copy()
    shifted.positions += 0.3
    bad = client.request("load", structure_id="si",
                         structure=protocol.encode_atoms(shifted),
                         calc={"model": "sw-si", "typo": 1})
    assert bad["ok"] is False
    # the old structure (and its snapshot) must survive the failed reload:
    # evals still answer for the old geometry ...
    assert client.request("eval", structure_id="si")["energy"] == e_old
    # ... and crash recovery re-materializes with the OLD good spec, not
    # the rejected one (this used to enter a permanent crash loop)
    client.request("debug_crash", structure_id="si")
    after = client.request("eval", structure_id="si")
    assert after["ok"] is True and after["energy"] == e_old
    assert svc.stats()["lifecycle"]["worker_crashes"] == 1
    svc.close()


def test_malformed_cell_is_protocol_error_not_crash(service, si8):
    client = BatchClient(service, raise_on_error=False)
    client.load("si", si8, calc=SW)
    e0 = client.evaluate("si")["energy"]        # warm the state
    # valid positions + malformed cell: NOTHING may be applied — a
    # rejected request must leave the resident geometry untouched
    resp = client.request("eval", structure_id="si",
                          positions=si8.positions + 0.5,
                          cell=[["a", "b", "c"]] * 3)
    assert resp["ok"] is False
    assert resp["error"]["type"] == "ProtocolError"
    assert client.request("eval", structure_id="si")["energy"] == e0
    resp2 = client.request("sweep", structure_id="si", axis="not-a-number")
    assert resp2["ok"] is False
    assert resp2["error"]["type"] == "ProtocolError"
    # neither request may have cost the worker (or its warm state)
    stats = service.stats()
    assert stats["lifecycle"]["worker_crashes"] == 0
    assert client.request("eval", structure_id="si")["warm"] is True


def test_non_numeric_spec_field_is_polite_not_crash(si8):
    svc = BatchService(nworkers=1)
    client = BatchClient(svc, raise_on_error=False)
    client.load("good", si8, calc=SW)
    client.request("eval", structure_id="good")     # warm it
    bad = client.request("load", structure_id="bad",
                         structure=protocol.encode_atoms(si8),
                         calc={"model": "gsp-si", "solver": "foe",
                               "kT": 0.2, "order": "abc"})
    assert bad["ok"] is False
    stats = svc.stats()
    # the malformed field must not have cost the worker: no crash, no
    # phantom record, and the co-resident structure kept its warm state
    assert stats["lifecycle"]["worker_crashes"] == 0
    assert "bad" not in stats["structures"]
    assert client.request("eval", structure_id="good")["warm"] is True
    svc.close()


def test_crash_during_first_load_leaves_no_record(si8, monkeypatch):
    from repro.service import worker as worker_mod

    svc = BatchService(nworkers=1)
    client = BatchClient(svc, raise_on_error=False)
    real_factory = worker_mod.make_calculator

    def exploding(spec):
        if spec.skin == 123.0:     # marker for the poisoned load
            raise RuntimeError("boom")
        return real_factory(spec)

    monkeypatch.setattr(worker_mod, "make_calculator", exploding)
    resp = client.request("load", structure_id="si",
                          structure=protocol.encode_atoms(si8),
                          calc={"model": "sw-si", "skin": 123.0})
    assert resp["ok"] is False and "crashed" in resp["error"]["message"]
    stats = svc.stats()
    assert stats["lifecycle"]["worker_crashes"] == 1
    # the crashed first load must not leave a phantom record behind
    assert stats["structures"] == {}
    ev = client.request("eval", structure_id="si")
    assert ev["ok"] is False and "load it first" in ev["error"]["message"]
    # a good load afterwards works
    assert client.load("si", si8, calc=SW)["ok"] is True
    svc.close()


def test_unload_of_evicted_structure_skips_rematerialization(si8):
    svc = BatchService(nworkers=1, memory_budget_bytes=10_000)
    client = BatchClient(svc)
    for sid in ("a", "b", "c"):
        client.load(sid, si8, calc=SW)
        client.evaluate(sid)
    stats = svc.stats()
    evicted = next(s for s, v in stats["structures"].items()
                   if not v["resident"])
    remat_before = stats["lifecycle"]["rematerializations"]
    client.unload(evicted)
    after = svc.stats()
    assert evicted not in after["structures"]
    assert after["lifecycle"]["rematerializations"] == remat_before
    svc.close()


# -- worker crash ------------------------------------------------------------
def test_worker_crash_mid_batch_recovers(si8):
    svc1 = BatchService(nworkers=1, debug_ops=True)
    client = BatchClient(svc1, raise_on_error=False)
    client.load("a", si8, calc=SW)
    client.load("b", si8, calc=SW)
    ref = make_calculator(SW).compute(si8, forces=True)

    out = client.request_many([
        {"op": "eval", "structure_id": "a"},
        {"op": "debug_crash", "structure_id": "b"},
        {"op": "eval", "structure_id": "b"},     # after the crash
    ])
    assert out[0]["ok"] is True
    assert out[1]["ok"] is False
    assert "crashed" in out[1]["error"]["message"]
    # the post-crash request was served by a re-materialized structure
    # and answers exactly like a cold calculator
    assert out[2]["ok"] is True
    assert np.array_equal(np.asarray(out[2]["forces"]), ref["forces"])

    stats = svc1.stats()
    assert stats["lifecycle"]["worker_crashes"] == 1
    assert stats["lifecycle"]["rematerializations"] >= 1
    # 'a' was lost with the worker too; next eval is cold but correct
    ra = client.request("eval", structure_id="a")
    assert ra["ok"] is True and ra["warm"] is False
    assert np.array_equal(np.asarray(ra["forces"]), ref["forces"])
    svc1.close()


def test_debug_crash_disabled_by_default(si8):
    with BatchService(nworkers=1) as svc:
        client = BatchClient(svc, raise_on_error=False)
        client.load("a", si8, calc=SW)
        resp = client.request("debug_crash", structure_id="a")
        assert resp["ok"] is False
        assert "disabled" in resp["error"]["message"]
        assert svc.stats()["lifecycle"]["worker_crashes"] == 0


# -- eviction ----------------------------------------------------------------
def test_eviction_and_rematerialization_parity(si8):
    svc = BatchService(nworkers=1, memory_budget_bytes=10_000)
    client = BatchClient(svc)
    for sid in ("a", "b", "c"):
        client.load(sid, si8, calc=SW)
        client.evaluate(sid)
    stats = svc.stats()
    assert stats["lifecycle"]["evictions"] >= 1
    flags = {s: v["resident"] for s, v in stats["structures"].items()}
    assert not all(flags.values())
    assert flags["c"] is True           # most recently used is never evicted
    assert stats["memory"]["budget_bytes"] == 10_000

    # an evicted structure comes back cold and must agree with a fresh
    # calculator to 1e-10 (in fact: exactly)
    evicted = next(s for s, res in flags.items() if not res)
    res = client.evaluate(evicted)
    ref = make_calculator(SW).compute(si8, forces=True)
    assert np.abs(res["forces"] - ref["forces"]).max() <= 1e-10
    assert abs(res["energy"] - ref["energy"]) <= 1e-10
    assert svc.stats()["lifecycle"]["rematerializations"] >= 1
    svc.close()


def test_no_eviction_without_budget(client, si8):
    for sid in ("a", "b", "c", "d"):
        client.load(sid, si8, calc=SW)
        client.evaluate(sid)
    stats = client.stats()
    assert stats["lifecycle"]["evictions"] == 0
    assert all(v["resident"] for v in stats["structures"].values())
    assert stats["memory"]["resident_bytes"] > 0


# -- routing and batching ----------------------------------------------------
def test_sticky_routing_balances_and_sticks(client, si8):
    workers = {}
    for sid in ("a", "b", "c", "d"):
        client.load(sid, si8, calc=SW)
        workers[sid] = client.evaluate(sid)["worker"]
    assert sorted(workers.values()) == [0, 0, 1, 1]   # least-loaded spread
    for _ in range(3):
        for sid, wid in workers.items():
            assert client.evaluate(sid)["worker"] == wid


def test_batch_preserves_per_structure_order(client, si8):
    client.load("si", si8, calc=SW)
    rng = np.random.default_rng(1)
    seq = [si8.positions + rng.normal(0, 0.01, si8.positions.shape)
           for _ in range(5)]
    out = client.evaluate_many(
        [{"structure_id": "si", "positions": p} for p in seq])
    assert all(o["ok"] for o in out)
    # the resident structure ends at the last submitted geometry
    final = client.service.workers[
        client.service._records["si"].worker_id].slots["si"].atoms
    assert np.array_equal(final.positions, seq[-1])
    stats = client.stats()
    assert stats["batches"]["max_size"] >= 5


def test_mixed_batch_routes_to_both_workers(client, si8):
    client.load("a", si8, calc=SW)
    client.load("b", si8, calc=SW)
    out = client.evaluate_many([{"structure_id": s} for s in "abab"])
    assert {o["worker"] for o in out} == {0, 1}


def test_one_worker_batch_runs_on_the_calling_thread(client, si8,
                                                     monkeypatch):
    """No pool hand-off for a batch that touches one worker (two thread
    wake-ups per batch whose cost is the host scheduler's); batches for
    several workers still fan out over the pool."""
    from repro.service.worker import Worker

    for sid in "abc":           # a, c -> worker 0; b -> worker 1
        client.load(sid, si8, calc=SW)
    seen = []
    handle = Worker.handle

    def spy(self, req):
        seen.append((self.worker_id, threading.get_ident()))
        return handle(self, req)

    monkeypatch.setattr(Worker, "handle", spy)
    me = threading.get_ident()
    client.evaluate_many([{"structure_id": s} for s in "acca"])
    assert seen == [(0, me)] * 4
    del seen[:]
    client.evaluate_many([{"structure_id": s} for s in "abab"])
    assert sorted(w for w, _ in seen) == [0, 0, 1, 1]
    assert all(tid != me for _, tid in seen)


def test_shutdown_drains_and_rejects_new_work(service, si8):
    client = BatchClient(service, raise_on_error=False)
    client.load("si", si8, calc=SW)
    assert client.request("shutdown")["draining"] is True
    resp = client.request("eval", structure_id="si")
    assert resp["ok"] is False and "draining" in resp["error"]["message"]


def test_stats_shape(client, si8):
    client.load("si", si8, calc=SW)
    client.evaluate("si")
    stats = client.stats()
    for key in ("uptime_s", "n_workers", "queue_depth", "requests_total",
                "errors_total", "batches", "latency_ms", "state_reuse",
                "lifecycle", "memory", "structures"):
        assert key in stats, key
    assert stats["latency_ms"]["p50"] is not None
    assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]
    assert stats["structures"]["si"]["resident_bytes"] > 0
    # the stats payload must be JSON-serializable as-is
    protocol.dumps({"stats": stats})


def test_unload(client, si8):
    client.load("si", si8, calc=SW)
    client.unload("si")
    assert client.list_structures() == []
    with pytest.raises(ServiceError):
        client.evaluate("si")


# -- support pieces ----------------------------------------------------------
def test_coalescing_queue_batches():
    q = CoalescingQueue(batch_window_s=0.01, max_batch=3)
    for i in range(5):
        q.put(i)
    assert q.depth() == 5
    assert q.get_batch() == [0, 1, 2]       # capped at max_batch
    assert q.get_batch() == [3, 4]
    assert q.get_batch(timeout=0.01) == []  # empty → poll timeout


def test_queue_closes_complete_batch_without_sleeping():
    # a 60 s window: a get_batch that slept it out would report "window"
    q = CoalescingQueue(batch_window_s=60.0)
    item = object()
    q.put(item)
    batch = q.get_batch(complete=lambda b: True)
    assert batch == [item] and batch[0] is item     # the very object put
    assert q.closed_by == "complete"


def test_queue_incomplete_batch_returns_at_the_window():
    q = CoalescingQueue(batch_window_s=0.05)
    q.put(0)
    poker = threading.Timer(0.01, q.notify)     # a wake-up is not a reason
    poker.start()
    t0 = time.monotonic()
    assert q.get_batch(complete=lambda b: False) == [0]
    waited = time.monotonic() - t0
    poker.join()
    assert q.closed_by == "window"
    assert 0.05 <= waited < 5.0     # at the window, not (much) later


def test_queue_drains_backlog_before_asking_the_predicate():
    q = CoalescingQueue(batch_window_s=60.0)
    for i in range(3):
        q.put(i)
    seen = []
    assert q.get_batch(
        complete=lambda b: seen.append(list(b)) or True) == [0, 1, 2]
    assert seen == [[0, 1, 2]]      # asked once, about the drained batch


def test_queue_cap_wins_over_the_predicate():
    q = CoalescingQueue(batch_window_s=60.0, max_batch=3)
    for i in range(5):
        q.put(i)
    asked = []
    assert q.get_batch(complete=lambda b: asked.append(1) or False) \
        == [0, 1, 2]
    assert q.closed_by == "cap" and not asked
    assert q.get_batch(complete=lambda b: True) == [3, 4]
    assert q.closed_by == "complete"


def test_queue_notify_reasks_the_predicate():
    """The producer's state can change without a put (a reader finishing
    its chunk): notify() must close the batch then, not at the window."""
    q = CoalescingQueue(batch_window_s=60.0)
    q.put("first")
    state = {"feeding": True}

    def finish_chunk():
        q.put("second")
        state["feeding"] = False
        q.notify()

    feeder = threading.Timer(0.02, finish_chunk)
    feeder.start()
    assert q.get_batch(complete=lambda b: not state["feeding"]) \
        == ["first", "second"]
    feeder.join()
    assert q.closed_by == "complete"


# -- accounting on read ------------------------------------------------------
def _count_walks(monkeypatch) -> list:
    from repro.service import worker as worker_mod

    walks: list = []

    def counting(obj):
        walks.append(type(obj).__name__)
        return resident_bytes(obj)

    monkeypatch.setattr(worker_mod, "resident_bytes", counting)
    return walks


def test_bytes_estimate_is_walked_on_read_not_per_request(
        client, si8, monkeypatch):
    walks = _count_walks(monkeypatch)
    client.load("si", si8, calc=DIAG)
    for k in range(4):
        client.evaluate("si", positions=si8.positions + 0.01 * k)
    assert walks == []              # no budget, nobody asked: no walk
    slot = client.service.workers[0].slots["si"]
    assert slot.bytes_estimate \
        == resident_bytes(slot.calc) + resident_bytes(slot.atoms) > 0
    assert len(walks) == 2          # calculator + atoms, once
    stats = client.stats()
    assert stats["structures"]["si"]["resident_bytes"] == slot.bytes_estimate
    assert stats["memory"]["resident_bytes"] == slot.bytes_estimate
    assert len(walks) == 2          # still fresh: the reads were free
    client.evaluate("si")
    client.stats()
    assert len(walks) == 4          # stale again after an eval


def test_budget_walks_each_touched_slot_once_per_batch(si8, monkeypatch):
    walks = _count_walks(monkeypatch)
    with BatchService(nworkers=1, memory_budget_bytes=10**9) as svc:
        client = BatchClient(svc)
        for sid in "ab":
            client.load(sid, si8, calc=SW)
        del walks[:]
        client.evaluate_many([{"structure_id": "a"}] * 3)
        assert len(walks) == 2      # "a" once (calc + atoms); "b" untouched
        assert svc.stats()["lifecycle"]["evictions"] == 0


def test_walk_holds_the_owning_workers_lock(client, si8, monkeypatch):
    """While ``stats`` walks a slot, an eval for that worker must wait:
    the walk never sees a calculator mid-mutation."""
    from repro.service import worker as worker_mod

    client.load("si", si8, calc=SW)
    in_walk, release, evaluated = (threading.Event() for _ in range(3))

    def blocking(obj):
        in_walk.set()
        assert release.wait(timeout=60)
        return resident_bytes(obj)

    monkeypatch.setattr(worker_mod, "resident_bytes", blocking)
    reader = threading.Thread(target=client.service.stats)
    reader.start()
    assert in_walk.wait(timeout=60)

    def evaluate():
        BatchClient(client.service).evaluate("si")
        evaluated.set()

    writer = threading.Thread(target=evaluate)
    writer.start()
    try:
        assert not evaluated.wait(timeout=0.3)  # parked on the worker lock
    finally:
        release.set()
    for t in (reader, writer):
        t.join(timeout=60)
    assert evaluated.is_set() and not reader.is_alive()


def test_stats_racing_an_eval_never_raises(si8):
    """The walk runs under the owning worker's lock, so a ``stats`` from
    one thread never iterates a calculator another thread is mutating."""
    svc = BatchService(nworkers=2)
    BatchClient(svc).load("si", si8, calc=LINSCALE)
    failures: list = []
    done = threading.Event()

    def evals():
        client = BatchClient(svc)
        try:
            for k in range(12):
                client.evaluate("si", positions=si8.positions + 0.002 * k)
        except Exception as exc:   # noqa: BLE001 - collected for the assert
            failures.append(exc)
        finally:
            done.set()

    def stats():
        client = BatchClient(svc)
        try:
            while not done.is_set():
                assert client.stats()["memory"]["resident_bytes"] >= 0
        except Exception as exc:   # noqa: BLE001 - collected for the assert
            failures.append(exc)

    threads = [threading.Thread(target=fn) for fn in (evals, stats, stats)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
        done.set()
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures
    svc.close()


def test_resident_bytes_counts_and_dedups():
    a = np.zeros(1000)
    obj = {"x": a, "y": a[10:], "z": [a, {"w": np.zeros(10)}]}
    assert resident_bytes(obj) == a.nbytes + 80
    assert resident_bytes(None) == 0
    assert resident_bytes("hello") == 0


def test_structure_snapshot_roundtrip(si8):
    si8.velocities[:] = np.arange(len(si8) * 3).reshape(-1, 3) * 1e-3
    orig = si8.positions.copy()
    snap = StructureSnapshot.capture(si8)
    si8.positions += 1.0       # mutate the original; snapshot must not move
    restored = snap.materialize()
    assert restored.symbols == si8.symbols
    assert np.array_equal(restored.positions, orig)
    assert np.array_equal(restored.velocities, si8.velocities)
    assert np.array_equal(restored.cell.matrix, si8.cell.matrix)


def test_make_calculator_specs():
    from repro.classical import StillingerWeber
    from repro.linscale import LinearScalingCalculator
    from repro.tb import TBCalculator

    assert isinstance(make_calculator({"model": "sw-si"}), StillingerWeber)
    assert isinstance(make_calculator(DIAG), TBCalculator)
    assert isinstance(make_calculator(LINSCALE), LinearScalingCalculator)
    foe = make_calculator({"model": "gsp-si", "solver": "foe", "kT": 0.2})
    assert isinstance(foe, LinearScalingCalculator)      # on one region
    with pytest.raises(ReproError, match="unknown calculator spec"):
        make_calculator({"model": "sw-si", "oops": 1})
    with pytest.raises(ReproError, match="unknown model"):
        make_calculator({"model": "unobtainium"})
    with pytest.raises(ReproError, match="unknown solver"):
        make_calculator({"model": "gsp-si", "solver": "magic"})
    with pytest.raises(ReproError, match="classical"):
        make_calculator({"model": "sw-si", "solver": "linscale"})


# -- Result envelope ---------------------------------------------------------
def test_result_envelope_wire_format(client, si8):
    """Responses serialise as the documented envelope — id/ok/value/
    error/timings/metrics at the top level, payload under "value" —
    while item access still reaches the flat payload keys."""
    client.load("si", si8, calc=SW)
    resp = client.request("eval", structure_id="si", forces=True)
    assert isinstance(resp, protocol.Result)
    wire = protocol.loads(protocol.dumps(resp))
    assert set(wire) <= set(protocol.ENVELOPE_KEYS)
    assert wire["ok"] is True
    assert "energy" in wire["value"] and "energy" not in wire
    # flat fall-through: all pre-envelope call sites keep working
    assert resp["energy"] == wire["value"]["energy"]
    assert "energy" in resp and "nonexistent" not in resp
    assert resp.get("nonexistent", 42) == 42


def test_result_envelope_carries_worker_timings(client, si8):
    client.load("si", si8, calc=SW)
    resp = client.request("eval", structure_id="si")
    assert resp.timings["seconds"] > 0
    # warm/cold is mirrored into envelope metrics by the worker
    resp2 = client.request("eval", structure_id="si")
    assert resp2.metrics["warm"] in (True, False)


def test_error_envelope_carries_op(client, si8):
    client.raise_on_error = False
    resp = client.request("eval", structure_id="ghost")
    assert resp.ok is False
    assert resp.error["type"] == "ServiceError"
    assert resp.error["op"] == "eval"
    # and the raising client threads the op into the message
    client.raise_on_error = True
    with pytest.raises(ServiceError, match="during op 'eval'"):
        client.request("eval", structure_id="ghost")


def test_result_from_response_rejects_non_envelope():
    wire = {"id": 7, "ok": True, "value": {"energy": -34.5, "natoms": 8}}
    res = protocol.Result.from_response(wire)
    assert res.ok is True and res["energy"] == -34.5
    assert protocol.Result.from_response(res) is res
    # the only server in the tree speaks the envelope: a flat payload or
    # a dict without "ok" is a protocol violation, not something to fold
    with pytest.raises(ProtocolError, match="unexpected keys"):
        protocol.Result.from_response({"id": 7, "ok": True, "energy": -34.5})
    with pytest.raises(ProtocolError, match="no 'ok' field"):
        protocol.Result.from_response({"id": 7, "value": {}})


def test_bad_spec_error_names_the_load_op(client, si8):
    with pytest.raises(ServiceError, match="op 'load'.*did you mean"):
        client.load("si", si8, calc={"model": "sw-si", "skim": 1.0})
