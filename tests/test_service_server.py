"""Socket transport: JSON-lines framing, concurrency, shutdown, remote MD."""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.calculators import make_calculator
from repro.geometry import bulk_silicon, rattle, supercell
from repro.md import MDDriver, VelocityVerlet, maxwell_boltzmann_velocities
from repro.service import (
    BatchService, RemoteCalculator, SocketClient, UnixSocketServer,
)

SW = {"model": "sw-si"}


@pytest.fixture()
def si8():
    return rattle(bulk_silicon(), 0.04, seed=7)


@pytest.fixture()
def server(tmp_path):
    path = str(tmp_path / "svc.sock")
    srv = UnixSocketServer(BatchService(nworkers=2, debug_ops=True), path,
                           batch_window_s=0.001)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def patient(tmp_path):
    """One worker behind a 10 s window: a batch that falls back to the
    window shows up in ``closed_by`` (and in the test's run time), never
    as a scheduling-dependent batch size."""
    path = str(tmp_path / "svc.sock")
    srv = UnixSocketServer(BatchService(nworkers=1), path,
                           batch_window_s=10.0)
    srv.start()
    yield srv
    srv.stop()


def _wait_connected(srv: UnixSocketServer, n: int) -> None:
    """connect() returns before the server's accept(): wait for it."""
    deadline = time.monotonic() + 30.0
    while len(srv._conns) != n:
        assert time.monotonic() < deadline, "accept loop stalled"
        time.sleep(0.001)


def _batching(srv: UnixSocketServer) -> dict:
    """closed_by counts + coalesced batches / requests seen so far."""
    sizes = srv.service.counts.histogram("service.batch_size")
    return dict(srv.service.stats()["batches"]["closed_by"],
                batches=sizes.count, requests=int(sizes.sum))


def _delta(srv: UnixSocketServer, before: dict) -> dict:
    return {k: v - before[k] for k, v in _batching(srv).items()}


def _lockstep(srv: UnixSocketServer, ids: list, rounds: int,
              others: int = 0) -> dict:
    """One SocketClient thread per id (beside *others* connections that
    are already open), a barrier before every request — a driver
    stepping replicas; returns id -> energies."""
    clients = {sid: SocketClient(srv.socket_path) for sid in ids}
    _wait_connected(srv, len(ids) + others)
    barrier = threading.Barrier(len(ids))
    energies: dict = {sid: [] for sid in ids}
    failures: list = []

    def run(sid):
        try:
            for _ in range(rounds):
                barrier.wait(timeout=60)
                energies[sid].append(
                    clients[sid].evaluate(sid, forces=False)["energy"])
        except Exception as exc:   # noqa: BLE001 - collected for the assert
            failures.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=run, args=(sid,)) for sid in ids]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    for client in clients.values():
        client.close()
    assert not failures, failures
    assert not any(t.is_alive() for t in threads)
    return energies


def test_socket_eval_parity(server, si8):
    with SocketClient(server.socket_path) as client:
        assert client.ping()
        client.load("si", si8, calc=SW)
        res = client.evaluate("si")
        ref = make_calculator(SW).compute(si8, forces=True)
        # floats survive the JSON round trip bit-for-bit
        assert res["energy"] == ref["energy"]
        assert np.array_equal(res["forces"], ref["forces"])
        assert "si" in client.list_structures()


def test_socket_pipelined_requests_one_roundtrip(patient, si8):
    """The reader enqueues a pipelined request_many one line at a time;
    the feed guard keeps the early close from splitting it."""
    with SocketClient(patient.socket_path) as client:
        client.load("si", si8, calc=SW)
        before = _batching(patient)
        out = client.evaluate_many([{"structure_id": "si"}] * 8)
        assert [o["ok"] for o in out] == [True] * 8
        assert _delta(patient, before) == {
            "complete": 1, "window": 0, "cap": 0, "batches": 1,
            "requests": 8}


def test_socket_pipelined_batch_spanning_recv_chunks_stays_whole(patient):
    """8 x 29 KB of positions straddle several 64 KiB recv chunks: a
    reader holding a partial line is still feeding the batch."""
    si512 = rattle(supercell(bulk_silicon(), 4), 0.02, seed=3)
    with SocketClient(patient.socket_path) as client:
        client.load("big", si512, calc=SW)
        reqs = [{"structure_id": "big", "forces": False,
                 "positions": si512.positions + 1e-3 * k} for k in range(8)]
        from repro.service import protocol as proto

        assert sum(len(proto.dumps({"positions": r["positions"]}))
                   for r in reqs) >= 200_000
        before = _batching(patient)
        out = client.evaluate_many(reqs)
        assert [o["ok"] for o in out] == [True] * 8
        assert _delta(patient, before) == {
            "complete": 1, "window": 0, "cap": 0, "batches": 1,
            "requests": 8}


def test_lone_client_never_waits_for_the_window(patient, si8):
    with SocketClient(patient.socket_path) as client:
        client.load("si", si8, calc=SW)
        for _ in range(5):
            client.evaluate("si", forces=False)
        closed = client.stats()["batches"]["closed_by"]
    assert closed["window"] == 0 and closed["complete"] >= 6


def test_lockstep_clients_close_every_batch_complete(patient, si8):
    with SocketClient(patient.socket_path) as setup:
        for sid in "ab":
            setup.load(sid, si8, calc=SW)
    _wait_connected(patient, 0)
    before = _batching(patient)
    energies = _lockstep(patient, ["a", "b"], rounds=50)
    # 50 batches of exactly 2: early close never split a pair, and the
    # window was never waited out
    assert _delta(patient, before) == {
        "complete": 50, "window": 0, "cap": 0, "batches": 50,
        "requests": 100}
    ref = make_calculator(SW).compute(si8, forces=False)["energy"]
    assert energies == {"a": [ref] * 50, "b": [ref] * 50}


def test_idle_connection_leaves_the_window_in_force(tmp_path, si8):
    """The documented limit: a connected client that sends nothing could
    still contribute, so batches wait out the window — never longer, and
    every answer is still right."""
    path = str(tmp_path / "svc.sock")
    with UnixSocketServer(BatchService(nworkers=1), path,
                          batch_window_s=0.02) as srv:
        with SocketClient(path) as setup:
            for sid in "ab":
                setup.load(sid, si8, calc=SW)
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        idle.connect(path)
        _wait_connected(srv, 1)
        before = _batching(srv)
        energies = _lockstep(srv, ["a", "b"], rounds=5, others=1)
        idle.close()
        delta = _delta(srv, before)
        assert delta["complete"] == 0 and delta["cap"] == 0
        assert delta["window"] == delta["batches"] >= 5
        assert delta["requests"] == 10
        ref = make_calculator(SW).compute(si8, forces=False)["energy"]
        assert energies == {"a": [ref] * 5, "b": [ref] * 5}


def test_disconnect_mid_window_unblocks_the_other_client(tmp_path, si8):
    path = str(tmp_path / "svc.sock")
    with UnixSocketServer(BatchService(nworkers=1), path,
                          batch_window_s=0.5) as srv:
        from repro.service import protocol as proto

        with SocketClient(path) as a:
            a.load("si", si8, calc=SW)
            b = SocketClient(path)
            _wait_connected(srv, 2)
            # A's request now waits (at most the window) for B ...
            a._sock.sendall(proto.dumps(
                {"op": "eval", "structure_id": "si", "id": 77,
                 "forces": False}))
            b.close()                       # ... who hangs up instead
            assert a._recv_response(77)["ok"]
            _wait_connected(srv, 1)
            before = _batching(srv)
            for _ in range(5):
                a.evaluate("si", forces=False)
            assert _delta(srv, before) == {
                "complete": 5, "window": 0, "cap": 0, "batches": 5,
                "requests": 5}


def test_malformed_line_answers_error(server):
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(10.0)
    raw.connect(server.socket_path)
    raw.sendall(b"{broken json\n\n{\"op\": \"alsobad\"}\n")
    buf = b""
    while buf.count(b"\n") < 2:
        buf += raw.recv(1 << 16)
    lines = buf.decode().strip().splitlines()
    import json

    first, second = (json.loads(ln) for ln in lines[:2])
    assert first["ok"] is False and first["id"] is None
    assert first["error"]["type"] == "ProtocolError"
    assert second["ok"] is False      # unknown op, also answered politely
    raw.close()


def test_two_clients_hammer_same_structure(server, si8):
    """Concurrent clients mutating one structure id must serialize
    cleanly on its sticky worker: every request answered, no crashes,
    and every answer corresponds to one of the submitted geometries."""
    with SocketClient(server.socket_path) as setup:
        setup.load("si", si8, calc=SW)

    n_rounds, n_clients = 12, 2
    energies_by_pos: dict[bytes, float] = {}
    failures: list = []

    def hammer(seed: int):
        try:
            rng = np.random.default_rng(seed)
            with SocketClient(server.socket_path) as client:
                for _ in range(n_rounds):
                    pos = si8.positions + rng.normal(0, 0.02,
                                                     si8.positions.shape)
                    res = client.evaluate("si", positions=pos, forces=False)
                    energies_by_pos[pos.tobytes()] = res["energy"]
        except Exception as exc:   # noqa: BLE001 - collected for the assert
            failures.append(exc)

    threads = [threading.Thread(target=hammer, args=(seed,))
               for seed in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not failures, failures
    assert len(energies_by_pos) == n_rounds * n_clients

    # interleaving must not have corrupted any result: each returned
    # energy matches a fresh calculator at that geometry (tolerance, not
    # bit-parity: the resident Verlet list was built at another reference
    # geometry, so the pair summation order differs at machine epsilon)
    check = si8.copy()
    for pos_bytes, energy in list(energies_by_pos.items())[::5]:
        check.positions[:] = np.frombuffer(pos_bytes).reshape(-1, 3)
        ref = make_calculator(SW).compute(check, forces=False)["energy"]
        assert energy == pytest.approx(ref, abs=1e-9)

    with SocketClient(server.socket_path) as client:
        stats = client.stats()
    assert stats["errors_total"] == 0
    assert stats["lifecycle"]["worker_crashes"] == 0
    assert stats["structures"]["si"]["evals"] == n_rounds * n_clients


def test_shutdown_drains_pipelined_requests(tmp_path, si8):
    """A shutdown from one client must not drop responses another client
    is still owed: queued work is answered before connections close."""
    path = str(tmp_path / "svc.sock")
    srv = UnixSocketServer(BatchService(nworkers=1), path,
                           batch_window_s=0.05)
    srv.start()
    with SocketClient(path) as a:
        a.load("si", si8, calc=SW)
        # pipeline three evals without reading, then shutdown from B
        reqs = [{"op": "eval", "structure_id": "si", "id": 100 + i,
                 "forces": False} for i in range(3)]
        from repro.service import protocol as proto

        a._sock.sendall(b"".join(proto.dumps(r) for r in reqs))
        with SocketClient(path) as b:
            b.shutdown()
        responses = [a._recv_response(100 + i) for i in range(3)]
        assert all(r["ok"] for r in responses)
    srv.stop()


def test_shutdown_request_stops_server(tmp_path, si8):
    path = str(tmp_path / "svc.sock")
    srv = UnixSocketServer(BatchService(nworkers=1), path)
    srv.start()
    with SocketClient(path) as client:
        client.load("si", si8, calc=SW)
        client.evaluate("si")
        assert client.shutdown()["draining"] is True
    srv.stop()
    assert not os.path.exists(path)


def test_remote_calculator_md_matches_local(server, si8):
    """Client-side MD through the service == local MD, step for step."""
    at_remote = si8.copy()
    at_local = si8.copy()
    for at in (at_remote, at_local):
        maxwell_boltzmann_velocities(at, 600.0, seed=11)

    with SocketClient(server.socket_path) as client:
        remote = RemoteCalculator(client, "md-si", atoms=at_remote, calc=SW)
        md_r = MDDriver(at_remote, remote, VelocityVerlet(dt=1.0))
        data_r = md_r.run(5)
        report = data_r["calc_report"]

    local = make_calculator(SW)
    md_l = MDDriver(at_local, local, VelocityVerlet(dt=1.0))
    data_l = md_l.run(5)

    assert data_r["epot"] == data_l["epot"]
    assert np.array_equal(at_remote.positions, at_local.positions)
    assert report["remote"] is True and report["evals"] >= 6
