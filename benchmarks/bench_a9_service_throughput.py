"""A9 — The batch-service payoff: resident state vs one-shot CLI runs.

The ROADMAP north star is serving heavy traffic: many structures, each
evaluated repeatedly as clients stream updated positions (MD loops,
relaxations, parameter sweeps).  A one-shot ``repro.cli energy`` call
pays the full cold start per evaluation — interpreter + imports, XYZ
parse, calculator construction, neighbour lists, sparse-H pattern,
localization regions, Lanczos window, two-pass FOE.  The batch service
(:mod:`repro.service`) pays it once per structure: sticky routing keeps
each structure on the worker whose calculator already holds that state,
so every later evaluation rides the PR-2 fast path (value-only H
rewrite, cached regions/window, warm μ, fused single-pass FOE).

This benchmark drives N_STRUCTURES × N_EVALS evaluations both ways and
asserts the acceptance criteria:

1. ≥ 3× throughput via the batch service vs sequential one-shot CLI
   runs (real ``python -m repro.cli`` subprocesses, measured on a
   subset and extrapolated linearly — one-shot runs are independent by
   construction, so sequential total time is additive);
2. per-structure forces bit-for-bit equal to a standalone calculator
   driven through the identical position sequence (after the first
   evaluation, i.e. on the state-reuse path).

An in-process one-shot baseline (same cold work, no interpreter
startup) is also reported as the conservative lower bound on the
speedup.

The throughput legs drive the in-process ``BatchClient`` and never
cross the transport, so a second benchmark sends two lock-step
``SocketClient``s through ``UnixSocketServer``'s coalescing queue and
reports *why each batch closed* (``service.batch_close.*``).  CI gates
that count, not a timing (``tools/check_metrics.py
--min-complete-close``): a change that puts every batch back on the
coalescing window goes red.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.bench import print_table, silicon_supercell
from repro.calculators import make_calculator
from repro.geometry import write_xyz
from repro.service import (
    BatchClient, BatchService, SocketClient, UnixSocketServer,
)

CALC_SPEC = {"model": "gsp-si", "solver": "linscale", "kT": 0.3,
             "order": 80, "r_loc": 5.0}
MULTIPLIER = 2              # 64-atom Si per structure
JIG_AMP = 0.004             # Å per eval — MD-step-sized drift


def _structures(n: int):
    return [silicon_supercell(MULTIPLIER, rattle_amp=0.03, seed=100 + k)
            for k in range(n)]


def _position_sequences(structs, n_evals: int):
    """Per-structure position streams (eval 0 = as loaded)."""
    seqs = []
    for k, at in enumerate(structs):
        rng = np.random.default_rng(7000 + k)
        pos, seq = at.positions.copy(), []
        for _ in range(n_evals):
            seq.append(pos.copy())
            pos = pos + rng.normal(0.0, JIG_AMP, pos.shape)
        seqs.append(seq)
    return seqs


def _cli_args(xyz_path: str) -> list[str]:
    return ["energy", xyz_path, "--solver", CALC_SPEC["solver"],
            "--kt", str(CALC_SPEC["kT"]), "--order",
            str(CALC_SPEC["order"]), "--r-loc", str(CALC_SPEC["r_loc"])]


def _oneshot_subprocess(xyz_path: str) -> None:
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-m", "repro.cli", *_cli_args(xyz_path)],
                   env=env, capture_output=True, check=True)


def _oneshot_inprocess(xyz_path: str) -> None:
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(_cli_args(xyz_path)) == 0


def test_a9_service_throughput(benchmark, quick, tmp_path):
    n_structures = 4 if quick else 16
    n_evals = 4 if quick else 20
    n_sub_structs, n_sub_evals = (1, 2) if quick else (2, 10)

    structs = _structures(n_structures)
    seqs = _position_sequences(structs, n_evals)
    n_total = n_structures * n_evals

    # -- batch service: load once, stream position updates ----------------
    service = BatchService(nworkers=2, debug_ops=False)
    client = BatchClient(service)
    forces_seen: dict[int, list[np.ndarray]] = {0: [], n_structures - 1: []}
    t0 = time.perf_counter()
    for k, at in enumerate(structs):
        client.load(f"s{k}", at, calc=CALC_SPEC)
    for round_ in range(n_evals):
        out = client.evaluate_many(
            [{"structure_id": f"s{k}", "positions": seqs[k][round_]}
             for k in range(n_structures)])
        for k in forces_seen:
            forces_seen[k].append(out[k]["forces"])
    t_service = time.perf_counter() - t0
    stats = service.stats()

    # -- sequential one-shot CLI baseline ----------------------------------
    # real subprocesses on a subset; sequential one-shot totals are
    # additive, so the per-eval mean extrapolates to all evaluations
    n_sub = 0
    t0 = time.perf_counter()
    for k in range(n_sub_structs):
        for r in range(n_sub_evals):
            xyz = tmp_path / f"sub_{k}_{r}.xyz"
            at = structs[k].copy()
            at.positions[:] = seqs[k][r]
            write_xyz(xyz, at)
            _oneshot_subprocess(str(xyz))
            n_sub += 1
    t_cli_per_eval = (time.perf_counter() - t0) / n_sub
    t_cli_total = t_cli_per_eval * n_total

    # in-process one-shot (no interpreter startup): conservative bound
    t0 = time.perf_counter()
    for r in range(n_sub_evals):
        xyz = tmp_path / f"inproc_{r}.xyz"
        at = structs[0].copy()
        at.positions[:] = seqs[0][r]
        write_xyz(xyz, at)
        _oneshot_inprocess(str(xyz))
    t_inproc_per_eval = (time.perf_counter() - t0) / n_sub_evals
    t_inproc_total = t_inproc_per_eval * n_total

    speedup_cli = t_cli_total / t_service
    speedup_inproc = t_inproc_total / t_service

    # -- state-reuse parity: bit-for-bit vs a standalone calculator --------
    fmax_diff = 0.0
    for k, rows in forces_seen.items():
        calc = make_calculator(CALC_SPEC)
        at = structs[k].copy()
        for r in range(n_evals):
            at.positions[:] = seqs[k][r]
            ref = calc.compute(at, forces=True)["forces"]
            diff = float(np.abs(rows[r] - ref).max())
            if r >= 1:          # acceptance: after the first evaluation
                assert np.array_equal(rows[r], ref), \
                    f"structure {k} eval {r}: service forces deviate " \
                    f"by {diff:.3e} from the standalone calculator"
            fmax_diff = max(fmax_diff, diff)

    hit = stats["state_reuse"]
    rows = [
        ["batch service (measured)", t_service, t_service / n_total,
         n_total / t_service],
        ["one-shot CLI (subprocess)", t_cli_total, t_cli_per_eval,
         1.0 / t_cli_per_eval],
        ["one-shot in-process", t_inproc_total, t_inproc_per_eval,
         1.0 / t_inproc_per_eval],
    ]
    print_table(
        f"A9: {n_structures} structures x {n_evals} evaluations, "
        f"{len(structs[0])}-atom Si (linscale, order "
        f"{CALC_SPEC['order']}, kT {CALC_SPEC['kT']} eV)",
        ["path", "total s", "s/eval", "evals/s"], rows,
        float_fmt="{:.3f}")
    print(f"speedup vs one-shot CLI       : {speedup_cli:.2f}x "
          f"(extrapolated from {n_sub} real subprocess runs)")
    print(f"speedup vs in-process one-shot: {speedup_inproc:.2f}x")
    print(f"state-reuse hit rate          : {hit['hit_rate']} "
          f"({hit['warm_evals']} warm / {hit['cold_evals']} cold)")
    print(f"max |F_service - F_standalone|: {fmax_diff:.3e} eV/Å "
          f"(bit-for-bit after first eval)")
    print(f"p50/p99 request latency       : "
          f"{stats['latency_ms']['p50']} / {stats['latency_ms']['p99']} ms")
    service.close()

    assert hit["warm_evals"] == n_total - n_structures
    if not quick:
        assert speedup_cli >= 3.0, \
            f"batch service only {speedup_cli:.2f}x faster than " \
            f"sequential one-shot CLI runs"

    # steady-state batched round as the headline number
    service2 = BatchService(nworkers=2)
    client2 = BatchClient(service2)
    for k in range(n_structures):
        client2.load(f"s{k}", structs[k], calc=CALC_SPEC)
    client2.evaluate_many([{"structure_id": f"s{k}"}
                           for k in range(n_structures)])
    state = {"rng": np.random.default_rng(5)}

    def one_round():
        reqs = [{"structure_id": f"s{k}",
                 "positions": structs[k].positions
                 + state["rng"].normal(0, JIG_AMP,
                                       structs[k].positions.shape)}
                for k in range(n_structures)]
        client2.evaluate_many(reqs)

    benchmark.pedantic(one_round, rounds=2, iterations=1)
    service2.close()


def test_a9_socket_lockstep_batch_close(quick, tmp_path):
    """Two closed-loop socket clients stepping in lock-step: every batch
    should close because it is complete, none by waiting out the window
    (the ledger's ``service_socket_si8`` regime at smoke size)."""
    rounds = 50 if quick else 500
    spec = {"model": "gsp-si", "solver": "diag", "kT": 0.3}
    structs = [silicon_supercell(1, rattle_amp=0.03, seed=200 + k)
               for k in range(2)]
    seqs = _position_sequences(structs, rounds)
    # relative path: AF_UNIX paths are capped at ~100 bytes.  The 50 ms
    # window is 25x the default, so a loaded CI runner that delivers a
    # pair 10 ms apart still counts it "complete"
    sock = os.path.relpath(tmp_path / "a9.sock")
    service = BatchService(nworkers=2)
    latencies: list[float] = []
    failures: list = []
    with UnixSocketServer(service, sock, batch_window_s=0.05):
        # set up through ONE connection: alone, so nothing waits and the
        # whole-process counts CI gates hold only "complete" closes
        with SocketClient(sock) as setup:
            for k, at in enumerate(structs):
                setup.load(f"s{k}", at, calc=spec)
                setup.evaluate(f"s{k}")
        clients = [SocketClient(sock) for _ in structs]
        before = service.stats()["batches"]["closed_by"]
        pair = threading.Barrier(len(clients))

        def loop(k: int) -> None:
            try:
                for r in range(rounds):
                    pair.wait(timeout=60)
                    t0 = time.perf_counter()
                    clients[k].evaluate(f"s{k}", positions=seqs[k][r])
                    latencies.append(time.perf_counter() - t0)
            except Exception as exc:    # noqa: BLE001 - reported below
                failures.append(exc)
                pair.abort()

        threads = [threading.Thread(target=loop, args=(k,))
                   for k in range(len(clients))]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        wall = time.perf_counter() - t0
        closed = {k: v - before[k] for k, v in
                  service.stats()["batches"]["closed_by"].items()}
        for client in clients:
            client.close()
    assert not failures, failures
    assert len(latencies) == 2 * rounds

    n_closed = sum(closed.values())
    print_table(
        f"A9 socket leg: 2 lock-step clients x {rounds} rounds, 8-atom Si "
        f"(diag), window 50 ms",
        ["batches", "complete", "window", "cap", "req/s", "p50 ms"],
        [[n_closed, closed["complete"], closed["window"], closed["cap"],
          2 * rounds / wall, 1e3 * float(np.median(latencies))]],
        float_fmt="{:.2f}")
    # a count, not a timing, so it is asserted in --quick too
    assert closed["complete"] >= 0.9 * n_closed, closed
