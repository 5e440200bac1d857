"""The four ledger workloads.

Each workload is a class with the same five steps, driven by
:func:`benchmarks.ledger.runner.run_workload`:

``setup()``      build structures, calculators / service, fill caches
``report()``     flat public counters (diffed across the timed window)
``timed(mark)``  the fixed-count timed window → :class:`Timed`
``extra(t)``     workload-specific end-to-end rows (trajectory MB/s)
``check(t)``     physical-correctness checks, outside the window
``teardown()``   close pools / sockets, delete temp files

Between ops every workload calls ``self.host.tick()`` so the
:class:`~benchmarks.ledger.hostclock.HostClock` can sample the host's
speed; ops are recorded as ``perf_counter`` intervals and the runner
turns them into reference-speed seconds.

The seed feeds only input generators (rattle, velocities, position
streams, frame noise, seek indices); calculators are built with no
``backend=`` so the default backend is what gets measured.  ``quick``
shrinks the atom counts (never order, kT or k-grid, so every check keeps
its tolerance) for the plumbing tests only — the ledger never sets it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class Timed:
    """What one timed window produced."""

    ops: list[tuple[float, float]]      # perf_counter (start, end) per op
    window: tuple[float, float]         # the whole window
    attempted: int
    failed: int
    out: object = None                  # private to extra() and check()


def _flatten(report: dict, prefix: str = "") -> dict:
    """Nested report → ``{"a.b": number}`` (numeric leaves only)."""
    flat: dict = {}
    for key, val in report.items():
        if isinstance(val, dict):
            flat.update(_flatten(val, f"{prefix}{key}."))
        elif isinstance(val, (int, float)) and not isinstance(val, bool):
            flat[f"{prefix}{key}"] = val
    return flat


def _close(owner, attr: str) -> None:
    """Close and forget ``owner.attr`` if a (possibly failed) set-up got
    far enough to create it — teardown runs after every set-up repeat."""
    obj = owner.__dict__.pop(attr, None)
    if obj is not None:
        obj.close()


class Workload:
    name = "?"

    def __init__(self, seed: int, ops: dict, workdir: str, host,
                 quick: bool = False) -> None:
        self.seed = int(seed)
        self.ops = dict(ops)
        self.workdir = workdir
        self.host = host        # HostClock, already holding one sample
        self.quick = quick

    def report(self) -> dict:
        return {}

    def extra(self, timed: Timed) -> dict:
        """``name -> (value, n samples)``; called after the closing host
        sample, so ``self.host.seconds`` covers the whole window."""
        return {}

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------
class MDLinscaleSi512(Workload):
    """Warm region-FOE MD steps on 512-atom rattled diamond Si, 600 K."""

    name = "md_linscale_si512"

    def setup(self) -> None:
        from repro.bench import silicon_supercell
        from repro.linscale import LinearScalingCalculator
        from repro.md import (MDDriver, VelocityVerlet,
                              maxwell_boltzmann_velocities)
        from repro.tb import GSPSilicon

        self.atoms = silicon_supercell(2 if self.quick else 4,
                                       rattle_amp=0.03, seed=self.seed)
        maxwell_boltzmann_velocities(self.atoms, 600.0, seed=self.seed + 1)
        self.calc = LinearScalingCalculator(GSPSilicon(), kT=0.35, order=220)
        self.md = MDDriver(self.atoms, self.calc, VelocityVerlet(dt=1.0))
        self.md.run(1)      # cold: initial forces + first step
        for _ in range(2):  # two warm steps: every cache is now filled
            self.host.tick()
            self.md.run(1)

    def report(self) -> dict:
        return _flatten(self.calc.state_report())

    def timed(self, mark) -> Timed:
        from repro.errors import ReproError

        ops, failed = [], 0
        fused_before = self.calc.state_report()["foe"]["fused"]
        start = perf_counter()
        for _ in range(self.ops["steps"]):
            self.host.tick()
            t0 = perf_counter()
            try:
                self.md.run(1)
            except ReproError:
                failed += 1
            ops.append((t0, perf_counter()))
        window = (start, perf_counter())
        fused = self.calc.state_report()["foe"]["fused"] - fused_before
        return Timed(ops, window, len(ops), failed, out=fused)

    def check(self, timed: Timed) -> dict:
        from repro.linscale import LinearScalingCalculator
        from repro.tb import GSPSilicon

        f_fast = self.calc.compute(self.atoms, forces=True)["forces"]
        ref = LinearScalingCalculator(GSPSilicon(), kT=0.35, order=220,
                                      reuse=False)
        f_ref = ref.compute(self.atoms.copy(), forces=True)["forces"]
        ref.close()
        diff = float(np.abs(f_fast - f_ref).max())
        return {"forces_vs_cold_max_abs_ev_per_a": (diff < 1e-8, diff),
                # a warm step that fell off the fused path is a different
                # workload, not a slower one
                "fused_solves_in_window": (timed.out >= timed.attempted,
                                           timed.out)}

    def teardown(self) -> None:
        _close(self, "calc")


# ---------------------------------------------------------------------------
class SweepKfoeSi64(Workload):
    """k-sampled region-FOE strain sweep on 64-atom diamond Si."""

    name = "sweep_kfoe_si64"
    #: strain step between consecutive points (ISSUE 12's 17-point
    #: +-2 % path); fewer points shorten the path, not coarsen it, so
    #: the mu jump per point — what trips the fused fallback — is kept.
    #: 9 points (+-1 %) hold 1 cold, 7 fallback and 1 fused solve
    STEP = 0.0025

    def _calc(self, reuse: bool):
        from repro.linscale import LinearScalingCalculator
        from repro.tb import GSPSilicon

        return LinearScalingCalculator(
            GSPSilicon(), kT=0.2, r_loc=6.0, order=300, kpts=2,
            kgrid_reduce="symmetry", reuse=reuse)

    def setup(self) -> None:
        from repro.geometry import bulk_silicon, supercell

        self.atoms = supercell(bulk_silicon(), 1 if self.quick else 2)
        # the crystal must stay symmetric (the wedge is the workload), so
        # the seed only picks the rigid origin shift
        shift = np.random.default_rng(self.seed).uniform(0.0, 1.0, 3)
        self.atoms.positions += shift
        self.calc = self._calc(reuse=True)
        n = self.ops["points"]
        self.amplitudes = self.STEP * (np.arange(n) - (n - 1) / 2.0)

    def report(self) -> dict:
        return _flatten(self.calc.state_report())

    def timed(self, mark) -> Timed:
        from repro.analysis import strain_sweep

        # one sweep; its cold first point is inside the window (a user
        # pays it once per sweep).  strain_sweep hands every finished
        # point to ``traj_writer.write``, outside the point's own clock:
        # the one public hook between two points, used here to note when
        # the point ended and to sample the host
        ends = []

        class BetweenPoints:
            @staticmethod
            def write(_atoms, **_meta) -> None:
                ends.append(perf_counter())
                self.host.tick()

        start = perf_counter()
        result = strain_sweep(self.atoms, self.calc, self.amplitudes,
                              fit=None, forces=True,
                              traj_writer=BetweenPoints)
        window = (start, perf_counter())
        ops = [(end - p.seconds, end) for p, end in zip(result.points, ends)]
        return Timed(ops, window, len(ops), 0, out=result)

    def check(self, timed: Timed) -> dict:
        from repro.geometry.transform import strain as apply_strain

        points = timed.out.points
        worst = 0.0
        for i in sorted({0, len(points) // 2, len(points) - 1}):
            ref = self._calc(reuse=False)
            res = ref.compute(apply_strain(self.atoms, points[i].strain),
                              forces=False)
            ref.close()
            worst = max(worst, abs(res["energy"] / len(self.atoms)
                                   - points[i].energy))
        return {"energy_vs_cold_max_abs_ev_per_atom": (worst <= 1e-6, worst)}

    def teardown(self) -> None:
        _close(self, "calc")


# ---------------------------------------------------------------------------
class ServiceSocketSi8(Workload):
    """Closed loop: 2 socket clients x 8 resident 8-atom structures.

    Two free-running closed-loop clients have two stable regimes: in
    step (their requests reach the 2 ms coalescing window together and
    are served as one batch, ~7 ms) or alternating (each waits out the
    other's batch, ~9.3 ms).  Scheduling jitter picks the regime, a noisy
    host the slow one, and a run's median is one or the other.  So the
    two clients send each request together (``pair`` barrier), the way a
    driver steps two replicas: the coalesced regime, on every host.
    """

    name = "service_socket_si8"
    SPEC = {"model": "gsp-si", "solver": "diag", "kT": 0.3}
    NCLIENTS = 2
    NSTRUCT = 16
    JIG = 0.004             # Angstrom per request: MD-step-sized drift
    SYNC_ROUNDS = 8         # clients pause (~0.5 s apart) for a host sample

    def setup(self) -> None:
        from repro.bench import silicon_supercell
        from repro.service import BatchService
        from repro.service.client import SocketClient
        from repro.service.server import UnixSocketServer

        self.structs = [silicon_supercell(1, rattle_amp=0.03,
                                          seed=1000 * self.seed + k)
                        for k in range(self.NSTRUCT)]
        rounds = self.ops["rounds"]
        self.streams = []       # [structure][round] -> positions
        for k, at in enumerate(self.structs):
            rng = np.random.default_rng(7000 + 1000 * self.seed + k)
            walk = np.cumsum(rng.normal(0.0, self.JIG,
                                        (rounds,) + at.positions.shape), axis=0)
            self.streams.append(at.positions + walk)
        # relative path: AF_UNIX paths are capped at ~100 bytes
        self.sock_path = os.path.join(os.path.relpath(self.workdir),
                                      "ledger.sock")
        self.service = BatchService(nworkers=2)
        self.server = UnixSocketServer(self.service, self.sock_path)
        self.server.start()
        self.clients = [SocketClient(self.sock_path, raise_on_error=False)
                        for _ in range(self.NCLIENTS)]
        for k, at in enumerate(self.structs):
            client = self.clients[k * self.NCLIENTS // self.NSTRUCT]
            for resp in (client.load(f"s{k}", at, calc=self.SPEC),
                         client.evaluate(f"s{k}")):
                if not resp.ok:
                    raise RuntimeError(f"service set-up failed: {resp.error}")

    def report(self) -> dict:
        stats = self.service.stats()
        batches = stats["batches"]
        return {
            "requests": stats["requests_total"],
            "errors": stats["errors_total"],
            "batches": batches["count"],
            "batched_requests": round(batches["count"] * batches["mean_size"]),
            "warm_evals": stats["state_reuse"]["warm_evals"],
            "cold_evals": stats["state_reuse"]["cold_evals"],
        }

    def _client_loop(self, c: int, pair, pause, ops, fails, seen,
                     errors) -> None:
        per = self.NSTRUCT // self.NCLIENTS
        mine = range(c * per, (c + 1) * per)
        client = self.clients[c]
        try:
            for r in range(self.ops["rounds"]):
                if r % self.SYNC_ROUNDS == 0:
                    pause.wait()        # both clients idle ...
                    pause.wait()        # ... until the host is sampled
                for k in mine:
                    msg = {"op": "eval", "id": f"c{c}r{r}s{k}",
                           "structure_id": f"s{k}", "forces": True,
                           "positions": self.streams[k][r]}
                    pair.wait()
                    t0 = perf_counter()
                    resp = client.request_many([msg])[0]
                    ops.append((t0, perf_counter()))
                    if not resp.ok:
                        fails.append(msg["id"])
                    elif k in seen:
                        seen[k].append(np.asarray(resp["forces"], dtype=float))
        except Exception as exc:    # surfaced by timed() on the main thread
            errors.append(exc)
            pair.abort()
            pause.abort()

    def timed(self, mark) -> Timed:
        per = self.NSTRUCT // self.NCLIENTS
        seen = {c * per: [] for c in range(self.NCLIENTS)}
        streams = [[] for _ in range(self.NCLIENTS)]
        fails: list = []
        errors: list = []
        pair = threading.Barrier(self.NCLIENTS)
        pause = threading.Barrier(self.NCLIENTS + 1)
        threads = [threading.Thread(
            target=self._client_loop, name=f"ledger-client-{c}",
            args=(c, pair, pause, streams[c], fails, seen, errors))
            for c in range(self.NCLIENTS)]
        for t in threads:
            t.start()
        start = perf_counter()
        try:
            for _ in range(0, self.ops["rounds"], self.SYNC_ROUNDS):
                pause.wait()
                self.host.sample()
                pause.wait()
        except threading.BrokenBarrierError:
            pass                        # a client failed: errors has why
        for t in threads:
            t.join()
        window = (start, perf_counter())
        if errors:
            raise errors[0]
        ops = [op for client_ops in streams for op in client_ops]
        return Timed(ops, window, len(ops), len(fails), out=seen)

    def check(self, timed: Timed) -> dict:
        from repro.calculators import make_calculator

        mismatches = 0
        for k, forces_seen in timed.out.items():
            calc = make_calculator(self.SPEC)
            at = self.structs[k].copy()
            calc.compute(at, forces=True)       # the set-up's first eval
            for r, got in enumerate(forces_seen):
                at.positions[:] = self.streams[k][r]
                want = calc.compute(at, forces=True)["forces"]
                mismatches += not np.array_equal(want, got)
        return {
            "all_responses_ok": (timed.failed == 0, timed.failed),
            "forces_bitwise_vs_standalone_replay": (mismatches == 0,
                                                    mismatches),
        }

    def teardown(self) -> None:
        for client in self.__dict__.pop("clients", []):
            client.close()
        server = self.__dict__.pop("server", None)
        if server is not None:
            server.stop()       # also closes the service, unlinks the socket


# ---------------------------------------------------------------------------
class TrajIoSi512(Workload):
    """PTRJ write -> 3 sequential read passes -> random seeks, 512 atoms."""

    name = "traj_io_si512"
    NBLOCKS = 64            # displacement blocks the stream cycles through
    PASSES = 3

    def setup(self) -> None:
        from repro.bench import silicon_supercell

        self.atoms = silicon_supercell(2 if self.quick else 4,
                                       rattle_amp=0.03, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        self.blocks = rng.normal(0.0, 0.01,
                                 (self.NBLOCKS,) + self.atoms.positions.shape)
        self.seek_rng = np.random.default_rng(self.seed + 1)
        self.path = os.path.join(self.workdir, "ledger.ptrj")

    def _stream(self):
        """``(t, positions, velocities)``: a bounded thermal walk — the 64
        blocks are added on even cycles and subtracted on odd ones.
        *positions* is updated in place; consume before advancing."""
        pos = self.atoms.positions.copy()
        for t in range(self.ops["frames"]):
            sign = 1.0 if (t // self.NBLOCKS) % 2 == 0 else -1.0
            block = self.blocks[t % self.NBLOCKS]
            pos += sign * block
            yield t, pos, (10.0 * sign) * block

    @staticmethod
    def _epot(t: int) -> float:
        return -4.5 + 1e-3 * math.sin(0.1 * t)

    def timed(self, mark) -> Timed:
        from repro.trajio import TrajectoryReader, TrajectoryWriter

        nframes, nseeks = self.ops["frames"], self.ops["seeks"]
        tick = self.host.tick

        mark("timed.write")
        frame = self.atoms.copy()
        t0 = perf_counter()
        writer = TrajectoryWriter(self.path)
        for t, pos, vel in self._stream():
            tick()
            frame.positions[:] = pos
            # a fresh array per frame: the writer buffers the velocity
            # array it is handed until the chunk is flushed
            frame.velocities = vel
            writer.write(frame, step=t, time_fs=float(t), epot=self._epot(t))
        writer.close()
        write = (t0, perf_counter())
        file_bytes = os.path.getsize(self.path)

        mark("timed.read")
        reader = TrajectoryReader(self.path)
        self.reader = reader
        passes = []
        for _ in range(self.PASSES):
            tick()
            t0 = perf_counter()
            count = sum(1 for _frame in reader.iter_frames())
            passes.append((t0, perf_counter()))
            if count != nframes:
                raise RuntimeError(f"read {count} of {nframes} frames")

        # uniformly random frames, redrawn while a seek would land in the
        # chunk the previous one left cached: every seek decodes exactly
        # one chunk, so the count repeats and the latency is one decode
        per_chunk = reader.header.chunk_frames
        last_chunk = (nframes - 1) // per_chunk     # cached by the last pass
        seeks = []
        for _ in range(nseeks):
            i = int(self.seek_rng.integers(nframes))
            while i // per_chunk == last_chunk and reader.nchunks > 1:
                i = int(self.seek_rng.integers(nframes))
            seeks.append(i)
            last_chunk = i // per_chunk

        mark("timed.seek")
        ops, failed = [], 0
        start = perf_counter()
        for i in seeks:
            tick()
            t0 = perf_counter()
            got = reader.read(i)
            ops.append((t0, perf_counter()))
            failed += got.step != i
        window = (start, perf_counter())
        mark("timed")
        return Timed(ops, window, nseeks, failed,
                     out={"file_bytes": file_bytes, "write": write,
                          "passes": passes,
                          "payload_bytes": nframes * self.atoms.positions.size
                          * 8 * 2})

    def extra(self, timed: Timed) -> dict:
        nframes = self.ops["frames"]
        io = timed.out
        payload_mb = io["payload_bytes"] / 1e6
        t_write = self.host.seconds(*io["write"])
        t_pass = [self.host.seconds(*p) for p in io["passes"]]
        return {
            "traj_write_mb_per_s": (payload_mb / t_write, nframes),
            "traj_read_mb_per_s": (payload_mb / (sum(t_pass) / len(t_pass)),
                                   self.PASSES * nframes),
            "traj_bytes_per_frame": (io["file_bytes"] / nframes, nframes),
        }

    def check(self, timed: Timed) -> dict:
        reader = self.reader
        pos_err, bad_vel, bad_meta = 0.0, 0, 0
        for (t, pos, vel), got in zip(self._stream(), reader.iter_frames()):
            pos_err = max(pos_err, float(np.abs(got.positions - pos).max()))
            bad_vel += not np.array_equal(got.velocities, vel)
            bad_meta += not (got.step == t and got.time_fs == float(t)
                             and got.epot == self._epot(t))
        full_chunks = math.ceil(self.ops["frames"] / reader.header.chunk_frames)
        return {
            "positions_max_abs_err_a": (pos_err <= 1e-6, pos_err),
            "velocities_bit_exact": (bad_vel == 0, bad_vel),
            "metadata_bit_exact": (bad_meta == 0, bad_meta),
            "every_seek_returned_its_step": (timed.failed == 0, timed.failed),
            # no early keyframe cuts, so frame // chunk_frames is the chunk
            "chunk_count": (reader.nchunks == full_chunks, reader.nchunks),
        }

    def teardown(self) -> None:
        _close(self, "reader")
        path = getattr(self, "path", None)
        if path and os.path.exists(path):
            os.unlink(path)


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    MDLinscaleSi512, SweepKfoeSi64, ServiceSocketSi8, TrajIoSi512)}
