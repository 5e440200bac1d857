"""A12 — The binary trajectory store vs extended-XYZ.

Long production MD runs live or die on trajectory I/O: an ASCII
``%18.10f`` XYZ frame costs ~100 bytes per atom per frame and a full
re-parse per read, while the PTRJ chunked binary format
(:mod:`repro.trajio`) stores float32 position deltas off per-chunk
float64 keyframes (hard 1e-6 Å reconstruction bound), per-frame
cells/velocities/metadata exactly, and a footer index for O(chunk)
random access.

This benchmark writes the same synthetic thermal trajectory both ways
and asserts the PR's acceptance criteria (skipped in ``--quick``
smoke mode):

1. PTRJ file ≥ 3× smaller than the equivalent extended-XYZ —
   the honest floor for a format that keeps exact f8 velocities and
   the 1e-6 Å position bound (measured ~11× with velocity columns,
   ~5-6× positions-only; see docs/trajectories.md),
2. full-trajectory read ≥ 10× faster than parsing the XYZ back,
3. random access of one frame decodes exactly one chunk
   (``trajio.chunk_reads``), independent of trajectory length.

The measured ratios are published as the ``trajio.xyz_size_ratio`` and
``trajio.read_speedup`` gauges; the CI bench-smoke job gates the size
ratio via ``tools/check_metrics.py --min-traj-size-ratio``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import obs
from repro.bench import print_table, silicon_supercell
from repro.geometry import write_xyz
from repro.geometry.xyz import iread_xyz
from repro.obs import metrics as metrics_mod
from repro.trajio import TrajectoryReader, TrajectoryWriter

NFRAMES = 200
MULTIPLIER = 4          # 512 atoms
SIGMA = 0.05            # Å of thermal motion per frame
SIZE_FLOOR = 3.0
READ_FLOOR = 10.0


def _write_both(tmp_path, nframes: int, multiplier: int):
    """The same drifting trajectory as .ptrj and .xyz files."""
    at = silicon_supercell(multiplier, rattle_amp=0.02, seed=3)
    rng = np.random.default_rng(42)
    at.velocities[:] = rng.normal(scale=0.02, size=at.velocities.shape)
    ptrj = os.path.join(tmp_path, "traj.ptrj")
    xyz = os.path.join(tmp_path, "traj.xyz")
    t_ptrj = t_xyz = 0.0
    with TrajectoryWriter(ptrj) as w:
        for k in range(nframes):
            at.positions += rng.normal(scale=SIGMA,
                                       size=at.positions.shape)
            meta = dict(step=k, time_fs=0.5 * k, epot=-34.0 - 1e-3 * k)
            t0 = time.perf_counter()
            w.write(at, **meta)
            t_ptrj += time.perf_counter() - t0
            t0 = time.perf_counter()
            write_xyz(xyz, at, append=k > 0,
                      comment=f"step={k} time_fs={0.5 * k!r}")
            t_xyz += time.perf_counter() - t0
    return ptrj, xyz, len(at), t_ptrj, t_xyz


def test_a12_trajio_size_and_read_speed(tmp_path, quick):
    nframes = 20 if quick else NFRAMES
    multiplier = 2 if quick else MULTIPLIER

    ptrj, xyz, natoms, t_wb, t_wx = _write_both(
        str(tmp_path), nframes, multiplier)
    size_ptrj = os.path.getsize(ptrj)
    size_xyz = os.path.getsize(xyz)
    size_ratio = size_xyz / size_ptrj

    # full-trajectory read: decode every frame's positions
    t0 = time.perf_counter()
    with TrajectoryReader(ptrj) as r:
        checksum_b = sum(float(fr.positions.sum()) for fr in r)
        nchunks = r.nchunks
    t_read_ptrj = time.perf_counter() - t0

    t0 = time.perf_counter()
    checksum_x = sum(float(fr.positions.sum()) for fr in iread_xyz(xyz))
    t_read_xyz = time.perf_counter() - t0
    read_speedup = t_read_xyz / t_read_ptrj

    # positions agree within the delta-encoding bound (XYZ keeps
    # %18.10f columns, so its own rounding is ~1e-10 per coordinate)
    assert abs(checksum_b - checksum_x) / (nframes * natoms * 3) < 2e-6

    # random access decodes exactly one chunk, wherever the frame is
    registry = metrics_mod.get_registry()
    with TrajectoryReader(ptrj) as r:
        before = registry.snapshot()["counters"].get(
            "trajio.chunk_reads", 0.0)
        r.read(nframes // 2)
        after = registry.snapshot()["counters"].get(
            "trajio.chunk_reads", 0.0)
    chunk_reads = after - before

    obs.gauge_set("trajio.xyz_size_ratio", size_ratio)
    obs.gauge_set("trajio.read_speedup", read_speedup)

    print_table(
        f"A12 — trajectory store ({natoms} atoms × {nframes} frames, "
        f"{nchunks} chunks)",
        ["format", "size (MB)", "write (s)", "full read (s)"],
        [["PTRJ", f"{size_ptrj / 1e6:.2f}", f"{t_wb:.3f}",
          f"{t_read_ptrj:.3f}"],
         ["XYZ", f"{size_xyz / 1e6:.2f}", f"{t_wx:.3f}",
          f"{t_read_xyz:.3f}"],
         ["ratio", f"{size_ratio:.2f}x", "-",
          f"{read_speedup:.2f}x"]])

    # -- acceptance criteria (perf bar skipped in --quick smoke mode) ------
    if metrics_mod.metrics_enabled():
        assert chunk_reads == 1.0
    if not quick:
        assert size_ratio >= SIZE_FLOOR
        assert read_speedup >= READ_FLOOR
