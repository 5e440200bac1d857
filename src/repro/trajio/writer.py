"""Streaming writer for PTRJ binary trajectories.

Frames go straight to disk a chunk at a time — memory stays
O(chunk_frames · natoms) no matter how long the run is, which is what
lets the MD observers and the campaign runner record 10^5-step
trajectories without holding a ``(T, N, 3)`` stack.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from repro import obs
from repro.errors import IOFormatError
from repro.trajio import format as fmt


class TrajectoryWriter:
    """Append frames to a ``.ptrj`` file; ``close()`` writes the index.

    Parameters
    ----------
    path:
        Output file.  Created (parents too) on the first frame.
    symbols:
        Chemical symbols, fixed for the whole trajectory.  May be
        omitted and inferred from the first frame's atoms.
    chunk_frames:
        Frames per chunk — the random-access granularity and the
        flush cadence.
    compression:
        zlib level 0..9 for the sections of a chunk that deflate pays
        on (0 = nothing is deflated).
    shuffle:
        Store positions deltas and velocities as byte planes, so the
        compressible sign/exponent bytes are deflated and the mantissa
        noise is stored raw (``False``: one plane per array, which
        deflate then rarely pays on).
    vel_dtype:
        ``"f8"`` (exact round trip, the default), ``"f4"``, or ``None``
        to not store velocities at all.
    pos_tol:
        Hard bound (Å) on the float32 delta reconstruction error; the
        writer starts a new keyframe chunk whenever a frame would
        exceed it.
    """

    def __init__(self, path: str | os.PathLike[str],
                 symbols: list[str] | None = None, *,
                 chunk_frames: int = 64, compression: int = 6,
                 shuffle: bool = True, vel_dtype: str | None = "f8",
                 pos_tol: float = 1e-6) -> None:
        self.path = os.fspath(path)
        self._symbols = list(symbols) if symbols is not None else None
        self._chunk_frames = int(chunk_frames)
        self._compression = int(compression)
        self._shuffle = bool(shuffle)
        self._vel_dtype = vel_dtype
        self._pos_tol = float(pos_tol)
        self._header: fmt.Header | None = None
        self._fh: Any = None
        self._index: list[tuple[int, int, int]] = []
        self._total_frames = 0
        self._closed = False
        # pending-chunk buffers
        self._keyframe: np.ndarray | None = None
        self._steps: list[int] = []
        self._times: list[float] = []
        self._epots: list[float] = []
        self._ekins: list[float] = []
        self._temps: list[float] = []
        self._cells: list[np.ndarray] = []
        self._pbcs: list[np.ndarray] = []
        self._deltas: list[np.ndarray] = []
        self._vels: list[np.ndarray] = []

    # -- lifecycle -----------------------------------------------------------
    def _open(self, symbols: list[str]) -> None:
        self._symbols = list(symbols)
        self._header = fmt.make_header(
            self._symbols, chunk_frames=self._chunk_frames,
            vel_dtype=self._vel_dtype, compression=self._compression,
            shuffle=self._shuffle, pos_tol=self._pos_tol)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "wb")
        self._fh.write(fmt.pack_header(self._header))

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- appending -----------------------------------------------------------
    def write(self, atoms: Any, *, step: int = 0, time_fs: float = 0.0,
              epot: float = 0.0, ekin: float = 0.0,
              temperature: float = 0.0) -> None:
        """Append one frame from an :class:`~repro.geometry.atoms.Atoms`."""
        cell = atoms.cell
        self.write_arrays(
            atoms.symbols, atoms.positions, cell=cell.matrix, pbc=cell.pbc,
            velocities=atoms.velocities, step=step, time_fs=time_fs,
            epot=epot, ekin=ekin, temperature=temperature)

    def write_arrays(self, symbols: list[str], positions: np.ndarray, *,
                     cell: np.ndarray, pbc: np.ndarray,
                     velocities: np.ndarray | None = None,
                     step: int = 0, time_fs: float = 0.0,
                     epot: float = 0.0, ekin: float = 0.0,
                     temperature: float = 0.0) -> None:
        """Append one frame from raw arrays (the observer-free path)."""
        if self._closed:
            raise IOFormatError(f"trajectory writer {self.path} is closed")
        if self._header is None:
            self._open(symbols if self._symbols is None else self._symbols)
        assert self._header is not None
        if list(symbols) != self._symbols:
            raise IOFormatError(
                "frame symbols differ from the trajectory header "
                "(PTRJ stores a fixed topology)")
        pos = np.ascontiguousarray(positions, dtype=np.float64)
        if pos.shape != (self._header.natoms, 3):
            raise IOFormatError(
                f"positions shape {pos.shape} does not match "
                f"({self._header.natoms}, 3)")
        if self._keyframe is None:
            self._keyframe = pos.copy()
        delta = (pos - self._keyframe).astype(np.float32)
        # enforce the pos_tol contract: if this frame has drifted far
        # enough from the keyframe that float32 deltas would round by
        # more than the bound, cut the chunk and re-key on this frame
        err = float(np.max(np.abs(
            self._keyframe + delta.astype(np.float64) - pos))) \
            if self._header.natoms else 0.0
        if err > self._pos_tol and self._steps:
            self._flush_chunk()
            self._keyframe = pos.copy()
            delta = np.zeros_like(pos, dtype=np.float32)
        self._steps.append(int(step))
        self._times.append(float(time_fs))
        self._epots.append(float(epot))
        self._ekins.append(float(ekin))
        self._temps.append(float(temperature))
        # the chunk is encoded at flush time: buffer copies, the caller
        # (an MD integrator, a barostat) mutates its arrays in place
        self._cells.append(np.array(cell, dtype=np.float64))
        self._pbcs.append(np.asarray(pbc, dtype=bool))
        self._deltas.append(delta)
        if self._header.has_velocities:
            vel = np.zeros((self._header.natoms, 3)) \
                if velocities is None else np.array(velocities, float)
            self._vels.append(vel)
        obs.counter_inc("trajio.frames_written")
        if len(self._steps) >= self._chunk_frames:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._steps:
            return
        assert self._header is not None and self._keyframe is not None
        with obs.span("trajio.write_chunk") as sp:
            nf = len(self._steps)
            record = fmt.encode_chunk(
                self._header, self._total_frames, self._keyframe,
                self._steps, self._times, self._epots, self._ekins,
                self._temps, self._cells, self._pbcs, self._deltas,
                self._vels or None)
            offset = self._fh.tell()
            self._fh.write(record)
            self._index.append((offset, self._total_frames, nf))
            self._total_frames += nf
            sp.set(frames=nf, bytes=len(record))
        obs.counter_inc("trajio.chunks_written")
        self._keyframe = None
        self._steps, self._times = [], []
        self._epots, self._ekins, self._temps = [], [], []
        self._cells, self._pbcs, self._deltas, self._vels = [], [], [], []

    def close(self) -> None:
        """Flush the pending chunk and write the index + footer."""
        if self._closed:
            return
        self._closed = True
        if self._header is None:
            # nothing was ever written: emit a valid empty trajectory
            # only if symbols were given up front; otherwise no file
            if self._symbols is None:
                return
            self._open(self._symbols)
        self._flush_chunk()
        self._fh.write(fmt.pack_index(self._index, self._total_frames,
                                      self._fh.tell()))
        self._fh.close()
        self._fh = None
