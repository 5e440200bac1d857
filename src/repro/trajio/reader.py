"""Random-access reader for PTRJ binary trajectories.

Opening a file reads only the header and the footer index; fetching
frame *i* is a binary search over the index, one chunk decode — CRC,
the few deflated sections, the metadata columns; O(chunk bytes), never
O(file) — and the gather of that one frame's bytes from the chunk's
byte planes.  The last decoded chunk is cached, so sequential
iteration decodes each chunk exactly once, and seeks, strided windows
and full passes all materialise only the frames they return.  Files of
format version 1 read through the same path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro import obs
from repro.errors import IOFormatError
from repro.geometry.atoms import Atoms
from repro.geometry.cell import Cell
from repro.trajio import format as fmt


@dataclass
class TrajFrame:
    """One frame of a run — the only frame record: arrays plus scalar
    metadata, whether recorded in memory or decoded from a file."""

    step: int
    time_fs: float
    epot: float
    ekin: float
    temperature: float
    positions: np.ndarray            # (natoms, 3) f64
    cell: Cell
    velocities: np.ndarray | None    # (natoms, 3) f64 or None

    @classmethod
    def from_atoms(cls, atoms: Atoms, *, step: int, time_fs: float,
                   epot: float, ekin: float | None = None,
                   temperature: float | None = None) -> "TrajFrame":
        """Snapshot *atoms* (arrays are copied); ``ekin``/``temperature``
        default to the atoms' own."""
        return cls(
            step=int(step), time_fs=float(time_fs), epot=float(epot),
            ekin=atoms.kinetic_energy() if ekin is None else float(ekin),
            temperature=atoms.temperature() if temperature is None
            else float(temperature),
            positions=atoms.positions.copy(), cell=atoms.cell,
            velocities=atoms.velocities.copy())

    def to_atoms(self, symbols: list[str]) -> Atoms:
        return Atoms(symbols, self.positions, cell=self.cell,
                     velocities=self.velocities)


class TrajectoryReader:
    """Read a ``.ptrj`` file written by :class:`~repro.trajio.writer.TrajectoryWriter`."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._fh: Any = open(self.path, "rb")
        try:
            self.header = fmt.read_header(self._fh)
            size = os.fstat(self._fh.fileno()).st_size
            (self._offsets, self._firsts, self._counts,
             self._total) = fmt.read_index(self._fh, self.header, size)
        except Exception:
            self._fh.close()
            raise
        self._cached_frames = range(0)      # frame numbers of _cached_data
        self._cached_data: fmt.ChunkData | None = None
        self._last_cell: tuple[tuple[bytes, bytes], Cell] | None = None

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "TrajectoryReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- metadata ------------------------------------------------------------
    def __len__(self) -> int:
        return self._total

    @property
    def symbols(self) -> list[str]:
        return list(self.header.symbols)

    @property
    def natoms(self) -> int:
        return self.header.natoms

    @property
    def has_velocities(self) -> bool:
        return self.header.has_velocities

    @property
    def nchunks(self) -> int:
        return len(self._offsets)

    # -- access --------------------------------------------------------------
    def _chunk_of(self, frame: int) -> int:
        return int(np.searchsorted(self._firsts, frame, side="right")) - 1

    def _load_chunk(self, k: int) -> fmt.ChunkData:
        """Read, decode and cache chunk *k*."""
        if self._fh is None:
            raise IOFormatError(f"trajectory reader {self.path} is closed")
        with obs.span("trajio.read_chunk") as sp:
            nf = int(self._counts[k])
            record = fmt.read_chunk_record(self._fh, self.header,
                                           int(self._offsets[k]))
            data = fmt.decode_chunk(self.header, record, nf)
            sp.set(chunk=k, frames=nf)
        obs.counter_inc("trajio.chunk_reads")
        first = int(self._firsts[k])
        self._cached_frames, self._cached_data = range(first, first + nf), data
        return data

    def _cell_of(self, data: fmt.ChunkData, j: int) -> Cell:
        """Frame *j*'s cell.  Cells are values (``TrajFrame.from_atoms``
        shares ``atoms.cell`` too): while the 72 cell bytes and the pbc
        flags repeat, so does the object — one ``inv`` + one ``det``
        saved per frame of a fixed-cell run."""
        key = (data.cells[j].tobytes(), data.pbcs[j].tobytes())
        if self._last_cell is None or self._last_cell[0] != key:
            self._last_cell = key, Cell(data.cells[j], pbc=data.pbcs[j])
        return self._last_cell[1]

    def read(self, i: int) -> TrajFrame:
        """Frame *i* (supports negative indices)."""
        if i < 0:
            i += self._total
        if not 0 <= i < self._total:
            raise IndexError(
                f"frame {i} out of range for trajectory of {self._total}")
        data = self._cached_data
        if data is None or i not in self._cached_frames:
            data = self._load_chunk(self._chunk_of(i))
        j = i - self._cached_frames.start
        obs.counter_inc("trajio.frames_read")
        positions, velocities = data.frame(j)
        return TrajFrame(
            step=int(data.steps[j]), time_fs=float(data.times[j]),
            epot=float(data.epots[j]), ekin=float(data.ekins[j]),
            temperature=float(data.temperatures[j]), positions=positions,
            cell=self._cell_of(data, j), velocities=velocities)

    def __getitem__(self, i: int) -> TrajFrame:
        return self.read(i)

    def atoms_at(self, i: int) -> Atoms:
        return self.read(i).to_atoms(self.symbols)

    def iter_frames(self, start: int = 0, stop: int | None = None,
                    stride: int = 1) -> Iterator[TrajFrame]:
        """Stream frames ``start:stop:stride`` (chunk cache makes this
        a single decode per chunk)."""
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        stop_ = self._total if stop is None else min(int(stop), self._total)
        for i in range(int(start), stop_, int(stride)):
            yield self.read(i)

    def __iter__(self) -> Iterator[TrajFrame]:
        return self.iter_frames()
