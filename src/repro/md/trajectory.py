"""In-memory trajectory: a list of frames with array views for analysis."""

from __future__ import annotations

import numpy as np

from repro.errors import MDError
from repro.geometry.atoms import Atoms
from repro.trajio.reader import TrajFrame
from repro.trajio.stream import iter_frames, open_writer, read_symbols


class Trajectory:
    """A list of :class:`~repro.trajio.reader.TrajFrame` sharing one
    topology (symbols).

    Provides array views over the stored quantities for analysis code
    (MSD, VACF need (T, N, 3) position/velocity stacks).  Each frame
    carries its own cell (NPT/barostat runs change it every step).
    """

    def __init__(self, symbols=None):
        self.symbols = list(symbols) if symbols is not None else None
        self.frames: list[TrajFrame] = []

    def __len__(self) -> int:
        return len(self.frames)

    def append(self, atoms: Atoms, step: int = 0, time_fs: float = 0.0,
               epot: float = 0.0) -> None:
        if self.symbols is None:
            self.symbols = atoms.symbols
        elif atoms.symbols != self.symbols:
            raise MDError("trajectory frames must share one composition")
        self.frames.append(TrajFrame.from_atoms(
            atoms, step=step, time_fs=time_fs, epot=epot))

    # -- array views ------------------------------------------------------------
    def positions(self) -> np.ndarray:
        """(T, N, 3) stack of positions."""
        return np.stack([f.positions for f in self.frames])

    def velocities(self) -> np.ndarray:
        """(T, N, 3) stack of velocities (zeros where none were stored)."""
        return np.stack([np.zeros_like(f.positions) if f.velocities is None
                         else f.velocities for f in self.frames])

    def times(self) -> np.ndarray:
        return np.array([f.time_fs for f in self.frames])

    def temperatures(self) -> np.ndarray:
        return np.array([f.temperature for f in self.frames])

    def potential_energies(self) -> np.ndarray:
        return np.array([f.epot for f in self.frames])

    def cells(self) -> np.ndarray:
        """(T, 3, 3) stack of per-frame cell matrices."""
        return np.stack([f.cell.matrix for f in self.frames])

    def atoms_at(self, index: int) -> Atoms:
        """Reconstruct an Atoms object for frame *index*."""
        return self.frames[index].to_atoms(self.symbols).copy()

    # -- persistence -------------------------------------------------------------
    def save(self, path, **kwargs) -> None:
        """Write every frame through :func:`repro.trajio.open_writer`:
        a ``.ptrj`` path is the chunked binary store (keyword arguments
        reach its writer), any other suffix extended-XYZ text."""
        with open_writer(path, **kwargs) as writer:
            for f in self.frames:
                writer.write(f.to_atoms(self.symbols), step=f.step,
                             time_fs=f.time_fs, epot=f.epot, ekin=f.ekin,
                             temperature=f.temperature)

    @classmethod
    def load(cls, path) -> "Trajectory":
        """Read a trajectory file of either codec back into memory."""
        traj = cls(symbols=read_symbols(path))
        traj.frames = list(iter_frames(path))
        return traj
