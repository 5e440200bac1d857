"""The :class:`Atoms` container: species, positions, velocities, cell.

This is the single structure object threaded through the whole library
(TB calculator, MD driver, relaxers, analysis).  It is intentionally a
plain mutable container — the physics lives in the calculators.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cell import Cell
from repro.units import ATOMIC_NUMBERS, mass_of, kinetic_energy
from repro.utils.validation import as_float_array


class Atoms:
    """A collection of atoms with optional periodic cell.

    Parameters
    ----------
    symbols :
        Sequence of chemical symbols (``["Si", "Si", ...]``) or a single
        symbol string applied to all positions.
    positions :
        (N, 3) Cartesian coordinates in Å.
    cell :
        A :class:`Cell`, a 3×3 matrix (fully periodic), or ``None`` for an
        isolated cluster.
    velocities :
        Optional (N, 3) velocities in Å/fs (default zero).
    masses :
        Optional (N,) masses in amu; defaults to tabulated atomic masses.
    fixed :
        Optional (N,) boolean mask of frozen atoms (used by MD and
        relaxation — e.g. the hydrogen-saturated tube end of the classic
        nanotube workloads).
    """

    def __init__(self, symbols, positions, cell=None, velocities=None,
                 masses=None, fixed=None):
        positions = as_float_array(positions, "positions")
        if positions.ndim == 1:
            positions = positions.reshape(1, 3)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise GeometryError(
                f"positions must be (N, 3), got {positions.shape}"
            )
        n = len(positions)

        if isinstance(symbols, str):
            symbols = [symbols] * n
        symbols = [str(s) for s in symbols]
        if len(symbols) != n:
            raise GeometryError(
                f"{len(symbols)} symbols but {n} positions"
            )
        for s in symbols:
            if s not in ATOMIC_NUMBERS:
                raise GeometryError(f"unknown chemical symbol {s!r}")

        if cell is None:
            cell = Cell.nonperiodic()
        elif not isinstance(cell, Cell):
            cell = Cell(cell, pbc=True)

        self._symbols = list(symbols)
        self.positions = positions
        self.cell = cell
        self.velocities = (np.zeros((n, 3)) if velocities is None
                           else as_float_array(velocities, "velocities", (n, 3)))
        if masses is None:
            self.masses = np.array([mass_of(s) for s in symbols])
        else:
            self.masses = as_float_array(masses, "masses", (n,))
            if np.any(self.masses <= 0):
                raise GeometryError("masses must be positive")
        if fixed is None:
            self.fixed = np.zeros(n, dtype=bool)
        else:
            self.fixed = np.asarray(fixed, dtype=bool).copy()
            if self.fixed.shape != (n,):
                raise GeometryError(f"fixed mask must be ({n},)")

    # -- basic queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.positions)

    @property
    def symbols(self) -> list[str]:
        """Chemical symbols (copy — mutate via :meth:`set_symbol`)."""
        return list(self._symbols)

    def set_symbol(self, index: int, symbol: str, update_mass: bool = True) -> None:
        """Substitute the species of one atom (e.g. C → B doping)."""
        if symbol not in ATOMIC_NUMBERS:
            raise GeometryError(f"unknown chemical symbol {symbol!r}")
        self._symbols[index] = symbol
        if update_mass:
            self.masses[index] = mass_of(symbol)

    @property
    def numbers(self) -> np.ndarray:
        """Atomic numbers as an (N,) int array."""
        return np.array([ATOMIC_NUMBERS[s] for s in self._symbols])

    @property
    def n_free(self) -> int:
        """Number of unfrozen atoms."""
        return int((~self.fixed).sum())

    def species(self) -> list[str]:
        """Sorted unique symbols present."""
        return sorted(set(self._symbols))

    # -- energetics ------------------------------------------------------------
    def kinetic_energy(self) -> float:
        """Kinetic energy in eV (frozen atoms included if they move)."""
        return kinetic_energy(self.masses, self.velocities)

    def temperature(self) -> float:
        """Instantaneous kinetic temperature in K over the free atoms.

        Convention: 3 degrees of freedom per free atom (no COM removal
        correction; callers who remove COM drift should use ndof = 3N−3).
        """
        from repro.units import temperature_from_kinetic

        free = ~self.fixed
        ekin = kinetic_energy(self.masses[free], self.velocities[free])
        return temperature_from_kinetic(ekin, 3 * int(free.sum()))

    def momentum(self) -> np.ndarray:
        """Total momentum (amu·Å/fs)."""
        return (self.masses[:, None] * self.velocities).sum(axis=0)

    def center_of_mass(self) -> np.ndarray:
        return (self.masses[:, None] * self.positions).sum(axis=0) / self.masses.sum()

    def zero_momentum(self) -> None:
        """Remove centre-of-mass drift from the free atoms' velocities."""
        free = ~self.fixed
        if not free.any():
            return
        m = self.masses[free]
        p = (m[:, None] * self.velocities[free]).sum(axis=0)
        self.velocities[free] -= p / m.sum()

    # -- geometry ---------------------------------------------------------------
    def wrap(self) -> None:
        """Wrap positions into the home cell (periodic axes only)."""
        self.positions = self.cell.wrap(self.positions)

    def distance(self, i: int, j: int, mic: bool = True) -> float:
        """Distance between atoms *i* and *j* (minimum-image if *mic*)."""
        d = self.positions[j] - self.positions[i]
        if mic:
            d = self.cell.minimum_image(d)
        return float(np.linalg.norm(d))

    def copy(self) -> "Atoms":
        """Deep copy."""
        return Atoms(
            list(self._symbols),
            self.positions.copy(),
            cell=self.cell,
            velocities=self.velocities.copy(),
            masses=self.masses.copy(),
            fixed=self.fixed.copy(),
        )

    def translate(self, shift) -> None:
        """Rigidly translate all atoms by *shift* (length-3, Å)."""
        self.positions += np.asarray(shift, dtype=float).reshape(1, 3)

    def rotate(self, axis, angle: float, center=None) -> None:
        """Rigidly rotate all atoms by *angle* (radians) about *axis*.

        Only meaningful for clusters; rotating a periodic structure without
        rotating its cell changes the physics, so this raises for periodic
        systems.
        """
        if self.cell.periodic:
            raise GeometryError("rotate() is only supported for isolated systems")
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        c, s = np.cos(angle), np.sin(angle)
        ux, uy, uz = axis
        rot = np.array([
            [c + ux * ux * (1 - c), ux * uy * (1 - c) - uz * s, ux * uz * (1 - c) + uy * s],
            [uy * ux * (1 - c) + uz * s, c + uy * uy * (1 - c), uy * uz * (1 - c) - ux * s],
            [uz * ux * (1 - c) - uy * s, uz * uy * (1 - c) + ux * s, c + uz * uz * (1 - c)],
        ])
        center = (self.center_of_mass() if center is None
                  else np.asarray(center, dtype=float))
        self.positions = (self.positions - center) @ rot.T + center
        self.velocities = self.velocities @ rot.T

    def extend(self, other: "Atoms") -> "Atoms":
        """Return a new Atoms with *other* appended (keeps this cell)."""
        return Atoms(
            list(self._symbols) + list(other._symbols),
            np.vstack([self.positions, other.positions]),
            cell=self.cell,
            velocities=np.vstack([self.velocities, other.velocities]),
            masses=np.concatenate([self.masses, other.masses]),
            fixed=np.concatenate([self.fixed, other.fixed]),
        )

    def select(self, mask) -> "Atoms":
        """Return a new Atoms containing only atoms where *mask* is True."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            idx = np.asarray(mask, dtype=int)
            mask = np.zeros(len(self), dtype=bool)
            mask[idx] = True
        syms = [s for s, m in zip(self._symbols, mask) if m]
        return Atoms(
            syms,
            self.positions[mask],
            cell=self.cell,
            velocities=self.velocities[mask],
            masses=self.masses[mask],
            fixed=self.fixed[mask],
        )

    def __repr__(self) -> str:
        from collections import Counter

        counts = Counter(self._symbols)
        formula = "".join(f"{s}{c if c > 1 else ''}" for s, c in sorted(counts.items()))
        return f"Atoms({formula}, n={len(self)}, cell={self.cell!r})"
