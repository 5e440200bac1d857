"""Triclinic periodic cell with minimum-image and image-enumeration support.

A :class:`Cell` wraps a 3×3 row-vector lattice matrix (row ``i`` is lattice
vector ``a_i`` in Å) plus per-axis periodicity flags.  Two operations matter
for tight binding on small supercells:

* :meth:`minimum_image` — the conventional nearest-image displacement, used
  by analysis code (RDF, MSD).
* :meth:`translations_within` — *all* lattice translations through which
  two wrapped points can lie within ``rcut``, used by the Hamiltonian
  builder.  For small cells (cutoff larger than half the shortest cell
  width) a single pair of atoms interacts through several periodic
  images; Γ-point folding must include every one of them, not just the
  nearest.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import GeometryError
from repro.utils.validation import as_float_array


class Cell:
    """Immutable triclinic simulation cell.

    Parameters
    ----------
    matrix :
        3×3 array; row *i* is the lattice vector :math:`a_i` (Å).
    pbc :
        bool or length-3 sequence of bool; per-axis periodicity.
    """

    __slots__ = ("_h", "_hinv", "_pbc", "_volume")

    def __init__(self, matrix, pbc=True):
        h = as_float_array(matrix, "cell matrix", (3, 3))
        if np.isscalar(pbc) or isinstance(pbc, (bool, np.bool_)):
            flags = np.array([bool(pbc)] * 3)
        else:
            flags = np.array([bool(p) for p in pbc])
            if flags.shape != (3,):
                raise GeometryError("pbc must be a bool or length-3 sequence")
        vol = float(np.linalg.det(h))
        if flags.any() and abs(vol) < 1e-12:
            raise GeometryError(
                "periodic cell matrix is singular (volume ~ 0); "
                "supply three linearly independent lattice vectors"
            )
        # Right-handed convention keeps the volume positive.
        self._h = h.copy()
        self._h.setflags(write=False)
        self._hinv = np.linalg.inv(h) if abs(vol) > 1e-12 else None
        self._pbc = flags
        self._pbc.setflags(write=False)
        self._volume = abs(vol)

    # -- constructors -------------------------------------------------------
    @classmethod
    def cubic(cls, a: float, pbc=True) -> "Cell":
        """Cubic cell with edge *a* Å."""
        return cls(np.eye(3) * float(a), pbc=pbc)

    @classmethod
    def orthorhombic(cls, a: float, b: float, c: float, pbc=True) -> "Cell":
        """Orthorhombic cell with edges (a, b, c) Å."""
        return cls(np.diag([float(a), float(b), float(c)]), pbc=pbc)

    @classmethod
    def nonperiodic(cls, extent: float = 1.0) -> "Cell":
        """A placeholder cell for isolated (cluster) systems."""
        return cls(np.eye(3) * float(extent), pbc=False)

    # -- basic properties ---------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """3×3 lattice matrix (rows are lattice vectors), read-only view."""
        return self._h

    @property
    def pbc(self) -> np.ndarray:
        """Length-3 boolean periodicity flags, read-only view."""
        return self._pbc

    @property
    def periodic(self) -> bool:
        """True if any axis is periodic."""
        return bool(self._pbc.any())

    @property
    def fully_periodic(self) -> bool:
        return bool(self._pbc.all())

    @property
    def volume(self) -> float:
        """Cell volume in Å³."""
        return self._volume

    @property
    def lengths(self) -> np.ndarray:
        """Lengths of the three lattice vectors (Å)."""
        return np.linalg.norm(self._h, axis=1)

    @property
    def angles(self) -> np.ndarray:
        """Cell angles (α, β, γ) in degrees: α = angle(a₂,a₃) etc."""
        a, b, c = self._h
        def ang(u, v):
            cosv = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            return float(np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0))))
        return np.array([ang(b, c), ang(a, c), ang(a, b)])

    def perpendicular_widths(self) -> np.ndarray:
        """Distance between opposite cell faces along each axis (Å).

        Width *k* is ``volume / |a_i × a_j|``; it bounds how many periodic
        images along axis *k* can fall within a given cutoff.
        """
        h = self._h
        cross = np.stack([
            np.cross(h[1], h[2]),
            np.cross(h[2], h[0]),
            np.cross(h[0], h[1]),
        ])
        areas = np.linalg.norm(cross, axis=1)
        with np.errstate(divide="ignore"):
            return np.where(areas > 0, self._volume / areas, np.inf)

    # -- coordinate transforms ----------------------------------------------
    def fractional(self, positions: np.ndarray) -> np.ndarray:
        """Cartesian (Å) → fractional coordinates."""
        if self._hinv is None:
            raise GeometryError("cell is singular; fractional coords undefined")
        return np.asarray(positions, dtype=float) @ self._hinv

    def cartesian(self, frac: np.ndarray) -> np.ndarray:
        """Fractional → Cartesian (Å)."""
        return np.asarray(frac, dtype=float) @ self._h

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Wrap positions into the home cell along periodic axes only."""
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        if not self.periodic:
            return pos.copy()
        frac = self.fractional(pos)
        for k in range(3):
            if self._pbc[k]:
                fk = frac[:, k] - np.floor(frac[:, k])
                # floor of a tiny negative leaves fk == 1.0 exactly;
                # fold it back so the result stays in [0, 1)
                fk[fk >= 1.0] -= 1.0
                frac[:, k] = fk
        return self.cartesian(frac)

    # -- displacement machinery ----------------------------------------------
    def minimum_image(self, dvec: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vector(s).

        Correct for cutoffs up to half the smallest perpendicular width; the
        Hamiltonian builder uses :meth:`translations_within` instead, which
        has no such restriction.
        """
        d = np.atleast_2d(np.asarray(dvec, dtype=float))
        if not self.periodic:
            out = d.copy()
        else:
            frac = self.fractional(d)
            for k in range(3):
                if self._pbc[k]:
                    frac[:, k] -= np.round(frac[:, k])
            out = self.cartesian(frac)
        return out[0] if np.asarray(dvec).ndim == 1 else out

    def translations_within(self, rcut: float) -> np.ndarray:
        """All lattice translations ``T`` possibly relevant for a cutoff.

        Returns an (M, 3) array of Cartesian translation vectors such that
        for any two points wrapped into the cell, every periodic image
        within *rcut* is reached by one of the translations: the points'
        fractional separation along axis *k* is below 1, so an image
        within *rcut* needs ``|n_k| < 1 + rcut / w_k`` (``w_k`` the
        perpendicular width).  The zero translation is always first.

        Non-periodic axes contribute no images.
        """
        if rcut <= 0:
            raise GeometryError(f"rcut must be > 0, got {rcut}")
        if not self.periodic:
            return np.zeros((1, 3))
        widths = self.perpendicular_widths()
        nmax = np.zeros(3, dtype=int)
        for k in range(3):
            if self._pbc[k]:
                # the 1e-9 keeps an image exactly at rcut on a face pair
                nmax[k] = int(np.ceil(rcut / widths[k] + 1e-9))
        ranges = [range(-int(n), int(n) + 1) for n in nmax]
        combos = np.array(list(itertools.product(*ranges)), dtype=float)
        # Put the zero translation first for deterministic on-site handling.
        zero_idx = int(np.flatnonzero(~combos.any(axis=1))[0])
        order = np.concatenate(([zero_idx],
                                np.delete(np.arange(len(combos)), zero_idx)))
        return combos[order] @ self._h

    # -- dunder -------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return (np.allclose(self._h, other._h)
                and bool(np.all(self._pbc == other._pbc)))

    def __hash__(self):  # immutable by construction
        return hash((self._h.tobytes(), self._pbc.tobytes()))

    def __repr__(self) -> str:
        lens = ", ".join(f"{x:.3f}" for x in self.lengths)
        return f"Cell(lengths=({lens}) Å, pbc={tuple(bool(p) for p in self._pbc)})"
