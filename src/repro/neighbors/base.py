"""Neighbour-list representation and the dispatching front-end.

Half-list convention
--------------------
A :class:`NeighborList` stores each *bond* exactly once:

* pairs with ``i < j`` for any periodic translation ``T``;
* self-image pairs ``i == j`` with ``T`` in the lexicographically positive
  half-space (a single atom in a periodic cell bonds to its own images).

``vectors[p] = r[j] + T − r[i]`` points from atom *i* to the bonded image of
atom *j*.  The :meth:`NeighborList.full` expansion duplicates every bond in
both directions, which is what per-atom accumulation loops want.

This convention makes energy sums ``Σ_pairs`` direct (no double counting)
and keeps the Hamiltonian builder simple: each half-pair contributes a
block and its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError, NeighborError

#: Shortest pair distance (Å) a calculator accepts.  The tight-binding
#: radial functions and the Stillinger–Weber pair term diverge at r → 0
#: (the bond direction is undefined at r = 0), so two atoms on one site
#: give NaN or a huge finite energy.  A seventh of H₂'s 0.74 Å, the
#: shortest bond any shipped model describes (the Harrison H/C/Si/Ge
#: terms; C–C ≈ 1.2 Å, Si–Si ≈ 2.35 Å), so no physical configuration
#: comes near it, while a pair squeezed to 0.2 Å still solves (to the
#: huge forces an exploding MD run is caught by).
MIN_PAIR_DISTANCE = 0.1


@dataclass(frozen=True)
class NeighborList:
    """Immutable half neighbour list.

    Attributes
    ----------
    i, j :
        (P,) int arrays of atom indices (``i <= j``; equality only for
        periodic self-images).
    vectors :
        (P, 3) bond vectors ``r_j + T − r_i`` in Å.
    distances :
        (P,) bond lengths in Å.
    rcut :
        The cutoff the list was built for.
    natoms :
        Number of atoms in the parent structure.
    """

    i: np.ndarray
    j: np.ndarray
    vectors: np.ndarray
    distances: np.ndarray
    rcut: float
    natoms: int

    def __post_init__(self):
        if not (len(self.i) == len(self.j) == len(self.vectors)
                == len(self.distances)):
            raise NeighborError("inconsistent neighbour-list array lengths")

    @property
    def n_pairs(self) -> int:
        """Number of unique bonds."""
        return len(self.i)

    def full(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Expand to a full (directed) list.

        Returns ``(fi, fj, fvec, fdist)`` where every bond appears twice,
        once in each direction (self-image bonds appear as both ``+T`` and
        ``−T``).
        """
        fi = np.concatenate([self.i, self.j])
        fj = np.concatenate([self.j, self.i])
        fvec = np.concatenate([self.vectors, -self.vectors])
        fdist = np.concatenate([self.distances, self.distances])
        return fi, fj, fvec, fdist

    def coordination(self) -> np.ndarray:
        """Per-atom bond count (each bond counts for both ends)."""
        counts = np.zeros(self.natoms, dtype=int)
        np.add.at(counts, self.i, 1)
        np.add.at(counts, self.j, 1)
        return counts

    def neighbors_of(self, atom: int) -> np.ndarray:
        """Indices of atoms bonded to *atom* (with multiplicity)."""
        fi, fj, _, _ = self.full()
        return fj[fi == atom]

    def neighbors_by_atom(self) -> list[np.ndarray]:
        """Per-atom arrays of *unique* bonded atom indices.

        One pass over the full (directed) list instead of N calls to
        :meth:`neighbors_of`; periodic image multiplicity is collapsed, so
        ``out[a]`` is exactly the set of atoms within ``rcut`` of *a* (an
        atom bonded only to its own images contributes itself).  This is
        the graph the localization-region extraction consumes.
        """
        fi, fj, _, _ = self.full()
        order = np.argsort(fi, kind="stable")
        fi_s, fj_s = fi[order], fj[order]
        starts = np.searchsorted(fi_s, np.arange(self.natoms + 1))
        return [np.unique(fj_s[starts[a]:starts[a + 1]])
                for a in range(self.natoms)]

    def max_distance(self) -> float:
        return float(self.distances.max()) if self.n_pairs else 0.0


def empty_neighbor_list(natoms: int, rcut: float) -> NeighborList:
    """A neighbour list with no bonds (isolated atoms)."""
    return NeighborList(
        i=np.zeros(0, dtype=int),
        j=np.zeros(0, dtype=int),
        vectors=np.zeros((0, 3)),
        distances=np.zeros(0),
        rcut=float(rcut),
        natoms=natoms,
    )


def neighbor_list(atoms, rcut: float, method: str = "auto") -> NeighborList:
    """Build a half neighbour list for *atoms* within *rcut*.

    ``method``:

    * ``"brute"`` — O(N²·images); always correct, any cell size.
    * ``"cell"``  — linked cells, O(N); requires the cutoff to fit within
      half the smallest periodic cell width (falls back to brute otherwise
      when method="auto").
    * ``"auto"``  — cell list when admissible and N is large enough to pay
      off, brute force otherwise.
    """
    from repro.neighbors.brute import brute_force_neighbors
    from repro.neighbors.celllist import cell_list_admissible, cell_list_neighbors

    if rcut <= 0:
        raise NeighborError(f"rcut must be > 0, got {rcut}")
    if method == "brute":
        return brute_force_neighbors(atoms, rcut)
    if method == "cell":
        return cell_list_neighbors(atoms, rcut)
    if method == "auto":
        if len(atoms) >= 250 and cell_list_admissible(atoms, rcut):
            return cell_list_neighbors(atoms, rcut)
        return brute_force_neighbors(atoms, rcut)
    raise NeighborError(f"unknown neighbour method {method!r}")


def check_separations(nl: NeighborList) -> None:
    """Raise :class:`GeometryError` naming the closest pair of *nl* when
    it is nearer than :data:`MIN_PAIR_DISTANCE`."""
    if nl.n_pairs == 0:
        return
    p = int(np.argmin(nl.distances))
    r = float(nl.distances[p])
    if r < MIN_PAIR_DISTANCE:
        raise GeometryError(
            f"atoms {int(nl.i[p])} and {int(nl.j[p])} are {r:.3g} Å apart, "
            f"closer than {MIN_PAIR_DISTANCE} Å: coincident atoms have no "
            "bond (a duplicated atom in the input?)")
