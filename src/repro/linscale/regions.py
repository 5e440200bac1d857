"""Localization regions: per-atom subgraphs of the neighbour graph.

The core idea of Goedecker & Colombo's O(N) scheme (PRL 73, 122 (1994)):
the density matrix ``ρ = f((H − μ)/kT)`` (their Eq. 1) of a gapped
system decays exponentially with distance, so the rows of ρ belonging to
atom *a* can be computed inside a *localization region* — every atom
within a radius ``r_loc`` (Å) of *a* — instead of the full system.  The
region splits into

* the **core**: atom *a* itself, whose ρ rows are kept;
* the **halo**: the surrounding atoms, present only so that the Chebyshev
  recursion sees the right environment (their rows are discarded).

Because every orbital is the core of exactly one region, summing
core-row traces over regions tiles the global trace exactly; the only
approximation is the truncation of the halo at ``r_loc``, which converges
exponentially for insulators.

Regions are *folded* subgraphs of the Γ-point supercell: membership comes
from a neighbour list at ``r_loc`` (periodic images collapse onto their
home atom), and the region Hamiltonian is the corresponding submatrix of
the sparse global H — consistent with how the dense Γ calculation folds
images, so the r_loc → ∞ limit is exactly the dense answer.

Regions are also **k-independent**: Bloch phases live in the matrix
elements of H(k), never in the bond graph, so the k-sampled engine
(:mod:`repro.linscale.kfoe`) reuses one region list (and one cached
pattern signature) across every k point — the region submatrix of a
complex H(k) is the same ``orbitals × orbitals`` slice.  In the
small-cell regime k sampling targets, the folded region typically covers
the whole cell and the halo truncation error vanishes identically; the
expansion order is then the only approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ElectronicError
from repro.neighbors.base import NeighborList, neighbor_list
from repro.tb.bonds import orbital_offsets


@dataclass(frozen=True)
class LocalizationRegion:
    """One per-atom region: core atom + halo, with its orbital bookkeeping.

    Attributes
    ----------
    center :
        Global index of the core atom.
    atoms :
        Sorted global atom indices of the region (core included).
    orbitals :
        Global orbital (matrix row/column) indices of the region, ordered
        by the sorted atoms.
    core_local :
        Positions of the core atom's orbitals *within* ``orbitals``.
    """

    center: int
    atoms: np.ndarray
    orbitals: np.ndarray
    core_local: np.ndarray

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_orbitals(self) -> int:
        return len(self.orbitals)

    @property
    def halo_atoms(self) -> np.ndarray:
        """Region atoms minus the core."""
        return self.atoms[self.atoms != self.center]


def all_core_region(n_orbitals: int) -> LocalizationRegion:
    """The whole system as one region whose every orbital is core.

    No halo means no truncation: the region driver
    (:func:`repro.linscale.foe_local.solve_density_regions`) on
    ``[all_core_region(M)]`` is the dense Fermi-operator expansion of an
    M-orbital Hamiltonian — what ``--solver foe`` runs.  The region is
    defined on orbitals alone, so ``center`` is −1 (there is no single
    core atom) and ``atoms`` is empty.
    """
    orbitals = np.arange(n_orbitals)
    return LocalizationRegion(center=-1, atoms=np.empty(0, dtype=int),
                              orbitals=orbitals, core_local=orbitals)


def extract_regions(atoms, model, r_loc: float,
                    nl: NeighborList | None = None
                    ) -> list[LocalizationRegion]:
    """Build one :class:`LocalizationRegion` per atom.

    Parameters
    ----------
    atoms :
        The structure; regions partition its orbitals (every orbital is
        the core of exactly one region).
    model :
        Tight-binding model supplying ``norb`` per species and the
        Hamiltonian ``cutoff`` (Å).
    r_loc :
        Localization radius (Å) — the halo truncation of the paper's
        localization ansatz; accuracy converges exponentially in it for
        gapped systems.  Must be ≥ ``model.cutoff`` so that every
        Hamiltonian neighbour of a core atom sits inside its region —
        otherwise core rows of ρ would miss bonded columns and the band
        energy/forces would be wrong even in the exact limit.
    nl :
        Optional pre-built neighbour list at cutoff ``r_loc`` (an MD loop
        reuses its Verlet list); built on demand otherwise.

    Returns
    -------
    list[LocalizationRegion], one per atom, in atom order.
    """
    if r_loc < model.cutoff:
        raise ElectronicError(
            f"r_loc = {r_loc} Å must be >= the model cutoff "
            f"({model.cutoff} Å): a region must contain every Hamiltonian "
            "neighbour of its core atom"
        )
    if nl is None:
        nl = neighbor_list(atoms, r_loc)
    elif nl.rcut < r_loc - 1e-12:
        raise ElectronicError(
            f"neighbour list cutoff {nl.rcut} Å is smaller than r_loc {r_loc} Å"
        )

    natoms = len(atoms)
    offsets, _ = orbital_offsets(atoms.symbols, model)
    norb = np.array([model.norb(s) for s in atoms.symbols], dtype=int)
    # sorted unique (centre, member) pairs, the centre its own member
    fi, fj, _, _ = nl.full()
    home = np.arange(natoms)
    center, members = np.divmod(
        np.unique(np.r_[fi, home] * natoms + np.r_[fj, home]), natoms)
    cum = np.r_[0, np.cumsum(norb[members])]
    orbitals = np.repeat(offsets[members] - cum[:-1], norb[members]) \
        + np.arange(cum[-1])
    bounds = np.searchsorted(center, home[1:])
    first = cum[np.r_[0, bounds]]
    return [LocalizationRegion(center=a, atoms=atoms_a, orbitals=orbs_a,
                               core_local=np.arange(c, c + norb[a]))
            for a, atoms_a, orbs_a, c in zip(
                range(natoms), np.split(members, bounds),
                np.split(orbitals, first[1:]),
                cum[:-1][center == members] - first)]


@dataclass(frozen=True)
class RegionOrbits:
    """Localization regions grouped into orbits of a crystal's pure
    translations.

    A translation leaves every bond vector unchanged, so it maps one
    region's Hamiltonian block — H(k) included, whose atomic-gauge phase
    ``exp(i k·d)`` depends on the bond vector only — onto another's up to
    a reordering of the orbitals.  Each orbit therefore needs one
    recursion, on its representative (its lowest region index), and
    every member's outputs are the representative's: the same moments and
    population, and the core density rows with their columns permuted.
    This is exact up to the symmetry tolerance: the translations are
    accepted within ``tol`` (1e-5 Å, the k wedge's folding tolerance), so
    on a crystal displaced by less than that a member's own block differs
    from its representative's at that order.

    Attributes
    ----------
    solved :
        Ascending indices of the representative regions.
    slot :
        Per region, the position of its representative in ``solved``.
    cols :
        Per region, the column permutation ``π`` with
        ``rows_member = rows_representative[:, π]`` (``None`` for a
        representative).
    """

    solved: np.ndarray
    slot: np.ndarray
    cols: tuple

    @classmethod
    def identity(cls, n_regions: int) -> "RegionOrbits":
        """Every region its own orbit."""
        idx = np.arange(n_regions)
        return cls(solved=idx, slot=idx, cols=(None,) * n_regions)

    @property
    def reduced(self) -> bool:
        """Whether any region is solved as a copy of another."""
        return len(self.solved) < len(self.slot)


def region_orbits(regions: list[LocalizationRegion], perms: list,
                  offsets: np.ndarray, m_total: int) -> RegionOrbits:
    """Group *regions* into orbits of the translations *perms*.

    *perms* are atom permutations of pure translations (atom *i* lands on
    the site of atom ``perm[i]``, :func:`repro.tb.symmetry.
    lattice_translations`); *offsets* are the first orbital of each atom
    and *m_total* the orbital count.  A region joins the orbit of a
    lower-index representative when some translation carries the
    representative's centre onto its centre *and* its atoms, orbitals and
    core onto exactly its own — so a reused or hand-made region list that
    is not translation-consistent simply keeps one-member orbits.
    """
    n_reg = len(regions)
    offsets = np.asarray(offsets)
    orbital_atom = np.repeat(np.arange(len(offsets)),
                             np.diff(np.append(offsets, m_total)))
    local = np.arange(m_total) - offsets[orbital_atom]
    # the global orbital map of each translation (same species, so the
    # same orbital count per atom)
    orbital_maps = [offsets[p[orbital_atom]] + local for p in perms]
    by_center: dict[int, int] = {}
    for idx, r in enumerate(regions):
        by_center.setdefault(int(r.center), idx)

    slot = np.full(n_reg, -1, dtype=int)
    cols: list = [None] * n_reg
    solved: list[int] = []
    for idx, rep in enumerate(regions):
        if slot[idx] >= 0:
            continue
        slot[idx] = len(solved)
        solved.append(idx)
        if rep.center < 0:
            continue
        for perm, omap in zip(perms, orbital_maps):
            m = by_center.get(int(perm[rep.center]), -1)
            if m < 0 or slot[m] >= 0:
                continue
            member = regions[m]
            moved = omap[rep.orbitals]
            pi = np.argsort(moved, kind="stable")
            if np.array_equal(np.sort(perm[rep.atoms]), member.atoms) \
                    and np.array_equal(moved[pi], member.orbitals) \
                    and np.array_equal(pi[member.core_local],
                                       rep.core_local):
                slot[m] = slot[idx]
                cols[m] = pi
    return RegionOrbits(solved=np.asarray(solved, dtype=int), slot=slot,
                        cols=tuple(cols))


def region_statistics(regions: list[LocalizationRegion]) -> dict:
    """Size statistics — the knobs that set the O(N) prefactor."""
    natoms = np.array([r.n_atoms for r in regions])
    norbs = np.array([r.n_orbitals for r in regions])
    return {
        "n_regions": len(regions),
        "atoms_mean": float(natoms.mean()),
        "atoms_max": int(natoms.max()),
        "orbitals_mean": float(norbs.mean()),
        "orbitals_max": int(norbs.max()),
    }
