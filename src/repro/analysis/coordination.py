"""Coordination numbers and bond statistics."""

from __future__ import annotations

import numpy as np

from repro.neighbors import neighbor_list


def coordination_numbers(atoms, r_cut: float) -> np.ndarray:
    """Per-atom neighbour count within *r_cut* (Å)."""
    return neighbor_list(atoms, r_cut).coordination()


def bond_statistics(atoms, r_cut: float) -> dict:
    """Summary of the bond network within *r_cut*.

    Returns mean/min/max coordination, bond-length statistics, and the
    histogram of coordination numbers — the diagnostics the nanotube /
    liquid workloads report (e.g. "all atoms three-coordinated sp²").
    """
    nl = neighbor_list(atoms, r_cut)
    coord = nl.coordination()
    uniq, counts = (np.unique(coord, return_counts=True)
                    if len(coord) else (np.array([]), np.array([])))
    return {
        "n_bonds": nl.n_pairs,
        "mean_coordination": float(coord.mean()) if len(coord) else 0.0,
        "min_coordination": int(coord.min()) if len(coord) else 0,
        "max_coordination": int(coord.max()) if len(coord) else 0,
        "coordination_histogram": {int(u): int(c) for u, c in zip(uniq, counts)},
        "mean_bond_length": float(nl.distances.mean()) if nl.n_pairs else 0.0,
        "min_bond_length": float(nl.distances.min()) if nl.n_pairs else 0.0,
        "max_bond_length": float(nl.distances.max()) if nl.n_pairs else 0.0,
    }


def undercoordinated_atoms(atoms, r_cut: float, target: int) -> np.ndarray:
    """Indices of atoms with fewer than *target* neighbours (dangling
    bonds — e.g. open nanotube edges)."""
    coord = coordination_numbers(atoms, r_cut)
    return np.flatnonzero(coord < target)
