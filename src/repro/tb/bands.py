"""Band-structure computation along high-symmetry paths."""

from __future__ import annotations

import numpy as np

from repro.neighbors import neighbor_list
from repro.tb.eigensolvers import solve_eigh
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.kpoints import frac_to_cartesian


def band_structure(atoms, model, kpts_frac) -> np.ndarray:
    """Eigenvalues along a list of fractional k points.

    Returns an (K, M) array of eigenvalues (eV), ascending per k.
    """
    nl = neighbor_list(atoms, model.cutoff)
    kcart = frac_to_cartesian(np.asarray(kpts_frac, dtype=float), atoms.cell)
    bands = []
    for k in kcart:
        Hk, Sk = build_hamiltonian(atoms, model, nl, k_cart=k)
        eps, _ = solve_eigh(Hk, Sk)
        bands.append(eps)
    return np.array(bands)


def band_gap_along_path(bands: np.ndarray, n_electrons: float) -> dict:
    """Indirect/direct gap summary from a band-structure array.

    Assumes an insulating filling (``n_electrons`` even per cell).
    """
    n_occ = int(round(n_electrons / 2.0))
    vbm = float(bands[:, n_occ - 1].max())
    cbm = float(bands[:, n_occ].min())
    direct = float(np.min(bands[:, n_occ] - bands[:, n_occ - 1]))
    return {
        "vbm": vbm,
        "cbm": cbm,
        "indirect_gap": max(0.0, cbm - vbm),
        "direct_gap": max(0.0, direct),
        "k_vbm": int(np.argmax(bands[:, n_occ - 1])),
        "k_cbm": int(np.argmin(bands[:, n_occ])),
    }
