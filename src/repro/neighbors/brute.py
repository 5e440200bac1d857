"""Brute-force neighbour search with complete periodic-image enumeration.

O(N² · n_images) but *always correct*, including the small-supercell regime
where the interaction cutoff exceeds half the box (an 8-atom diamond cell
with a 3.7 Å TB cutoff couples to dozens of images).  This is the reference
implementation the cell list is validated against.
"""

from __future__ import annotations

import numpy as np

from repro.neighbors.base import NeighborList, empty_neighbor_list


def _lex_positive(t: np.ndarray) -> np.ndarray:
    """Boolean mask of rows that are lexicographically > 0."""
    gt = np.zeros(len(t), dtype=bool)
    decided = np.zeros(len(t), dtype=bool)
    for k in range(t.shape[1]):
        col = t[:, k]
        gt |= (~decided) & (col > 1e-12)
        decided |= np.abs(col) > 1e-12
    return gt


def brute_force_neighbors(atoms, rcut: float) -> NeighborList:
    """Half neighbour list via direct distance evaluation over all images."""
    pos = atoms.positions
    n = len(pos)
    if n == 0:
        return empty_neighbor_list(0, rcut)
    cell = atoms.cell

    if cell.periodic:
        # Work with wrapped coordinates so the tight translation bound
        # holds (|Δf_k| < 1 per axis: 27 images for Si64 at 6.5 Å).
        pos = cell.wrap(pos)
        translations = cell.translations_within(rcut)
    else:
        translations = np.zeros((1, 3))

    rcut2 = rcut * rcut
    out_i, out_j, out_v = [], [], []

    iu, ju = np.triu_indices(n, k=1)
    for t in translations:
        disp = pos[ju] + t - pos[iu]                      # (n(n-1)/2, 3)
        d2 = np.einsum("ij,ij->i", disp, disp)
        mask = d2 <= rcut2
        if mask.any():
            out_i.append(iu[mask])
            out_j.append(ju[mask])
            out_v.append(disp[mask])

    # Self-image bonds: i == j, T lexicographically positive.
    if len(translations) > 1:
        ts = translations[1:]
        keep = _lex_positive(ts)
        ts = ts[keep]
        if len(ts):
            d2 = np.einsum("ij,ij->i", ts, ts)
            ts = ts[d2 <= rcut2]
            for t in ts:
                idx = np.arange(n)
                out_i.append(idx)
                out_j.append(idx)
                out_v.append(np.broadcast_to(t, (n, 3)).copy())

    if not out_i:
        return empty_neighbor_list(n, rcut)

    i = np.concatenate(out_i)
    j = np.concatenate(out_j)
    v = np.vstack(out_v)
    d = np.linalg.norm(v, axis=1)
    order = np.lexsort((d, j, i))   # deterministic ordering
    return NeighborList(i=i[order], j=j[order], vectors=v[order],
                        distances=d[order], rcut=float(rcut), natoms=n)
