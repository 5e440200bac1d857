"""Bond-angle distribution function.

The tetrahedral 109.47° peak of crystalline/amorphous silicon vs the
broad liquid distribution is a standard structural fingerprint alongside
g(r).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.neighbors import neighbor_list


def angle_distribution(frames, r_cut: float, nbins: int = 90
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of j–i–k angles for bonded triplets within *r_cut*.

    Returns ``(angle_centers_deg, probability_density)`` normalised to
    unit integral over [0°, 180°].
    """
    if r_cut <= 0:
        raise GeometryError("r_cut must be > 0")
    if hasattr(frames, "positions") and not isinstance(frames, (list, tuple)):
        frames = [frames]
    frames = list(frames)
    if not frames:
        raise GeometryError("no frames given")

    edges = np.linspace(0.0, 180.0, nbins + 1)
    hist = np.zeros(nbins)
    for at in frames:
        nl = neighbor_list(at, r_cut)
        fi, fj, fvec, _ = nl.full()
        order = np.argsort(fi, kind="stable")
        fi, fj, fvec = fi[order], fj[order], fvec[order]
        # group bonds by central atom i
        starts = np.searchsorted(fi, np.arange(len(at)))
        ends = np.searchsorted(fi, np.arange(len(at)) + 1)
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            v = fvec[s:e]
            norms = np.linalg.norm(v, axis=1)
            unit = v / norms[:, None]
            cosm = unit @ unit.T
            iu, ju = np.triu_indices(len(v), k=1)
            ang = np.degrees(np.arccos(np.clip(cosm[iu, ju], -1.0, 1.0)))
            h, _ = np.histogram(ang, bins=edges)
            hist += h
    centers = 0.5 * (edges[1:] + edges[:-1])
    total = hist.sum()
    if total > 0:
        width = edges[1] - edges[0]
        hist = hist / (total * width)
    return centers, hist


def mean_angle(frames, r_cut: float) -> float:
    """Mean bonded angle in degrees (109.47 for perfect tetrahedra)."""
    centers, dens = angle_distribution(frames, r_cut, nbins=360)
    total = dens.sum()
    if total == 0:
        raise GeometryError("no bonded triplets found within r_cut")
    return float(np.sum(centers * dens) / total)
