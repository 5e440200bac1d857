"""Radial distribution function g(r).

Histogram of pair distances normalised by the ideal-gas shell count — the
standard liquid-structure diagnostic (F7 reproduces the liquid-Si g(r)
with its ≈2.45 Å first peak and >4 coordination).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.atoms import Atoms
from repro.neighbors import neighbor_list


def radial_distribution(frames, r_max: float, nbins: int = 100,
                        cell=None) -> tuple[np.ndarray, np.ndarray]:
    """g(r) averaged over *frames*.

    Parameters
    ----------
    frames :
        One Atoms object or an iterable of them (a list of trajectory
        snapshots, or a generator — frames are consumed one at a time).
        All frames must share the cell and atom count.
    r_max :
        Histogram range (Å).  For periodic systems must not exceed what
        the image enumeration supports (any value works; cost grows).
    nbins :
        Number of radial bins.

    Returns
    -------
    ``(r_centers, g)`` arrays of length *nbins*.
    """
    if r_max <= 0:
        raise GeometryError("r_max must be > 0")
    if isinstance(frames, Atoms):
        frames = [frames]

    edges = np.linspace(0.0, r_max, nbins + 1)
    hist = np.zeros(nbins)
    n = None
    nframes = 0
    vol = None
    for at in frames:
        if n is None:
            n = len(at)
        elif len(at) != n:
            raise GeometryError("all frames must have the same atom count")
        nl = neighbor_list(at, r_max)
        # half list: each pair once; count twice for the per-atom normalisation
        h, _ = np.histogram(nl.distances, bins=edges)
        hist += 2.0 * h
        if at.cell.fully_periodic:
            vol = at.cell.volume
        nframes += 1
    if not nframes:
        raise GeometryError("no frames given")
    hist /= nframes

    centers = 0.5 * (edges[1:] + edges[:-1])
    shell_vol = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    if vol is not None:
        density = n / vol
    else:
        # isolated systems: normalise by the mean density inside r_max of
        # the bounding sphere — g(r) is then qualitative (documented).
        density = n / (4.0 / 3.0 * np.pi * r_max**3)
    ideal = density * shell_vol * n
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(ideal > 0, hist / ideal, 0.0)
    return centers, g


def first_peak(r: np.ndarray, g: np.ndarray,
               r_window: tuple[float, float] | None = None) -> float:
    """Position of the first maximum of g(r) (optionally within a window)."""
    r = np.asarray(r)
    g = np.asarray(g)
    mask = np.ones_like(r, dtype=bool)
    if r_window is not None:
        mask = (r >= r_window[0]) & (r <= r_window[1])
    if not mask.any():
        raise GeometryError("empty r window")
    idx = np.argmax(g[mask])
    return float(r[mask][idx])


def coordination_from_rdf(r: np.ndarray, g: np.ndarray, density: float,
                          r_min: float) -> float:
    """Running coordination number ``4πρ ∫₀^{r_min} g(r) r² dr``."""
    r = np.asarray(r)
    g = np.asarray(g)
    mask = r <= r_min
    integrand = g[mask] * r[mask] ** 2
    return float(4.0 * np.pi * density * np.trapezoid(integrand, r[mask]))
