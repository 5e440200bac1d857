"""Mean-squared displacement and diffusion coefficients."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import GeometryError


def mean_squared_displacement(positions: np.ndarray,
                              origins: int = 1) -> np.ndarray:
    """MSD(τ) from a (T, N, 3) *unwrapped* position stack.

    Parameters
    ----------
    origins :
        Number of evenly spaced time origins averaged over (window
        averaging improves statistics at small τ).

    Returns
    -------
    (T,) array; entry τ is ⟨|r(t₀+τ) − r(t₀)|²⟩ over atoms and origins.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 3 or pos.shape[2] != 3:
        raise GeometryError(f"positions must be (T, N, 3), got {pos.shape}")
    return accumulate_msd(pos, pos.shape[0], origins)


def accumulate_msd(frames: Iterable[np.ndarray], nframes: int,
                   origins: int = 1) -> np.ndarray:
    """The streaming MSD kernel: *frames* yields *nframes* ``(N, 3)``
    position arrays in time order; only the ``origins`` reference
    frames are held, so a trajectory can be fed straight off disk
    (:func:`repro.trajio.windowed_msd`)."""
    if origins < 1:
        raise GeometryError("origins must be >= 1")
    if nframes < 1:
        raise GeometryError("no frames given")
    starts = set(np.linspace(0, nframes - 1, min(origins, nframes))
                 .astype(int).tolist())
    origin_pos: dict[int, np.ndarray] = {}
    msd = np.zeros(nframes)
    counts = np.zeros(nframes)
    for t, pos in enumerate(frames):
        if t in starts:
            origin_pos[t] = pos.copy()
        for t0, p0 in origin_pos.items():
            disp = pos - p0
            msd[t - t0] += float(np.mean(np.sum(disp * disp, axis=1)))
            counts[t - t0] += 1
    return msd / np.maximum(counts, 1)


def diffusion_coefficient(times_fs: np.ndarray, msd: np.ndarray,
                          fit_fraction: tuple[float, float] = (0.5, 1.0)
                          ) -> float:
    """Einstein diffusion coefficient D = slope/6 from the linear tail.

    Returns D in Å²/fs (multiply by 1e-1 for cm²/s... specifically
    1 Å²/fs = 1e-16 cm² / 1e-15 s = 0.1 cm²/s).
    """
    t = np.asarray(times_fs, dtype=float)
    m = np.asarray(msd, dtype=float)
    if t.shape != m.shape:
        raise GeometryError("times and msd must have equal length")
    lo = int(len(t) * fit_fraction[0])
    hi = int(len(t) * fit_fraction[1])
    if hi - lo < 2:
        raise GeometryError("fit window too small")
    slope = np.polyfit(t[lo:hi], m[lo:hi], 1)[0]
    return float(slope / 6.0)
