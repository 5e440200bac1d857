"""Out-of-core analysis over recorded trajectories.

The windowed entry points of
:func:`repro.analysis.rdf.radial_distribution` and
:func:`repro.analysis.msd.mean_squared_displacement`: the same kernels,
fed one frame at a time from :func:`~repro.trajio.stream.iter_frames`
instead of a materialized ``(T, N, 3)`` stack — the memory cost is
O(natoms), independent of trajectory length (MSD additionally keeps its
``origins`` reference frames).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.msd import accumulate_msd
from repro.analysis.rdf import radial_distribution
from repro.trajio.stream import (
    Source, frame_count, iter_frames, read_symbols,
)


def windowed_rdf(src: Source, r_max: float, nbins: int = 100, *,
                 start: int = 0, stop: int | None = None,
                 stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """g(r) averaged over a frame window, streamed from disk.

    *src* is a trajectory path (``.ptrj`` or extended-XYZ) or an open
    :class:`~repro.trajio.reader.TrajectoryReader`.
    """
    symbols = read_symbols(src)
    return radial_distribution(
        (frame.to_atoms(symbols)
         for frame in iter_frames(src, start, stop, stride)),
        r_max, nbins=nbins)


def windowed_msd(src: Source, *, origins: int = 1, start: int = 0,
                 stop: int | None = None, stride: int = 1
                 ) -> tuple[np.ndarray, np.ndarray]:
    """MSD(τ) over a frame window, streamed from disk.

    Returns ``(times_fs, msd)`` where ``times_fs`` is the lag time of
    each entry relative to the first selected frame; only the
    ``origins`` reference frames are held in memory.
    """
    total = frame_count(src)
    window = range(int(start), total if stop is None
                   else min(int(stop), total), int(stride))
    times: list[float] = []

    def positions():
        for frame in iter_frames(src, start, stop, stride):
            times.append(frame.time_fs)
            yield frame.positions

    msd = accumulate_msd(positions(), len(window), origins)
    return np.array(times) - times[0], msd
