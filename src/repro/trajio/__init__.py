"""Recorded runs: what a frame is and how it reaches or leaves a file.

- :class:`TrajFrame` — the one frame record
- :func:`open_writer` / :func:`iter_frames` — the one sink and the one
  source; the codec is read off the path suffix (``.ptrj`` binary,
  anything else extended-XYZ text)
- :class:`TrajectoryWriter` / :class:`TrajectoryReader` — the chunked
  PTRJ codec: streaming writer, O(1) random access
- :func:`windowed_rdf` / :func:`windowed_msd` — out-of-core analysis
- :class:`TrajStore` — ref-addressed result store

Format spec and design rationale: ``docs/trajectories.md``.
"""

from repro.trajio.analysis import windowed_msd, windowed_rdf
from repro.trajio.reader import TrajectoryReader, TrajFrame
from repro.trajio.store import TrajStore
from repro.trajio.stream import (
    frame_count, iter_frames, open_writer, read_symbols,
)
from repro.trajio.writer import TrajectoryWriter

__all__ = ["TrajectoryReader", "TrajectoryWriter", "TrajFrame",
           "TrajStore", "frame_count", "iter_frames", "open_writer",
           "read_symbols", "windowed_msd", "windowed_rdf"]
