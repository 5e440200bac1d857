"""The one sink and the one source of trajectory frames.

Producers write through :func:`open_writer`, consumers read
:class:`~repro.trajio.reader.TrajFrame` records from :func:`iter_frames`.
The codec is read off the path suffix — ``.ptrj`` is the chunked binary
store, anything else extended-XYZ text (the import/export codec) — and
this module is the only place that looks at it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import islice
from typing import Any, Iterator, Union

from repro.errors import IOFormatError
from repro.geometry.xyz import frame_comment, iread_frames, write_xyz
from repro.trajio.reader import TrajectoryReader, TrajFrame
from repro.trajio.writer import TrajectoryWriter

Source = Union[TrajectoryReader, str, "os.PathLike[str]"]


def _is_ptrj(src: Source) -> bool:
    return isinstance(src, TrajectoryReader) or \
        os.fspath(src).endswith(".ptrj")


class XYZFrameWriter:
    """Extended-XYZ twin of :class:`TrajectoryWriter`: the same
    ``write``/``close`` surface, one text frame appended per call."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._append = False

    def write(self, atoms: Any, **meta: Any) -> None:
        """*meta*: the ``step``/``time_fs``/``epot``/``ekin``/
        ``temperature`` keywords of :func:`frame_comment`."""
        write_xyz(self.path, atoms, append=self._append,
                  comment=frame_comment(**meta))
        self._append = True

    def close(self) -> None:
        """Nothing is held open between frames."""

    def __enter__(self) -> "XYZFrameWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def open_writer(path: str | os.PathLike[str],
                **kwargs: Any) -> TrajectoryWriter | XYZFrameWriter:
    """A frame writer for *path*; keyword arguments reach the codec's
    writer (see :class:`TrajectoryWriter` for the ``.ptrj`` ones)."""
    return TrajectoryWriter(path, **kwargs) if _is_ptrj(path) \
        else XYZFrameWriter(path, **kwargs)


@contextmanager
def _reader(src: Source) -> Iterator[TrajectoryReader]:
    """*src* as an open reader; one opened here is closed on exit."""
    if isinstance(src, TrajectoryReader):
        yield src
    else:
        with TrajectoryReader(src) as reader:
            yield reader


def _xyz_frames(path: Source) -> Iterator[TrajFrame]:
    symbols = None
    for i, (atoms, info) in enumerate(iread_frames(os.fspath(path))):
        if symbols is None:
            symbols = atoms.symbols
        elif atoms.symbols != symbols:
            raise IOFormatError(
                f"{path}: frame {i} changes the composition "
                f"(a trajectory has one fixed topology)")
        # the comment keys are from_atoms' keywords; a foreign file may
        # carry none of them
        yield TrajFrame.from_atoms(
            atoms, **{"step": i, "time_fs": 0.0, "epot": 0.0, **info})


def iter_frames(src: Source, start: int = 0, stop: int | None = None,
                stride: int = 1) -> Iterator[TrajFrame]:
    """Stream frames ``start:stop:stride`` of *src* — a trajectory path
    of either codec or an open :class:`TrajectoryReader` (left open)."""
    if _is_ptrj(src):
        with _reader(src) as reader:
            yield from reader.iter_frames(start, stop, stride)
    else:
        yield from islice(_xyz_frames(src), start, stop, stride)


def read_symbols(src: Source) -> list[str]:
    """The (fixed) chemical symbols of the trajectory *src*."""
    if _is_ptrj(src):
        with _reader(src) as reader:
            return reader.symbols
    for atoms, _info in iread_frames(os.fspath(src)):
        return atoms.symbols
    raise IOFormatError(f"{src}: no frames in XYZ input")


def frame_count(src: Source) -> int:
    """Frames in *src*: O(1) off the PTRJ index, one pass over XYZ text."""
    if _is_ptrj(src):
        with _reader(src) as reader:
            return len(reader)
    return sum(1 for _ in iread_frames(os.fspath(src)))
