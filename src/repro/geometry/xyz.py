"""XYZ / extended-XYZ structure I/O.

Supports the plain XYZ format and a minimal extended-XYZ dialect with a
``Lattice="ax ay az bx by bz cx cy cz"`` and ``pbc="T T F"`` comment line,
which round-trips the :class:`~repro.geometry.atoms.Atoms` cell.  Multiple
concatenated frames are supported for trajectories.

Frames carry a ``Properties=species:S:1:pos:R:3[:vel:R:3]`` token (the
ASE-compatible column declaration); velocity columns are written whenever
the frame has any non-zero velocity and parsed back on read.  Scalar
per-frame metadata (``step=``, ``time_fs=``, ``epot=``, ...) is put into
the comment line by :func:`frame_comment` and surfaced on read by
:func:`iread_frames`.
"""

from __future__ import annotations

import re
from pathlib import Path
from collections.abc import Iterator
from typing import TextIO

import numpy as np

from repro.errors import IOFormatError
from repro.geometry.atoms import Atoms
from repro.geometry.cell import Cell

_LATTICE_RE = re.compile(r'Lattice="([^"]+)"')
_PBC_RE = re.compile(r'pbc="([^"]+)"')
_PROPS_RE = re.compile(r'Properties=(\S+)')
_STEP_RE = re.compile(r'\bstep=(-?\d+)')
#: float-valued comment keys surfaced as frame info on read
_FLOAT_KEYS = ("time_fs", "epot", "ekin", "temperature")
_FLOAT_RES = {k: re.compile(rf'\b{k}=([-+]?[0-9.]+(?:[eE][-+]?\d+)?)')
              for k in _FLOAT_KEYS}


def frame_comment(*, step: int = 0, time_fs: float = 0.0, epot: float = 0.0,
                  ekin: float = 0.0, temperature: float = 0.0) -> str:
    """The per-frame metadata comment: shortest-exact float reprs, so
    every key :func:`iread_frames` parses survives bit-for-bit."""
    return (f"step={int(step)} time_fs={float(time_fs)!r} "
            f"epot={float(epot)!r} ekin={float(ekin)!r} "
            f"temperature={float(temperature)!r}")


def write_xyz(path_or_file, atoms: Atoms, comment: str | None = None,
              append: bool = False) -> None:
    """Write one frame in extended-XYZ format."""
    own = False
    if isinstance(path_or_file, (str, Path)):
        fh: TextIO = open(path_or_file, "a" if append else "w")
        own = True
    else:
        fh = path_or_file
    try:
        _write_frame(fh, atoms, comment)
    finally:
        if own:
            fh.close()


def _write_frame(fh: TextIO, atoms: Atoms, comment: str | None) -> None:
    h = atoms.cell.matrix.reshape(-1)
    # shortest-exact float repr: the lattice survives the round trip
    # bit-for-bit (NPT frames all differ, so truncation would corrupt
    # every reloaded cell)
    lat = " ".join(repr(float(x)) for x in h)
    pbc = " ".join("T" if p else "F" for p in atoms.cell.pbc)
    with_vel = bool(np.any(atoms.velocities))
    props = "species:S:1:pos:R:3" + (":vel:R:3" if with_vel else "")
    extra = comment or ""
    fh.write(f"{len(atoms)}\n")
    fh.write(f'Lattice="{lat}" pbc="{pbc}" Properties={props} '
             f'{extra}\n'.rstrip() + "\n")
    for i, (s, p) in enumerate(zip(atoms.symbols, atoms.positions)):
        line = f"{s:<3s} {p[0]:18.10f} {p[1]:18.10f} {p[2]:18.10f}"
        if with_vel:
            v = atoms.velocities[i]
            line += (f" {repr(float(v[0]))} {repr(float(v[1]))} "
                     f"{repr(float(v[2]))}")
        fh.write(line + "\n")


def read_xyz(path_or_file, index: int = 0) -> Atoms:
    """Read frame *index* (negative indices count from the end)."""
    frames = list(iread_xyz(path_or_file))
    if not frames:
        raise IOFormatError("no frames in XYZ input")
    try:
        return frames[index]
    except IndexError:
        raise IOFormatError(
            f"frame {index} out of range; file has {len(frames)} frames"
        ) from None


def iread_xyz(path_or_file) -> Iterator[Atoms]:
    """Iterate over all frames in an (extended-)XYZ file."""
    for atoms, _info in iread_frames(path_or_file):
        yield atoms


def iread_frames(path_or_file) -> Iterator[tuple[Atoms, dict]]:
    """Iterate over ``(Atoms, info)`` pairs of an (extended-)XYZ file.

    *info* holds whatever scalar metadata the comment line declared:
    ``step`` (int) and any of ``time_fs``/``epot``/``ekin``/
    ``temperature`` (float).  Velocity columns declared by a
    ``Properties=`` token are parsed into ``atoms.velocities``.
    """
    own = False
    if isinstance(path_or_file, (str, Path)):
        fh: TextIO = open(path_or_file)
        own = True
    else:
        fh = path_or_file
    try:
        while True:
            header = fh.readline()
            if not header:
                return
            header = header.strip()
            if not header:
                continue
            try:
                natoms = int(header)
            except ValueError:
                raise IOFormatError(
                    f"expected atom count, got {header!r}"
                ) from None
            comment = fh.readline()
            if not comment:
                raise IOFormatError("truncated XYZ frame: missing comment line")
            vel_col = _velocity_column(comment)
            symbols, pos, vel = [], [], []
            for _ in range(natoms):
                line = fh.readline()
                if not line:
                    raise IOFormatError("truncated XYZ frame: missing atom lines")
                parts = line.split()
                if len(parts) < 4:
                    raise IOFormatError(f"malformed atom line: {line!r}")
                symbols.append(parts[0])
                pos.append([float(x) for x in parts[1:4]])
                if vel_col is not None:
                    if len(parts) < vel_col + 3:
                        raise IOFormatError(
                            f"Properties declares velocities but atom line "
                            f"has only {len(parts)} columns: {line!r}")
                    vel.append([float(x)
                                for x in parts[vel_col:vel_col + 3]])
            cell = _parse_cell(comment)
            velocities = np.array(vel) if vel_col is not None else None
            yield (Atoms(symbols, np.array(pos), cell=cell,
                         velocities=velocities),
                   _parse_info(comment))
    except UnicodeDecodeError as exc:
        raise IOFormatError(
            f"not an (extended-)XYZ text file: {exc}") from exc
    finally:
        if own:
            fh.close()


def _velocity_column(comment: str) -> int | None:
    """First atom-line column of the velocity block, per ``Properties=``.

    Returns ``None`` when no velocity columns are declared.  Column 0 is
    the species symbol.
    """
    m = _PROPS_RE.search(comment)
    if not m:
        return None
    toks = m.group(1).split(":")
    if len(toks) % 3:
        raise IOFormatError(
            f"malformed Properties token {m.group(1)!r}: "
            f"expected name:type:ncols triplets")
    col = 0
    for name, _typ, ncols_s in zip(toks[0::3], toks[1::3], toks[2::3]):
        try:
            ncols = int(ncols_s)
        except ValueError:
            raise IOFormatError(
                f"malformed Properties token {m.group(1)!r}: "
                f"column count {ncols_s!r} is not an integer") from None
        if name in ("vel", "velo", "velocities"):
            return col
        col += ncols
    return None


def _parse_info(comment: str) -> dict:
    info: dict = {}
    m = _STEP_RE.search(comment)
    if m:
        info["step"] = int(m.group(1))
    for key, rx in _FLOAT_RES.items():
        fm = rx.search(comment)
        if fm:
            info[key] = float(fm.group(1))
    return info


def _parse_cell(comment: str) -> Cell | None:
    m = _LATTICE_RE.search(comment)
    pm = _PBC_RE.search(comment)
    flags = None
    if pm:
        flags = [tok.upper() in ("T", "TRUE", "1")
                 for tok in pm.group(1).split()]
        if len(flags) != 3:
            raise IOFormatError("pbc needs 3 flags")
    if not m:
        # a pbc flag without a Lattice is still meaningful: all-False
        # pins the frame as an explicit non-periodic cluster, while a
        # periodic axis with no lattice vectors is unreadable
        if flags is None:
            return None
        if any(flags):
            raise IOFormatError(
                'pbc declares a periodic axis but no Lattice= is present')
        return Cell.nonperiodic()
    values = [float(x) for x in m.group(1).split()]
    if len(values) != 9:
        raise IOFormatError(f"Lattice needs 9 numbers, got {len(values)}")
    h = np.array(values).reshape(3, 3)
    return Cell(h, pbc=flags if flags is not None else [True, True, True])
