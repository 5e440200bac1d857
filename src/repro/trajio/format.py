"""On-disk layout of the PTRJ chunked binary trajectory format.

This module is the *seam*: every byte that reaches or leaves a ``.ptrj``
file is packed or parsed here, so the writer and reader cannot drift
apart.  The layout of format **version 2**, the only one written (full
spec in ``docs/trajectories.md``)::

    [magic "PTRJ"][version u16][flags u16][header_len u32][header JSON]
    [chunk 0][chunk 1] ... [chunk K-1]
    [index: K x (offset u64, first_frame u64, nframes u32)]
    [footer: index_offset u64, total_frames u64, nchunks u32, "PTRJIDX\\n"]

    chunk   = [magic "PTCK"][first_frame u64][nframes u32]
              [stored_len u32][crc32 u32][payload: stored_len bytes]
    payload = [directory: S x (stored_len u32, codec u8)]
              [meta][plane]...[plane]

A chunk's *meta* section holds a float64 **keyframe** (the positions of
its first frame) and the column-major per-frame metadata: step/time/
energies/temperature and the 3x3 cell as float64, pbc flags as u8.  The
float arrays — positions as float32 **deltas** off the keyframe and
(optionally) velocities at a configurable dtype — are stored as **byte
planes**: plane *k* of an array is the k-th byte of every item, frame
after frame, so sign/exponent bytes sit together and mantissa noise sits
apart.  Each section is deflated on its own, and only where deflate
*pays* (:data:`DEFLATE_PAYS`): mantissa planes are noise that zlib
cannot shrink but still charges milliseconds to inflate, so they are
stored raw.  One CRC32 over the whole payload detects corruption.

Decoding a chunk verifies the CRC, inflates the deflated sections and
parses meta — nothing else; :class:`ChunkData` materialises frame *j*
by gathering its ``3 * natoms`` bytes from each plane, so a seek pays
for one frame, not for the chunk.  The footer index gives O(1) random
access: locating frame *i* is a binary search over ``first_frame``.

Version 1 (the earlier layout: one deflate stream over meta + shuffled
deltas + unshuffled velocities, no chunk magic, ``index_offset``
written as 0) stays **readable** through :func:`_decode_chunk_v1`;
nothing writes it.  A v1 file is a user's trajectory data, not an API
client, so its decoder is kept (``tests/data/v1_golden.ptrj`` pins it
bit for bit).

Why deltas are safe: a float32 carries a 24-bit mantissa, so the
rounding error of ``pos - keyframe`` is at most ``|delta| * 2**-24``.
The writer cuts a new chunk whenever the reconstruction error of a
frame would exceed ``pos_tol`` (1e-6 Å by default, reached only once
atoms drift ~16 Å from the keyframe), so the bound holds for *any*
trajectory, including melts.

Everything raises :class:`~repro.errors.IOFormatError` on malformed
input — a truncated or corrupt file must never decode to partial
garbage.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import BinaryIO

import numpy as np
from numpy.typing import ArrayLike

from repro import obs
from repro.errors import IOFormatError

#: leading file magic (followed by version/flags/header_len)
MAGIC: bytes = b"PTRJ"
#: leading magic of every version-2 chunk record
CHUNK_MAGIC: bytes = b"PTCK"
#: trailing footer magic — its absence means a truncated file
END_MAGIC: bytes = b"PTRJIDX\n"
#: format version written by this library
VERSION: int = 2
#: versions :func:`read_header` accepts (1 is decode-only)
READABLE_VERSIONS: tuple[int, ...] = (1, 2)

#: header flag bits
FLAG_ZLIB: int = 1       #: sections may be deflated (v1: the one payload is)
FLAG_SHUFFLE: int = 2    #: float arrays are byte planes (v1: the deltas only)
FLAG_VEL: int = 4        #: per-frame velocities are stored

#: A section is stored deflated only if that shrinks it to at most this
#: fraction of its raw size.  ``tools/scan_trajio_planes.py`` (table in
#: ``docs/trajectories.md``) finds three kinds of 96 KB byte plane:
#: sign/exponent planes (ratio 0.16-0.42: 56-80 KB saved for 0.3-0.5 ms
#: of inflate), mantissa noise (>= 0.97: nothing saved) and the f8 plane
#: of low exponent + high mantissa bits (0.82: 17 KB, 1.7 % of the chunk,
#: for 0.7 ms, the dearest inflate of a seek).  3/4 keeps only the first.
DEFLATE_PAYS: float = 0.75
#: Sections longer than this are first tried on their last PROBE_BYTES —
#: the tail, because the head of a delta plane is the keyframe's own row
#: of zeros, which makes noise look 9 % compressible.
PROBE_BYTES: int = 16384

_CODEC_RAW, _CODEC_DEFLATE = 0, 1

_PRELUDE = struct.Struct("<4sHHI")       # magic, version, flags, header_len
_CHUNK_PRELUDE = struct.Struct("<4sQIII")  # magic, first_frame, nframes,
#                                            stored_len, crc32
_CHUNK_PRELUDE_V1 = struct.Struct("<III")  # stored_len, raw_len, crc32
_SECTION = struct.Struct("<IB")          # stored_len, codec
_INDEX_ENTRY = struct.Struct("<QQI")     # offset, first_frame, nframes
_FOOTER = struct.Struct("<QQI8s")        # index_offset, total, K, magic

#: velocity dtypes a header may declare (``None`` = not stored)
VEL_DTYPES: tuple[str, ...] = ("f8", "f4")


@dataclass(frozen=True)
class Header:
    """Decoded file header: topology plus codec parameters."""

    symbols: tuple[str, ...]
    flags: int
    chunk_frames: int
    vel_dtype: str | None
    compression: int
    pos_tol: float
    version: int = VERSION

    @property
    def natoms(self) -> int:
        return len(self.symbols)

    @property
    def has_velocities(self) -> bool:
        return bool(self.flags & FLAG_VEL)

    def meta_size(self, nframes: int) -> int:
        """Bytes of a chunk's meta section: the f64 keyframe, then per
        frame step/time/epot/ekin/T, the cell and the pbc flags."""
        return 24 * self.natoms + nframes * (5 * 8 + 72 + 3)

    def float_arrays(self) -> list[tuple[str, int]]:
        """``(dtype, nplanes)`` of a chunk's float arrays in file order:
        the f32 deltas, then the velocities if stored.  An array is one
        plane per item byte when shuffled, one plane otherwise (and v1
        never shuffled velocities)."""
        shuffle = bool(self.flags & FLAG_SHUFFLE)
        arrays = [("<f4", 4 if shuffle else 1)]
        if self.has_velocities:
            itemsize = 8 if self.vel_dtype == "f8" else 4
            arrays.append(("<" + str(self.vel_dtype),
                           itemsize if shuffle and self.version >= 2 else 1))
        return arrays

    def section_sizes(self, nframes: int) -> list[int]:
        """Raw byte length of every section of a chunk: meta, then the
        planes of each float array."""
        sizes = [self.meta_size(nframes)]
        for dtype, nplanes in self.float_arrays():
            block = nframes * self.natoms * 3 * np.dtype(dtype).itemsize
            sizes += [block // nplanes] * nplanes
        return sizes


@dataclass
class ChunkData:
    """One decoded chunk: per-frame metadata columns plus the byte
    planes of its float arrays, flat uint8, one row of bytes per frame.

    Nothing is widened at decode time: :meth:`frame` materialises
    **one** frame from the planes, :meth:`block` the whole chunk's
    ``(nframes, natoms, 3)`` float64 stacks for block consumers.
    """

    keyframe: np.ndarray        # (natoms, 3) f64
    steps: np.ndarray           # (nframes,) i64
    times: np.ndarray           # (nframes,) f64
    epots: np.ndarray           # (nframes,) f64
    ekins: np.ndarray           # (nframes,) f64
    temperatures: np.ndarray    # (nframes,) f64
    cells: np.ndarray           # (nframes, 3, 3) f64
    pbcs: np.ndarray            # (nframes, 3) bool
    delta_planes: list[np.ndarray]          # f32 deltas off the keyframe
    vel_planes: list[np.ndarray] | None     # None when the file stores none
    vel_dtype: str                          # "<f8" / "<f4" items of those

    @property
    def nframes(self) -> int:
        return len(self.steps)

    def _gather(self, planes: list[np.ndarray], dtype: str, first: int,
                count: int) -> np.ndarray:
        """Frames ``first : first + count`` of the array stored as byte
        *planes* → ``(count, natoms, 3)`` *dtype* items, fresh and
        writable: byte *k* of every item comes from plane *k*."""
        row = self.keyframe.size * np.dtype(dtype).itemsize // len(planes)
        out = np.empty((count * row, len(planes)), dtype=np.uint8)
        for k, plane in enumerate(planes):
            out[:, k] = plane[first * row:(first + count) * row]
        return out.reshape(-1).view(dtype).reshape(
            (count,) + self.keyframe.shape)

    def block(self, first: int = 0, count: int | None = None
              ) -> tuple[np.ndarray, np.ndarray | None]:
        """Float64 ``(count, natoms, 3)`` positions and velocities
        (``None`` when the file stores none) of *count* frames from
        *first* on — by default the whole chunk."""
        count = self.nframes - first if count is None else count
        obs.counter_inc("trajio.frames_decoded", count)
        pos = self.keyframe + self._gather(self.delta_planes, "<f4", first,
                                           count)
        vel = None if self.vel_planes is None else self._gather(
            self.vel_planes, self.vel_dtype, first, count).astype(
                np.float64, copy=False)
        return pos, vel

    def frame(self, j: int) -> tuple[np.ndarray, np.ndarray | None]:
        """``(natoms, 3)`` positions and velocities of frame *j* alone."""
        pos, vel = self.block(j, 1)
        return pos[0], None if vel is None else vel[0]


def make_header(symbols: list[str] | tuple[str, ...], *,
                chunk_frames: int, vel_dtype: str | None,
                compression: int, shuffle: bool,
                pos_tol: float) -> Header:
    """Validated :class:`Header` from writer parameters."""
    if chunk_frames < 1:
        raise IOFormatError(f"chunk_frames must be >= 1, got {chunk_frames}")
    if vel_dtype is not None and vel_dtype not in VEL_DTYPES:
        raise IOFormatError(
            f"vel_dtype must be one of {VEL_DTYPES} or None, "
            f"got {vel_dtype!r}")
    if not 0 <= compression <= 9:
        raise IOFormatError(
            f"compression must be a zlib level 0..9, got {compression}")
    flags = 0
    if compression:
        flags |= FLAG_ZLIB
    if shuffle:
        flags |= FLAG_SHUFFLE
    if vel_dtype is not None:
        flags |= FLAG_VEL
    return Header(symbols=tuple(str(s) for s in symbols), flags=flags,
                  chunk_frames=int(chunk_frames), vel_dtype=vel_dtype,
                  compression=int(compression), pos_tol=float(pos_tol))


def pack_header(header: Header) -> bytes:
    """Header → the leading bytes of a ``.ptrj`` file."""
    meta = {"symbols": list(header.symbols),
            "chunk_frames": header.chunk_frames,
            "vel_dtype": header.vel_dtype,
            "compression": header.compression,
            "pos_tol": header.pos_tol}
    blob = json.dumps(meta, separators=(",", ":")).encode()
    return _PRELUDE.pack(MAGIC, header.version, header.flags,
                         len(blob)) + blob


def read_header(fh: BinaryIO) -> Header:
    """Parse the leading header from an open binary stream."""
    prelude = fh.read(_PRELUDE.size)
    if len(prelude) < _PRELUDE.size:
        raise IOFormatError("not a PTRJ trajectory: file too short")
    magic, version, flags, header_len = _PRELUDE.unpack(prelude)
    if magic != MAGIC:
        raise IOFormatError(
            f"not a PTRJ trajectory: bad magic {magic!r}")
    if version not in READABLE_VERSIONS:
        raise IOFormatError(
            f"unsupported PTRJ version {version} "
            f"(supported: {READABLE_VERSIONS})")
    blob = fh.read(header_len)
    if len(blob) < header_len:
        raise IOFormatError("truncated PTRJ header")
    try:
        meta = json.loads(blob)
    except ValueError as exc:
        raise IOFormatError(f"corrupt PTRJ header JSON: {exc}") from exc
    try:
        header = Header(symbols=tuple(str(s) for s in meta["symbols"]),
                        flags=int(flags),
                        chunk_frames=int(meta["chunk_frames"]),
                        vel_dtype=meta.get("vel_dtype"),
                        compression=int(meta.get("compression", 0)),
                        pos_tol=float(meta.get("pos_tol", 1e-6)),
                        version=int(version))
    except (KeyError, TypeError, ValueError) as exc:
        raise IOFormatError(f"corrupt PTRJ header fields: {exc}") from exc
    if header.has_velocities and header.vel_dtype not in VEL_DTYPES:
        raise IOFormatError(
            f"PTRJ header declares velocities with bad dtype "
            f"{header.vel_dtype!r}")
    return header


# -- byte-plane shuffle ------------------------------------------------------
def byte_shuffle(data: bytes, itemsize: int) -> bytes:
    """Group the k-th byte of every item together (Blosc-style shuffle):
    the result is the array's *itemsize* byte planes, back to back.

    Floats of thermal motion share sign/exponent bytes across atoms;
    regrouping them into contiguous planes is what lets zlib compress
    those and lets the codec leave the mantissa noise alone.
    """
    if len(data) % itemsize:
        raise IOFormatError(
            f"shuffle block length {len(data)} is not a multiple of "
            f"itemsize {itemsize}")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, itemsize)
    return arr.T.tobytes()


def byte_unshuffle(data: bytes, itemsize: int) -> bytes:
    """Inverse of :func:`byte_shuffle` (the reader gathers single frames
    from the planes instead and never unshuffles a whole block)."""
    if len(data) % itemsize:
        raise IOFormatError(
            f"shuffle block length {len(data)} is not a multiple of "
            f"itemsize {itemsize}")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(itemsize, -1)
    return arr.T.tobytes()


# -- chunk codec -------------------------------------------------------------
def _store_section(data: memoryview, level: int) -> tuple[memoryview, int]:
    """*data* as it goes to disk: deflated iff that pays."""
    if level == 0:
        return data, _CODEC_RAW
    n = len(data)
    if n > PROBE_BYTES and len(zlib.compress(
            data[-PROBE_BYTES:], level)) > DEFLATE_PAYS * PROBE_BYTES:
        return data, _CODEC_RAW
    packed = zlib.compress(data, level)
    if len(packed) > DEFLATE_PAYS * n:
        return data, _CODEC_RAW
    return memoryview(packed), _CODEC_DEFLATE


def _load_section(stored: memoryview, codec: int, size: int) -> memoryview:
    """Inverse of :func:`_store_section`; *size* is the raw length the
    header layout demands (also the cap on what is ever inflated)."""
    if codec == _CODEC_DEFLATE:
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(stored, size + 1)
        except zlib.error as exc:
            raise IOFormatError(
                f"corrupt PTRJ chunk: zlib decode failed: {exc}") from exc
        if len(raw) != size or not inflater.eof:
            raise IOFormatError(
                f"corrupt PTRJ chunk: a deflated section does not inflate "
                f"to the {size} bytes the header layout expects")
        return memoryview(raw)
    if codec != _CODEC_RAW or len(stored) != size:
        raise IOFormatError(
            f"corrupt PTRJ chunk: section of {len(stored)} bytes with "
            f"codec {codec}, header layout expects {size} raw bytes")
    return stored


def encode_chunk(header: Header, first_frame: int, keyframe: ArrayLike,
                 steps: ArrayLike, times: ArrayLike, epots: ArrayLike,
                 ekins: ArrayLike, temperatures: ArrayLike, cells: ArrayLike,
                 pbcs: ArrayLike, deltas: ArrayLike,
                 velocities: ArrayLike | None) -> bytes:
    """Per-frame columns → one on-disk chunk record (prelude + payload).

    Every column is an array or the writer's list of per-frame values;
    *deltas* stacks to the ``(nframes, natoms, 3)`` float32 block of
    ``positions - keyframe``, and the caller (the writer) is responsible
    for having enforced the ``pos_tol`` reconstruction bound.
    """
    nframes = np.shape(steps)[0]
    if header.has_velocities and velocities is None:
        raise IOFormatError(
            "header declares velocities but the chunk has none")
    sections = [memoryview(b"".join((
        np.ascontiguousarray(keyframe, dtype="<f8").tobytes(),
        np.ascontiguousarray(steps, dtype="<i8").tobytes(),
        np.ascontiguousarray(times, dtype="<f8").tobytes(),
        np.ascontiguousarray(epots, dtype="<f8").tobytes(),
        np.ascontiguousarray(ekins, dtype="<f8").tobytes(),
        np.ascontiguousarray(temperatures, dtype="<f8").tobytes(),
        np.ascontiguousarray(cells, dtype="<f8").tobytes(),
        np.ascontiguousarray(pbcs, dtype="u1").tobytes())))]
    blocks = [deltas] if velocities is None else [deltas, velocities]
    for (dtype, nplanes), block in zip(header.float_arrays(), blocks):
        data = np.ascontiguousarray(block, dtype=dtype).tobytes()
        if nplanes > 1:
            data = byte_shuffle(data, nplanes)
        width = len(data) // nplanes
        sections += [memoryview(data)[k * width:(k + 1) * width]
                     for k in range(nplanes)]
    sizes = header.section_sizes(nframes)
    if [len(sec) for sec in sections] != sizes:
        raise IOFormatError(
            f"internal chunk layout error: sections of "
            f"{[len(sec) for sec in sections]} bytes encoded, layout "
            f"says {sizes}")
    stored = [_store_section(sec, header.compression) for sec in sections]
    parts: list[bytes | memoryview] = [
        _SECTION.pack(len(sec), codec) for sec, codec in stored]
    parts += [sec for sec, _ in stored]
    payload = b"".join(parts)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _CHUNK_PRELUDE.pack(CHUNK_MAGIC, first_frame, nframes,
                               len(payload), crc) + payload


def chunk_prelude_size() -> int:
    """Bytes of the fixed prelude before a (version 2) chunk's payload."""
    return _CHUNK_PRELUDE.size


def read_chunk_record(fh: BinaryIO, header: Header, offset: int) -> bytes:
    """The whole chunk record (prelude + payload) that starts at
    *offset*, as :func:`decode_chunk` takes it; a short read is left for
    the decoder to name."""
    prelude, len_field = (_CHUNK_PRELUDE_V1, 0) if header.version == 1 \
        else (_CHUNK_PRELUDE, 3)
    fh.seek(offset)
    head = fh.read(prelude.size)
    if len(head) < prelude.size:
        return head
    # read again from the top rather than concatenate a megabyte
    fh.seek(offset)
    return fh.read(prelude.size + prelude.unpack(head)[len_field])


def _checked_payload(record: bytes, prelude_size: int, stored_len: int,
                     crc: int) -> memoryview:
    """The *stored_len* payload bytes after the prelude, CRC verified."""
    stored = memoryview(record)[prelude_size:prelude_size + stored_len]
    if len(stored) < stored_len:
        raise IOFormatError(
            f"truncated PTRJ chunk: {len(stored)} of {stored_len} "
            f"payload bytes present")
    if zlib.crc32(stored) & 0xFFFFFFFF != crc:
        raise IOFormatError("corrupt PTRJ chunk: CRC32 mismatch")
    return stored


def _chunk_data(header: Header, nframes: int,
                sections: list[memoryview]) -> ChunkData:
    """Raw sections (meta, then planes) → :class:`ChunkData`; views, no
    copies."""
    n = header.natoms
    meta = sections[0]
    off = 0

    def take(count: int, dtype: str) -> np.ndarray:
        nonlocal off
        out = np.frombuffer(meta, dtype=dtype, count=count, offset=off)
        off += out.nbytes
        return out

    keyframe = take(3 * n, "<f8").reshape(n, 3)
    steps = take(nframes, "<i8")
    times = take(nframes, "<f8")
    epots = take(nframes, "<f8")
    ekins = take(nframes, "<f8")
    temperatures = take(nframes, "<f8")
    cells = take(9 * nframes, "<f8").reshape(nframes, 3, 3)
    pbcs = take(3 * nframes, "u1").reshape(nframes, 3).astype(bool)
    planes = [np.frombuffer(sec, dtype=np.uint8) for sec in sections[1:]]
    arrays = header.float_arrays()
    ndelta = arrays[0][1]
    return ChunkData(keyframe=keyframe, steps=steps, times=times,
                     epots=epots, ekins=ekins, temperatures=temperatures,
                     cells=cells, pbcs=pbcs, delta_planes=planes[:ndelta],
                     vel_planes=planes[ndelta:] or None,
                     vel_dtype=arrays[-1][0])


def _decode_chunk_v1(header: Header, record: bytes,
                     nframes: int) -> ChunkData:
    """A version-1 record: ``(stored_len, raw_len, crc32)`` and one
    payload, deflated whole, of meta + deltas + velocities."""
    if len(record) < _CHUNK_PRELUDE_V1.size:
        raise IOFormatError("truncated PTRJ chunk: missing prelude")
    stored_len, raw_len, crc = _CHUNK_PRELUDE_V1.unpack_from(record)
    stored = _checked_payload(record, _CHUNK_PRELUDE_V1.size, stored_len, crc)
    sizes = header.section_sizes(nframes)
    raw = _load_section(
        stored, _CODEC_DEFLATE if header.flags & FLAG_ZLIB else _CODEC_RAW,
        sum(sizes))
    if raw_len != len(raw):
        raise IOFormatError(
            f"corrupt PTRJ chunk: prelude says {raw_len} raw bytes, "
            f"header layout expects {len(raw)}")
    return _chunk_data(header, nframes, [
        raw[end - size:end] for end, size in zip(accumulate(sizes), sizes)])


def decode_chunk(header: Header, record: bytes, nframes: int) -> ChunkData:
    """One on-disk chunk record → :class:`ChunkData`: CRC verified,
    deflated sections inflated, meta parsed — no frame is materialised.

    *nframes* is the index's count for this chunk; a record that
    disagrees with it is corrupt.
    """
    if header.version == 1:
        return _decode_chunk_v1(header, record, nframes)
    if len(record) < _CHUNK_PRELUDE.size:
        raise IOFormatError("truncated PTRJ chunk: missing prelude")
    magic, _first, count, stored_len, crc = _CHUNK_PRELUDE.unpack_from(record)
    if magic != CHUNK_MAGIC:
        raise IOFormatError(
            f"corrupt PTRJ chunk: bad chunk magic {magic!r}")
    stored = _checked_payload(record, _CHUNK_PRELUDE.size, stored_len, crc)
    if count != nframes:
        raise IOFormatError(
            f"corrupt PTRJ chunk: record holds {count} frames, the index "
            f"says {nframes}")
    sizes = header.section_sizes(nframes)
    at = len(sizes) * _SECTION.size
    entries = list(_SECTION.iter_unpack(stored[:at])) \
        if stored_len >= at else []
    if at + sum(length for length, _ in entries) != stored_len:
        raise IOFormatError(
            "corrupt PTRJ chunk: the section directory does not add up "
            f"to the {stored_len} payload bytes")
    sections = []
    for (length, codec), size in zip(entries, sizes):
        sections.append(_load_section(stored[at:at + length], codec, size))
        at += length
    return _chunk_data(header, nframes, sections)


# -- index / footer ----------------------------------------------------------
def pack_index(entries: list[tuple[int, int, int]], total_frames: int,
               index_offset: int) -> bytes:
    """Chunk table → the trailing index + footer bytes.

    *entries* are ``(file_offset, first_frame, nframes)`` per chunk;
    *index_offset* is where these bytes will start in the file — the
    footer records it so a reader can cross-check the chunk count
    against the file size.
    """
    body = b"".join(_INDEX_ENTRY.pack(*e) for e in entries)
    return body + _FOOTER.pack(index_offset, total_frames, len(entries),
                               END_MAGIC)


def read_index(fh: BinaryIO, header: Header, file_size: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Footer + index from an open stream.

    Returns ``(offsets, first_frames, nframes_per_chunk, total_frames)``
    as arrays sorted in file order.  Raises
    :class:`~repro.errors.IOFormatError` when the footer is missing or
    inconsistent — the signature of a truncated write.
    """
    if file_size < _FOOTER.size:
        raise IOFormatError(
            "truncated PTRJ file: no footer (writer not closed?)")
    fh.seek(file_size - _FOOTER.size)
    footer = fh.read(_FOOTER.size)
    if len(footer) < _FOOTER.size:
        raise IOFormatError("truncated PTRJ footer")
    stored_offset, total_frames, nchunks, magic = _FOOTER.unpack(footer)
    if magic != END_MAGIC:
        raise IOFormatError(
            "truncated or corrupt PTRJ file: footer magic missing "
            "(writer not closed, or file cut short)")
    index_size = nchunks * _INDEX_ENTRY.size
    index_offset = file_size - _FOOTER.size - index_size
    if index_offset < 0:
        raise IOFormatError(
            f"corrupt PTRJ footer: {nchunks} chunks do not fit the file")
    # version 1 wrote a literal 0 here and its readers ignored the field
    if header.version >= 2 and stored_offset != index_offset:
        raise IOFormatError(
            f"corrupt PTRJ footer: index offset {stored_offset} recorded, "
            f"{nchunks} chunks before the footer put it at {index_offset}")
    fh.seek(index_offset)
    body = fh.read(index_size)
    if len(body) < index_size:
        raise IOFormatError("truncated PTRJ index")
    offsets = np.empty(nchunks, dtype=np.int64)
    firsts = np.empty(nchunks, dtype=np.int64)
    counts = np.empty(nchunks, dtype=np.int64)
    for k in range(nchunks):
        off, first, nf = _INDEX_ENTRY.unpack_from(body,
                                                  k * _INDEX_ENTRY.size)
        offsets[k], firsts[k], counts[k] = off, first, nf
    if int(counts.sum()) != total_frames:
        raise IOFormatError(
            f"corrupt PTRJ index: chunk frame counts sum to "
            f"{int(counts.sum())}, footer says {total_frames}")
    if nchunks and (np.any(np.diff(firsts) <= 0)
                    or firsts[0] != 0
                    or np.any(firsts + counts
                              != np.append(firsts[1:], total_frames))):
        raise IOFormatError("corrupt PTRJ index: frame ranges not "
                            "contiguous")
    return offsets, firsts, counts, int(total_frames)
