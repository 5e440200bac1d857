"""PTRJ binary trajectory store: format, writer/reader, analysis, service.

Round-trip exactness is the contract under test: float64 metadata
(cells, velocities, step/time/energies) must come back bit-exact, and
delta-encoded positions within the writer's ``pos_tol``.  Corruption
must surface as :class:`IOFormatError`, never partial garbage.
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError, IOFormatError, ServiceError
from repro.geometry import bulk_silicon, rattle
from repro.geometry.atoms import Atoms
from repro.geometry.cell import Cell
from repro import trajio
from repro.md import Trajectory, TrajectoryObserver, TrajectoryRecorder
from repro.obs import metrics as metrics_mod
from repro.trajio import (
    TrajectoryReader, TrajectoryWriter, TrajStore, windowed_msd,
    windowed_rdf,
)
from repro.trajio import format as fmt


# -- helpers ----------------------------------------------------------------
def npt_trajectory(nframes=10, natoms=8, seed=0):
    """Synthetic NPT-style run: drifting positions AND per-frame cells."""
    rng = np.random.default_rng(seed)
    base = bulk_silicon()
    frames = []
    pos = base.positions.copy()
    a0 = base.cell.matrix.copy()
    for k in range(nframes):
        pos = pos + rng.normal(scale=0.05, size=pos.shape)
        cell = Cell(a0 * (1.0 + 0.01 * k + rng.normal(scale=1e-3)))
        vel = rng.normal(scale=0.01, size=pos.shape)
        at = Atoms(base.symbols, pos, cell=cell, velocities=vel)
        meta = {"step": 10 * k, "time_fs": 0.5 * k + 0.1,
                "epot": -34.0 - 0.01 * k, "ekin": 0.3 + 0.001 * k,
                "temperature": 300.0 + k}
        frames.append((at, meta))
    return frames


def write_frames(path, frames, **kw):
    with TrajectoryWriter(path, **kw) as w:
        for at, meta in frames:
            w.write(at, **meta)
    return path


# -- round trip -------------------------------------------------------------
def test_round_trip_exact(tmp_path):
    frames = npt_trajectory(nframes=11)
    p = write_frames(tmp_path / "t.ptrj", frames, chunk_frames=4)
    with TrajectoryReader(p) as r:
        assert len(r) == 11
        assert r.natoms == 8
        assert r.has_velocities
        assert r.nchunks == 3
        for i, (at, meta) in enumerate(frames):
            fr = r.read(i)
            # float64 side bands are bit-exact
            assert fr.step == meta["step"]
            assert fr.time_fs == meta["time_fs"]
            assert fr.epot == meta["epot"]
            assert fr.ekin == meta["ekin"]
            assert fr.temperature == meta["temperature"]
            assert np.array_equal(fr.cell.matrix, at.cell.matrix)
            assert tuple(fr.cell.pbc) == tuple(at.cell.pbc)
            assert np.array_equal(fr.velocities, at.velocities)
            # delta-encoded positions are tolerance-bound, not exact
            err = np.abs(fr.positions - at.positions).max()
            assert err <= 1e-6


def test_keyframes_are_exact(tmp_path):
    frames = npt_trajectory(nframes=9)
    p = write_frames(tmp_path / "t.ptrj", frames, chunk_frames=4)
    with TrajectoryReader(p) as r:
        for i in (0, 4, 8):       # first frame of each chunk == keyframe
            np.testing.assert_array_equal(r.read(i).positions,
                                          frames[i][0].positions)


def test_negative_index_getitem_and_iteration(tmp_path):
    frames = npt_trajectory(nframes=7)
    p = write_frames(tmp_path / "t.ptrj", frames, chunk_frames=3)
    with TrajectoryReader(p) as r:
        assert r.read(-1).step == frames[-1][1]["step"]
        assert r[-7].step == frames[0][1]["step"]
        with pytest.raises(IndexError):
            r.read(7)
        with pytest.raises(IndexError):
            r.read(-8)
        steps = [fr.step for fr in r]
        assert steps == [m["step"] for _, m in frames]
        sub = [fr.step for fr in r.iter_frames(1, 6, 2)]
        assert sub == [frames[i][1]["step"] for i in (1, 3, 5)]
        with pytest.raises(ValueError):
            list(r.iter_frames(stride=0))


def test_to_atoms_and_atoms_at(tmp_path):
    frames = npt_trajectory(nframes=3)
    p = write_frames(tmp_path / "t.ptrj", frames)
    with TrajectoryReader(p) as r:
        at = r.atoms_at(1)
        src = frames[1][0]
        assert at.symbols == src.symbols
        assert np.array_equal(at.cell.matrix, src.cell.matrix)
        assert np.array_equal(at.velocities, src.velocities)


def test_nonperiodic_frames_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    at = Atoms(["Si"] * 4, rng.normal(scale=2.0, size=(4, 3)))
    assert not any(at.cell.pbc)
    p = tmp_path / "c.ptrj"
    with TrajectoryWriter(p) as w:
        w.write(at, step=1)
    with TrajectoryReader(p) as r:
        fr = r.read(0)
        assert tuple(fr.cell.pbc) == (False, False, False)


def test_no_velocities_mode(tmp_path):
    frames = npt_trajectory(nframes=4)
    p = write_frames(tmp_path / "t.ptrj", frames, vel_dtype=None)
    with TrajectoryReader(p) as r:
        assert not r.has_velocities
        assert r.read(2).velocities is None
    # velocity-less file is strictly smaller
    p2 = write_frames(tmp_path / "v.ptrj", frames)
    assert os.path.getsize(p) < os.path.getsize(p2)


def test_symbol_mismatch_rejected(tmp_path):
    with TrajectoryWriter(tmp_path / "t.ptrj") as w:
        w.write(bulk_silicon())
        with pytest.raises(IOFormatError, match="symbols"):
            w.write(Atoms(["C"] * 8, bulk_silicon().positions,
                          cell=bulk_silicon().cell))


def test_empty_writer_with_symbols_gives_valid_empty_file(tmp_path):
    p = tmp_path / "e.ptrj"
    with TrajectoryWriter(p, symbols=["Si"] * 8):
        pass
    with TrajectoryReader(p) as r:
        assert len(r) == 0 and r.natoms == 8


def test_empty_writer_without_symbols_writes_nothing(tmp_path):
    p = tmp_path / "e.ptrj"
    with TrajectoryWriter(p):
        pass
    assert not p.exists()


def test_write_after_close_rejected(tmp_path):
    w = TrajectoryWriter(tmp_path / "t.ptrj")
    w.write(bulk_silicon())
    w.close()
    with pytest.raises(IOFormatError, match="closed"):
        w.write(bulk_silicon())


def test_pos_tol_forces_rekey_under_drift(tmp_path):
    # positions drift far from the chunk keyframe: float32 deltas lose
    # absolute precision, so a tight pos_tol must cut extra keyframes
    rng = np.random.default_rng(7)
    at = bulk_silicon()
    p = tmp_path / "drift.ptrj"
    wanted = []
    with TrajectoryWriter(p, chunk_frames=64, pos_tol=1e-9) as w:
        for k in range(12):
            moved = at.copy()
            moved.positions = at.positions + rng.normal(
                scale=500.0 * (k + 1), size=at.positions.shape)
            wanted.append(moved.positions.copy())
            w.write(moved, step=k)
    with TrajectoryReader(p) as r:
        assert r.nchunks > 1   # 64-frame chunks would fit in one otherwise
        for k in range(12):
            err = np.abs(r.read(k).positions - wanted[k]).max()
            assert err <= 1e-9


def _stream(kind, rng, nframes, n, vel_dtype):
    """``(positions, velocities)`` per frame and the ``pos_tol`` to write
    them with, for the round-trip sweeps: *noise* makes every byte plane
    incompressible (random sign, mantissa and exponent across the stored
    width's whole range; the tolerance is what float32 deltas of such
    numbers can hold), *constant* makes every plane one repeated byte,
    *rekey* jumps far enough mid-chunk that ``pos_tol`` forces a new
    keyframe, *thermal* is a small random walk."""
    if kind == "noise":
        def draw(emax):
            return rng.choice([-1.0, 1.0], (n, 3)) * rng.uniform(
                1.0, 2.0, (n, 3)) * 2.0 ** rng.integers(-emax, emax, (n, 3))
        vmax = 1000 if vel_dtype == "f8" else 120
        # a zero keyframe: the deltas are the positions themselves
        return [(draw(120) * (k > 0), draw(vmax))
                for k in range(nframes)], 1e30
    if kind == "constant":
        pos = rng.normal(scale=3.0, size=(n, 3))
        return [(pos, np.full((n, 3), 0.125))] * nframes, 1e-6
    walk = np.cumsum(rng.normal(scale=0.02, size=(nframes, n, 3)), axis=0)
    walk += rng.normal(scale=3.0, size=(n, 3))
    if kind == "rekey":
        walk[nframes // 2:] += 1e6
    return [(p, rng.normal(size=(n, 3))) for p in walk], \
        1e-7 if kind == "rekey" else 1e-6


def _round_trip(path, kind, seed, *, n, nframes, vel_dtype, **writer_kw):
    """Write a *kind* stream and read it back: metadata and velocities
    must be bit-exact (at the stored width), positions within pos_tol."""
    rng = np.random.default_rng(seed)
    symbols = ["Si"] * n
    frames, pos_tol = _stream(kind, rng, nframes, n, vel_dtype)
    metas = []
    with TrajectoryWriter(path, symbols, vel_dtype=vel_dtype,
                          pos_tol=pos_tol, **writer_kw) as w:
        for pos, vel in frames:
            cell = np.eye(3) * (8.0 + rng.random())
            meta = dict(step=int(rng.integers(0, 10**6)),
                        time_fs=float(rng.normal()),
                        epot=float(rng.normal()),
                        ekin=float(abs(rng.normal())),
                        temperature=float(abs(rng.normal())))
            w.write_arrays(symbols, pos, cell=cell,
                           pbc=np.array([True, False, True]),
                           velocities=vel, **meta)
            metas.append((cell, meta))
    with TrajectoryReader(path) as r:
        assert r.header.version == 2 and len(r) == nframes
        for k, ((pos, vel), (cell, meta)) in enumerate(zip(frames, metas)):
            fr = r.read(k)
            for key, value in meta.items():
                assert getattr(fr, key) == value, key
            assert np.array_equal(fr.cell.matrix, cell)
            assert tuple(fr.cell.pbc) == (True, False, True)
            if vel_dtype is None:
                assert fr.velocities is None
            else:
                assert np.array_equal(
                    fr.velocities, vel.astype(vel_dtype).astype(float))
            assert np.abs(fr.positions - pos).max() <= pos_tol
        if kind == "rekey":
            # the jump at nframes // 2 starts a chunk of its own
            cut, per = nframes // 2, r.header.chunk_frames
            assert r.nchunks == -(-cut // per) + -(-(nframes - cut) // per)
        return r.nchunks


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.integers(1, 8), st.integers(0, 9),
       st.booleans(), st.sampled_from(["f8", "f4", None]),
       st.sampled_from(["thermal", "noise", "constant", "rekey"]),
       st.integers(0, 2**31))
def test_round_trip_property(nframes, chunk_frames, level, shuffle,
                             vel_dtype, kind, seed):
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        _round_trip(os.path.join(d, "t.ptrj"), kind, seed, n=5,
                    nframes=nframes, vel_dtype=vel_dtype,
                    chunk_frames=chunk_frames, compression=level,
                    shuffle=shuffle)


def chunk_sections(path, k=0):
    """``(stored_len, codec)`` per section of chunk *k* — meta, the
    delta planes, the velocity planes — read off its directory."""
    with TrajectoryReader(path) as r:
        record = fmt.read_chunk_record(r._fh, r.header, int(r._offsets[k]))
        count = len(r.header.section_sizes(int(r._counts[k])))
    start = fmt.chunk_prelude_size()
    return list(fmt._SECTION.iter_unpack(
        record[start:start + count * fmt._SECTION.size]))


@pytest.mark.parametrize("level", [0, 1, 6, 9])
@pytest.mark.parametrize("vel_dtype", ["f8", "f4"])
def test_sections_are_deflated_only_where_it_pays(tmp_path, level, vel_dtype):
    # 700 atoms x 8 frames: every plane is longer than the 16 KiB probe
    n, nframes = 700, 8
    assert 3 * n * nframes > fmt.PROBE_BYTES
    codecs = {}
    for kind in ("thermal", "noise", "constant"):
        p = tmp_path / f"{kind}.ptrj"
        assert _round_trip(p, kind, 5, n=n, nframes=nframes,
                           vel_dtype=vel_dtype, chunk_frames=nframes,
                           compression=level) == 1
        sections = chunk_sections(p)
        with TrajectoryReader(p) as r:
            sizes = r.header.section_sizes(nframes)
        for (stored, codec), size in zip(sections, sizes):
            # raw sections are stored byte for byte, deflated ones paid
            assert stored == size if codec == 0 \
                else stored <= fmt.DEFLATE_PAYS * size
        codecs[kind] = [codec for _, codec in sections]
    nvel = int(vel_dtype[1])
    if level == 0:
        assert not any(sum(codecs.values(), []))
        return
    # meta aside: noise planes all raw, constant planes all deflated, and
    # a thermal stream deflates exactly the top (sign/exponent) plane of
    # each array -- the mantissa planes are noise
    assert codecs["noise"][1:] == [0] * (4 + nvel)
    assert codecs["constant"][1:] == [1] * (4 + nvel)
    assert codecs["thermal"][1:] == [0, 0, 0, 1] + [0] * (nvel - 1) + [1]


def test_unshuffled_arrays_are_one_plane_each(tmp_path):
    p = tmp_path / "flat.ptrj"
    _round_trip(p, "thermal", 3, n=700, nframes=8, vel_dtype="f8",
                chunk_frames=8, shuffle=False)
    assert len(chunk_sections(p)) == 3          # meta, deltas, velocities


# -- corruption & truncation -----------------------------------------------
def corruptible(tmp_path):
    p = write_frames(tmp_path / "t.ptrj", npt_trajectory(nframes=6),
                     chunk_frames=3)
    return p, p.read_bytes()


def test_truncated_footer_rejected(tmp_path):
    p, raw = corruptible(tmp_path)
    p.write_bytes(raw[:-10])
    with pytest.raises(IOFormatError):
        TrajectoryReader(p)


def test_bad_magic_rejected(tmp_path):
    p, raw = corruptible(tmp_path)
    p.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(IOFormatError, match="magic"):
        TrajectoryReader(p)


def test_unknown_version_rejected(tmp_path):
    p, raw = corruptible(tmp_path)
    p.write_bytes(raw[:4] + struct.pack("<H", 99) + raw[6:])
    with pytest.raises(IOFormatError, match="version"):
        TrajectoryReader(p)


def header_end(raw):
    import io

    fh = io.BytesIO(raw)
    fmt.read_header(fh)
    return fh.tell()


#: chunk prelude: magic 4s, first_frame u64, nframes u32, stored_len u32, crc
NFRAMES_AT, STORED_LEN_AT = 12, 16


def poke(p, raw, at, data):
    """Rewrite *p* as *raw* with *data* spliced in at offset *at*."""
    p.write_bytes(raw[:at] + data + raw[at + len(data):])


def assert_chunk0_bad_chunk1_fine(p, match):
    """The damage is an IOFormatError, and stays in its chunk."""
    with TrajectoryReader(p) as r:
        with pytest.raises(IOFormatError, match=match):
            r.read(0)
        assert r.read(5).step == 50


def rebuilt(raw, edit):
    """The two-chunk file *raw* with chunk 0's payload rewritten:
    ``edit(entries, sections)`` changes its directory entries
    ``[stored_len, codec]`` and stored section bytes in place; the
    prelude's length and CRC, the index and the footer are then made
    consistent again, so only the decoder's own checks can object."""
    import io

    fh = io.BytesIO(raw)
    header = fmt.read_header(fh)
    offsets, firsts, counts, total = fmt.read_index(fh, header, len(raw))
    start, end = int(offsets[0]), int(offsets[1])
    body = start + fmt.chunk_prelude_size()
    nsec = len(header.section_sizes(int(counts[0])))
    entries = [list(e) for e in fmt._SECTION.iter_unpack(
        raw[body:body + nsec * fmt._SECTION.size])]
    sections, at = [], body + nsec * fmt._SECTION.size
    for length, _ in entries:
        sections.append(raw[at:at + length])
        at += length
    assert at == end
    edit(entries, sections)
    payload = b"".join([fmt._SECTION.pack(*e) for e in entries] + sections)
    chunk0 = fmt._CHUNK_PRELUDE.pack(
        fmt.CHUNK_MAGIC, 0, int(counts[0]), len(payload),
        zlib.crc32(payload)) + payload
    chunk1 = raw[end:len(raw) - fmt._FOOTER.size - 2 * fmt._INDEX_ENTRY.size]
    index = [(start, 0, int(counts[0])),
             (start + len(chunk0), int(firsts[1]), int(counts[1]))]
    return raw[:start] + chunk0 + chunk1 + fmt.pack_index(
        index, total, start + len(chunk0) + len(chunk1))


def test_rebuilt_without_an_edit_is_the_same_file(tmp_path):
    p, raw = corruptible(tmp_path)
    assert rebuilt(raw, lambda entries, sections: None) == raw


def test_flipped_directory_byte_fails_crc(tmp_path):
    p, raw = corruptible(tmp_path)
    at = header_end(raw) + fmt.chunk_prelude_size() + 1   # a length byte
    poke(p, raw, at, bytes([raw[at] ^ 0xFF]))
    assert_chunk0_bad_chunk1_fine(p, "CRC")


def test_directory_not_adding_up_rejected(tmp_path):
    p, raw = corruptible(tmp_path)

    def edit(entries, sections):
        entries[1][0] += 1          # a plane one byte longer than stored
    p.write_bytes(rebuilt(raw, edit))
    assert_chunk0_bad_chunk1_fine(p, "directory does not add up")


@pytest.mark.parametrize("nbytes", [-1, +1, 10**6])
def test_deflated_section_of_the_wrong_length_rejected(tmp_path, nbytes):
    # a well-formed deflate stream, directory and CRC -- but the section
    # inflates to fewer or more bytes than the header layout says (a
    # stream far longer than that is cut off, not inflated)
    p, raw = corruptible(tmp_path)
    with TrajectoryReader(p) as r:
        meta_size = r.header.meta_size(3)

    def edit(entries, sections):
        sections[0] = zlib.compress(bytes(meta_size + nbytes))
        entries[0][:] = len(sections[0]), 1
    p.write_bytes(rebuilt(raw, edit))
    assert_chunk0_bad_chunk1_fine(p, "does not inflate")


def test_raw_section_of_the_wrong_length_or_codec_rejected(tmp_path):
    p, raw = corruptible(tmp_path)

    def shorter(entries, sections):
        sections[-1] = sections[-1][:-1]
        entries[-1][:] = len(sections[-1]), 0
    p.write_bytes(rebuilt(raw, shorter))
    assert_chunk0_bad_chunk1_fine(p, "layout expects")

    def unknown_codec(entries, sections):
        entries[2][1] = 7
    p.write_bytes(rebuilt(raw, unknown_codec))
    assert_chunk0_bad_chunk1_fine(p, "codec 7")


def test_missing_chunk_magic_rejected(tmp_path):
    p, raw = corruptible(tmp_path)
    poke(p, raw, header_end(raw), b"XXXX")
    assert_chunk0_bad_chunk1_fine(p, "chunk magic")


def test_chunk_frame_count_must_match_the_index(tmp_path):
    p, raw = corruptible(tmp_path)
    poke(p, raw, header_end(raw) + NFRAMES_AT, struct.pack("<I", 2))
    assert_chunk0_bad_chunk1_fine(p, "index says 3")


def test_footer_records_the_index_offset(tmp_path):
    p, raw = corruptible(tmp_path)
    footer = len(raw) - fmt._FOOTER.size
    index_offset = footer - 2 * fmt._INDEX_ENTRY.size
    assert struct.unpack_from("<Q", raw, footer)[0] == index_offset
    poke(p, raw, footer, struct.pack("<Q", index_offset + 1))
    with pytest.raises(IOFormatError, match="index offset"):
        TrajectoryReader(p)
    # version 1 wrote a literal 0 there: still opens (the golden file)
    assert struct.unpack_from(
        "<Q", V1_GOLDEN.read_bytes(),
        V1_GOLDEN.stat().st_size - fmt._FOOTER.size)[0] == 0


def test_flipped_payload_byte_fails_crc(tmp_path):
    p, raw = corruptible(tmp_path)
    # flip one byte inside the first chunk's compressed payload
    off = header_end(raw) + fmt.chunk_prelude_size() + 4
    corrupted = bytearray(raw)
    corrupted[off] ^= 0xFF
    p.write_bytes(bytes(corrupted))
    with TrajectoryReader(p) as r:
        with pytest.raises(IOFormatError, match="CRC|crc"):
            r.read(0)
        # other chunks stay readable — corruption is contained
        assert r.read(5).step == 50


def test_oversized_stored_len_rejected(tmp_path):
    # a chunk prelude claiming more payload bytes than the file holds
    # must read as "truncated", never as silently-short arrays
    p, raw = corruptible(tmp_path)
    corrupted = bytearray(raw)
    field = header_end(raw) + STORED_LEN_AT
    corrupted[field:field + 4] = struct.pack("<I", len(raw))
    p.write_bytes(bytes(corrupted))
    with TrajectoryReader(p) as r:
        with pytest.raises(IOFormatError, match="truncated|corrupt"):
            r.read(0)


def test_truncated_chunk_rejected(tmp_path):
    # crash mid-write: header + part of a chunk, no index/footer
    p, raw = corruptible(tmp_path)
    p.write_bytes(raw[:header_end(raw) + 40])
    with pytest.raises(IOFormatError, match="footer"):
        TrajectoryReader(p)


def test_garbage_file_rejected(tmp_path):
    p = tmp_path / "g.ptrj"
    p.write_bytes(b"\x00" * 64)
    with pytest.raises(IOFormatError):
        TrajectoryReader(p)


# -- O(chunk) random access -------------------------------------------------
@pytest.fixture()
def metrics_on():
    old_registry = metrics_mod._swap_registry(metrics_mod.MetricsRegistry())
    old_enabled = metrics_mod._ENABLED
    metrics_mod._ENABLED = True
    try:
        yield metrics_mod._REGISTRY
    finally:
        metrics_mod._swap_registry(old_registry)
        metrics_mod._ENABLED = old_enabled


def counter_value(registry, name):
    return registry.snapshot()["counters"].get(name, 0.0)


def test_random_access_reads_one_chunk(tmp_path, metrics_on):
    frames = npt_trajectory(nframes=20)
    p = write_frames(tmp_path / "t.ptrj", frames, chunk_frames=4)
    with TrajectoryReader(p) as r:
        assert r.nchunks == 5
        before = counter_value(metrics_on, "trajio.chunk_reads")
        r.read(13)               # middle of chunk 3
        after = counter_value(metrics_on, "trajio.chunk_reads")
        assert after - before == 1
        # same chunk again: served from cache, zero extra reads
        r.read(12)
        assert counter_value(metrics_on, "trajio.chunk_reads") == after
        # sequential full iteration decodes each chunk exactly once
        list(r.iter_frames())
        assert (counter_value(metrics_on, "trajio.chunk_reads")
                - after) <= r.nchunks


def test_one_read_materialises_one_frame(tmp_path, metrics_on):
    frames = npt_trajectory(nframes=20)
    p = write_frames(tmp_path / "t.ptrj", frames, chunk_frames=8)

    def decoded():
        return counter_value(metrics_on, "trajio.frames_decoded")

    with TrajectoryReader(p) as r:
        for i in (13, 12, 3, 19):       # cached chunk or not: one frame
            before = decoded()
            r.read(i)
            assert decoded() - before == 1
        before = decoded()
        assert len(list(r.iter_frames(1, 20, 3))) == 7
        assert decoded() - before == 7      # ceil(19 / 3), not 3 chunks x 8
        before = decoded()
        positions, velocities = r._load_chunk(1).block()
        assert decoded() - before == 8
        for j in range(8):      # the block path is the frame path, stacked
            assert np.array_equal(positions[j], r.read(8 + j).positions)
            assert np.array_equal(velocities[j], r.read(8 + j).velocities)


def test_unchanged_cells_share_one_cell_object(tmp_path):
    at = bulk_silicon()
    grown = at.copy()
    grown.cell = Cell(at.cell.matrix * 1.01)
    open_z = at.copy()
    open_z.cell = Cell(at.cell.matrix, pbc=(True, True, False))
    p = tmp_path / "cells.ptrj"
    with TrajectoryWriter(p, chunk_frames=2) as w:
        for frame in (at, at, at, grown, grown, open_z, at):
            w.write(frame)
    with TrajectoryReader(p) as r:
        cells = [fr.cell for fr in r]
        assert cells[0] is cells[1] is cells[2]      # across a chunk edge
        assert cells[3] is cells[4] and cells[3] is not cells[2]
        assert np.array_equal(cells[3].matrix, grown.cell.matrix)
        # same matrix, other pbc flags: another cell
        assert cells[5] is not cells[6]
        assert tuple(cells[5].pbc) == (True, True, False)
        assert tuple(cells[6].pbc) == (True, True, True)
        assert r.read(0).cell is cells[6]            # a seek shares too


# -- version 1 stays readable -----------------------------------------------
#: 10 frames x 8 atoms, ``chunk_frames=4``, per-frame cells and pbc flags,
#: written by the version-1 writer of commit 38b3fa5 (PR 21) -- the last
#: one -- and, beside it, what that commit's own reader, ``windowed_rdf(
#: path, 4.5, nbins=40, stop=7, stride=2)`` and ``windowed_msd(path,
#: origins=3)`` returned for it.  Nothing can regenerate these bytes.
V1_GOLDEN = pathlib.Path(__file__).parent / "data" / "v1_golden.ptrj"


def _assert_is_the_golden_run(path, version):
    want = np.load(V1_GOLDEN.with_suffix(".npz"))
    with TrajectoryReader(path) as r:
        assert r.header.version == version
        assert len(r) == 10 and r.nchunks == 3
        # sequential, then seeks in an order that reloads chunks
        for i in list(range(10)) + [9, 0, 5, 2, 7]:
            fr = r.read(i)
            assert fr.step == want["steps"][i]
            assert np.array_equal(
                [fr.time_fs, fr.epot, fr.ekin, fr.temperature],
                want["scalars"][i])
            assert np.array_equal(fr.positions, want["positions"][i])
            assert np.array_equal(fr.velocities, want["velocities"][i])
            assert np.array_equal(fr.cell.matrix, want["cells"][i])
            assert np.array_equal(fr.cell.pbc, want["pbcs"][i])
    r_, g = windowed_rdf(path, 4.5, nbins=40, stop=7, stride=2)
    assert np.array_equal(r_, want["rdf_r"])
    assert np.array_equal(g, want["rdf_g"])
    t, msd = windowed_msd(path, origins=3)
    assert np.array_equal(t, want["msd_t"])
    assert np.array_equal(msd, want["msd"])


def test_v1_golden_file_decodes_bit_for_bit():
    assert V1_GOLDEN.stat().st_size <= 10_000
    _assert_is_the_golden_run(V1_GOLDEN, version=1)


def test_v2_copy_of_the_golden_run_is_bit_identical(tmp_path):
    # the same frames through today's writer: same chunking, same
    # keyframes, so the float32 deltas and everything else come back equal
    copy = tmp_path / "v2.ptrj"
    Trajectory.load(V1_GOLDEN).save(copy, chunk_frames=4)
    _assert_is_the_golden_run(copy, version=2)


# -- out-of-core analysis ---------------------------------------------------
def liquidish(tmp_path, nframes=8):
    rng = np.random.default_rng(11)
    at = rattle(bulk_silicon(), 0.05, seed=2)
    stack, times = [], []
    p = tmp_path / "liq.ptrj"
    with TrajectoryWriter(p, chunk_frames=3) as w:
        pos = at.positions.copy()
        for k in range(nframes):
            pos = pos + rng.normal(scale=0.02, size=pos.shape)
            fr = at.copy()
            fr.positions = pos
            w.write(fr, step=k, time_fs=2.0 * k)
            stack.append(fr)
            times.append(2.0 * k)
    return p, stack, np.array(times)


def test_windowed_rdf_matches_in_memory(tmp_path):
    from repro.analysis.rdf import radial_distribution

    p, stack, _ = liquidish(tmp_path)
    r_ref, g_ref = radial_distribution(stack, 4.5, nbins=40)
    r, g = windowed_rdf(p, 4.5, nbins=40)
    np.testing.assert_array_equal(r, r_ref)
    np.testing.assert_allclose(g, g_ref, atol=1e-8)


def test_windowed_rdf_window_selection(tmp_path):
    from repro.analysis.rdf import radial_distribution

    p, stack, _ = liquidish(tmp_path)
    _, g_ref = radial_distribution(stack[2:6], 4.5, nbins=40)
    _, g = windowed_rdf(p, 4.5, nbins=40, start=2, stop=6)
    np.testing.assert_allclose(g, g_ref, atol=1e-8)


def test_windowed_msd_matches_in_memory(tmp_path):
    from repro.analysis.msd import mean_squared_displacement

    p, stack, times = liquidish(tmp_path)
    ref = mean_squared_displacement(
        np.stack([f.positions for f in stack]), origins=3)
    t, msd = windowed_msd(p, origins=3)
    np.testing.assert_allclose(t, times - times[0])
    np.testing.assert_allclose(msd, ref, atol=1e-5)


def test_windowed_analysis_bad_args(tmp_path):
    p, _, _ = liquidish(tmp_path)
    with pytest.raises(GeometryError):
        windowed_rdf(p, -1.0)
    with pytest.raises(GeometryError):
        windowed_rdf(p, 4.5, start=7, stop=7)
    with pytest.raises(GeometryError):
        windowed_msd(p, origins=0)


def test_windowed_accepts_open_reader(tmp_path):
    p, _, _ = liquidish(tmp_path)
    with TrajectoryReader(p) as r:
        windowed_rdf(r, 4.5, nbins=20)
        assert r._fh is not None    # caller-owned reader stays open


# -- store ------------------------------------------------------------------
def test_store_create_write_open_refs(tmp_path):
    store = TrajStore(tmp_path / "runs")
    ref = store.create("sweep si/8")
    assert "/" not in ref and " " not in ref
    with store.writer(ref) as w:
        w.write(bulk_silicon(), step=3)
    with store.open(ref) as r:
        assert len(r) == 1 and r.read(0).step == 3
    with pytest.raises(KeyError):
        store.path("nope")
    store.close()


def test_store_tempdir_cleanup():
    store = TrajStore()
    root = store.root
    ref = store.create("t")
    with store.writer(ref) as w:
        w.write(bulk_silicon())
    assert os.path.exists(store.path(ref))
    store.close()
    assert not os.path.exists(root)


# -- MD / Trajectory bridges ------------------------------------------------
SUFFIXES = (".ptrj", ".xyz")


def test_binary_observer_and_trajectory_bridge(tmp_path):
    for suffix in SUFFIXES:
        p = tmp_path / f"md{suffix}"
        at = rattle(bulk_silicon(), 0.02, seed=5)
        with TrajectoryObserver(p) as obs_w:
            for k in range(3):
                at.positions += 0.01
                obs_w(k, at, {"step": k, "time_fs": 0.5 * k,
                              "epot": -1.0 - k, "ekin": 0.2,
                              "temperature": 310.0})
        traj = Trajectory.load(p)
        assert len(traj) == 3
        assert traj.frames[2].step == 2
        assert traj.frames[2].epot == -3.0
        assert traj.frames[2].ekin == 0.2
        np.testing.assert_array_equal(traj.frames[1].cell.matrix,
                                      at.cell.matrix)

        p2 = tmp_path / f"back{suffix}"
        traj.save(p2)
        frames = list(trajio.iter_frames(p2))
        assert len(frames) == 3
        assert frames[1].time_fs == 0.5


def test_trajectory_save_load_per_frame_cell(tmp_path):
    frames = npt_trajectory(nframes=4)
    traj = Trajectory()
    for at, meta in frames:
        traj.append(at, step=meta["step"], time_fs=meta["time_fs"],
                    epot=meta["epot"])
    for suffix in SUFFIXES:
        p = tmp_path / f"npt{suffix}"
        traj.save(p)
        back = Trajectory.load(p)
        for i, (at, meta) in enumerate(frames):
            f = back.frames[i]
            assert f.step == meta["step"] and f.time_fs == meta["time_fs"]
            np.testing.assert_array_equal(f.cell.matrix, at.cell.matrix)
            np.testing.assert_array_equal(f.velocities, at.velocities)


def test_observer_accepts_open_writer(tmp_path):
    store = TrajStore(tmp_path / "runs")
    ref = store.create("md")
    with TrajectoryObserver(store.writer(ref, chunk_frames=2)) as obs_w:
        obs_w(0, bulk_silicon(), {"step": 0, "time_fs": 0.0, "epot": -1.0,
                                  "ekin": 0.0, "temperature": 0.0})
    with store.open(ref) as r:
        assert len(r) == 1 and r.header.chunk_frames == 2


# -- recording parity: one run, every sink, one source ----------------------
def _sw_md(observers):
    """10 NVE steps of rattled 8-atom SW silicon at 600 K."""
    from repro.classical import StillingerWeber
    from repro.md import (
        MDDriver, VelocityVerlet, maxwell_boltzmann_velocities,
    )

    at = rattle(bulk_silicon(), 0.05, seed=3)
    maxwell_boltzmann_velocities(at, 600.0, seed=1)
    MDDriver(at, StillingerWeber(), VelocityVerlet(dt=0.37),
             observers=observers).run(10)


def _npt_sequence(observers):
    """3 frames with per-frame cells and velocities, fed by hand."""
    a = bulk_silicon()
    m0 = a.cell.matrix.copy()
    for k in range(3):
        a.positions += 0.1
        a.velocities[:] = 0.001 * (k + 1)
        a.cell = Cell(m0 * (1.0 + 0.02 * k))
        data = {"step": 10 * k, "time_fs": 0.5 * k, "epot": -34.0 - k,
                "ekin": a.kinetic_energy(), "temperature": a.temperature()}
        for observer in observers:
            observer(k, a, data)


def _record(tmp_path, run, suffix):
    rec = TrajectoryRecorder()
    path = tmp_path / f"run{suffix}"
    with TrajectoryObserver(path) as file_obs:
        run([rec, file_obs])
    return rec.trajectory, path


def _assert_frames_equal(got, want, pos_tol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in ("step", "time_fs", "epot", "ekin", "temperature"):
            assert getattr(g, key) == getattr(w, key), key
        np.testing.assert_array_equal(g.cell.matrix, w.cell.matrix)
        np.testing.assert_array_equal(g.cell.pbc, w.cell.pbc)
        np.testing.assert_array_equal(g.velocities, w.velocities)
        assert np.abs(g.positions - w.positions).max() <= pos_tol


POS_TOL = {".ptrj": 1e-6, ".xyz": 1e-10}


@pytest.mark.parametrize("suffix", SUFFIXES)
@pytest.mark.parametrize("run", [_sw_md, _npt_sequence], ids=["md", "npt"])
def test_recording_parity(tmp_path, run, suffix):
    """The recorder and a file of either codec hold the same frames."""
    traj, path = _record(tmp_path, run, suffix)
    _assert_frames_equal(list(trajio.iter_frames(path)), traj.frames,
                         POS_TOL[suffix])
    assert trajio.read_symbols(path) == traj.symbols
    assert trajio.frame_count(path) == len(traj)
    # windows select the same frames from either codec
    _assert_frames_equal(list(trajio.iter_frames(path, 1, None, 2)),
                         traj.frames[1::2], POS_TOL[suffix])

    # load -> save -> load is idempotent, also across codecs
    loaded = Trajectory.load(path)
    for other in SUFFIXES:
        copy = tmp_path / f"copy{other}"
        loaded.save(copy)
        again = Trajectory.load(copy)
        assert again.symbols == loaded.symbols
        _assert_frames_equal(again.frames, loaded.frames,
                             0.0 if other == suffix else POS_TOL[other])
    # the same frames, velocities included, in both codecs: PTRJ must stay
    # >= 3x smaller than XYZ (6.2x here, 9-11x at 64-512 atoms; the
    # 3-frame npt file is mostly header, so only the 10-frame run counts)
    if run is _sw_md:
        assert os.path.getsize(tmp_path / "copy.xyz") \
            >= 3 * os.path.getsize(tmp_path / "copy.ptrj")


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_windowed_analysis_is_the_in_memory_kernel(tmp_path, suffix):
    from repro.analysis import (
        mean_squared_displacement, radial_distribution,
    )

    traj, path = _record(tmp_path, _sw_md, suffix)
    # same positions in, same numbers out: the file's frames through
    # the in-memory entry points ...
    loaded = Trajectory.load(path)
    atoms = [loaded.atoms_at(i) for i in range(len(loaded))]
    r, g = windowed_rdf(path, 4.5, nbins=40, start=2)
    r_ref, g_ref = radial_distribution(atoms[2:], 4.5, nbins=40)
    assert np.array_equal(r, r_ref) and np.array_equal(g, g_ref)
    t, msd = windowed_msd(path, origins=3)
    assert np.array_equal(msd, mean_squared_displacement(
        loaded.positions(), origins=3))
    assert np.array_equal(t, loaded.times() - loaded.times()[0])
    # ... and the recorder's, up to the codec's position bound
    _, g_rec = radial_distribution(
        (traj.atoms_at(i) for i in range(2, len(traj))), 4.5, nbins=40)
    np.testing.assert_allclose(g, g_rec, atol=1e-8)
    np.testing.assert_allclose(
        msd, mean_squared_displacement(traj.positions(), origins=3),
        atol=1e-5)


def test_writer_buffers_copies_not_live_arrays(tmp_path):
    # regression: a chunk is encoded at flush time, and the writer held
    # the integrator's live velocity array -- every frame of a chunk
    # came back with the velocities of the chunk's last step
    traj, path = _record(tmp_path, _sw_md, ".ptrj")
    stored = np.stack([f.velocities for f in trajio.iter_frames(path)])
    np.testing.assert_array_equal(stored, traj.velocities())
    assert not np.array_equal(stored[0], stored[-1])
    # same for a cell matrix mutated in place after the write
    p = tmp_path / "cell.ptrj"
    at = bulk_silicon()
    matrix = at.cell.matrix.copy()
    with TrajectoryWriter(p) as w:
        w.write_arrays(at.symbols, at.positions, cell=matrix,
                       pbc=at.cell.pbc)
        matrix *= 2.0
    np.testing.assert_array_equal(next(trajio.iter_frames(p)).cell.matrix,
                                  at.cell.matrix)


def test_xyz_source_rejects_changing_composition(tmp_path):
    from repro.geometry import diamond_cubic, write_xyz

    p = tmp_path / "mixed.xyz"
    write_xyz(p, bulk_silicon())
    write_xyz(p, diamond_cubic("C"), append=True)
    with pytest.raises(IOFormatError, match="composition"):
        list(trajio.iter_frames(p))


@pytest.mark.parametrize("suffix", SUFFIXES)
@pytest.mark.parametrize("command", ["md", "sweep"])
def test_cli_traj_codec_by_suffix(tmp_path, capsys, command, suffix):
    """`md --traj` and `sweep --traj` pick the codec the same way, and
    either file reads back through the one source."""
    from repro.cli import main
    from repro.geometry import read_xyz, write_xyz

    src = tmp_path / "in.xyz"
    write_xyz(src, rattle(bulk_silicon(), 0.02, seed=4))
    out = tmp_path / f"out{suffix}"
    if command == "md":
        argv = ["md", str(src), "--model", "sw-si", "--steps", "4",
                "--dt", "0.37", "--temperature", "300",
                "--traj", str(out), "--traj-interval", "2"]
    else:
        argv = ["sweep", str(src), "--model", "sw-si", "--npoints", "3",
                "--amplitude", "0.02", "--fit", "none", "--traj", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    frames = list(trajio.iter_frames(out))
    assert len(frames) == 3
    assert all(f.epot != 0.0 for f in frames)
    if command == "md":
        assert [f.step for f in frames] == [0, 2, 4]
        # repr-exact metadata in either codec (no %.3f / %.8f truncation)
        assert [f.time_fs for f in frames] == [0.0, 2 * 0.37, 4 * 0.37]
        assert all(f.ekin > 0.0 and f.temperature > 0.0 for f in frames)
    else:
        assert not np.array_equal(frames[0].cell.matrix,
                                  frames[-1].cell.matrix)
    if suffix == ".xyz":
        assert len(read_xyz(out, index=-1)) == 8


# -- service integration ----------------------------------------------------
@pytest.fixture()
def service():
    from repro.service import BatchService

    svc = BatchService(nworkers=1)
    yield svc
    svc.close()


@pytest.fixture()
def client(service):
    from repro.service import BatchClient

    return BatchClient(service)


def test_sweep_traj_ref_and_frames_op(client):
    si = rattle(bulk_silicon(), 0.02, seed=1)
    client.load("si", si, calc={"model": "sw-si"})
    res = client.sweep("si", npoints=5, amplitude=0.02, traj=True)
    ref = res["traj_ref"]
    assert isinstance(ref, str) and ref
    out = client.frames(ref)
    assert out["total"] == 5
    assert len(out["frames"]) == 5
    f0 = out["frames"][0]
    assert f0["positions"].shape == (len(si), 3)
    assert f0["cell"].shape == (3, 3)
    # strained geometries: every frame's cell differs
    cells = [f["cell"] for f in out["frames"]]
    assert not np.array_equal(cells[0], cells[-1])
    # subrange + stride
    sub = client.frames(ref, start=1, stop=4, stride=2)
    np.testing.assert_array_equal(sub["frames"][0]["cell"], cells[1])
    assert len(sub["frames"]) == 2
    # paged iteration covers all frames in order
    it = list(client.iter_frames(ref, batch=3))
    assert len(it) == 5
    np.testing.assert_array_equal(it[2]["positions"],
                                  out["frames"][2]["positions"])


def test_frames_op_errors(client):
    with pytest.raises(ServiceError, match="unknown traj_ref"):
        client.frames("no-such-ref")
    si = bulk_silicon()
    client.load("si", si, calc={"model": "sw-si"})
    res = client.sweep("si", npoints=5, amplitude=0.02, traj=True)
    with pytest.raises(ServiceError):
        client.frames(res["traj_ref"], stride=0)


def test_sweep_without_traj_has_no_ref(client):
    client.load("si", bulk_silicon(), calc={"model": "sw-si"})
    res = client.sweep("si", npoints=5, amplitude=0.02)
    assert "traj_ref" not in res


def test_strain_sweep_writes_frames(tmp_path):
    from repro.analysis.strain_sweep import strain_sweep
    from repro.calculators import make_calculator

    p = tmp_path / "sweep.ptrj"
    w = TrajectoryWriter(p)
    try:
        strain_sweep(bulk_silicon(), make_calculator({"model": "sw-si"}),
                     amplitudes=np.linspace(-0.02, 0.02, 5), traj_writer=w)
    finally:
        w.close()
    with TrajectoryReader(p) as r:
        assert len(r) == 5
        assert r.read(0).epot != 0.0


# -- campaign persistence ---------------------------------------------------
def test_campaign_traj_dir_and_resolve(tmp_path):
    from repro.scenarios import store as sstore
    from repro.scenarios.campaign import CampaignSpec, run_campaign
    from repro.scenarios.store import write_jsonl

    matrix = {
        "name": "traj-smoke",
        "calc": {"model": "sw-si"},
        "structures": {"si": {"kind": "diamond", "element": "Si"}},
        "scenarios": [{"name": "melt-quench",
                       "params": {"melt_steps": 4, "quench_steps": 4,
                                  "sample_interval": 2}}],
    }
    traj_dir = tmp_path / "trajs"
    run = run_campaign(CampaignSpec.from_dict(matrix), traj_dir=traj_dir)
    assert run.counts["failed"] == 0
    row = run.cells[0]
    ref = row["value"]["traj_ref"]
    assert ref.endswith(".ptrj")
    stored = list(trajio.iter_frames(traj_dir / ref))
    assert len(stored) == row["metrics"]["nsamples"]
    # the record runs on one clock across the melt and quench legs
    assert [f.step for f in stored] == list(range(len(stored)))
    times = [f.time_fs for f in stored]
    assert times == sorted(times) and times[-1] == 8.0

    artifact = write_jsonl(tmp_path / "run.jsonl", run)
    _, cells = sstore.read_artifact(artifact)
    path = sstore.resolve_traj_ref(artifact, cells[0], traj_dir=traj_dir)
    assert path is not None and os.path.exists(path)
    # row without a trajectory resolves to None
    assert sstore.resolve_traj_ref(artifact, {"value": {}}) is None
    # dangling ref is an error, not a silent None
    os.remove(path)
    from repro.errors import CampaignError

    with pytest.raises(CampaignError, match="does not exist"):
        sstore.resolve_traj_ref(artifact, cells[0], traj_dir=traj_dir)
