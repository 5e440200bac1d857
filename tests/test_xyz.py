"""XYZ / extended-XYZ round trips and error handling."""

import io

import numpy as np
import pytest

from repro.errors import IOFormatError
from repro.geometry import Atoms, Cell, bulk_silicon, read_xyz, write_xyz
from repro.geometry.xyz import iread_xyz


def roundtrip(atoms):
    buf = io.StringIO()
    write_xyz(buf, atoms)
    buf.seek(0)
    return read_xyz(buf)


def test_roundtrip_positions_symbols():
    at = bulk_silicon()
    back = roundtrip(at)
    assert back.symbols == at.symbols
    np.testing.assert_allclose(back.positions, at.positions, atol=1e-9)


def test_roundtrip_cell_and_pbc():
    at = Atoms(["C"], [[1, 2, 3]], cell=Cell(np.diag([4, 5, 6]),
                                             pbc=(True, False, True)))
    back = roundtrip(at)
    np.testing.assert_allclose(back.cell.matrix, at.cell.matrix)
    assert list(back.cell.pbc) == [True, False, True]


def test_multi_frame_read(tmp_path):
    p = tmp_path / "traj.xyz"
    a = bulk_silicon()
    write_xyz(p, a)
    a2 = a.copy()
    a2.positions += 0.1
    write_xyz(p, a2, append=True)
    frames = list(iread_xyz(str(p)))
    assert len(frames) == 2
    np.testing.assert_allclose(frames[1].positions - frames[0].positions, 0.1)


def test_read_negative_index(tmp_path):
    p = tmp_path / "t.xyz"
    a = bulk_silicon()
    write_xyz(p, a)
    b = a.copy(); b.positions += 1.0
    write_xyz(p, b, append=True)
    last = read_xyz(str(p), index=-1)
    np.testing.assert_allclose(last.positions, b.positions, atol=1e-9)


def test_read_out_of_range_frame(tmp_path):
    p = tmp_path / "t.xyz"
    write_xyz(p, bulk_silicon())
    with pytest.raises(IOFormatError, match="out of range"):
        read_xyz(str(p), index=3)


def test_empty_input_raises():
    with pytest.raises(IOFormatError, match="no frames"):
        read_xyz(io.StringIO(""))


def test_malformed_count_raises():
    with pytest.raises(IOFormatError, match="atom count"):
        read_xyz(io.StringIO("abc\ncomment\n"))


def test_truncated_frame_raises():
    with pytest.raises(IOFormatError, match="truncated"):
        read_xyz(io.StringIO("3\ncomment\nC 0 0 0\n"))


def test_malformed_atom_line_raises():
    with pytest.raises(IOFormatError, match="malformed"):
        read_xyz(io.StringIO("1\ncomment\nC 0 0\n"))


def test_bad_lattice_raises():
    content = '1\nLattice="1 2 3"\nC 0 0 0\n'
    with pytest.raises(IOFormatError, match="9 numbers"):
        read_xyz(io.StringIO(content))


def test_plain_xyz_without_lattice():
    at = read_xyz(io.StringIO("1\njust a comment\nC 1.0 2.0 3.0\n"))
    assert at.symbols == ["C"]
    assert not at.cell.periodic


def test_comment_preserved_fields(tmp_path):
    p = tmp_path / "c.xyz"
    write_xyz(p, bulk_silicon(), comment="step=5 time_fs=5.0")
    text = p.read_text()
    assert "step=5" in text and "Lattice=" in text


# -- regression: velocities, metadata and pbc round trips --------------------
def test_velocities_round_trip_exact():
    at = bulk_silicon()
    rng = np.random.default_rng(4)
    at.velocities[:] = rng.normal(scale=0.037, size=at.velocities.shape)
    back = roundtrip(at)
    # repr-exact velocity columns: bit-exact, not just approximate
    np.testing.assert_array_equal(back.velocities, at.velocities)
    assert "Properties=species:S:1:pos:R:3:vel:R:3" in _dump(at)


def test_zero_velocities_omit_columns():
    at = bulk_silicon()
    assert not np.any(at.velocities)
    assert ":vel:" not in _dump(at)
    np.testing.assert_array_equal(roundtrip(at).velocities, 0.0)


def _dump(atoms, **kw):
    buf = io.StringIO()
    write_xyz(buf, atoms, **kw)
    return buf.getvalue()


def test_lattice_round_trip_exact():
    # repr-formatted lattice: NPT cells with non-round entries survive
    m = np.array([[5.4310000000000001, 0.0, 1e-13],
                  [0.1234567891234567, 5.43, 0.0],
                  [0.0, 0.0, 5.4300000000000104]])
    at = Atoms(["C"], [[0.1, 0.2, 0.3]], cell=Cell(m))
    np.testing.assert_array_equal(roundtrip(at).cell.matrix, m)


def test_metadata_keys_round_trip(tmp_path):
    from repro.geometry.xyz import iread_frames

    p = tmp_path / "m.xyz"
    write_xyz(p, bulk_silicon(),
              comment="step=12 time_fs=0.30000000000000004 epot=-34.625")
    ((at, info),) = list(iread_frames(str(p)))
    assert info["step"] == 12
    assert info["time_fs"] == 0.30000000000000004
    assert info["epot"] == -34.625
    # the one comment formatter writes every key the reader parses
    from repro.geometry.xyz import frame_comment

    meta = {"step": 7, "time_fs": 7 * 0.37, "epot": -34.62512345678912,
            "ekin": 1e-05, "temperature": 612.3456789012345}
    write_xyz(p, bulk_silicon(), comment=frame_comment(**meta))
    ((at, info),) = list(iread_frames(str(p)))
    assert info == meta


def test_binary_input_is_a_format_error(tmp_path):
    # regression: a non-text file (a .ptrj written under an .xyz name)
    # escaped as a raw UnicodeDecodeError
    p = tmp_path / "not_text.xyz"
    p.write_bytes(b"PTRJ\x01\x00" + bytes(range(128, 256)) * 4)
    with pytest.raises(IOFormatError, match="text"):
        read_xyz(p)


def test_pbc_flag_without_lattice_round_trips_nonperiodic():
    # regression: an explicit pbc="F F F" cluster frame used to be
    # silently treated the same as no flag at all
    at = read_xyz(io.StringIO('1\npbc="F F F"\nC 1.0 2.0 3.0\n'))
    assert not at.cell.periodic
    assert tuple(at.cell.pbc) == (False, False, False)


def test_periodic_pbc_without_lattice_rejected():
    with pytest.raises(IOFormatError, match="[Ll]attice"):
        read_xyz(io.StringIO('1\npbc="T T T"\nC 1.0 2.0 3.0\n'))


def test_nonperiodic_atoms_written_with_pbc_flag():
    at = Atoms(["C"], [[1.0, 2.0, 3.0]])
    text = _dump(at)
    assert 'pbc="F F F"' in text
    back = roundtrip(at)
    assert not back.cell.periodic


def test_ase_readable_extended_xyz(tmp_path):
    ase = pytest.importorskip("ase.io")
    at = bulk_silicon()
    at.velocities[:] = 0.01
    p = tmp_path / "ase.xyz"
    write_xyz(p, at)
    ase_at = ase.read(str(p))
    np.testing.assert_allclose(ase_at.positions, at.positions, atol=1e-9)
    np.testing.assert_allclose(ase_at.cell[:], at.cell.matrix, atol=1e-12)
    vel = ase_at.arrays.get("vel")
    assert vel is not None
    np.testing.assert_array_equal(vel, at.velocities)
