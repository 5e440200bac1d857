"""Trajectory container and persistence."""

import numpy as np
import pytest

from repro.errors import MDError
from repro.geometry import bulk_silicon, rattle
from repro.md import Trajectory


def test_append_and_views():
    traj = Trajectory()
    a = bulk_silicon()
    for k in range(4):
        a.positions += 0.1
        traj.append(a, step=k, time_fs=float(k), epot=-50.0 - k)
    assert len(traj) == 4
    assert traj.positions().shape == (4, 8, 3)
    assert traj.velocities().shape == (4, 8, 3)
    np.testing.assert_allclose(traj.times(), [0, 1, 2, 3])
    np.testing.assert_allclose(traj.potential_energies(), [-50, -51, -52, -53])


def test_frames_are_copies():
    traj = Trajectory()
    a = bulk_silicon()
    traj.append(a)
    a.positions += 5.0
    np.testing.assert_allclose(traj.frames[0].positions,
                               bulk_silicon().positions)


def test_composition_mismatch_rejected():
    traj = Trajectory()
    traj.append(bulk_silicon())
    from repro.geometry import diamond_cubic

    with pytest.raises(MDError):
        traj.append(diamond_cubic("C"))


def test_atoms_at_reconstruction():
    traj = Trajectory()
    a = rattle(bulk_silicon(), 0.1, seed=1)
    a.velocities[:] = 0.01
    traj.append(a)
    back = traj.atoms_at(0)
    np.testing.assert_allclose(back.positions, a.positions)
    np.testing.assert_allclose(back.velocities, a.velocities)
    assert back.symbols == a.symbols
    assert back.cell == a.cell


def test_save_load_xyz_roundtrip(tmp_path):
    traj = Trajectory()
    a = bulk_silicon()
    for k in range(3):
        a.positions += 0.2
        traj.append(a, step=k, time_fs=k * 1.0, epot=-1.0)
    p = tmp_path / "t.xyz"
    traj.save(p)
    back = Trajectory.load(p)
    assert len(back) == 3
    assert back.symbols == traj.symbols
    np.testing.assert_allclose(back.positions(), traj.positions(), atol=1e-8)


# -- regression: per-frame cells and lossless XYZ persistence ----------------
def _npt_traj(nframes=3):
    from repro.geometry import Cell

    traj = Trajectory()
    a = bulk_silicon()
    m0 = a.cell.matrix.copy()
    for k in range(nframes):
        a.positions += 0.1
        a.velocities[:] = 0.001 * (k + 1)
        a.cell = Cell(m0 * (1.0 + 0.02 * k))
        traj.append(a, step=10 * k, time_fs=0.5 * k, epot=-34.0 - k)
    return traj, m0


def test_append_stores_per_frame_cell():
    # regression: every frame used to alias the first frame's cell
    traj, m0 = _npt_traj()
    cells = traj.cells()
    assert cells.shape == (3, 3, 3)
    np.testing.assert_allclose(cells[2], m0 * 1.04)
    assert not np.allclose(cells[0], cells[2])
    np.testing.assert_allclose(traj.atoms_at(2).cell.matrix, m0 * 1.04)


def test_save_xyz_preserves_cell_velocities_metadata(tmp_path):
    # regression: the XYZ codec wrote one cell for all frames and dropped
    # velocities, step, time_fs and epot entirely
    traj, m0 = _npt_traj()
    p = tmp_path / "npt.xyz"
    traj.save(p)
    back = Trajectory.load(p)
    for k in range(3):
        f = back.frames[k]
        np.testing.assert_array_equal(f.cell.matrix, m0 * (1.0 + 0.02 * k))
        np.testing.assert_array_equal(f.velocities,
                                      traj.frames[k].velocities)
        assert f.step == 10 * k
        assert f.time_fs == 0.5 * k
        assert f.epot == -34.0 - k
        assert f.ekin == traj.frames[k].ekin
        assert f.temperature == traj.frames[k].temperature


def test_atoms_at_uses_frame_velocities():
    traj, _ = _npt_traj()
    np.testing.assert_allclose(traj.atoms_at(1).velocities, 0.002)
