"""k-point grids, paths, and band-structure computation."""

import numpy as np
import pytest

from repro.errors import ElectronicError
from repro.geometry import bulk_silicon, graphene_sheet
from repro.tb import GSPSilicon, XuCarbon
from repro.tb.bands import band_gap_along_path, band_structure
from repro.tb.kpoints import (
    FCC_POINTS, frac_to_cartesian, kpath, monkhorst_pack,
    reciprocal_lattice,
)


def test_monkhorst_pack_counts_and_weights():
    k, w = monkhorst_pack((2, 3, 1), reduce_time_reversal=False)
    assert len(k) == 6
    assert w.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(w, 1 / 6)


def test_monkhorst_pack_time_reversal_fold_counts():
    # no self-paired point on the (2,3,1) grid: 6 points → 3 pairs
    k, w = monkhorst_pack((2, 3, 1))
    assert len(k) == 3
    np.testing.assert_allclose(w, 1 / 3)
    assert w.sum() == pytest.approx(1.0)
    # odd grid keeps Γ (self-paired, un-doubled weight)
    k3, w3 = monkhorst_pack(3)
    assert len(k3) == 14                       # Γ + 13 folded pairs of 27
    gamma = np.all(np.abs(k3) < 1e-12, axis=1)
    assert gamma.sum() == 1
    assert w3[gamma][0] == pytest.approx(1 / 27)
    assert w3.sum() == pytest.approx(1.0)


def test_monkhorst_pack_fold_covers_full_grid():
    """Every full-grid point maps onto a kept point or its negation, and
    the kept weights equal the summed pair weights."""
    full_k, full_w = monkhorst_pack((4, 2, 3), reduce_time_reversal=False)
    red_k, red_w = monkhorst_pack((4, 2, 3))
    assert len(red_k) == 12                    # 24 points, no self-paired
    kept = {tuple(np.round(k, 9)) for k in red_k}
    for k in full_k:
        assert tuple(np.round(k, 9)) in kept \
            or tuple(np.round(-k, 9) + 0.0) in kept
    assert red_w.sum() == pytest.approx(full_w.sum())


def test_monkhorst_pack_even_grid_excludes_gamma():
    k, _ = monkhorst_pack(2)
    assert not np.any(np.all(np.abs(k) < 1e-12, axis=1))


def test_monkhorst_pack_odd_grid_includes_gamma():
    k, _ = monkhorst_pack(3)
    assert np.any(np.all(np.abs(k) < 1e-12, axis=1))


def test_monkhorst_pack_symmetric_about_zero():
    k, _ = monkhorst_pack((4, 4, 4), reduce_time_reversal=False)
    np.testing.assert_allclose(k.sum(axis=0), 0.0, atol=1e-12)


def test_monkhorst_pack_invalid():
    with pytest.raises(ElectronicError):
        monkhorst_pack(0)


def test_time_reversal_fold_band_energy_exact(si8_rattled):
    """The satellite exactness contract: weighted band energy (and σ of
    the whole weighted spectrum) on the reduced grid equals the full
    grid to 1e-12 — ε(−k) = ε(k) for a real-space-real Hamiltonian."""
    from repro.tb import GSPSilicon, TBCalculator

    calc_red = TBCalculator(GSPSilicon(), kpts=3, kT=0.05)
    full = TBCalculator(GSPSilicon(), kpts=3, kT=0.05, kgrid_reduce="full")
    res_r = calc_red.compute(si8_rattled, forces=True)
    res_f = full.compute(si8_rattled, forces=True)
    assert res_r["band_energy"] == pytest.approx(res_f["band_energy"],
                                                 abs=1e-12)
    assert res_r["fermi_level"] == pytest.approx(res_f["fermi_level"],
                                                 abs=1e-12)
    assert res_r["entropy"] == pytest.approx(res_f["entropy"], abs=1e-12)
    np.testing.assert_allclose(res_r["forces"], res_f["forces"], atol=1e-12)


def test_reciprocal_lattice_orthogonality(si8):
    b = reciprocal_lattice(si8.cell)
    prod = si8.cell.matrix @ b.T
    np.testing.assert_allclose(prod, 2 * np.pi * np.eye(3), atol=1e-12)


def test_frac_to_cartesian_zone_boundary(si8):
    kc = frac_to_cartesian(np.array([[0.5, 0, 0]]), si8.cell)
    assert np.linalg.norm(kc) == pytest.approx(np.pi / 5.431)


def test_kpath_structure():
    kpts, dist, ticks = kpath(FCC_POINTS, ["L", "G", "X"], n_per_segment=10)
    assert len(kpts) == 21
    assert ticks == [0, 10, 20]
    assert dist[0] == 0.0
    assert np.all(np.diff(dist) >= 0)
    np.testing.assert_allclose(kpts[10], FCC_POINTS["G"])


def test_kpath_needs_two_labels():
    with pytest.raises(ElectronicError):
        kpath(FCC_POINTS, ["G"])


def test_silicon_band_structure_gapped_everywhere():
    at = bulk_silicon()
    kpts, _, _ = kpath(FCC_POINTS, ["L", "G", "X"], n_per_segment=6)
    bands = band_structure(at, GSPSilicon(), kpts)
    assert bands.shape == (13, 32)
    info = band_gap_along_path(bands, 32.0)
    assert info["indirect_gap"] > 0.3         # GSP Si is a semiconductor
    assert info["direct_gap"] >= info["indirect_gap"] - 1e-9
    assert info["vbm"] < info["cbm"]


def test_silicon_valence_band_width_reasonable():
    """GSP silicon occupied bandwidth ≈ 12–13 eV (DFT: 12.5)."""
    at = bulk_silicon()
    kpts, _, _ = kpath(FCC_POINTS, ["L", "G", "X", "G"], n_per_segment=8)
    bands = band_structure(at, GSPSilicon(), kpts)
    n_occ = 16
    width = bands[:, :n_occ].max() - bands[:, :n_occ].min()
    assert 8.0 < width < 16.0


def test_graphene_dirac_point():
    """XWCH graphene: valence and conduction bands touch at K."""
    g = graphene_sheet(1, 1)
    # In the 4-atom rectangular cell (armchair along x) the hexagonal K
    # point folds to (0, 1/3) of the rectangular BZ.
    kpts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0 / 3.0, 0.0]])
    bands = band_structure(g, XuCarbon(), kpts)
    n_occ = 8
    gap_gamma = bands[0, n_occ] - bands[0, n_occ - 1]
    gap_k = bands[1, n_occ] - bands[1, n_occ - 1]
    assert gap_k < 0.05          # Dirac touching (numerically tiny)
    assert gap_gamma > 1.0       # but gapped at Γ
