"""Analysis: RDF, ADF, rings, MSD, VACF, EOS fits, time series."""

import numpy as np
import pytest

from repro.analysis import (
    angle_distribution, birch_murnaghan_fit, block_average, bond_statistics,
    coordination_numbers, diffusion_coefficient, mean_squared_displacement,
    murnaghan_fit, phonon_dos, radial_distribution, ring_statistics,
    running_mean, velocity_autocorrelation,
)
from repro.analysis.adf import mean_angle
from repro.analysis.coordination import undercoordinated_atoms
from repro.analysis.rdf import coordination_from_rdf, first_peak
from repro.analysis.rings import connected_fragments, count_polygons
from repro.analysis.timeseries import drift_per_step
from repro.analysis.vacf import dos_cutoff
from repro.errors import GeometryError
from repro.geometry import bulk_silicon, graphene_sheet, nanotube, supercell


# ---------------------------------------------------------------- RDF
def test_rdf_crystal_first_peak_position():
    at = supercell(bulk_silicon(), 2)
    r, g = radial_distribution(at, r_max=4.5, nbins=150)
    peak = first_peak(r, g, r_window=(2.0, 2.8))
    assert peak == pytest.approx(5.431 * np.sqrt(3) / 4, abs=0.05)


def test_rdf_integrates_to_coordination():
    at = supercell(bulk_silicon(), 2)
    r, g = radial_distribution(at, r_max=3.2, nbins=400)
    density = len(at) / at.cell.volume
    n = coordination_from_rdf(r, g, density, r_min=2.8)
    assert n == pytest.approx(4.0, abs=0.15)


def test_rdf_gas_limit_near_one():
    """Far tail of a homogeneous crystal g(r) oscillates around 1."""
    at = supercell(bulk_silicon(), 3)
    r, g = radial_distribution(at, r_max=8.0, nbins=160)
    tail = g[(r > 6.0)]
    assert 0.5 < tail.mean() < 1.5


def test_rdf_multi_frame_average():
    from repro.geometry import rattle

    frames = [rattle(bulk_silicon(), 0.05, seed=s) for s in range(3)]
    r, g = radial_distribution(frames, r_max=4.0, nbins=100)
    assert np.all(g >= 0)
    assert g[r < 1.8].max() == 0.0      # no unphysical close pairs


def test_rdf_input_validation():
    with pytest.raises(GeometryError):
        radial_distribution(bulk_silicon(), r_max=-1.0)
    with pytest.raises(GeometryError):
        radial_distribution([], r_max=3.0)
    with pytest.raises(GeometryError):
        radial_distribution(iter([]), r_max=3.0)


def test_rdf_consumes_any_atoms_iterable():
    from repro.geometry import rattle
    from repro.md import Trajectory

    traj = Trajectory()
    for s in range(3):
        traj.append(rattle(bulk_silicon(), 0.05, seed=s))
    frames = [traj.atoms_at(i) for i in range(3)]
    r_ref, g_ref = radial_distribution(frames, r_max=4.0, nbins=50)
    r, g = radial_distribution((traj.atoms_at(i) for i in range(3)),
                               r_max=4.0, nbins=50)
    assert np.array_equal(r, r_ref) and np.array_equal(g, g_ref)
    # a bare Atoms is one frame; only an Atoms is -- a Trajectory (which
    # also has .positions) is not silently taken for one
    _, g1 = radial_distribution(frames[0], r_max=4.0, nbins=50)
    assert np.array_equal(
        g1, radial_distribution(frames[:1], r_max=4.0, nbins=50)[1])
    with pytest.raises(TypeError, match="not iterable"):
        radial_distribution(traj, r_max=4.0)


# ---------------------------------------------------------------- ADF
def test_adf_diamond_tetrahedral_peak():
    at = supercell(bulk_silicon(), 2)
    ang, dens = angle_distribution(at, r_cut=2.6, nbins=180)
    assert ang[np.argmax(dens)] == pytest.approx(109.47, abs=1.5)
    assert mean_angle(at, 2.6) == pytest.approx(109.47, abs=1.0)


def test_adf_graphene_120_degrees():
    g = graphene_sheet(2, 2)
    ang, dens = angle_distribution(g, r_cut=1.6)
    assert ang[np.argmax(dens)] == pytest.approx(120.0, abs=2.0)


def test_adf_normalised():
    at = supercell(bulk_silicon(), 2)
    ang, dens = angle_distribution(at, r_cut=2.6, nbins=90)
    assert np.sum(dens) * (ang[1] - ang[0]) == pytest.approx(1.0)


# ---------------------------------------------------------------- coordination
def test_coordination_and_bond_stats():
    at = supercell(bulk_silicon(), 2)
    np.testing.assert_array_equal(coordination_numbers(at, 2.6), 4)
    stats = bond_statistics(at, 2.6)
    assert stats["mean_coordination"] == 4.0
    assert stats["coordination_histogram"] == {4: 64}
    assert stats["mean_bond_length"] == pytest.approx(2.3516, abs=1e-3)
    assert stats["n_bonds"] == 128


def test_undercoordinated_tube_edges():
    t = nanotube(10, 0, cells=2, periodic=False)
    under = undercoordinated_atoms(t, 1.6, target=3)
    assert len(under) == 20          # both open rings


# ---------------------------------------------------------------- rings
def test_ring_statistics_graphene():
    pytest.importorskip("networkx")
    # 4×4: wide enough that torus-wrapping cycles exceed hexagon length,
    # so the census equals the 32 faces exactly
    g = graphene_sheet(4, 4)
    stats = ring_statistics(g, 1.6)
    assert stats == {6: 32}
    assert count_polygons(g, 1.6) == (0, 32, 0)


def test_ring_statistics_small_cell_aliasing_documented():
    pytest.importorskip("networkx")
    # 3×3: six wrap-around 6-cycles alias on top of the 18 faces — the
    # documented small-cell caveat
    g = graphene_sheet(3, 3)
    assert ring_statistics(g, 1.6) == {6: 24}


def test_ring_statistics_nanotube():
    pytest.importorskip("networkx")
    t = nanotube(6, 6, cells=2, periodic=False)
    p5, p6, p7 = count_polygons(t, 1.65)
    assert p5 == 0 and p7 == 0
    assert p6 > 10


def test_ring_statistics_invalid():
    with pytest.raises(GeometryError):
        ring_statistics(graphene_sheet(1, 1), 1.6, max_size=2)


def test_connected_fragments():
    pytest.importorskip("networkx")
    from repro.geometry import Atoms, Cell

    pos = [[0, 0, 0], [1.4, 0, 0], [8, 8, 8]]
    at = Atoms(["C"] * 3, pos, cell=Cell.cubic(20, pbc=False))
    frags = connected_fragments(at, 1.6)
    assert [len(f) for f in frags] == [2, 1]


# ---------------------------------------------------------------- MSD
def test_msd_ballistic_quadratic():
    """Constant-velocity atoms: MSD(τ) = v²τ²."""
    t = np.arange(20, dtype=float)
    v = 0.3
    pos = np.zeros((20, 2, 3))
    pos[:, 0, 0] = v * t
    pos[:, 1, 1] = v * t
    msd = mean_squared_displacement(pos)
    np.testing.assert_allclose(msd, (v * t) ** 2, atol=1e-12)


def test_msd_static_zero():
    pos = np.ones((10, 3, 3))
    np.testing.assert_allclose(mean_squared_displacement(pos), 0.0)


def test_msd_origin_averaging():
    rng = np.random.default_rng(2)
    pos = np.cumsum(rng.normal(size=(200, 5, 3)), axis=0) * 0.1
    msd1 = mean_squared_displacement(pos, origins=1)
    msd4 = mean_squared_displacement(pos, origins=4)
    # averaged version smoother but same scale
    assert msd4[50] == pytest.approx(msd1[50], rel=1.0)


def test_diffusion_coefficient_brownian():
    """Random walk: D from MSD slope matches the step variance."""
    rng = np.random.default_rng(3)
    dt = 1.0
    sigma = 0.05
    steps = rng.normal(0, sigma, size=(4000, 20, 3))
    pos = np.cumsum(steps, axis=0)
    msd = mean_squared_displacement(pos, origins=8)
    times = np.arange(len(msd)) * dt
    d = diffusion_coefficient(times, msd, fit_fraction=(0.1, 0.5))
    assert d == pytest.approx(sigma**2 / (2 * dt) * 3 / 3, rel=0.2)


def test_msd_validation():
    with pytest.raises(GeometryError):
        mean_squared_displacement(np.zeros((5, 3)))
    with pytest.raises(GeometryError):
        diffusion_coefficient(np.arange(3.0), np.arange(4.0))


# ---------------------------------------------------------------- VACF
def test_vacf_harmonic_oscillator_frequency():
    """A pure cosine velocity gives a DOS peak at its frequency."""
    freq_thz = 10.0
    dt = 1.0     # fs
    t = np.arange(3000) * dt
    omega = 2 * np.pi * freq_thz * 1e-3   # rad/fs
    v = np.zeros((len(t), 2, 3))
    v[:, 0, 0] = np.cos(omega * t)
    v[:, 1, 1] = np.cos(omega * t + 0.3)
    vacf = velocity_autocorrelation(v)
    assert vacf[0] == pytest.approx(1.0)
    f, dos = phonon_dos(v, dt)
    assert f[np.argmax(dos)] == pytest.approx(freq_thz, abs=0.4)


def test_vacf_white_noise_decorrelates():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(2000, 10, 3))
    vacf = velocity_autocorrelation(v, max_lag=100)
    assert abs(vacf[50]) < 0.1


def test_dos_cutoff_detects_band_top():
    f = np.linspace(0, 30, 300)
    dos = np.where(f < 16.0, 1.0, 0.0)
    assert dos_cutoff(f, dos) == pytest.approx(16.0, abs=0.2)


def test_vacf_validation():
    with pytest.raises(GeometryError):
        velocity_autocorrelation(np.zeros((5, 3)))
    with pytest.raises(GeometryError):
        phonon_dos(np.zeros((10, 2, 3)), dt_fs=-1.0)


# ---------------------------------------------------------------- EOS
def synthetic_eos(form="birch"):
    v = np.linspace(16, 25, 12)
    e0, v0, b0, bp = -4.6, 20.0, 0.6, 4.2
    from repro.analysis.eos import _birch, _murnaghan

    fn = _birch if form == "birch" else _murnaghan
    return v, fn(v, e0, v0, b0, bp), (e0, v0, b0, bp)


@pytest.mark.parametrize("form,fit", [("birch", birch_murnaghan_fit),
                                      ("murnaghan", murnaghan_fit)])
def test_eos_fit_recovers_parameters(form, fit):
    v, e, (e0, v0, b0, bp) = synthetic_eos(form)
    res = fit(v, e)
    assert res.e0 == pytest.approx(e0, abs=1e-6)
    assert res.v0 == pytest.approx(v0, abs=1e-4)
    assert res.b0 == pytest.approx(b0, rel=1e-4)
    assert res.b0_prime == pytest.approx(bp, rel=1e-3)
    assert res.residual < 1e-10
    assert res.b0_gpa == pytest.approx(b0 * 160.2176, rel=1e-3)


def test_eos_fit_noise_tolerance():
    v, e, (e0, v0, b0, bp) = synthetic_eos("birch")
    rng = np.random.default_rng(5)
    res = birch_murnaghan_fit(v, e + rng.normal(0, 1e-4, size=len(e)))
    assert res.v0 == pytest.approx(v0, rel=0.01)


def test_eos_evaluate_at_minimum():
    v, e, (e0, v0, b0, bp) = synthetic_eos("birch")
    res = birch_murnaghan_fit(v, e)
    assert res.energy(np.array([v0]))[0] == pytest.approx(e0, abs=1e-8)


def test_eos_fit_validation():
    with pytest.raises(GeometryError):
        birch_murnaghan_fit([1, 2, 3], [1, 2, 3, 4])
    with pytest.raises(GeometryError):
        birch_murnaghan_fit([1, 2], [1, 2])


# ---------------------------------------------------------------- time series
def test_running_mean_constant():
    np.testing.assert_allclose(running_mean(np.full(10, 3.0), 4), 3.0)


def test_running_mean_window_one_identity():
    x = np.arange(5.0)
    np.testing.assert_allclose(running_mean(x, 1), x)


def test_block_average_iid():
    rng = np.random.default_rng(6)
    x = rng.normal(5.0, 1.0, size=10000)
    mean, sem = block_average(x, nblocks=10)
    assert mean == pytest.approx(5.0, abs=0.1)
    assert 0 < sem < 0.1


def test_block_average_validation():
    with pytest.raises(GeometryError):
        block_average(np.arange(10.0), nblocks=1)
    with pytest.raises(GeometryError):
        block_average(np.arange(3.0), nblocks=5)


def test_drift_per_step_linear():
    x = 2.0 + 0.5 * np.arange(50)
    assert drift_per_step(x) == pytest.approx(0.5)
    assert drift_per_step([1.0]) == 0.0
