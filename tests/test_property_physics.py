"""Cross-cutting physics property tests (hypothesis).

Randomised invariants spanning several subsystems — the checks that catch
representation bugs no example-based test thinks of.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.classical import StillingerWeber
from repro.geometry import Atoms, Cell, bulk_silicon, rattle
from repro.linscale import all_core_region, solve_density_regions
from repro.parallel import block_partition
from repro.tb import GSPSilicon, HarrisonModel, NonOrthogonalSilicon, TBCalculator, XuCarbon
from repro.tb.models.base import quintic_switch
from repro.tb.purification import purify_density_matrix


# ---------------------------------------------------------------- dimers
@settings(max_examples=15, deadline=None)
@given(
    theta=st.floats(0.05, 3.09), phi=st.floats(0.0, 6.28),
    d=st.floats(2.0, 3.2),
)
def test_property_si_dimer_energy_orientation_independent(theta, phi, d):
    """E(dimer) depends on |d| only — for every model with Si support."""
    direction = np.array([np.sin(theta) * np.cos(phi),
                          np.sin(theta) * np.sin(phi),
                          np.cos(theta)])
    energies = {}
    for model_cls in (GSPSilicon, NonOrthogonalSilicon):
        at_z = Atoms(["Si", "Si"], [[0, 0, 0], [0, 0, d]],
                     cell=Cell.cubic(25, pbc=False))
        at_r = Atoms(["Si", "Si"], [np.zeros(3), d * direction],
                     cell=Cell.cubic(25, pbc=False))
        e_z = TBCalculator(model_cls()).get_potential_energy(at_z)
        e_r = TBCalculator(model_cls()).get_potential_energy(at_r)
        assert e_r == pytest.approx(e_z, abs=1e-9)
        energies[model_cls.__name__] = e_z
    # overlap lowers the bonding energy relative to orthogonal GSP —
    # the two must at least differ (the S matrix is doing something)
    assert energies["GSPSilicon"] != pytest.approx(
        energies["NonOrthogonalSilicon"], abs=1e-6)


@settings(max_examples=15, deadline=None)
@given(theta=st.floats(0.05, 3.09), phi=st.floats(0.0, 6.28),
       d=st.floats(1.1, 2.4))
def test_property_carbon_dimer_orientation_independent(theta, phi, d):
    direction = np.array([np.sin(theta) * np.cos(phi),
                          np.sin(theta) * np.sin(phi),
                          np.cos(theta)])
    at_z = Atoms(["C", "C"], [[0, 0, 0], [0, 0, d]],
                 cell=Cell.cubic(20, pbc=False))
    at_r = Atoms(["C", "C"], [np.zeros(3), d * direction],
                 cell=Cell.cubic(20, pbc=False))
    e_z = TBCalculator(XuCarbon()).get_potential_energy(at_z)
    e_r = TBCalculator(XuCarbon()).get_potential_energy(at_r)
    assert e_r == pytest.approx(e_z, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(d=st.floats(0.8, 2.5))
def test_property_ch_dimer_hermitian_spectrum(d):
    """Heteronuclear s/sp blocks must still give a real spectrum and an
    orientation-independent energy."""
    at = Atoms(["C", "H"], [[0, 0, 0], [0, 0, d]], cell=Cell.cubic(18, pbc=False))
    res = TBCalculator(HarrisonModel(), kT=0.1).compute(at, forces=False)
    assert np.all(np.isfinite(res["eigenvalues"]))
    at2 = Atoms(["C", "H"], [[0, 0, 0], [d, 0, 0]], cell=Cell.cubic(18, pbc=False))
    e2 = TBCalculator(HarrisonModel(), kT=0.1).get_potential_energy(at2)
    assert e2 == pytest.approx(res["energy"], abs=1e-9)


# ---------------------------------------------------------------- SW invariance
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), angle=st.floats(0.1, 3.0))
def test_property_sw_rotation_invariance(seed, angle):
    from repro.geometry import random_cluster

    at = random_cluster(8, symbol="Si", min_dist=2.2, seed=seed)
    e0 = StillingerWeber().get_potential_energy(at)
    rot = at.copy()
    rot.rotate([0.3, -0.5, 0.81], angle)
    e1 = StillingerWeber().get_potential_energy(rot)
    assert e1 == pytest.approx(e0, abs=1e-9)


# ---------------------------------------------------------------- purification
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), n_occ=st.integers(2, 8), gap=st.floats(0.5, 3.0))
def test_property_purification_projector(seed, n_occ, gap):
    """Random gapped spectra purify to the exact occupied projector."""
    rng = np.random.default_rng(seed)
    n = 16
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eps = np.sort(rng.uniform(-5, 0, size=n))
    eps[n_occ:] += gap + (0.0 - eps[n_occ:].min())   # open a clean gap
    H = (q * eps) @ q.T
    res = purify_density_matrix(H, 2.0 * n_occ)
    proj = q[:, :n_occ] @ q[:, :n_occ].T
    np.testing.assert_allclose(res.rho, proj, atol=1e-7)
    # idempotent, correct trace
    np.testing.assert_allclose(res.rho @ res.rho, res.rho, atol=1e-7)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), kt=st.floats(0.1, 0.6))
def test_property_foe_trace_and_bounds(seed, kt):
    rng = np.random.default_rng(seed)
    n = 14
    a = rng.normal(size=(n, n))
    H = 0.5 * (a + a.T) * 2.0
    nelec = 2.0 * (n // 2)
    res = solve_density_regions(H, [all_core_region(n)], nelec, kt, order=150)
    assert res.n_electrons == pytest.approx(nelec, abs=1e-4)
    evals = np.linalg.eigvalsh(res.rho.toarray())
    assert evals.min() > -0.05 and evals.max() < 2.05


# ---------------------------------------------------------------- misc invariants
@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 200), p=st.integers(1, 32))
def test_property_partitions_cover_disjointly(n, p):
    parts = block_partition(n, p)
    assert len(parts) == p
    combined = np.concatenate(parts) if parts else np.array([])
    assert len(combined) == n
    assert len(np.unique(combined)) == n


@settings(max_examples=30, deadline=None)
@given(r_on=st.floats(1.0, 5.0), width=st.floats(0.1, 3.0),
       x=st.floats(0.0, 10.0))
def test_property_quintic_switch_bounded_monotone(r_on, width, x):
    r_off = r_on + width
    s, ds = quintic_switch(np.array([x]), r_on, r_off)
    assert 0.0 <= s[0] <= 1.0
    assert ds[0] <= 1e-12      # never increasing


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_property_calculator_force_translation_equivariance(seed):
    """F(x + c) = F(x): forces see only relative geometry."""
    at = rattle(bulk_silicon(), 0.07, seed=seed)
    f0 = TBCalculator(GSPSilicon()).get_forces(at)
    moved = at.copy()
    moved.translate([0.37, -1.2, 2.05])
    f1 = TBCalculator(GSPSilicon()).get_forces(moved)
    np.testing.assert_allclose(f1, f0, atol=1e-9)


# ------------------------------------------------- k-space symmetry wedges
@settings(max_examples=8, deadline=None)
@given(
    e1=st.floats(-0.03, 0.03), e2=st.floats(-0.03, 0.03),
    e3=st.floats(-0.03, 0.03), shear=st.floats(-0.02, 0.02),
    size=st.sampled_from([2, 3, (2, 2, 1)]),
)
def test_property_wedge_matches_full_grid(e1, e2, e3, shear, size):
    """For random homogeneous strains of diamond Si (random residual
    symmetry: cubic → tetragonal → orthorhombic → monoclinic), band
    energy and symmetrised forces/virial from the irreducible wedge
    equal the full Monkhorst–Pack grid to round-off."""
    from repro.geometry.transform import strain

    eps = np.array([[e1, shear, 0.0], [shear, e2, 0.0], [0.0, 0.0, e3]])
    # strains below the symmetry detector's contract (~1e-6 breaks an
    # op; see lattice_point_group) are indistinguishable from zero to
    # the wedge but leave round-off asymmetry ~2e-10 in the full-grid
    # virial — snap them to exactly zero so both paths agree on the
    # residual symmetry group
    eps[np.abs(eps) < 1e-6] = 0.0
    at = strain(bulk_silicon(), eps)
    full = TBCalculator(GSPSilicon(), kpts=size, kT=0.1,
                        kgrid_reduce="full").compute(at, forces=True)
    sym = TBCalculator(GSPSilicon(), kpts=size, kT=0.1,
                       kgrid_reduce="symmetry").compute(at, forces=True)
    assert sym["n_kpoints"] <= full["n_kpoints"]
    # abs alone is too strict on the ~1e2 eV total: the wedge sums a
    # different (equivalent) k-set, and summation-order round-off is
    # relative to the magnitude
    assert sym["band_energy"] == pytest.approx(full["band_energy"],
                                               abs=1e-10, rel=1e-11)
    assert sym["fermi_level"] == pytest.approx(full["fermi_level"],
                                               abs=1e-10)
    np.testing.assert_allclose(sym["forces"], full["forces"], atol=1e-10)
    np.testing.assert_allclose(sym["virial"], full["virial"], atol=1e-10)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), op_index=st.integers(0, 47))
def test_property_point_group_rotation_permutes_forces(seed, op_index):
    """Applying a lattice point-group rotation to an *arbitrary* basis
    rotates the forces exactly: F(r @ rt) = F(r) @ rt.  This pins the
    Cartesian rotation convention the force scattering relies on."""
    from repro.tb.symmetry import SymmetryOp, lattice_point_group

    at = rattle(bulk_silicon(), 0.06, seed=seed)
    ws = lattice_point_group(at.cell)
    assert len(ws) == 48                      # cubic cell: full O_h
    op = SymmetryOp(ws[op_index % len(ws)], np.zeros(3), None)
    rt = op.cartesian_rotation(at.cell)
    np.testing.assert_allclose(rt @ rt.T, np.eye(3), atol=1e-12)

    rotated = at.copy()
    rotated.positions = at.positions @ rt
    rotated.wrap()
    f0 = TBCalculator(GSPSilicon(), kT=0.1).get_forces(at)
    f1 = TBCalculator(GSPSilicon(), kT=0.1).get_forces(rotated)
    np.testing.assert_allclose(f1, f0 @ rt, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(3.0, 7.0), boc=st.floats(0.6, 1.7), coa=st.floats(0.6, 1.7),
    gamma=st.floats(60.0, 120.0),
    n1=st.integers(1, 4), n2=st.integers(1, 4), n3=st.integers(1, 4),
)
def test_property_wedge_weights_sum_to_one(a, boc, coa, gamma, n1, n2, n3):
    """Σw over the wedge stays 1 to 1e-12 for random (including
    monoclinic) lattices and anisotropic grids, every representative is
    a member of the original grid, and folding never grows the grid."""
    from repro.geometry import Cell
    from repro.tb.kpoints import monkhorst_pack
    from repro.tb.symmetry import irreducible_kpoints

    g = np.radians(gamma)
    cell = Cell(np.array([[a, 0.0, 0.0],
                          [a * boc * np.cos(g), a * boc * np.sin(g), 0.0],
                          [0.0, 0.0, a * coa]]))
    grid = irreducible_kpoints((n1, n2, n3), cell=cell)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (grid.weights > 0).all()
    full, _ = monkhorst_pack((n1, n2, n3), reduce_time_reversal=False)
    assert grid.n_full == len(full)
    assert 1 <= len(grid) <= len(full)
    keys = {tuple(np.round(k, 9)) for k in full}
    for k in grid.kpts_frac:
        assert tuple(np.round(k, 9)) in keys
