"""k-point-parallel FOE engine: builders, solves, forces, CLI plumbing.

The acceptance contract of the k subsystem: k-FOE forces on a small
metal cell match dense k-diagonalisation, the k-aware sparse builder is
bit-comparable to the dense Bloch assembly, time-reversal folding is
exact, and the MD fast path (pattern cache, per-k windows, warm common
μ, fused solve) keeps working per k.
"""

import numpy as np
import pytest

from repro.calculators import make_calculator, parse_kgrid
from repro.errors import ElectronicError, ReproError
from repro.geometry import beta_tin_silicon, rattle, supercell
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon, TBCalculator
from repro.tb.bonds import BondPattern, bond_table
from repro.tb.chebyshev import (
    solve_mu_from_moments,
    solve_mu_from_moments_multi,
)
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.kpoints import frac_to_cartesian, monkhorst_pack
from repro.linscale import (
    LinearScalingCalculator,
    extract_regions,
    solve_density_regions,
    solve_density_regions_k,
    sparse_band_forces_k,
    SparseHamiltonianBuilder,
)
from repro.linscale.foe_local import RegionIndex

from tests.helpers import assert_forces_match, fd_forces


@pytest.fixture()
def si_metal8():
    """8-atom β-tin silicon — the canonical small-cell *metal* (fresh
    copy per test)."""
    return rattle(supercell(beta_tin_silicon(), (1, 1, 2)), 0.04, seed=11)


# ------------------------------------------------------------------ builders
def test_builder_build_k_matches_dense(si8_rattled, gsp):
    nl = neighbor_list(si8_rattled, gsp.cutoff)
    kf, _ = monkhorst_pack(3)
    kc = frac_to_cartesian(kf, si8_rattled.cell)
    builder = SparseHamiltonianBuilder(gsp)
    H_k = builder.build_k(si8_rattled, nl, kc)
    assert len(H_k) == len(kc)
    for Hs, k in zip(H_k, kc):
        Hd, _ = build_hamiltonian(si8_rattled, gsp, nl, k_cart=k)
        assert np.abs(Hs.toarray() - Hd).max() < 1e-12
        assert np.abs(Hd - Hd.conj().T).max() == 0.0    # Hermitian


def test_builder_build_k_pattern_reuse_after_move(si8_rattled, gsp):
    """A second build_k off the cached pattern (new values only) stays
    numerically identical to a cold dense assembly."""
    nl = neighbor_list(si8_rattled, gsp.cutoff)
    kc = frac_to_cartesian(np.array([[0.25, 0.1, -0.3]]), si8_rattled.cell)
    builder = SparseHamiltonianBuilder(gsp)
    pattern = BondPattern(si8_rattled.symbols, gsp, nl)
    builder.build_k(si8_rattled, bond_table(si8_rattled, gsp, nl, pattern),
                    kc)
    si8_rattled.positions[2] += 0.03
    nl2 = neighbor_list(si8_rattled, gsp.cutoff)
    # the move kept the bond pattern → new values, not a rebuild
    assert pattern.matches(si8_rattled.symbols, nl2)
    H2 = builder.build_k(si8_rattled,
                         bond_table(si8_rattled, gsp, nl2, pattern), kc)[0]
    Hd, _ = build_hamiltonian(si8_rattled, gsp, nl2, k_cart=kc[0])
    assert np.abs(H2.toarray() - Hd).max() < 1e-12


def test_sparse_hamiltonian_k_function_and_dense_flag(si8_rattled, gsp):
    nl = neighbor_list(si8_rattled, gsp.cutoff)
    k = frac_to_cartesian(np.array([[0.5, 0.25, 0.0]]),
                          si8_rattled.cell)[0]
    Hd, _ = build_hamiltonian(si8_rattled, gsp, nl, k_cart=k)
    Hs = SparseHamiltonianBuilder(gsp).build_k(si8_rattled, nl, k)[0]
    assert np.abs(Hs.toarray() - Hd).max() < 1e-12
    Hs2, _ = build_hamiltonian(si8_rattled, gsp, nl, sparse=True, k_cart=k)
    assert np.abs(Hs2.toarray() - Hd).max() < 1e-12


# ------------------------------------------------------------------ μ solver
def test_multi_window_mu_reduces_to_single_window():
    rng = np.random.default_rng(5)
    moments = rng.normal(size=41)
    moments[0] = 40.0
    mu1 = solve_mu_from_moments(moments, 0.1, 8.0, 0.2, 30.0,
                                bracket=(-10.0, 10.0))
    mu2 = solve_mu_from_moments_multi(moments[None, :], [(0.1, 8.0)], 0.2,
                                      30.0, bracket=(-10.0, 10.0))
    assert mu1 == mu2


def test_multi_window_mu_validation():
    m = np.ones((2, 11))
    with pytest.raises(ElectronicError):
        solve_mu_from_moments_multi(m, [(0.0, 1.0)], 0.1, 2.0,
                                    bracket=(-5, 5))
    with pytest.raises(ElectronicError):
        solve_mu_from_moments_multi(m, [(0.0, 1.0)] * 2, 0.1, 2.0,
                                    bracket=(-5, 5), weights=np.ones(3))


@pytest.mark.parametrize("kT", [0.0, -0.1])
def test_mu_solvers_reject_nonpositive_kT(kT):
    """kT ≤ 0 is a typed error, not a NaN Newton step (kT = 0) or a
    misleading bracket error (kT < 0, where the count falls with μ)."""
    moments = np.zeros(41)
    moments[0] = 40.0
    with pytest.raises(ElectronicError, match="kT > 0"):
        solve_mu_from_moments_multi(moments[None, :], [(0.1, 8.0)], kT,
                                    30.0, bracket=(-10.0, 10.0))
    with pytest.raises(ElectronicError, match="kT > 0"):
        solve_mu_from_moments(moments, 0.1, 8.0, kT, 30.0,
                              bracket=(-10.0, 10.0))


# ------------------------------------------------------------------ solves
def test_k_solve_at_gamma_matches_gamma_engine(si8_rattled, gsp):
    """The k engine fed only Γ (weight 1) must reproduce the Γ engine —
    same moments, same μ, same ρ, same everything."""
    nl = neighbor_list(si8_rattled, gsp.cutoff)
    nl_loc = neighbor_list(si8_rattled, 6.0)
    H, _ = build_hamiltonian(si8_rattled, gsp, nl, sparse=True)
    regions = extract_regions(si8_rattled, gsp, 6.0, nl=nl_loc)
    ref = solve_density_regions(H, regions, 32.0, kT=0.2, order=80)
    res = solve_density_regions_k([H], [1.0], regions, 32.0, kT=0.2,
                                  order=80)
    assert res.mu == pytest.approx(ref.mu, abs=1e-12)
    assert res.band_energy == pytest.approx(ref.band_energy, abs=1e-10)
    assert res.entropy == pytest.approx(ref.entropy, abs=1e-12)
    np.testing.assert_allclose(res.populations, ref.populations, atol=1e-10)
    assert np.abs((res.rho_k[0] - ref.rho).toarray()).max() < 1e-10


@pytest.mark.parametrize("backend", ["eigh", "numpy_batched"])
def test_gamma_calculator_equals_one_point_kgrid(si8_rattled, backend):
    """``kpts=None`` is the one-point k grid on the real dtype: every
    observable agrees with ``kpts=1`` (complex H(k=0), phased force
    path) across a cold step, a fused hit and a forced fused fallback."""
    kw = dict(kT=0.2, r_loc=6.0, order=120, backend=backend)
    gamma = LinearScalingCalculator(GSPSilicon(), **kw)
    onek = LinearScalingCalculator(GSPSilicon(), kpts=1,
                                   kgrid_reduce="full", **kw)
    rng = np.random.default_rng(3)
    # rattle sizes: a thermal step keeps the extrapolated μ inside the
    # Taylor radius; the big one throws it out (fallback density pass)
    for mode, rattle_by in (("two-pass", 0.002), ("fused", 0.08),
                            ("fused+fallback", None)):
        rg = gamma.compute(si8_rattled, forces=True)
        rk = onek.compute(si8_rattled, forces=True)
        assert rg["fastpath"]["mode"] == rk["fastpath"]["mode"] == mode
        assert rk["n_kpoints"] == 1 and "n_kpoints" not in rg
        for key in ("energy", "free_energy", "fermi_level"):
            assert rk[key] == pytest.approx(rg[key], abs=1e-10), key
        for key in ("populations", "forces", "virial"):
            np.testing.assert_allclose(rk[key], rg[key], rtol=0, atol=1e-10,
                                       err_msg=key)
        if rattle_by is not None:
            si8_rattled.positions += rng.normal(0.0, rattle_by, (8, 3))
    gamma.close()
    onek.close()


def test_k_solve_time_reversal_fold_exact(si_metal8, gsp):
    """Folded grid + doubled weights give the same energy, μ and forces
    as the full grid — the satellite exactness contract, on the O(N)
    engine."""
    nl = bond_table(si_metal8, gsp, neighbor_list(si_metal8, gsp.cutoff))
    nl_loc = neighbor_list(si_metal8, 6.0)
    regions = extract_regions(si_metal8, gsp, 6.0, nl=nl_loc)
    builder = SparseHamiltonianBuilder(gsp)
    nelec = gsp.total_electrons(si_metal8.symbols)

    out = {}
    for label, reduce in (("red", True), ("full", False)):
        kf, w = monkhorst_pack(2, reduce_time_reversal=reduce)
        kc = frac_to_cartesian(kf, si_metal8.cell)
        H_k = builder.build_k(si_metal8, nl, kc)
        index = RegionIndex(H_k[0], regions, pattern=nl.pattern)
        res = solve_density_regions_k(H_k, w, regions, nelec, kT=0.25,
                                      order=80, index=index)
        fb, _ = sparse_band_forces_k(si_metal8, gsp, nl, res.bonds_k, w, kc)
        out[label] = (res, fb)
    red, f_red = out["red"]
    full, f_full = out["full"]
    assert red.n_kpoints == 4 and full.n_kpoints == 8
    assert red.band_energy == pytest.approx(full.band_energy, abs=1e-10)
    assert red.mu == pytest.approx(full.mu, abs=1e-10)
    assert_forces_match(f_red, f_full, atol=1e-10)


def test_acceptance_kfoe_forces_match_dense_kdiag(si_metal8):
    """THE acceptance criterion: k-FOE forces on an 8-atom metal cell
    with a 4×4×4 MP grid match dense k-diagonalisation to ≤ 1e-6 eV/Å
    (and energy / μ / entropy to matching tolerances)."""
    kT = 0.2
    ref = TBCalculator(GSPSilicon(), kpts=4, kT=kT).compute(si_metal8,
                                                            forces=True)
    # genuinely metallic: many fractionally occupied states at this kT
    f = ref["occupations"]
    assert np.sum((f > 0.05) & (f < 1.95)) > 20

    lin = LinearScalingCalculator(GSPSilicon(), kT=kT, r_loc=6.0,
                                  order=300, kpts=4)
    res = lin.compute(si_metal8, forces=True)
    assert res["n_kpoints"] == 32                    # 64 TR-reduced
    assert abs(res["energy"] - ref["energy"]) / 8 < 1e-7
    assert abs(res["fermi_level"] - ref["fermi_level"]) < 1e-6
    assert abs(res["entropy"] - ref["entropy"]) < 1e-8
    assert_forces_match(res["forces"], ref["forces"], atol=1e-6)
    np.testing.assert_allclose(res["forces"].sum(axis=0), 0.0, atol=1e-9)
    assert "pressure" in res
    lin.close()


def test_kfoe_fused_fast_path_parity(si_metal8):
    """MD-like steps: the fused per-k fast path (cached pattern, per-k
    windows, warm common μ, μ-Taylor density correction) stays within
    1e-6 eV/Å of the rebuild-everything baseline, and actually runs
    fused."""
    kT = 0.25
    warm = LinearScalingCalculator(GSPSilicon(), kT=kT, r_loc=6.0,
                                   order=250, kpts=2)
    cold = LinearScalingCalculator(GSPSilicon(), kT=kT, r_loc=6.0,
                                   order=250, kpts=2, reuse=False)
    rng = np.random.default_rng(0)
    modes = []
    for _ in range(3):
        rw = warm.compute(si_metal8, forces=True)
        rc = cold.compute(si_metal8, forces=True)
        modes.append(rw["fastpath"]["mode"])
        assert_forces_match(rw["forces"], rc["forces"], atol=1e-6)
        assert abs(rw["energy"] - rc["energy"]) < 1e-6
        si_metal8.positions += 0.01 * rng.normal(size=(8, 3))
    assert modes[0] == "two-pass"
    assert any(m.startswith("fused") for m in modes[1:])
    rep = warm.state_report()
    assert rep["hamiltonian"]["pattern_builds"] == 1
    assert rep["hamiltonian"]["value_updates"] >= 1
    assert rep["foe"]["fused"] + rep["foe"]["fallback"] >= 1
    warm.close()
    cold.close()


def test_kfoe_cache_hit_and_invalidation(si_metal8):
    lin = LinearScalingCalculator(GSPSilicon(), kT=0.25, r_loc=6.0,
                                  order=100, kpts=2)
    e0 = lin.get_potential_energy(si_metal8)
    assert lin.get_potential_energy(si_metal8) == e0
    assert lin.state_report()["cache_hits"] == 1
    si_metal8.positions[0, 0] += 0.05
    assert lin.get_potential_energy(si_metal8) != e0
    lin.close()


def test_kfoe_window_guard_recovers_after_cell_change(si_metal8):
    """Shrinking the cell shifts every H(k) spectrum; cached per-k
    windows must either absorb it (pad) or be invalidated by the moment
    guard and refreshed — never produce garbage."""
    from repro.geometry.transform import scale_volume

    lin = LinearScalingCalculator(GSPSilicon(), kT=0.25, r_loc=6.0,
                                  order=250, kpts=2)
    lin.compute(si_metal8, forces=True)
    squeezed = scale_volume(si_metal8, 0.85)     # hard compression
    res = lin.compute(squeezed, forces=True)
    ref = LinearScalingCalculator(GSPSilicon(), kT=0.25, r_loc=6.0,
                                  order=250, kpts=2,
                                  reuse=False).compute(squeezed,
                                                       forces=True)
    assert abs(res["energy"] - ref["energy"]) < 1e-5
    assert_forces_match(res["forces"], ref["forces"], atol=1e-5)
    lin.close()


def test_kfoe_requires_periodic_cell(gsp):
    from repro.geometry import Atoms, Cell

    at = Atoms(["Si"], [[0.0, 0.0, 0.0]], cell=Cell.cubic(10, pbc=False))
    lin = LinearScalingCalculator(gsp, kT=0.2, kpts=2)
    with pytest.raises(ElectronicError, match="periodic"):
        lin.compute(at)


def test_kfoe_validation_errors(si8_rattled, gsp):
    nl = neighbor_list(si8_rattled, gsp.cutoff)
    nl_loc = neighbor_list(si8_rattled, 6.0)
    H, _ = build_hamiltonian(si8_rattled, gsp, nl, sparse=True)
    regions = extract_regions(si8_rattled, gsp, 6.0, nl=nl_loc)
    with pytest.raises(ElectronicError):
        solve_density_regions_k([], [], regions, 32.0, kT=0.2)
    with pytest.raises(ElectronicError):
        solve_density_regions_k([H], [0.5, 0.5], regions, 32.0, kT=0.2)
    with pytest.raises(ElectronicError):
        solve_density_regions_k([H], [1.0], regions, 32.0, kT=-0.1)


# ------------------------------------------------------------------ plumbing
def test_parse_kgrid_forms():
    assert parse_kgrid(None) is None
    assert parse_kgrid(3) == (3, 3, 3)
    assert parse_kgrid("4x4x4") == (4, 4, 4)
    assert parse_kgrid("4") == (4, 4, 4)
    assert parse_kgrid("2x3x1") == (2, 3, 1)
    assert parse_kgrid([2, 2, 2]) == (2, 2, 2)
    for bad in ("2x2", "axbxc", [0, 1, 1], "1x2x3x4"):
        with pytest.raises(ReproError):
            parse_kgrid(bad)


def test_make_calculator_kgrid_dispatch():
    calc = make_calculator({"model": "gsp-si", "solver": "diag",
                            "kT": 0.1, "kgrid": "2x2x2"})
    assert isinstance(calc, TBCalculator)
    assert len(calc.kpts_frac) == 4              # TR-reduced
    lin = make_calculator({"model": "gsp-si", "solver": "linscale",
                           "kT": 0.2, "kgrid": 2, "order": 80})
    assert isinstance(lin, LinearScalingCalculator)
    assert len(lin.kpts_frac) == 4
    # foe is the same engine on one all-core region, k grid included
    foe = make_calculator({"model": "gsp-si", "solver": "foe", "kT": 0.2,
                           "kgrid": 2, "order": 80})
    assert isinstance(foe, LinearScalingCalculator)
    assert len(foe.kpts_frac) == 4
    with pytest.raises(ReproError, match="kgrid"):
        make_calculator({"model": "gsp-si", "solver": "purification",
                         "kgrid": 2})
    with pytest.raises(ReproError, match="kgrid"):
        make_calculator({"model": "sw-si", "kgrid": 2})


def test_cli_kgrid_parses():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["energy", "x.xyz", "--solver", "linscale", "--kgrid", "4x4x4"])
    assert args.kgrid == "4x4x4"
    args = build_parser().parse_args(
        ["md", "x.xyz", "--kgrid", "2x2x2", "--steps", "3"])
    assert args.kgrid == "2x2x2"


def test_md_runs_on_kfoe(si_metal8):
    """3 NVE steps on the k-FOE calculator through the standard driver —
    the 'MD, relax and the service all get the new path' contract."""
    from repro.md import MDDriver, VelocityVerlet, maxwell_boltzmann_velocities

    calc = LinearScalingCalculator(GSPSilicon(), kT=0.25, r_loc=6.0,
                                   order=100, kpts=2)
    maxwell_boltzmann_velocities(si_metal8, 300.0, seed=1)
    md = MDDriver(si_metal8, calc, VelocityVerlet(dt=1.0))
    md.run(3)
    rep = calc.state_report()
    assert rep["hamiltonian"]["pattern_builds"] == 1   # pattern cached
    assert rep["foe"]["fused"] + rep["foe"]["fallback"] >= 1
    calc.close()


def test_relax_lowers_energy_kdiag(si_metal8):
    """Relaxation drives the k-sampled diag calculator (forces at k)."""
    from repro.relax import steepest_descent

    calc = TBCalculator(GSPSilicon(), kpts=2, kT=0.2)
    e0 = calc.get_potential_energy(si_metal8)
    res = steepest_descent(si_metal8, calc, fmax=0.05, max_steps=5)
    assert res.energy < e0


def test_kdiag_forces_match_finite_differences(si8_rattled):
    """The phase-gradient term of band_forces(k_cart=) against −dF/dx."""
    calc = TBCalculator(GSPSilicon(), kpts=2, kT=0.1)
    f = calc.compute(si8_rattled, forces=True)["forces"]
    fn = fd_forces(si8_rattled,
                   lambda: TBCalculator(GSPSilicon(), kpts=2, kT=0.1),
                   components=[(0, 0), (3, 2)])
    for i, c in ((0, 0), (3, 2)):
        assert f[i, c] == pytest.approx(fn[i, c], abs=5e-6)


def test_kdiag_nonorthogonal_forces_match_finite_differences(si8_rattled):
    from repro.tb import NonOrthogonalSilicon

    calc = TBCalculator(NonOrthogonalSilicon(), kpts=2, kT=0.1)
    f = calc.compute(si8_rattled, forces=True)["forces"]
    fn = fd_forces(
        si8_rattled,
        lambda: TBCalculator(NonOrthogonalSilicon(), kpts=2, kT=0.1),
        components=[(1, 1)])
    assert f[1, 1] == pytest.approx(fn[1, 1], abs=5e-6)


def test_kdiag_pressure_matches_dE_dV(si8_rattled):
    """The virial keeps only the SK gradient (the phase term cancels
    against the reciprocal-vector strain response): P must equal −dF/dV
    at fixed fractional k."""
    from repro.geometry.transform import scale_volume

    calc = TBCalculator(GSPSilicon(), kpts=2, kT=0.1)
    p = calc.compute(si8_rattled, forces=True)["pressure"]
    v0 = si8_rattled.cell.volume
    dv = 1e-5
    ep = TBCalculator(GSPSilicon(), kpts=2, kT=0.1).get_free_energy(
        scale_volume(si8_rattled, 1 + dv))
    em = TBCalculator(GSPSilicon(), kpts=2, kT=0.1).get_free_energy(
        scale_volume(si8_rattled, 1 - dv))
    assert -(ep - em) / (2 * dv * v0) == pytest.approx(p, abs=1e-8)


def test_service_accepts_kgrid_spec(si_metal8):
    """The batch service builds the identical k calculator from the same
    spec dict (shared factory) — in-process client round trip."""
    from repro.service import BatchClient, BatchService

    svc = BatchService(nworkers=1)
    try:
        client = BatchClient(svc)
        client.load("m8", si_metal8,
                    calc={"model": "gsp-si", "solver": "linscale",
                          "kT": 0.25, "order": 80, "kgrid": "2x2x2"})
        out = client.evaluate("m8", forces=True)
        ref = LinearScalingCalculator(GSPSilicon(), kT=0.25, order=80,
                                      kpts=2).compute(si_metal8,
                                                      forces=True)
        assert out["energy"] == pytest.approx(ref["energy"], abs=1e-10)
        np.testing.assert_allclose(np.asarray(out["forces"]),
                                   ref["forces"], atol=1e-10)
    finally:
        svc.close()
