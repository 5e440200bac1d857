"""Linear-scaling subsystem: sparse H, regions, FOE-in-regions, calculator.

The validation ladder mirrors the subsystem's own error budget:

1. sparse assembly is *exact* (bit-level vs the dense builder);
2. with regions covering the whole folded cell, FOE-in-regions equals the
   exactly smeared diagonalisation (only Chebyshev truncation remains);
3. at finite ``r_loc`` the error decays as the region grows — the
   O(N) approximation proper;
4. the calculator is a drop-in for :class:`TBCalculator` (MD conserves
   energy, relaxers and the CLI run unchanged).
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
import scipy.sparse as sp

from repro.calculators import make_calculator
from repro.errors import ElectronicError, ModelError, ReproError
from repro.geometry import Cell, bulk_silicon, rattle, supercell
from repro.geometry.defects import make_vacancy
from repro.linscale import (
    DensityMatrixCalculator,
    LinearScalingCalculator,
    extract_regions,
    region_statistics,
    solve_density_regions,
    sparse_band_forces,
)
from repro.tb.purification import lanczos_spectral_bounds
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon, HarrisonModel, TBCalculator
from repro.tb.bonds import orbital_offsets
from repro.tb.forces import density_matrices
from repro.tb.hamiltonian import build_hamiltonian

from tests.golden.regen_tb_eval_parity import ch_cluster
from tests.helpers import assert_forces_match

KT = 0.2


# ---------------------------------------------------------------------------
# sparse Hamiltonian assembly
# ---------------------------------------------------------------------------

def test_sparse_hamiltonian_equals_dense(si8_rattled, gsp):
    nl = neighbor_list(si8_rattled, gsp.cutoff)
    H, _ = build_hamiltonian(si8_rattled, gsp, nl)
    Hs, Ss = build_hamiltonian(si8_rattled, gsp, nl, sparse=True)
    assert Ss is None
    assert sp.issparse(Hs)
    # equal up to the summation order of periodic-image duplicates
    np.testing.assert_allclose(Hs.toarray(), H, rtol=0, atol=1e-14)


def test_sparse_hamiltonian_carbon(graphene22, xu):
    nl = neighbor_list(graphene22, xu.cutoff)
    H, _ = build_hamiltonian(graphene22, xu, nl)
    Hs, _ = build_hamiltonian(graphene22, xu, nl, sparse=True)
    np.testing.assert_allclose(Hs.toarray(), H, rtol=0, atol=1e-14)


def test_sparse_hamiltonian_with_overlap(si8_rattled, nonortho):
    nl = neighbor_list(si8_rattled, nonortho.cutoff)
    H, S = build_hamiltonian(si8_rattled, nonortho, nl)
    Hs, Ss = build_hamiltonian(si8_rattled, nonortho, nl, sparse=True)
    np.testing.assert_allclose(Hs.toarray(), H, rtol=0, atol=1e-14)
    np.testing.assert_allclose(Ss.toarray(), S, rtol=0, atol=1e-14)


def test_dense_builder_sparse_flag(si64, gsp):
    nl = neighbor_list(si64, gsp.cutoff)
    H, _ = build_hamiltonian(si64, gsp, nl)
    Hs, _ = build_hamiltonian(si64, gsp, nl, sparse=True)
    np.testing.assert_allclose(Hs.toarray(), H, rtol=0, atol=1e-14)
    # a 64-atom supercell Hamiltonian is already mostly zeros
    assert Hs.nnz / Hs.shape[0] ** 2 < 0.35


def test_lanczos_bounds_bracket_spectrum(si8_rattled, gsp):
    nl = neighbor_list(si8_rattled, gsp.cutoff)
    Hs, _ = build_hamiltonian(si8_rattled, gsp, nl, sparse=True)
    w = np.linalg.eigvalsh(Hs.toarray())
    lo, hi = lanczos_spectral_bounds(Hs)
    assert lo <= w.min() and hi >= w.max()
    # and far tighter than Gershgorin on sp-bonded silicon
    assert (hi - lo) < 1.5 * (w.max() - w.min())


# ---------------------------------------------------------------------------
# localization regions
# ---------------------------------------------------------------------------

def test_regions_cover_all_cores_once(si64, gsp):
    regions = extract_regions(si64, gsp, r_loc=5.0)
    assert len(regions) == len(si64)
    n_core = sum(len(r.core_local) for r in regions)
    assert n_core == 4 * len(si64)
    for r in regions:
        assert r.center in r.atoms
        assert r.n_orbitals == 4 * r.n_atoms
        # the core's orbitals point at the core atom's global block
        np.testing.assert_array_equal(
            r.orbitals[r.core_local], 4 * r.center + np.arange(4))
    stats = region_statistics(regions)
    assert stats["n_regions"] == 64
    assert stats["atoms_max"] <= 64


def test_regions_grow_with_r_loc(si64, gsp):
    small = extract_regions(si64, gsp, r_loc=4.5)
    large = extract_regions(si64, gsp, r_loc=6.5)
    assert all(s.n_atoms <= l.n_atoms for s, l in zip(small, large))
    assert sum(l.n_atoms for l in large) > sum(s.n_atoms for s in small)


def test_regions_reject_r_loc_below_cutoff(si64, gsp):
    with pytest.raises(ElectronicError, match="model cutoff"):
        extract_regions(si64, gsp, r_loc=0.5 * gsp.cutoff)


def loop_regions(atoms, model, r_loc):
    """The regions as the per-atom loop built them before
    :func:`extract_regions` became array operations."""
    offsets, _ = orbital_offsets(atoms.symbols, model)
    norb = np.array([model.norb(s) for s in atoms.symbols], dtype=int)
    nbrs = neighbor_list(atoms, r_loc).neighbors_by_atom()
    out = []
    for a in range(len(atoms)):
        members = np.union1d(nbrs[a], [a])
        orbitals = np.concatenate(
            [offsets[t] + np.arange(norb[t]) for t in members])
        starts = np.concatenate(([0], np.cumsum(norb[members])))
        pos = int(np.searchsorted(members, a))
        out.append((a, members, orbitals,
                    np.arange(starts[pos], starts[pos + 1])))
    return out


def si_slab():
    """Rattled 2×2×2 Si with 8 Å of vacuum along z: periodic in x, y."""
    atoms = rattle(supercell(bulk_silicon(), 2), 0.03, seed=5)
    h = atoms.cell.matrix.copy()
    h[2, 2] += 8.0
    atoms.cell = Cell(h, pbc=(True, True, False))
    return atoms


REGION_CASES = {
    "si64": (lambda: supercell(bulk_silicon(), 2), GSPSilicon),
    "si64-rattled": (lambda: rattle(supercell(bulk_silicon(), 2), 0.05,
                                    seed=4), GSPSilicon),
    "si512": (lambda: supercell(bulk_silicon(), 4), GSPSilicon),
    "si512-rattled": (lambda: rattle(supercell(bulk_silicon(), 4), 0.03,
                                     seed=12), GSPSilicon),
    "si64-vacancy": (lambda: make_vacancy(supercell(bulk_silicon(), 2), 17),
                     GSPSilicon),
    "si64-slab": (si_slab, GSPSilicon),
    "ch-cluster": (ch_cluster, HarrisonModel),
}


@pytest.mark.parametrize("case", list(REGION_CASES))
def test_regions_equal_the_per_atom_loop(case):
    """Array-built regions hold the same atoms, orbitals and core
    positions, dtypes included, as the per-atom loop — s-only hydrogen
    beside sp³ carbon, open boundaries and a vacancy included."""
    make_atoms, make_model = REGION_CASES[case]
    atoms, model = make_atoms(), make_model()
    r_loc = 1.5 * model.cutoff
    got = extract_regions(atoms, model, r_loc)
    want = loop_regions(atoms, model, r_loc)
    assert len(got) == len(want) == len(atoms)
    for r, (center, members, orbitals, core_local) in zip(got, want):
        assert r.center == center
        for name, ref in (("atoms", members), ("orbitals", orbitals),
                          ("core_local", core_local)):
            value = getattr(r, name)
            assert value.dtype == ref.dtype, name
            np.testing.assert_array_equal(value, ref, err_msg=name)


# ---------------------------------------------------------------------------
# FOE in regions vs exact smeared diagonalisation
# ---------------------------------------------------------------------------

def test_full_coverage_matches_exact_diagonalisation(si8_rattled, gsp):
    """Regions spanning the folded cell leave only Chebyshev truncation."""
    ref = TBCalculator(GSPSilicon(), kT=KT).compute(si8_rattled)
    calc = LinearScalingCalculator(GSPSilicon(), kT=KT, r_loc=6.0, order=250)
    res = calc.compute(si8_rattled)
    n = len(si8_rattled)
    assert abs(res["energy"] - ref["energy"]) / n < 1e-6
    assert_forces_match(res["forces"], ref["forces"], atol=1e-6)
    assert abs(res["entropy"] - ref["entropy"]) < 1e-8
    assert abs(res["free_energy"] - ref["free_energy"]) / n < 1e-6
    assert abs(res["n_electrons"] - 32.0) < 1e-8


def test_error_decays_with_r_loc_and_order(si64, gsp):
    """The O(N) approximation converges to LAPACK on a gapped Si supercell.

    At full folded coverage (r_loc beyond the maximal minimum-image
    distance) the acceptance thresholds — 1 meV/atom, 1e-3 eV/Å — are met
    with two orders of magnitude to spare.
    """
    atoms = rattle(si64, 0.05, seed=4)
    ref = TBCalculator(GSPSilicon(), kT=KT).compute(atoms)
    n = len(atoms)

    errs_e, errs_f = [], []
    for r_loc, order in [(4.2, 150), (6.5, 200), (9.5, 300)]:
        res = LinearScalingCalculator(GSPSilicon(), kT=KT, r_loc=r_loc,
                                      order=order).compute(atoms)
        errs_e.append(abs(res["energy"] - ref["energy"]) / n)
        errs_f.append(np.abs(res["forces"] - ref["forces"]).max())

    assert errs_e[0] > errs_e[1] > errs_e[2]
    assert errs_f[2] < errs_f[0]
    # acceptance: 1 meV/atom and 1e-3 eV/Å at converged settings
    assert errs_e[2] < 1e-3
    assert errs_f[2] < 1e-3


def test_mulliken_populations_and_charges(si64, gsp):
    atoms = rattle(si64, 0.05, seed=9)
    res = LinearScalingCalculator(GSPSilicon(), kT=KT, r_loc=5.0,
                                  order=120).compute(atoms, forces=False)
    # μ conservation is enforced exactly through the moment bisection
    assert abs(res["populations"].sum() - 4.0 * len(atoms)) < 1e-6
    assert abs(res["charges"].sum()) < 1e-6
    # gapped bulk silicon stays nearly neutral atom by atom
    assert np.abs(res["charges"]).max() < 0.2


def test_density_rows_match_exact_density_matrix(si8_rattled, gsp):
    """Full-coverage ρ̂ equals the exact smeared density matrix on H's
    sparsity pattern, where ρ̂ lives."""
    nl = neighbor_list(si8_rattled, gsp.cutoff)
    Hs, _ = build_hamiltonian(si8_rattled, gsp, nl, sparse=True)
    regions = extract_regions(si8_rattled, gsp, r_loc=6.0)
    foe = solve_density_regions(Hs, regions, n_electrons=32.0, kT=KT,
                                order=250)
    ref = TBCalculator(GSPSilicon(), kT=KT).compute(si8_rattled)
    H, _ = build_hamiltonian(si8_rattled, gsp, nl)
    eps, C = np.linalg.eigh(H)
    from repro.tb.occupations import fermi_function

    f = fermi_function(eps, ref["fermi_level"], KT)
    rho_exact, _ = density_matrices(C, f)
    rho = foe.rho.tocoo()
    assert np.array_equal(foe.rho.indices, Hs.indices)
    assert np.array_equal(foe.rho.indptr, Hs.indptr)
    assert np.abs(rho.data - rho_exact[rho.row, rho.col]).max() < 1e-6


def test_sparse_band_forces_match_dense_contraction(si8_rattled, gsp):
    """One bond loop: an ndarray ρ and its bond blocks give the same
    bits, at Γ and at finite k — only the block gather differs."""
    from repro.linscale import sparse_band_forces_k
    from repro.tb.bonds import bond_table
    from repro.tb.forces import band_forces
    from repro.tb.occupations import fermi_function

    nl = bond_table(si8_rattled, gsp, neighbor_list(si8_rattled, gsp.cutoff))
    ref = TBCalculator(GSPSilicon(), kT=KT).compute(si8_rattled)
    for k in (None, np.array([0.21, -0.13, 0.08])):
        H, _ = build_hamiltonian(si8_rattled, gsp, nl, k_cart=k)
        eps, C = np.linalg.eigh(H)
        rho, _ = density_matrices(C, fermi_function(eps, ref["fermi_level"],
                                                    KT))
        bonds = [np.take(rho, index) for index in nl.pattern.gather_index]
        fd, vd = band_forces(si8_rattled, gsp, nl, rho, k_cart=k)
        sparse = [sparse_band_forces_k(
            si8_rattled, gsp, nl, [bonds], [1.0],
            [np.zeros(3) if k is None else k])]
        if k is None:
            sparse.append(sparse_band_forces(si8_rattled, gsp, nl, bonds))
        for fs, vs in sparse:
            assert np.array_equal(fs, fd) and np.array_equal(vs, vd)
        assert np.abs(fd).max() > 0.1


# ---------------------------------------------------------------------------
# calculator API compatibility
# ---------------------------------------------------------------------------

def test_calculator_rejects_bad_configs(gsp, nonortho):
    with pytest.raises(ElectronicError):
        LinearScalingCalculator(gsp, kT=0.0)
    with pytest.raises(ElectronicError):
        LinearScalingCalculator(gsp, kT=KT, r_loc=1.0)
    with pytest.raises(ElectronicError):
        LinearScalingCalculator(nonortho, kT=KT)
    with pytest.raises(ElectronicError):
        DensityMatrixCalculator(nonortho)
    with pytest.raises(ReproError, match="zero-temperature"):
        make_calculator({"solver": "purification", "kT": 0.3})
    for calc in (LinearScalingCalculator(gsp, kT=KT),
                 DensityMatrixCalculator(gsp),
                 make_calculator({"solver": "foe", "kT": KT})):
        with pytest.raises(ModelError):
            calc.get_eigenvalues(None)


def test_calculator_caches_results(si8_rattled, gsp):
    calc = LinearScalingCalculator(gsp, kT=KT, r_loc=6.0, order=80)
    e1 = calc.get_potential_energy(si8_rattled)
    key = calc._cache_key
    e2 = calc.get_potential_energy(si8_rattled)
    assert e1 == e2 and calc._cache_key is key
    calc.invalidate()
    assert calc._cache_key is None


def test_md_conserves_energy_with_linscale(gsp):
    """NVE on gapped Si with the O(N) calculator: tight drift."""
    from repro.md import (
        MDDriver, ThermoLog, VelocityVerlet, maxwell_boltzmann_velocities,
    )

    atoms = rattle(bulk_silicon(), 0.02, seed=7)
    calc = LinearScalingCalculator(GSPSilicon(), kT=KT, r_loc=6.0, order=200)
    maxwell_boltzmann_velocities(atoms, 300.0, seed=11)
    log = ThermoLog()
    MDDriver(atoms, calc, VelocityVerlet(dt=1.0), observers=[log]).run(25)
    assert log.conserved_drift() < 1e-4


def test_relaxer_runs_with_linscale(gsp):
    from repro.relax import fire_relax

    atoms = rattle(bulk_silicon(), 0.05, seed=3)
    calc = LinearScalingCalculator(GSPSilicon(), kT=KT, r_loc=6.0, order=150)
    res = fire_relax(atoms, calc, fmax=0.15, max_steps=60)
    assert res.fmax < 0.15


def test_density_matrix_calculator_purification(si8_rattled, gsp):
    ref = TBCalculator(GSPSilicon()).compute(si8_rattled)
    res = DensityMatrixCalculator(GSPSilicon()).compute(si8_rattled)
    assert abs(res["energy"] - ref["energy"]) < 1e-6
    assert_forces_match(res["forces"], ref["forces"], atol=1e-5)
    assert "stress" in res


def test_density_matrix_calculator_foe(si8_rattled, gsp):
    ref = TBCalculator(GSPSilicon(), kT=KT).compute(si8_rattled)
    res = make_calculator({"solver": "foe", "kT": KT,
                           "order": 300}).compute(si8_rattled)
    assert abs(res["energy"] - ref["energy"]) < 1e-5
    assert_forces_match(res["forces"], ref["forces"], atol=1e-5)


@pytest.mark.parametrize("kgrid", [None, 2], ids=["gamma", "symmetry"])
def test_foe_reports_no_per_atom_arrays(kgrid):
    """One all-core region has one population — the electron count — so
    foe reports no populations or charges (rather than that number
    broadcast over the atoms), no region sizes and no ``r_loc``, and it
    keeps no ``r_loc`` Verlet list; on the symmetry wedge too."""
    spec = {"solver": "foe", "kT": KT, "order": 120}
    atoms = rattle(bulk_silicon(), 0.03, seed=1)
    if kgrid:
        spec.update(kgrid=kgrid, kgrid_reduce="symmetry")
        atoms = bulk_silicon()        # the first move lowers the group
    calc = make_calculator(spec)
    for _ in range(3):
        res = calc.compute(atoms)
        assert res["n_regions"] == 1
        assert not {"populations", "charges", "region_stats",
                    "r_loc"} & res.keys()
        atoms.positions[0] += 0.01
    assert calc.state_report()["foe"]["fused"] >= 1     # the warm path ran
    with pytest.raises(ModelError, match="per-atom"):
        calc.get_charges(atoms)
    assert calc.state_report()["neighbors_loc"]["builds"] == 0
    assert "r_loc" not in repr(calc)


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

def _write_si8(tmp_path):
    from repro.geometry import write_xyz

    p = tmp_path / "si8.xyz"
    write_xyz(str(p), rattle(bulk_silicon(), 0.03, seed=1))
    return p


def test_cli_energy_linscale(tmp_path, capsys):
    from repro.cli import main

    p = _write_si8(tmp_path)
    assert main(["energy", str(p), "--solver", "linscale", "--kt", "0.2",
                 "--r-loc", "6.0", "--order", "150"]) == 0
    out = capsys.readouterr().out
    assert "O(N) regions" in out and "energy" in out


def test_cli_energy_purification_and_foe(tmp_path, capsys, caplog):
    from repro.cli import main

    p = _write_si8(tmp_path)
    assert main(["energy", str(p), "--solver", "purification"]) == 0
    # kT defaulted with a logged note (never stdout) when the FOE
    # solvers get kT = 0
    assert "regions" not in capsys.readouterr().out
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert main(["energy", str(p), "--solver", "foe"]) == 0
    assert "kT = 0.1" in caplog.text
    out = capsys.readouterr().out
    assert "kT = 0.1" not in out
    # one all-core region: no per-atom region line, no r_loc
    assert "regions" not in out and "r_loc" not in out


def test_cli_md_linscale(tmp_path, capsys):
    from repro.cli import main

    p = _write_si8(tmp_path)
    assert main(["md", str(p), "--solver", "linscale", "--kt", "0.2",
                 "--r-loc", "6.0", "--order", "120", "--steps", "5",
                 "--temperature", "100"]) == 0
    assert "drift" in capsys.readouterr().out


def test_cli_solver_rejected_for_classical(tmp_path):
    from repro.cli import main

    p = _write_si8(tmp_path)
    assert main(["energy", str(p), "--model", "sw-si",
                 "--solver", "linscale"]) == 1
