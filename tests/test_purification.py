"""Density-matrix purification vs exact diagonalisation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConvergenceError, ElectronicError
from repro.geometry import bulk_silicon, rattle, supercell
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon, NonOrthogonalSilicon, TBCalculator
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.kpoints import frac_to_cartesian, reduced_kgrid
from repro.linscale import DensityMatrixCalculator
from repro.linscale.sparse_hamiltonian import SparseHamiltonianBuilder
from repro.tb.purification import (
    lanczos_spectral_bounds,
    purify_density_matrix,
    spectral_bounds,
)


def si_hamiltonian(multiplier=1, seed=1):
    at = rattle(supercell(bulk_silicon(), multiplier), 0.04, seed=seed)
    model = GSPSilicon()
    nl = neighbor_list(at, model.cutoff)
    H, _ = build_hamiltonian(at, model, nl)
    return at, model, nl, H


def test_spectral_bounds_contain_spectrum():
    _, _, _, H = si_hamiltonian()
    emin, emax = spectral_bounds(H)
    eps = np.linalg.eigvalsh(H)
    assert emin <= eps.min() and emax >= eps.max()


@pytest.mark.parametrize("grid", ["gamma", "trs", "symmetry"])
@pytest.mark.parametrize("n", [1, 2, 3], ids=["si8", "si64", "si216"])
def test_lanczos_bounds_contain_the_spectrum_of_perfect_crystals(n, grid):
    """The Lanczos window of every H(k) of perfect Si8, Si64 and Si216 —
    at Γ and on the kpts=2 grid, time-reversal folded and as the
    symmetry wedge — contains its dense spectrum.  The constant start
    vector lies in the translation-symmetric sector of a perfect
    crystal, so a Krylov space too small to leave that sector misses the
    band edge (with ``ncv=4``, ARPACK puts λ_max of a Si64 H(k) at
    3.85 eV, against 6.63 eV): this guards the window finder's defaults."""
    atoms = supercell(bulk_silicon(), n)
    model = GSPSilicon()
    nl = neighbor_list(atoms, model.cutoff)
    builder = SparseHamiltonianBuilder(model)
    if grid == "gamma":
        H_k = [builder.build(atoms, nl)]
    else:
        kpts, _, _ = reduced_kgrid(2, grid, atoms)
        H_k = builder.build_k(atoms, nl, frac_to_cartesian(kpts, atoms.cell))
    for H in H_k:
        lo, hi = lanczos_spectral_bounds(H)
        eps = np.linalg.eigvalsh(H.toarray())
        assert lo <= eps[0] and eps[-1] <= hi, (lo, hi, eps[0], eps[-1])


def test_purified_rho_matches_projector():
    _, _, _, H = si_hamiltonian()
    res = purify_density_matrix(H, 32.0)
    eps, C = np.linalg.eigh(H)
    occ = C[:, :16]
    rho_exact = occ @ occ.T
    np.testing.assert_allclose(res.rho, rho_exact, atol=1e-8)
    assert res.idempotency_error < 1e-9
    assert np.trace(res.rho) == pytest.approx(16.0, abs=1e-8)


def test_band_energy_matches_diagonalisation():
    at, model, nl, H = si_hamiltonian(seed=2)
    res = purify_density_matrix(H, 32.0)
    ref = TBCalculator(GSPSilicon()).compute(at)
    assert res.band_energy == pytest.approx(ref["band_energy"], abs=1e-8)


def test_forces_match_diagonalisation():
    at, model, _, _ = si_hamiltonian(seed=3)
    res = DensityMatrixCalculator(model).compute(at)
    ref = TBCalculator(GSPSilicon()).compute(at)
    assert res["energy"] == pytest.approx(ref["energy"], abs=1e-8)
    np.testing.assert_allclose(res["forces"], ref["forces"], atol=1e-8)


def test_sparse_threshold_path():
    _, _, _, H = si_hamiltonian(multiplier=2, seed=4)
    res = purify_density_matrix(sp.csr_matrix(H), 256.0, threshold=1e-8)
    ref = purify_density_matrix(H, 256.0)
    assert res.band_energy == pytest.approx(ref.band_energy, abs=1e-5)
    assert sp.issparse(res.rho)
    assert 0 < res.fill_fraction <= 1.0


def test_monotone_idempotency_convergence():
    _, _, _, H = si_hamiltonian(seed=5)
    res = purify_density_matrix(H, 32.0)
    tail = res.history[2:]
    assert all(b <= a * 1.01 for a, b in zip(tail, tail[1:]))
    assert res.iterations < 40


def test_gapless_filling_raises():
    """A filling boundary cutting through an exact degeneracy has no
    idempotent projector — expect a loud ConvergenceError."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    # Fermi level inside the 0,0 doublet: 8 electrons fill 4 of 10 levels,
    # but levels 4 and 5 are exactly degenerate
    d = np.array([-4.0, -3.0, -2.0, -1.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    H = (q * d) @ q.T
    with pytest.raises(ConvergenceError):
        purify_density_matrix(H, 10.0, tol=1e-12, max_iter=60)


def test_input_validation():
    _, _, _, H = si_hamiltonian()
    with pytest.raises(ElectronicError):
        purify_density_matrix(H, -2.0)
    with pytest.raises(ElectronicError):
        purify_density_matrix(H, 2 * H.shape[0] + 2.0)
    with pytest.raises(ElectronicError):
        purify_density_matrix(H, 31.0)      # odd filling
    with pytest.raises(ElectronicError):
        purify_density_matrix(np.zeros((2, 3)), 2.0)


def test_nonorthogonal_rejected():
    with pytest.raises(ElectronicError, match="orthogonal"):
        DensityMatrixCalculator(NonOrthogonalSilicon())
