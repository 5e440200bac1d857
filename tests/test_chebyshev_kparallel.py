"""Chebyshev Fermi-operator expansion: coefficients, FOE accuracy, validation."""

import numpy as np
import pytest

from repro.errors import ElectronicError
from repro.geometry import bulk_silicon, rattle
from repro.linscale import (
    all_core_region, available_backends, get_backend, solve_density_regions,
)
from repro.linscale.backends import RegionBlockSource
from repro.linscale.foe_local import TAYLOR_ORDER, TAYLOR_REMAINDER_SUP
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon, TBCalculator
from repro.tb.chebyshev import (
    _fermi_mu_derivatives, chebyshev_coefficients, entropy_coefficients,
    fermi_coefficients, fermi_mu_derivative_coefficients,
)
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.occupations import entropy_density, fermi_function


def si_h(seed=1):
    at = rattle(bulk_silicon(), 0.05, seed=seed)
    m = GSPSilicon()
    H, _ = build_hamiltonian(at, m, neighbor_list(at, m.cutoff))
    return at, H


def dense_foe(H, n_electrons, kT, **kw):
    """The dense FOE: the region driver on one all-core region."""
    return solve_density_regions(H, [all_core_region(H.shape[0])],
                                 n_electrons, kT, **kw)


# ---------------------------------------------------------------- coefficients
def test_coefficients_reproduce_scalar_function():
    c = chebyshev_coefficients(np.tanh, 60)
    x = np.linspace(-1, 1, 101)
    # Clenshaw evaluation via cos(k arccos x)
    tk = np.cos(np.outer(np.arange(len(c)), np.arccos(x)))
    approx = c @ tk
    np.testing.assert_allclose(approx, np.tanh(x), atol=1e-10)


def test_coefficients_even_function_odd_terms_vanish():
    c = chebyshev_coefficients(lambda x: x * x, 20)
    np.testing.assert_allclose(c[1::2], 0.0, atol=1e-14)
    assert c[0] == pytest.approx(0.5)
    assert c[2] == pytest.approx(0.5)


def test_matrix_polynomial_matches_eigendecomposition():
    """Σ c_k T_k(H) through ``density_rows`` of one all-core block."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(20, 20))
    H = 0.5 * (a + a.T)
    H /= np.abs(np.linalg.eigvalsh(H)).max() * 1.05  # spectrum in [-1,1]
    c = chebyshev_coefficients(np.tanh, 80)
    whole = all_core_region(20)
    blocks = RegionBlockSource(H, [(whole.orbitals, whole.core_local)])
    eps, C = np.linalg.eigh(H)
    exact = (C * np.tanh(eps)) @ C.T
    for backend in available_backends():
        (poly,) = get_backend(backend).density_rows(blocks, 0.0, 1.0, c)
        np.testing.assert_allclose(poly, exact, atol=1e-9)


def _cosine_sum_coefficients(func, order):
    """The defining Chebyshev–Gauss sums, one k at a time (the oracle)."""
    m = order + 1
    theta = np.pi * (np.arange(m) + 0.5) / m
    fx = func(np.cos(theta))
    c = np.array([2.0 / m * np.sum(fx * np.cos(k * theta)) for k in range(m)])
    c[0] *= 0.5
    return c


@pytest.mark.parametrize("order", [220, 221, 7])
def test_dct_coefficients_match_explicit_cosine_sum(order):
    """The DCT-II evaluation is the cosine sum, for every expansion the
    region engine asks for: Fermi, entropy and the μ-derivative rows."""
    center, span, mu, kT = -1.0, 9.0, 0.3, 0.2

    def energy(x):
        return center + span * x

    got = fermi_coefficients(center, span, mu, kT, order)
    want = _cosine_sum_coefficients(
        lambda x: fermi_function(energy(x), mu, kT), order)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    got = entropy_coefficients(center, span, mu, kT, order)
    want = _cosine_sum_coefficients(
        lambda x: entropy_density(fermi_function(energy(x), mu, kT)), order)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    stack = fermi_mu_derivative_coefficients(center, span, mu, kT, order,
                                             nderiv=TAYLOR_ORDER)
    assert stack.shape == (TAYLOR_ORDER + 1, order + 1)
    for s, row in enumerate(stack):
        want = _cosine_sum_coefficients(
            lambda x, s=s: _fermi_mu_derivatives(energy(x), mu, kT, s)[-1],
            order)
        np.testing.assert_allclose(row, want, rtol=0,
                                   atol=1e-13 * max(1.0, np.abs(want).max()))


# ------------------------------------------------------- Fermi μ-derivatives
@pytest.mark.parametrize("nderiv", range(TAYLOR_ORDER + 2))
def test_fermi_mu_derivative_matches_mpmath(nderiv):
    mp = pytest.importorskip("mpmath")
    mu, kT = 0.3, 0.2
    eps = np.linspace(mu - 30 * kT, mu + 30 * kT, 41)
    with mp.workdps(40):
        want = np.array([float(mp.diff(
            lambda m, e=e: 2 / (1 + mp.exp((mp.mpf(e) - m) / kT)), mu, nderiv))
            for e in eps])
    got = _fermi_mu_derivatives(eps, mu, kT, nderiv)[-1]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kT", [0.1, 0.2, 0.35])
def test_fermi_mu_derivative_reproduces_closed_forms(kT):
    """Orders ≤ 3 are the hand-written forms the recurrence replaced."""
    mu = 0.3
    eps = np.linspace(mu - 40 * kT, mu + 40 * kT, 2001)
    sig = 0.5 * fermi_function(eps, mu, kT)
    g = sig * (1.0 - sig)
    closed = [2.0 * sig, 2.0 * g / kT,
              2.0 * g * (1.0 - 2.0 * sig) / kT**2,
              2.0 * g * ((1.0 - 2.0 * sig) ** 2 - 2.0 * g) / kT**3]
    for nderiv, want in enumerate(closed):
        got = _fermi_mu_derivatives(eps, mu, kT, nderiv)[-1]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    with pytest.raises(ElectronicError):
        _fermi_mu_derivatives(eps, mu, kT, -1)


@pytest.mark.parametrize("m", [4, TAYLOR_ORDER + 1])
def test_remainder_sup_bounds_the_fermi_derivative(m):
    """sup_x |∂ᵐf/∂xᵐ| — the factor the Taylor radius replaces by
    TAYLOR_REMAINDER_SUP — really is below it (0.255 at m = 4, 0.817 at
    m = 6), so the radius is a bound and not an estimate."""
    x = np.linspace(-40.0, 40.0, 400_001)
    sup = np.abs(_fermi_mu_derivatives(x, 0.0, 1.0, m)[-1]).max()
    assert 0.2 < sup < TAYLOR_REMAINDER_SUP


# ---------------------------------------------------------------- FOE
def test_foe_matches_exact_smearing():
    at, H = si_h()
    kT = 0.2
    ref = TBCalculator(GSPSilicon(), kT=kT).compute(at)
    res = dense_foe(H, 32.0, kT, order=300)
    assert res.n_electrons == pytest.approx(32.0, abs=1e-6)
    assert res.band_energy == pytest.approx(ref["band_energy"], abs=5e-3)
    # density matrix against the exact smeared projector, on H's
    # nonzeros (where ρ̂ lives)
    eps, C = np.linalg.eigh(H)
    rho_exact = (C * fermi_function(eps, res.mu, kT)) @ C.T
    rho = res.rho.tocoo()
    assert rho.nnz == np.count_nonzero(H)
    np.testing.assert_allclose(rho.data, rho_exact[rho.row, rho.col],
                               atol=1e-3)


@pytest.mark.parametrize("backend", available_backends())
def test_one_all_core_region_matches_diag(backend):
    """No halo, no truncation: μ, the entropy the old dense engine
    never expanded, and tr(ρH) from the energy moments all sit at
    expansion accuracy of the exact smeared diagonalisation."""
    at, H = si_h()
    kT = 0.2
    ref = TBCalculator(GSPSilicon(), kT=kT).compute(at)
    res = dense_foe(H, 32.0, kT, order=300, backend=backend)
    assert res.n_regions == 1
    assert res.band_energy == pytest.approx(ref["band_energy"], abs=1e-5)
    assert res.mu == pytest.approx(ref["fermi_level"], abs=1e-5)
    assert res.entropy == pytest.approx(ref["entropy"], rel=1e-3)
    assert res.band_energy == pytest.approx(
        float(np.sum(res.rho.toarray() * H)), abs=1e-9)
    # energy-only: one recursion, same scalars, no ρ
    lean = dense_foe(H, 32.0, kT, order=300, backend=backend, with_rho=False)
    assert lean.rho is None
    assert lean.band_energy == res.band_energy and lean.mu == res.mu


def test_foe_accuracy_improves_with_order():
    at, H = si_h(seed=2)
    kT = 0.3
    ref = TBCalculator(GSPSilicon(), kT=kT).compute(at)
    errs = []
    for order in (60, 150, 400):
        res = dense_foe(H, 32.0, kT, order=order)
        errs.append(abs(res.band_energy - ref["band_energy"]))
    assert errs[2] < errs[0]


def test_foe_explicit_mu_skips_search():
    at, H = si_h(seed=3)
    kT = 0.25
    ref = TBCalculator(GSPSilicon(), kT=kT).compute(at)
    res = dense_foe(H, 32.0, kT, order=250, mu=ref["fermi_level"])
    assert res.mu == ref["fermi_level"]
    assert res.n_electrons == pytest.approx(32.0, abs=0.05)


def test_foe_validation():
    _, H = si_h()
    with pytest.raises(ElectronicError):
        dense_foe(H, 32.0, kT=0.0)
    with pytest.raises(ElectronicError, match="square"):
        dense_foe(np.zeros((2, 3)), 2.0, kT=0.1, window=(-1.0, 1.0))
    with pytest.raises(ElectronicError):
        chebyshev_coefficients(np.tanh, 0)
