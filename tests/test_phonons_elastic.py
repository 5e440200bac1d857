"""Lattice dynamics and elastic constants."""

import numpy as np
import pytest

from repro.analysis.elastic import born_stability_cubic, cubic_elastic_constants
from repro.analysis.phonons import (
    acoustic_sum_rule_violation, dynamical_matrix, gamma_frequencies,
    phonon_dos_from_frequencies,
)
from repro.classical import StillingerWeber
from repro.errors import ConvergenceError, GeometryError
from repro.geometry import bulk_silicon, supercell
from repro.tb import GSPSilicon, TBCalculator


@pytest.fixture(scope="module")
def si8_dynmat():
    return dynamical_matrix(bulk_silicon(), TBCalculator(GSPSilicon()),
                            displacement=0.015)


def test_dynamical_matrix_symmetric(si8_dynmat):
    np.testing.assert_allclose(si8_dynmat, si8_dynmat.T, atol=1e-10)


def test_acoustic_sum_rule(si8_dynmat):
    viol = acoustic_sum_rule_violation(si8_dynmat, bulk_silicon().masses)
    assert viol < 1e-6


def test_three_acoustic_zero_modes():
    nu, _ = gamma_frequencies(bulk_silicon(), TBCalculator(GSPSilicon()),
                              displacement=0.015)
    assert np.all(np.abs(nu[:3]) < 0.05)       # translations
    assert nu[3] > 1.0                          # then real phonons


def test_si_optical_phonon_scale():
    """GSP Γ optical modes land in the 14–20 THz window (expt 15.5)."""
    nu, _ = gamma_frequencies(bulk_silicon(), TBCalculator(GSPSilicon()),
                              displacement=0.015)
    assert 13.0 < nu.max() < 21.0


def test_no_imaginary_modes_at_equilibrium():
    nu, _ = gamma_frequencies(bulk_silicon(), TBCalculator(GSPSilicon()),
                              displacement=0.015)
    assert nu.min() > -0.05


def test_sw_phonons_similar_scale():
    nu, _ = gamma_frequencies(bulk_silicon(), StillingerWeber(),
                              displacement=0.015)
    assert 12.0 < nu.max() < 19.0
    assert np.all(np.abs(nu[:3]) < 0.05)


def test_eigenvectors_orthonormal():
    nu, vecs = gamma_frequencies(bulk_silicon(), StillingerWeber())
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(24), atol=1e-8)


def test_dos_from_frequencies_normalised():
    nu = np.array([0.0, 0.0, 0.0, 5.0, 10.0, 15.0, 15.0])
    f, dos = phonon_dos_from_frequencies(nu, nbins=30)
    assert np.trapezoid(dos, f) == pytest.approx(1.0)
    with pytest.raises(GeometryError):
        phonon_dos_from_frequencies(np.zeros(3))


def test_dynamical_matrix_validation():
    with pytest.raises(GeometryError):
        dynamical_matrix(bulk_silicon(), TBCalculator(GSPSilicon()),
                         displacement=0.0)


# ---------------------------------------------------------------- elastic
def test_gsp_elastic_constants_shape():
    """GSP Si at Γ-sampled 64 atoms: C11 > C12 > 0, C44 > 0, Born stable,
    and B = (C11+2C12)/3 near the 98 GPa calibration."""
    at = supercell(bulk_silicon(), 2)
    ec = cubic_elastic_constants(at, lambda: TBCalculator(GSPSilicon()))
    assert ec["c11_gpa"] > ec["c12_gpa"] > 0
    assert ec["c44_gpa"] > 0
    assert ec["c44_unrelaxed_gpa"] > ec["c44_gpa"]
    assert born_stability_cubic(ec["c11"], ec["c12"], ec["c44"])
    assert ec["bulk_modulus_gpa"] == pytest.approx(98.0, rel=0.15)


def test_c44_never_comes_from_an_unconverged_relaxation(monkeypatch):
    """The C44 internal relaxation used to discard its result: a run that
    ran out of budget still fed the quadratic fit."""
    import repro.relax

    cg = repro.relax.conjugate_gradient
    monkeypatch.setattr(
        repro.relax, "conjugate_gradient",
        lambda atoms, calc, fmax, max_steps: cg(atoms, calc, fmax=fmax,
                                                max_steps=2))
    with pytest.raises(ConvergenceError) as err:
        cubic_elastic_constants(bulk_silicon(),
                                lambda: TBCalculator(GSPSilicon()))
    assert err.value.iterations == 2 and err.value.residual > 0.005


def test_elastic_requires_relaxed_input():
    from repro.geometry import rattle

    at = rattle(bulk_silicon(), 0.2, seed=1)
    with pytest.raises(GeometryError, match="not relaxed"):
        cubic_elastic_constants(at, lambda: TBCalculator(GSPSilicon()))


def test_elastic_requires_periodicity():
    from repro.geometry import carbon_chain

    with pytest.raises(GeometryError):
        cubic_elastic_constants(carbon_chain(3),
                                lambda: TBCalculator(GSPSilicon()))
