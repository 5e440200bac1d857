"""Eigensolver cross-validation: LAPACK vs Jacobi."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ElectronicError
from repro.tb.eigensolvers import get_solver, jacobi_eigh, solve_eigh
from repro.tb.eigensolvers.jacobi import jacobi_rotation, offdiag_norm


def random_sym(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def check_decomposition(H, eps, C, tol=1e-9):
    """Residual ‖HC − Cdiag(ε)‖ and orthonormality."""
    resid = np.max(np.abs(H @ C - C * eps))
    orth = np.max(np.abs(C.T @ C - np.eye(len(eps))))
    assert resid < tol * max(1.0, np.abs(H).max())
    assert orth < tol
    assert np.all(np.diff(eps) >= -1e-12)


# ---------------------------------------------------------------- lapack
def test_lapack_standard():
    H = random_sym(30, 1)
    eps, C = solve_eigh(H)
    check_decomposition(H, eps, C)


def test_lapack_generalized():
    H = random_sym(20, 2)
    rng = np.random.default_rng(3)
    B = rng.normal(size=(20, 20))
    S = B @ B.T + 20 * np.eye(20)
    eps, C = solve_eigh(H, S)
    resid = np.max(np.abs(H @ C - S @ C * eps))
    assert resid < 1e-9 * np.abs(H).max()
    # S-orthonormality
    np.testing.assert_allclose(C.T @ S @ C, np.eye(20), atol=1e-9)


def test_lapack_complex_hermitian():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    H = 0.5 * (A + A.conj().T)
    eps, C = solve_eigh(H)
    resid = np.max(np.abs(H @ C - C * eps))
    assert resid < 1e-10 * np.abs(H).max()


def test_lapack_rejects_nonsquare_and_nonhermitian():
    with pytest.raises(ElectronicError):
        solve_eigh(np.zeros((2, 3)))
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ElectronicError, match="Hermitian"):
        solve_eigh(bad)


# ---------------------------------------------------------------- jacobi
def test_jacobi_matches_lapack():
    H = random_sym(40, 5, scale=3.0)
    e_ref, _ = solve_eigh(H)
    eps, C = jacobi_eigh(H)
    np.testing.assert_allclose(eps, e_ref, atol=1e-9)
    check_decomposition(H, eps, C, tol=1e-8)


def test_jacobi_quadratic_convergence_history():
    H = random_sym(24, 6)
    eps, C, hist = jacobi_eigh(H, collect_history=True)
    # off-norm strictly decreasing and fast at the end
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert hist[-1] < 1e-8 * np.linalg.norm(H)


def test_jacobi_diagonal_input_identity():
    d = np.diag([3.0, -1.0, 2.0])
    eps, C = jacobi_eigh(d)
    np.testing.assert_allclose(eps, [-1, 2, 3])
    np.testing.assert_allclose(np.abs(C), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_jacobi_rejects_generalized_and_asymmetric():
    with pytest.raises(ElectronicError):
        jacobi_eigh(np.eye(3), np.eye(3))
    with pytest.raises(ElectronicError):
        jacobi_eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_jacobi_rotation_annihilates():
    app, aqq, apq = 2.0, -1.0, 0.7
    c, s = jacobi_rotation(app, aqq, apq)
    # rotated off-diagonal element must vanish
    new_off = (c * c - s * s) * apq + c * s * (app - aqq)
    assert abs(new_off) < 1e-12
    assert c * c + s * s == pytest.approx(1.0)


def test_offdiag_norm():
    a = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert offdiag_norm(a) == pytest.approx(np.sqrt(8.0))


# ---------------------------------------------------------------- registry + physics
def test_get_solver_registry():
    assert get_solver("lapack") is solve_eigh
    with pytest.raises(KeyError):
        get_solver("magic")


def test_all_solvers_agree_on_tb_hamiltonian(si8_rattled, gsp):
    from repro.neighbors import neighbor_list
    from repro.tb.hamiltonian import build_hamiltonian

    nl = neighbor_list(si8_rattled, gsp.cutoff)
    H, _ = build_hamiltonian(si8_rattled, gsp, nl)
    e1, _ = solve_eigh(H)
    e2, _ = jacobi_eigh(H)
    np.testing.assert_allclose(e2, e1, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 10**6))
def test_property_jacobi_eigenvalue_sum_is_trace(n, seed):
    H = random_sym(n, seed)
    eps, _ = jacobi_eigh(H)
    assert eps.sum() == pytest.approx(np.trace(H), abs=1e-9 * n)
