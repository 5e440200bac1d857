"""Linear-scaling density-matrix purification (Palser–Manolopoulos).

The O(N) alternative to exact diagonalisation that closes the loop every
1990s TBMD paper opens: instead of solving ``H C = ε C`` (O(N³)), build
the zero-temperature density matrix directly by the *canonical
purification* iteration of Palser & Manolopoulos,

.. math::

    ρ_{n+1} =
    \\begin{cases}
        ((1+c)ρ_n^2 − ρ_n^3)/c, & c \\ge 1/2 \\\\
        ((1−2c)ρ_n + (1+c)ρ_n^2 − ρ_n^3)/(1−c), & c < 1/2
    \\end{cases}
    \\qquad c = \\mathrm{tr}(ρ_n^2 − ρ_n^3)/\\mathrm{tr}(ρ_n − ρ_n^2),

which conserves the electron count exactly at every step and converges
to the idempotent ground-state projector for gapped systems.  With a
sparsity threshold the matrix multiplies act on O(N) nonzeros (the
density matrix of an insulator decays exponentially), giving the O(N)
scaling the A4 ablation demonstrates against LAPACK.

Orthogonal Hamiltonians only (non-orthogonal purification needs the
S-metric generalisation; out of scope and rejected loudly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# with the module, not at the first call: every region-FOE calculator's
# first solve bounds its window here, and would pay the import inside it
from scipy.sparse.linalg import eigsh

from repro.errors import ConvergenceError, ElectronicError


@dataclass
class PurificationResult:
    """Converged purification state.

    ``rho`` is the *spinless* density matrix (trace = n_electrons / 2,
    eigenvalues in {0, 1}); multiply by 2 for the spin-summed ρ the force
    routines consume.  ``band_energy`` already includes the spin factor.
    """

    rho: np.ndarray | sp.spmatrix
    band_energy: float
    iterations: int
    idempotency_error: float
    fill_fraction: float
    history: list[float]

    def dense_rho_spin_summed(self) -> np.ndarray:
        r = self.rho.toarray() if sp.issparse(self.rho) else self.rho
        return 2.0 * r


def _trace(a) -> float:
    if sp.issparse(a):
        return float(a.diagonal().sum())
    return float(np.trace(a))


def _matmul(a, b, threshold: float):
    c = a @ b
    if sp.issparse(c) and threshold > 0.0:
        c.data[np.abs(c.data) < threshold] = 0.0
        c.eliminate_zeros()
    return c


def initial_guess(H, n_electrons: float, emin: float, emax: float):
    """PM linear initial map: ρ₀ = (λ/n)(μ̄ I − H) + (N_occ/n) I.

    μ̄ is the mean eigenvalue tr(H)/n and λ is chosen so the spectrum of
    ρ₀ lies inside [0, 1] (Palser & Manolopoulos 1998, eq. 17).
    """
    n = H.shape[0]
    n_occ = n_electrons / 2.0
    mu_bar = _trace(H) / n
    denom_lo = emax - mu_bar
    denom_hi = mu_bar - emin
    if denom_lo <= 0 or denom_hi <= 0:
        raise ElectronicError("spectral bounds do not bracket tr(H)/n")
    lam = min(n_occ / denom_lo, (n - n_occ) / denom_hi)
    if sp.issparse(H):
        eye = sp.identity(n, format="csr")
        rho = (lam / n) * (mu_bar * eye - H) + (n_occ / n) * eye
        return rho.tocsr()
    return (lam / n) * (mu_bar * np.eye(n) - H) + (n_occ / n) * np.eye(n)


def lanczos_spectral_bounds(H, tol: float = 1e-4) -> tuple[float, float]:
    """Tight spectral bounds via a few Lanczos iterations (O(nnz) each).

    Gershgorin circles are ~2.5× too wide for sp-bonded TB Hamiltonians,
    and every Chebyshev consumer pays for the expansion window linearly
    in polynomial order — so tight bounds more than halve the cost of the
    Fermi-operator kernels for the same accuracy.  Accepts dense or
    sparse H; falls back to :func:`spectral_bounds` if the iteration
    fails.
    """
    try:
        # fixed start vector: eigsh seeds randomly by default, which would
        # make the expansion window (hence μ, energies, forces) wobble at
        # ~1e-8 between identical calls
        v0 = np.full(H.shape[0], 1.0 / np.sqrt(H.shape[0]))
        lo = float(eigsh(H, k=1, which="SA", return_eigenvectors=False,
                         tol=tol, v0=v0)[0])
        hi = float(eigsh(H, k=1, which="LA", return_eigenvectors=False,
                         tol=tol, v0=v0)[0])
        pad = max(1e-6, tol * (hi - lo))
        return lo - pad, hi + pad
    except Exception:
        return spectral_bounds(H)


def spectral_bounds(H) -> tuple[float, float]:
    """Cheap Gershgorin bounds on the spectrum (no diagonalisation)."""
    if sp.issparse(H):
        Ha = H.tocsr()
        diag = Ha.diagonal()
        # np.matrix-free row sums (the .A1 shortcut is gone in NumPy 2 /
        # sparse-array scipy)
        absrow = np.asarray(np.abs(Ha).sum(axis=1)).ravel() - np.abs(diag)
    else:
        diag = np.diag(H)
        absrow = np.abs(H).sum(axis=1) - np.abs(diag)
    return float((diag - absrow).min()), float((diag + absrow).max())


def purify_density_matrix(H, n_electrons: float, threshold: float = 0.0,
                          tol: float = 1e-9, max_iter: int = 200,
                          bounds: tuple[float, float] | None = None
                          ) -> PurificationResult:
    """Canonical purification of the zero-T density matrix.

    Parameters
    ----------
    H :
        Real symmetric Hamiltonian; dense ndarray or scipy sparse.  Pass a
        sparse matrix *and* a positive *threshold* for O(N) behaviour.
    n_electrons :
        Spin-summed electron count (must be even — integer filling of a
        gapped system is the regime where purification is valid).
    threshold :
        Magnitude below which matrix elements are dropped after each
        multiply (sparse inputs only).
    tol :
        Convergence on the idempotency error ``|tr(ρ²) − tr(ρ)|``.
    bounds :
        Optional precomputed spectral bounds ``(emin, emax)`` used for the
        initial linear map — an MD loop passes a cached window instead of
        recomputing Gershgorin circles every step.  Must bracket the
        spectrum (the PM iteration diverges otherwise).

    Returns
    -------
    :class:`PurificationResult`.
    """
    n = H.shape[0]
    if H.shape != (n, n):
        raise ElectronicError(f"H must be square, got {H.shape}")
    if n_electrons <= 0 or n_electrons > 2 * n:
        raise ElectronicError(f"cannot place {n_electrons} electrons in {n} orbitals")
    if abs(n_electrons / 2.0 - round(n_electrons / 2.0)) > 1e-9:
        raise ElectronicError(
            "purification needs an even (integer-filling) electron count"
        )
    if threshold > 0 and not sp.issparse(H):
        H = sp.csr_matrix(H)

    emin, emax = bounds if bounds is not None else spectral_bounds(H)
    rho = initial_guess(H, n_electrons, emin, emax)
    n_occ = n_electrons / 2.0

    history: list[float] = []
    for it in range(1, max_iter + 1):
        rho2 = _matmul(rho, rho, threshold)
        rho3 = _matmul(rho2, rho, threshold)
        tr_r = _trace(rho)
        tr_r2 = _trace(rho2)
        tr_r3 = _trace(rho3)
        err = abs(tr_r2 - tr_r)
        history.append(err)
        if err < tol:
            break
        denom = tr_r - tr_r2
        if abs(denom) < 1e-300:
            break
        c = (tr_r2 - tr_r3) / denom
        if c >= 0.5:
            rho = (rho2 * (1.0 + c) - rho3) / c
        else:
            rho = (rho * (1.0 - 2.0 * c) + rho2 * (1.0 + c) - rho3) / (1.0 - c)
        if sp.issparse(rho) and threshold > 0.0:
            rho.data[np.abs(rho.data) < threshold] = 0.0
            rho.eliminate_zeros()
    else:
        raise ConvergenceError(
            f"purification did not reach tol={tol} in {max_iter} iterations "
            f"(idempotency error {history[-1]:.2e}); the system is probably "
            "metallic or the gap too small for zero-T purification",
            iterations=max_iter, residual=history[-1],
        )

    tr_err = abs(_trace(rho) - n_occ)
    if tr_err > 1e-6 * max(1.0, n_occ):
        raise ConvergenceError(
            f"purification lost {tr_err:.2e} electrons; threshold too aggressive",
            iterations=it, residual=tr_err,
        )

    band = 2.0 * _trace(_matmul(rho, H, 0.0))
    if sp.issparse(rho):
        fill = rho.nnz / float(n * n)
    else:
        fill = float(np.count_nonzero(np.abs(rho) > 1e-14)) / (n * n)
    return PurificationResult(rho=rho, band_energy=band, iterations=it,
                              idempotency_error=history[-1],
                              fill_fraction=fill, history=history)
