"""Chebyshev Fermi-operator expansion (FOE): the scalar side.

The second O(N)-family electronic solver (Goedecker & Colombo 1994 —
contemporaneous with the target paper): approximate the finite-
temperature density matrix as a Chebyshev polynomial of the Hamiltonian,

.. math::

    ρ = f\\left(\\frac{H - μ}{kT}\\right)
      ≈ \\sum_{k=0}^{K} c_k T_k(\\tilde H),

with ``\\tilde H`` the Hamiltonian rescaled onto [−1, 1] and the
coefficients ``c_k`` obtained by Chebyshev–Gauss quadrature of the Fermi
function.  Each term costs one (sparse) matrix multiply, so the cost is
O(K · N) for local Hamiltonians — and unlike zero-temperature
purification it handles *metallic* (smeared) systems, which is exactly
why liquid-metal TBMD adopted it.

This module holds what is scalar: the coefficient expansions of the
Fermi function, its μ-derivatives and the entropy density, and the
chemical-potential search from moments.  The matrix recursions live
once, in the region driver :mod:`repro.linscale.foe_local` and its array
backends — the dense whole-system FOE is that driver run on one
all-core region (:func:`repro.linscale.regions.all_core_region`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval
from scipy.fft import dct

from repro.errors import ElectronicError
from repro.tb.occupations import entropy_density, fermi_function

#: The one default Chebyshev order K — ``CalculatorSpec.order``, both FOE
#: calculators and the ``solve_density_regions*`` names all fall back to
#: it, so the CLI, a spec and a direct constructor build the same
#: expansion.  The order needed grows as spectral width / kT: on GSP-Si
#: (20 eV wide) the coefficient tail Σ_{n>K}|c_n| at K = 200 is ≈ 3e-6
#: at kT = 0.2 eV and ≈ 2e-3 at kT = 0.1 eV.
DEFAULT_ORDER = 200


def _nodes(order: int) -> np.ndarray:
    """The ``order + 1`` Chebyshev–Gauss nodes ``cos θ_m``."""
    if order < 1:
        raise ElectronicError("expansion order must be >= 1")
    m = order + 1
    return np.cos(np.pi * (np.arange(m) + 0.5) / m)


def _transform(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from node values on the last axis — one
    type-II DCT for every leading index at once."""
    m = values.shape[-1]
    c = dct(values, type=2, axis=-1) / m
    c[..., 0] *= 0.5
    return c


def chebyshev_coefficients(func, order: int) -> np.ndarray:
    """Chebyshev expansion coefficients of *func* on [−1, 1].

    Standard Chebyshev–Gauss quadrature with ``order + 1`` nodes:
    ``c_0 = (1/M)Σ f(x_m)``, ``c_k = (2/M)Σ f(x_m) cos(k θ_m)`` with
    ``θ_m = π(m + ½)/M`` — which is the type-II discrete cosine
    transform of the node values, so all M sums cost one FFT.
    """
    return _transform(func(_nodes(order)))


def scaled_coefficients(func, center: float, span: float, order: int
                        ) -> np.ndarray:
    """Coefficients of ``func(ε)`` as a polynomial in ``(H − center)/span``.

    The rescaling contract of the region engine
    (:mod:`repro.linscale.foe_local`): every scalar function — Fermi,
    its μ-derivatives, entropy — is expanded on the *same* axis, so one
    set of moments serves them all.
    """
    return chebyshev_coefficients(lambda x: func(center + span * x), order)


def fermi_coefficients(center: float, span: float, mu: float, kT: float,
                       order: int) -> np.ndarray:
    """Chebyshev coefficients of the spin-summed Fermi function f(ε; μ, kT)."""
    if kT <= 0:
        raise ElectronicError("Fermi expansion needs kT > 0")
    return scaled_coefficients(lambda e: fermi_function(e, mu, kT),
                               center, span, order)


def entropy_coefficients(center: float, span: float, mu: float, kT: float,
                         order: int) -> np.ndarray:
    """Chebyshev coefficients of the electronic-entropy density (eV/K).

    Expands :func:`repro.tb.occupations.entropy_density` as a function of
    energy, so ``tr s(H) = S`` matches
    :func:`repro.tb.occupations.electronic_entropy` summed over the exact
    spectrum.
    """
    if kT <= 0:
        raise ElectronicError("entropy expansion needs kT > 0")
    return scaled_coefficients(
        lambda eps: entropy_density(fermi_function(eps, mu, kT)),
        center, span, order)


@lru_cache(maxsize=None)
def _mu_derivative_polynomial(nderiv: int) -> tuple[float, ...]:
    """Ascending coefficients of ``Pₙ(t)`` in ``∂ⁿσ/∂μⁿ = kT⁻ⁿ·g·Pₙ(t)``.

    With the logistic ``σ``, ``g = σ(1−σ)`` and ``t = 1 − 2σ``:
    ``dσ/dμ = g/kT``, ``dg/dσ = t`` and ``dt/dσ = −2`` give ``P₁ = 1``,
    ``Pₙ₊₁ = t·Pₙ − ½(1 − t²)·Pₙ′`` — the recurrence
    ``Qₙ₊₁ = Qₙ′(σ)·σ(1−σ)``, ``Q₀ = σ`` written in the variable that
    keeps the coefficients small (Σ|coef| = 61 at n = 6, against 9366
    for the same polynomial in powers of σ).
    """
    t = Polynomial([0.0, 1.0])
    p = Polynomial([1.0])
    for _ in range(nderiv - 1):
        p = t * p - 0.5 * (1.0 - t * t) * p.deriv()
    return tuple(p.coef)


def _fermi_mu_derivatives(eps: np.ndarray, mu, kT: float,
                          nderiv: int) -> np.ndarray:
    """f, ∂f/∂μ, …, ∂ⁿf/∂μⁿ of the spin-summed Fermi function, stacked on
    a new second-to-last axis (``mu`` broadcasts against *eps*).

    Any order: everything is a polynomial in the logistic ``σ = f/2``
    evaluated by the overflow-safe
    :func:`repro.tb.occupations.fermi_function` —
    ``∂ⁿf/∂μⁿ = 2·kT⁻ⁿ·σ(1−σ)·Pₙ(1−2σ)``
    (:func:`_mu_derivative_polynomial`; ``n = 1, 2, 3`` are the familiar
    ``g``, ``g(1−2σ)``, ``g((1−2σ)² − 2g)``).
    """
    if nderiv < 0:
        raise ElectronicError(f"Fermi μ-derivative order {nderiv} < 0")
    f = fermi_function(eps, mu, kT)
    sig = 0.5 * f
    rows = [f] + [2.0 * sig * (1.0 - sig)
                  * polyval(1.0 - f, _mu_derivative_polynomial(s)) / kT**s
                  for s in range(1, nderiv + 1)]
    return np.stack(rows, axis=-2)


def fermi_mu_derivative_coefficients(center: float, span: float, mu: float,
                                     kT: float, order: int,
                                     nderiv: int = 3) -> np.ndarray:
    """Stacked Chebyshev coefficients of f, ∂f/∂μ, …, ∂ⁿf/∂μⁿ.

    Returns a ``(nderiv + 1, order + 1)`` array whose row *s* expands the
    *s*-th μ-derivative of the spin-summed Fermi function on the shared
    ``(center, span)`` window, all rows through one transform.  This is
    the coefficient stack of the MD fast path's *fused* single-pass FOE:
    one Chebyshev recursion accumulates density rows **and** their
    μ-Taylor corrections, so the chemical potential can be refined
    *after* the matrix work without a second pass (the Taylor remainder
    is O((Δμ/kT)^{nderiv+1})).
    """
    if kT <= 0:
        raise ElectronicError("Fermi expansion needs kT > 0")
    return _transform(_fermi_mu_derivatives(
        center + span * _nodes(order), mu, kT, nderiv))


def solve_mu_from_moments(moments: np.ndarray, center: float, span: float,
                          kT: float, n_electrons: float,
                          bracket: tuple[float, float],
                          warm_bracket: tuple[float, float] | None = None,
                          tol: float = 1e-10, max_iter: int = 100) -> float:
    """Solve ``Σ_k c_k(μ) m_k = n_electrons`` for μ (bisection + Newton).

    Each trial is one scalar coefficient evaluation (O(K²) flops).  A
    *warm_bracket* (e.g. last MD step's μ ± a few kT) is verified before
    use and silently widened to *bracket* when it no longer contains the
    electron count; *bracket* itself must contain it or
    :class:`~repro.errors.ElectronicError` is raised.  The bisection
    converges the electron *count*; the final Newton polish (∂N/∂μ from
    the expanded Fermi derivative, step clamped to the bracket ± 10 kT)
    then pins μ itself to machine precision, so the result is
    independent of the starting bracket — warm and cold searches return
    the *same* μ, keeping the MD fast path bit-comparable to the
    reference path.

    This is the single-window special case of
    :func:`solve_mu_from_moments_multi`.
    """
    return solve_mu_from_moments_multi(
        np.asarray(moments, dtype=float)[None, :], [(center, span)], kT,
        n_electrons, bracket, warm_bracket=warm_bracket, tol=tol,
        max_iter=max_iter)


def solve_mu_from_moments_multi(moments: np.ndarray,
                                windows: list[tuple[float, float]],
                                kT: float, n_electrons: float,
                                bracket: tuple[float, float],
                                weights: np.ndarray | None = None,
                                warm_bracket: tuple[float, float] | None = None,
                                tol: float = 1e-10,
                                max_iter: int = 100) -> float:
    """One common μ from moment sets expanded on *different* windows.

    The k-sampled generalisation of :func:`solve_mu_from_moments`: row
    *j* of *moments* holds the trace moments of ``T_n(H̃(k_j))`` on its
    own scaled window ``windows[j] = (center_j, span_j)`` (each k point
    caches its own spectral bounds), and *weights* are the sampling
    weights, so the electron count is

    .. math::

        N(μ) = \\sum_j w_j \\sum_n c_n(μ; center_j, span_j) \\, m^{(j)}_n .

    One μ is bisected (then Newton-polished through the weighted
    ∂N/∂μ of the expanded Fermi derivative) for **all** windows at once
    — the single-allreduce-per-round μ search of the k-point-parallel
    decomposition.  The coefficients are a DCT-II of node values, so
    the count is also ``Σ_j w_j f(ε_j; μ)·g_j`` over the nodes, with
    ``g_j`` the DCT-III of ``m^{(j)}``: the bracket checks and bisection
    trials read that form (one transform per solve, none per trial),
    and each Newton step expands f and ∂f/∂μ on every window through
    one transform, exactly as the coefficients are.  Semantics of
    *bracket* / *warm_bracket* / *tol* match the single-window solver
    exactly.
    """
    if kT <= 0:
        raise ElectronicError("Fermi expansion needs kT > 0")
    moments = np.atleast_2d(np.asarray(moments, dtype=float))
    if len(windows) != len(moments):
        raise ElectronicError(
            f"{len(moments)} moment rows but {len(windows)} windows")
    w = np.ones(len(moments)) if weights is None \
        else np.asarray(weights, dtype=float)
    if len(w) != len(moments):
        raise ElectronicError(
            f"{len(moments)} moment rows but {len(w)} weights")
    order = moments.shape[1] - 1
    eps = np.stack([c + s * _nodes(order) for c, s in windows])
    g = w[:, None] * dct(moments, type=3, axis=-1) / (order + 1)

    def count(mu: float) -> float:
        return float(np.vdot(fermi_function(eps, mu, kT), g))

    lo, hi = float(bracket[0]), float(bracket[1])
    if warm_bracket is not None:
        wlo, whi = float(warm_bracket[0]), float(warm_bracket[1])
        if count(wlo) <= n_electrons <= count(whi):
            lo, hi = wlo, whi
    if count(lo) > n_electrons or count(hi) < n_electrons:
        raise ElectronicError(
            f"μ bracket [{lo:.3f}, {hi:.3f}] eV does not contain "
            f"{n_electrons} electrons"
        )
    mu = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mu = 0.5 * (lo + hi)
        c = count(mu)
        if abs(c - n_electrons) < tol * max(1.0, n_electrons):
            break
        if c < n_electrons:
            lo = mu
        else:
            hi = mu

    for _ in range(4):
        rows = _transform(_fermi_mu_derivatives(eps, mu, kT, 1))
        n_mu, d = (float(sum(wj * (cj[s] @ mj)
                             for wj, cj, mj in zip(w, rows, moments)))
                   for s in (0, 1))
        if not np.isfinite(d) or d <= 1e-14:
            break
        step = (n_mu - n_electrons) / d
        if not np.isfinite(step):
            break
        mu = min(max(mu - step, lo - 10.0 * kT), hi + 10.0 * kT)
        if abs(step) < 1e-13:
            break
    return mu
