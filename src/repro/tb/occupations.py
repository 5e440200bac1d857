"""Electronic occupations: zero-temperature filling and Fermi–Dirac smearing.

Occupations include the spin degeneracy: a fully occupied level carries
``f = 2``.  The k-resolved variants take per-state weights (the product of
spin degeneracy capacity and k-point weight is handled by the caller
passing ``weights``) and determine one common Fermi level across the whole
spectrum by bisection.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.errors import ElectronicError
from repro.units import KB


def zero_temperature_occupations(eigenvalues: np.ndarray, n_electrons: float,
                                 degeneracy_tol: float = 1e-8,
                                 weights: np.ndarray | None = None
                                 ) -> np.ndarray:
    """Aufbau filling with spin factor 2 and even splitting of degeneracy.

    Levels degenerate with the highest (partially) occupied one share the
    remaining electrons equally — this keeps occupations (hence forces)
    continuous and basis-orientation independent for symmetric structures.
    With per-state *weights* (k-point sampling) a state holds ``2·w``
    electrons and the members of a shell still get one common ``f``, i.e.
    they share the remainder in proportion to ``w``; ``Σ w·f`` is the
    electron count.  ``weights ≡ 1`` is the unweighted filling, bit for
    bit.
    """
    eps = np.asarray(eigenvalues, dtype=float)
    n = len(eps)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    capacity_total = 2.0 * float(w.sum())
    if n_electrons < 0 or n_electrons > capacity_total + 1e-9:
        raise ElectronicError(
            f"cannot place {n_electrons} electrons in {n} levels "
            f"(max {capacity_total:g})"
        )
    order = np.argsort(eps)
    f_sorted = np.zeros(n)
    remaining = float(n_electrons)
    pos = 0
    while remaining > 1e-12 and pos < n:
        # find the degenerate shell starting at `pos`
        e0 = eps[order[pos]]
        shell_end = pos
        while shell_end < n and eps[order[shell_end]] <= e0 + degeneracy_tol:
            shell_end += 1
        shell_weight = float(w[order[pos:shell_end]].sum())
        take = min(2.0 * shell_weight, remaining)
        f_sorted[pos:shell_end] = take / shell_weight
        remaining -= take
        pos = shell_end
    f = np.empty(n)
    f[order] = f_sorted
    return f


def fermi_function(eps: np.ndarray, mu: float, kT: float) -> np.ndarray:
    """Spin-degenerate Fermi–Dirac occupation 2/(exp((ε−μ)/kT)+1).

    One logistic ufunc: ``expit`` is overflow-safe on both tails by
    construction, so no masking is needed.
    """
    return 2.0 * expit((mu - np.asarray(eps, dtype=float)) / kT)


def find_fermi_level(eigenvalues: np.ndarray, n_electrons: float, kT: float,
                     weights: np.ndarray | None = None,
                     tol: float = 1e-12, max_iter: int = 200) -> float:
    """Bisect for μ such that ``Σ w·f(ε; μ) = n_electrons``.

    The electron count is continuous and monotone in μ for ``kT > 0``, so
    bisection normally converges well below *tol*.  When it does **not**
    (the residual after *max_iter* still exceeds the tolerance) the
    midpoint is *wrong*, not approximately right, and is never returned:

    * if the spectrum around the final bracket has a clean gap whose
      midpoint satisfies the electron count — the degenerate mid-gap /
      kT → 0 case, where the count plateaus at ``n_electrons`` over the
      whole gap and float resolution cannot distinguish candidates — the
      gap midpoint is returned *deliberately* (it is the kT → 0 limit of
      the exact μ);
    * otherwise :class:`~repro.errors.ElectronicError` is raised with the
      residual, instead of silently handing a mis-placed Fermi level to
      occupation, entropy and force evaluations downstream.
    """
    eps = np.asarray(eigenvalues, dtype=float)
    w = np.ones_like(eps) if weights is None else np.asarray(weights, dtype=float)
    total_capacity = 2.0 * float(w.sum())
    if not (0.0 <= n_electrons <= total_capacity + 1e-9):
        raise ElectronicError(
            f"{n_electrons} electrons cannot fit capacity {total_capacity}"
        )
    lo = float(eps.min()) - 20.0 * kT - 1.0
    hi = float(eps.max()) + 20.0 * kT + 1.0
    scale = max(1.0, abs(n_electrons))

    def count(mu):
        return 2.0 * float(w @ expit((mu - eps) / kT))

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        c = count(mid)
        if abs(c - n_electrons) < tol * scale:
            return mid
        if c < n_electrons:
            lo = mid
        else:
            hi = mid

    # Non-convergent: the count could not meet the tolerance anywhere the
    # bracket can resolve.  The benign case is a staircase count (kT far
    # below the level spacing): if the levels around the bracket leave a
    # gap whose midpoint carries the right electron count, return it.
    mid = 0.5 * (lo + hi)
    below = eps[eps <= mid]
    above = eps[eps > mid]
    if len(below) and len(above):
        mu_gap = 0.5 * (float(below.max()) + float(above.min()))
        if abs(count(mu_gap) - n_electrons) < tol * scale:
            return mu_gap
    residual = count(mid) - n_electrons
    raise ElectronicError(
        f"Fermi-level bisection did not converge in {max_iter} iterations: "
        f"electron-count residual {residual:+.3e} at mu = {mid:.6f} eV "
        f"(tol {tol * scale:.1e}). kT = {kT:g} eV may be too small to "
        "resolve a partially filled level at float precision; raise kT, "
        "loosen tol, or use the zero-temperature filler."
    )


def entropy_density(occupations: np.ndarray) -> np.ndarray:
    """Per-state entropy  s = −2 k_B [x ln x + (1−x) ln(1−x)],  x = f/2.

    In eV/K per state; summing (with weights) gives the electronic
    entropy, and expanding it as a function of energy is how the
    Fermi-operator kernels obtain S as a trace
    (:func:`repro.tb.chebyshev.entropy_coefficients`).
    """
    x = np.clip(np.asarray(occupations, dtype=float) / 2.0, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where((x > 0) & (x < 1),
                        x * np.log(np.where(x > 0, x, 1.0))
                        + (1 - x) * np.log(np.where(x < 1, 1 - x, 1.0)),
                        0.0)
    return -2.0 * KB * term


def electronic_entropy(occupations: np.ndarray,
                       weights: np.ndarray | None = None) -> float:
    """Electronic entropy  S = −2 k_B Σ w [x ln x + (1−x) ln(1−x)],  x = f/2.

    Returned in eV/K; multiply by T for the −TS term of the Mermin free
    energy.
    """
    s = entropy_density(occupations)
    w = np.ones_like(s) if weights is None else np.asarray(weights, dtype=float)
    return float(np.sum(w * s))


def fermi_dirac_occupations(eigenvalues: np.ndarray, n_electrons: float,
                            kT: float, weights: np.ndarray | None = None
                            ) -> tuple[np.ndarray, float, float]:
    """Smeared occupations.

    Returns ``(f, mu, entropy)`` with ``Σ w f = n_electrons`` and the
    entropy in eV/K.  ``kT`` is in eV; pass ``kT = KB * T_elec`` for an
    electronic temperature in kelvin.  Falls back to the (weighted)
    zero-temperature filler for ``kT <= 0`` (μ = occupied/empty midpoint,
    entropy 0).
    """
    eps = np.asarray(eigenvalues, dtype=float)
    if kT <= 0.0:
        f = zero_temperature_occupations(eps, n_electrons, weights=weights)
        occ = eps[f > 1e-9]
        emp = eps[f < 2.0 - 1e-9]
        if len(occ) and len(emp):
            mu = 0.5 * (occ.max() + emp.min())
        elif len(occ):
            mu = float(occ.max())
        else:
            mu = float(eps.min())
        return f, mu, 0.0
    mu = find_fermi_level(eps, n_electrons, kT, weights=weights)
    f = fermi_function(eps, mu, kT)
    s = electronic_entropy(f, weights=weights)
    return f, mu, s


def homo_lumo_gap(eigenvalues: np.ndarray, occupations: np.ndarray
                  ) -> tuple[float, float, float]:
    """(HOMO, LUMO, gap) from eigenvalues + occupations.

    Metallic / fractional-occupation spectra return gap 0 with
    HOMO = LUMO = highest partially occupied level.
    """
    eps = np.asarray(eigenvalues, dtype=float)
    f = np.asarray(occupations, dtype=float)
    frac = (f > 1e-9) & (f < 2.0 - 1e-9)
    if frac.any():
        level = float(eps[frac].max())
        return level, level, 0.0
    occ = eps[f > 1e-9]
    emp = eps[f <= 1e-9]
    if not len(occ) or not len(emp):
        raise ElectronicError("need both occupied and empty states for a gap")
    homo = float(occ.max())
    lumo = float(emp.min())
    return homo, lumo, max(0.0, lumo - homo)
