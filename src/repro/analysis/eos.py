"""Equation-of-state fits: Murnaghan and Birch–Murnaghan.

The F6 benchmark fits cohesive-energy-vs-volume curves per silicon
polytype and reports (V₀, E₀, B₀) — the standard TB validation table.
``scipy.optimize`` is imported by the first fit, not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, GeometryError
from repro.units import EV_PER_A3_TO_GPA


@dataclass(frozen=True)
class EOSFit:
    """Fitted equation-of-state parameters (per-atom quantities)."""

    e0: float       # minimum energy (eV/atom)
    v0: float       # equilibrium volume (Å³/atom)
    b0: float       # bulk modulus (eV/Å³)
    b0_prime: float
    residual: float
    form: str

    @property
    def b0_gpa(self) -> float:
        return self.b0 * EV_PER_A3_TO_GPA

    def energy(self, v) -> np.ndarray:
        """Evaluate the fitted E(V)."""
        v = np.asarray(v, dtype=float)
        if self.form == "murnaghan":
            return _murnaghan(v, self.e0, self.v0, self.b0, self.b0_prime)
        return _birch(v, self.e0, self.v0, self.b0, self.b0_prime)


def _murnaghan(v, e0, v0, b0, bp):
    return (e0 + b0 * v / bp * ((v0 / v) ** bp / (bp - 1.0) + 1.0)
            - b0 * v0 / (bp - 1.0))


def _birch(v, e0, v0, b0, bp):
    eta = (v0 / v) ** (2.0 / 3.0)
    return (e0 + 9.0 * b0 * v0 / 16.0
            * ((eta - 1.0) ** 3 * bp + (eta - 1.0) ** 2 * (6.0 - 4.0 * eta)))


def _fit(volumes, energies, fn, form) -> EOSFit:
    from scipy.optimize import curve_fit

    v = np.asarray(volumes, dtype=float)
    e = np.asarray(energies, dtype=float)
    if v.shape != e.shape or v.ndim != 1:
        raise GeometryError("volumes and energies must be equal-length 1-D")
    if len(v) < 5:
        raise GeometryError("need at least 5 (V, E) points for an EOS fit")
    imin = int(np.argmin(e))
    # parabolic seed
    p = np.polyfit(v, e, 2)
    if p[0] <= 0:
        guess_b0 = 0.5
        guess_v0 = v[imin]
    else:
        guess_v0 = -p[1] / (2 * p[0])
        guess_b0 = 2.0 * p[0] * guess_v0
    guess = [e[imin], guess_v0, abs(guess_b0), 4.0]
    try:
        popt, _ = curve_fit(fn, v, e, p0=guess, maxfev=20000)
    except RuntimeError as exc:
        raise ConvergenceError(f"EOS fit failed: {exc}") from exc
    resid = float(np.sqrt(np.mean((fn(v, *popt) - e) ** 2)))
    e0, v0, b0, bp = (float(x) for x in popt)
    if v0 <= 0 or b0 <= 0:
        raise ConvergenceError(
            f"EOS fit produced unphysical parameters (V0={v0}, B0={b0}); "
            "check the sampled volume range brackets the minimum"
        )
    return EOSFit(e0=e0, v0=v0, b0=b0, b0_prime=bp, residual=resid, form=form)


def murnaghan_fit(volumes, energies) -> EOSFit:
    """Fit the Murnaghan EOS; per-atom inputs give per-atom parameters."""
    return _fit(volumes, energies, _murnaghan, "murnaghan")


def birch_murnaghan_fit(volumes, energies) -> EOSFit:
    """Fit the 3rd-order Birch–Murnaghan EOS."""
    return _fit(volumes, energies, _birch, "birch")
