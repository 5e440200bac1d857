"""Polak–Ribière conjugate-gradient relaxation with backtracking line search.

The structural-relaxation workhorse of the era (the "CG technique" of
Numerical Recipes every TB paper cites).  Directions are conjugated with
the Polak–Ribière+ formula (automatic reset to steepest descent when the
conjugacy is lost); the line search backtracks on an Armijo condition.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError
from repro.relax.base import (
    RelaxationResult, energy_and_forces, masked_forces, max_force,
)


def conjugate_gradient(atoms, calc, fmax: float = 0.05, max_steps: int = 500,
                       step0: float = 0.1, armijo: float = 1e-4,
                       backtrack: float = 0.5, max_backtracks: int = 12,
                       raise_on_failure: bool = False) -> RelaxationResult:
    """Relax *atoms* in place until ``max|F| < fmax`` (eV/Å).

    Parameters
    ----------
    step0 :
        Initial trial step along the (normalised) search direction, Å.
    armijo :
        Sufficient-decrease coefficient of the line search.
    """
    energy, f = energy_and_forces(atoms, calc)
    g = -f.ravel()                      # gradient
    d = -g.copy()                       # search direction (= force)
    e_hist = [energy]
    f_hist = [max_force(f, atoms.fixed)]
    alpha = step0

    it = 0
    for it in range(1, max_steps + 1):
        fnorm = max_force(f, atoms.fixed)
        if fnorm < fmax:
            return RelaxationResult(atoms, True, it - 1, energy, fnorm,
                                    e_hist, f_hist)

        dnorm = np.linalg.norm(d)
        if dnorm < 1e-14:
            break
        dhat = d / dnorm
        slope = float(g @ dhat)
        if slope >= 0:        # not a descent direction — reset
            d = -g.copy()
            dnorm = np.linalg.norm(d)
            if dnorm < 1e-14:
                break
            dhat = d / dnorm
            slope = float(g @ dhat)

        # backtracking line search on the objective the forces differentiate
        old_pos = atoms.positions.copy()
        a = alpha
        accepted = False
        for _ in range(max_backtracks):
            atoms.positions = old_pos + a * dhat.reshape(-1, 3)
            e_new = calc.get_free_energy(atoms)
            if e_new <= energy + armijo * a * slope:
                accepted = True
                break
            a *= backtrack
        if not accepted:
            atoms.positions = old_pos
            d = -g.copy()          # reset direction, shrink step
            alpha = max(alpha * backtrack, 1e-8)
            if alpha <= 1e-8:
                break
            continue

        # success: update state, PR+ conjugation
        energy = e_new
        f = masked_forces(atoms, calc.get_forces(atoms))
        g_new = -f.ravel()
        beta = float(g_new @ (g_new - g)) / max(float(g @ g), 1e-300)
        beta = max(0.0, beta)      # PR+
        d = -g_new + beta * d
        g = g_new
        alpha = min(a * 1.5, 0.5)  # mild step growth
        e_hist.append(energy)
        f_hist.append(max_force(f, atoms.fixed))

    fnorm = max_force(f, atoms.fixed)
    if raise_on_failure:
        raise ConvergenceError(
            f"CG: fmax {fnorm:.3e} after {it} steps",
            iterations=it, residual=fnorm)
    return RelaxationResult(atoms, fnorm < fmax, it, energy, fnorm,
                            e_hist, f_hist)
