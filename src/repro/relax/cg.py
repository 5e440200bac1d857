"""Polak–Ribière conjugate-gradient relaxation with backtracking line search.

The structural-relaxation workhorse of the era (the "CG technique" of
Numerical Recipes every TB paper cites).  Directions are conjugated with
the Polak–Ribière+ formula (automatic reset to steepest descent when the
conjugacy is lost); the line search backtracks on an Armijo condition.
"""

from __future__ import annotations

import numpy as np

from repro.relax.base import RelaxationResult, minimise


def conjugate_gradient(atoms, calc, fmax: float = 0.05, max_steps: int = 500,
                       step0: float = 0.1, armijo: float = 1e-4,
                       backtrack: float = 0.5,
                       max_backtracks: int = 12) -> RelaxationResult:
    """Relax *atoms* in place until ``max|F| < fmax`` (eV/Å).

    Parameters
    ----------
    step0 :
        Initial trial step along the (normalised) search direction, Å.
    armijo :
        Sufficient-decrease coefficient of the line search.
    """
    alpha = step0
    d = None                            # search direction; starts as the force

    def rule(energy, forces, evaluate):
        nonlocal alpha, d
        g = -forces.ravel()             # gradient
        if d is None or float(g @ d) >= 0:   # not a descent direction — reset
            d = -g
        dnorm = np.linalg.norm(d)
        if dnorm < 1e-14:
            return None
        dhat = d / dnorm
        slope = float(g @ dhat)

        # backtracking line search on the objective the forces differentiate
        start = atoms.positions
        a = alpha
        for _ in range(max_backtracks):
            trial = evaluate(start + a * dhat.reshape(-1, 3))
            if trial[0] <= energy + armijo * a * slope:
                break
            a *= backtrack
        else:
            d = -g                      # reset direction, shrink step
            alpha = max(alpha * backtrack, 1e-8)
            return False if alpha > 1e-8 else None

        g_new = -trial[1].ravel()       # PR+ conjugation
        beta = max(0.0, float(g_new @ (g_new - g)) / max(float(g @ g), 1e-300))
        d = -g_new + beta * d
        alpha = min(a * 1.5, 0.5)       # mild step growth
        return trial

    return minimise(atoms, calc, rule, fmax, max_steps)
