"""Steepest-descent relaxation with adaptive step size.

The simplest baseline: move along the force with a step that grows on
success and shrinks on energy increase.  Robust far from minima; slow
close to them — which is exactly the comparison the CG/FIRE tests draw.
"""

from __future__ import annotations

from repro.errors import ConvergenceError
from repro.relax.base import (
    RelaxationResult, energy_and_forces, masked_forces, max_force,
)


def steepest_descent(atoms, calc, fmax: float = 0.05, max_steps: int = 1000,
                     step: float = 0.05, step_max: float = 0.2,
                     grow: float = 1.2, shrink: float = 0.5,
                     raise_on_failure: bool = False) -> RelaxationResult:
    """Relax *atoms* in place until ``max|F| < fmax`` (eV/Å).

    Parameters
    ----------
    step :
        Initial displacement scale in Å per unit force.
    """
    e_prev, f = energy_and_forces(atoms, calc)
    e_hist, f_hist = [e_prev], [max_force(f, atoms.fixed)]
    alpha = step
    it = 0
    for it in range(1, max_steps + 1):
        fnorm = max_force(f, atoms.fixed)
        if fnorm < fmax:
            return RelaxationResult(atoms, True, it - 1, e_prev, fnorm,
                                    e_hist, f_hist)
        trial = atoms.positions + alpha * f
        old = atoms.positions.copy()
        atoms.positions = trial
        e_new = calc.get_free_energy(atoms)
        if e_new <= e_prev + 1e-12:
            e_prev = e_new
            f = masked_forces(atoms, calc.get_forces(atoms))
            alpha = min(alpha * grow, step_max)
        else:
            atoms.positions = old
            alpha *= shrink
            if alpha < 1e-8:
                break
        e_hist.append(e_prev)
        f_hist.append(max_force(f, atoms.fixed))
    fnorm = max_force(f, atoms.fixed)
    if raise_on_failure:
        raise ConvergenceError(
            f"steepest descent: fmax {fnorm:.3e} after {it} steps",
            iterations=it, residual=fnorm)
    return RelaxationResult(atoms, fnorm < fmax, it, e_prev, fnorm,
                            e_hist, f_hist)
