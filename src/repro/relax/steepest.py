"""Steepest-descent relaxation with adaptive step size.

The simplest baseline: move along the force with a step that grows on
success and shrinks on energy increase.  Robust far from minima; slow
close to them — which is exactly the comparison the CG/FIRE tests draw.
"""

from __future__ import annotations

from repro.relax.base import RelaxationResult, minimise


def steepest_descent(atoms, calc, fmax: float = 0.05, max_steps: int = 1000,
                     step: float = 0.05, step_max: float = 0.2,
                     grow: float = 1.2, shrink: float = 0.5) -> RelaxationResult:
    """Relax *atoms* in place until ``max|F| < fmax`` (eV/Å).

    Parameters
    ----------
    step :
        Initial displacement scale in Å per unit force.
    """
    alpha = step

    def rule(energy, forces, evaluate):
        nonlocal alpha
        trial = evaluate(atoms.positions + alpha * forces)
        if trial[0] <= energy + 1e-12:
            alpha = min(alpha * grow, step_max)
            return trial
        alpha *= shrink
        return False if alpha >= 1e-8 else None

    return minimise(atoms, calc, rule, fmax, max_steps)
