"""Structural relaxation: steepest descent, conjugate gradients, FIRE —
three step rules on the one loop, :func:`repro.relax.base.minimise`."""

from repro.relax.base import RelaxationResult, energy_and_forces, max_force
from repro.relax.steepest import steepest_descent
from repro.relax.cg import conjugate_gradient
from repro.relax.fire import fire_relax

#: ``cli relax --method`` name → relaxer
RELAXERS = {"cg": conjugate_gradient, "fire": fire_relax,
            "sd": steepest_descent}

__all__ = [
    "RELAXERS",
    "RelaxationResult",
    "energy_and_forces",
    "max_force",
    "steepest_descent",
    "conjugate_gradient",
    "fire_relax",
]
