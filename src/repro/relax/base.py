"""Shared relaxation plumbing: result record, force masking, convergence."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RelaxationResult:
    """Outcome of a structural relaxation.

    ``atoms`` is the same (mutated) object passed in; ``converged`` tells
    whether ``fmax`` dropped below the requested threshold within the
    iteration budget — callers decide whether non-convergence is an error.
    ``energy`` is the objective that was minimised (see
    :func:`energy_and_forces`): the free energy at kT > 0.
    """

    atoms: object
    converged: bool
    iterations: int
    energy: float
    fmax: float
    energy_history: list[float] = field(default_factory=list)
    fmax_history: list[float] = field(default_factory=list)

    def __repr__(self) -> str:
        state = "converged" if self.converged else "NOT converged"
        return (f"RelaxationResult({state} in {self.iterations} its, "
                f"E = {self.energy:.6f} eV, fmax = {self.fmax:.2e} eV/Å)")


def energy_and_forces(atoms, calc) -> tuple[float, np.ndarray]:
    """One electronic solve for both energy and masked forces.

    Calling ``get_potential_energy`` *then* ``get_forces`` costs two full
    electronic solves on calculators whose energy-only path skips the
    density matrix (the O(N) FOE evaluates half the Chebyshev work for
    energy-only requests, so the cached energy result cannot be upgraded
    to forces for free).  A single ``compute(forces=True)`` returns both
    from one solve — every relaxer step goes through here.  The energy
    returned is the relaxation *objective*: the free energy where the
    calculator reports one (its forces are −∇F at kT > 0).
    """
    res = calc.compute(atoms, forces=True)
    return (res.get("free_energy", res["energy"]),
            masked_forces(atoms, res["forces"]))


def max_force(forces: np.ndarray, fixed: np.ndarray | None = None) -> float:
    """Largest per-atom force norm over the free atoms (eV/Å)."""
    f = np.asarray(forces)
    if fixed is not None and fixed.any():
        f = f[~fixed]
    if len(f) == 0:
        return 0.0
    return float(np.max(np.linalg.norm(f, axis=1)))


def masked_forces(atoms, forces: np.ndarray) -> np.ndarray:
    """Zero the rows of fixed atoms (returns a copy when masking)."""
    if atoms.fixed.any():
        f = forces.copy()
        f[atoms.fixed] = 0.0
        return f
    return forces
