"""The one relaxation loop, its result record and the force masking."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError, ReproError


@dataclass
class RelaxationResult:
    """Outcome of a structural relaxation.

    ``atoms`` is the same (mutated) object passed in; ``converged`` tells
    whether ``fmax`` dropped below the requested threshold within the
    iteration budget — a caller for whom non-convergence is an error
    says so with :meth:`require_converged`.  ``energy`` is the objective
    that was minimised (see :func:`energy_and_forces`): the free energy
    at kT > 0.  The histories hold the starting point plus one entry per
    iteration (an iteration that accepted no trial repeats the last one).
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

    def require_converged(self) -> RelaxationResult:
        """``self``, or :class:`ConvergenceError` if the run did not converge."""
        if not self.converged:
            raise ConvergenceError(
                f"relaxation: fmax {self.fmax:.3e} eV/Å after "
                f"{self.iterations} iterations",
                iterations=self.iterations, residual=self.fmax)
        return self


def energy_and_forces(atoms, calc) -> tuple[float, np.ndarray]:
    """One electronic solve for both energy and masked forces.

    Asking a calculator for the energy *then* for the forces costs two
    full electronic solves where the energy-only path skips the density
    matrix (the O(N) FOE evaluates half the Chebyshev work for
    energy-only requests, so the cached energy result cannot be upgraded
    to forces for free).  A single ``compute(forces=True)`` returns both
    from one solve — every trial point of every relaxer goes through
    here.  The energy returned is the relaxation *objective*: the free
    energy where the calculator reports one (its forces are −∇F at kT > 0).
    """
    res = calc.compute(atoms, forces=True)
    return (res.get("free_energy", res["energy"]),
            masked_forces(atoms, res["forces"]))


Point = tuple[float, np.ndarray]          # (objective, masked forces)


def minimise(atoms, calc, rule: Callable[..., Point | bool | None],
             fmax: float, max_steps: int) -> RelaxationResult:
    """Relax *atoms* in place with step rule *rule* — the one loop.

    Per iteration ``rule(energy, forces, evaluate)`` sees the last
    accepted point and prices trial geometries with
    ``evaluate(positions) -> (objective, masked forces)``, one
    ``compute(forces=True)`` each.  It returns the pair of the trial it
    accepts (the last one it evaluated), ``False`` for an iteration that
    accepted none, or ``None`` when it can go no further.  After anything
    but an accepted trial — a :class:`ReproError` out of a trial solve
    included, which is re-raised — the atoms are put back on the last
    accepted point.
    """
    def evaluate(positions: np.ndarray) -> Point:
        atoms.positions = positions
        return energy_and_forces(atoms, calc)

    energy, forces = energy_and_forces(atoms, calc)
    e_hist, f_hist = [energy], [max_force(forces, atoms.fixed)]
    it = 0
    while f_hist[-1] >= fmax and it < max_steps:
        it += 1
        accepted = atoms.positions.copy()
        try:
            trial = rule(energy, forces, evaluate)
        except ReproError:
            atoms.positions = accepted
            raise
        if trial:
            energy, forces = trial
        else:
            atoms.positions = accepted
            if trial is None:
                break
        e_hist.append(energy)
        f_hist.append(max_force(forces, atoms.fixed))
    return RelaxationResult(atoms, f_hist[-1] < fmax, it, energy, f_hist[-1],
                            e_hist, f_hist)


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
