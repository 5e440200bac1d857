"""The one velocity-Verlet time step and the integrator base class.

The integrator contract: :meth:`Integrator.initialize` is called once
with the starting structure (computes initial forces), then
:meth:`Integrator.step` advances positions/velocities by ``dt`` and
returns the post-step results dict from the calculator.  There is one
``step`` — half-kick, drift, force evaluation, half-kick — and an
ensemble is what it hangs on the three hooks ``_before``, ``_drift``
and ``_after``.  Fixed atoms never move: their forces and velocities
are masked to zero inside :meth:`Integrator.apply_constraints`.  A step
whose force evaluation fails leaves atoms and integrator as they were
before it, so the caller may retry.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MDError, ReproError
from repro.units import FORCE_TO_ACC


class Integrator:
    """Velocity-Verlet core; subclasses add an ensemble through hooks."""

    def __init__(self, dt: float):
        if dt <= 0:
            raise MDError(f"time step must be > 0, got {dt}")
        self.dt = float(dt)
        self._forces: np.ndarray | None = None
        self.nsteps = 0

    # -- lifecycle -------------------------------------------------------------
    def initialize(self, atoms, calc) -> dict:
        """Compute initial forces; must be called before the first step."""
        res = calc.compute(atoms, forces=True)
        self._forces = self.apply_constraints(atoms, res["forces"])
        return res

    def apply_constraints(self, atoms, forces: np.ndarray) -> np.ndarray:
        """Zero forces (and velocities) of fixed atoms."""
        if atoms.fixed.any():
            forces = forces.copy()
            forces[atoms.fixed] = 0.0
            atoms.velocities[atoms.fixed] = 0.0
        return forces

    def step(self, atoms, calc) -> dict:
        """Advance one time step; returns the calculator results.  A
        :class:`ReproError` raised inside it propagates with atoms and
        integrator put back to their pre-step state."""
        pos, vel = atoms.positions.copy(), atoms.velocities.copy()
        forces, nsteps, state = self._forces, self.nsteps, self._get_state()
        try:
            self._before(atoms)
            self._kick(atoms, self.forces)
            self._drift(atoms)
            res = calc.compute(atoms, forces=True)
            f_new = self.apply_constraints(atoms, res["forces"])
            self._kick(atoms, f_new)
            self._forces = f_new
            self.nsteps += 1
            self._after(atoms, res)
        except ReproError:
            atoms.positions[:] = pos
            atoms.velocities[:] = vel
            self._forces, self.nsteps = forces, nsteps
            self._set_state(state)
            raise
        return res

    def _kick(self, atoms, forces: np.ndarray) -> None:
        """Half-step velocity update from (constrained) *forces*."""
        acc = FORCE_TO_ACC * forces / atoms.masses[:, None]
        atoms.velocities += 0.5 * self.dt * acc
        atoms.velocities[atoms.fixed] = 0.0

    # -- ensemble hooks ----------------------------------------------------------
    def _before(self, atoms) -> None:
        """Runs ahead of the first half-kick."""

    def _drift(self, atoms) -> None:
        """Full-step position update between the two half-kicks."""
        atoms.positions += self.dt * atoms.velocities

    def _after(self, atoms, res: dict) -> None:
        """Runs once the step is complete (``nsteps`` already counts it)."""

    def _get_state(self):
        """Copy of the ensemble variables a step mutates."""
        return None

    def _set_state(self, state) -> None:
        """Put back what :meth:`_get_state` returned."""

    # -- bookkeeping --------------------------------------------------------------
    def conserved_quantity(self, atoms, epot: float) -> float:
        """The quantity this integrator conserves (E_tot for NVE)."""
        return epot + atoms.kinetic_energy()

    @property
    def forces(self) -> np.ndarray:
        if self._forces is None:
            raise MDError("integrator not initialised; call initialize() first")
        return self._forces


class VelocityVerlet(Integrator):
    """Microcanonical (NVE) velocity-Verlet integrator: the bare core.

    The standard kick–drift–kick splitting: time-reversible, symplectic,
    energy drift bounded for stable time steps.  The F4 benchmark
    demonstrates the < 1 part in 10⁴ conservation the era's papers quote
    for dt = 1 fs.
    """
