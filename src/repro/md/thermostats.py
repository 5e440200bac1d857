"""Canonical-ensemble integrators: Nosé–Hoover (+chains), Berendsen,
Langevin (BAOAB), and plain velocity rescaling.

The Nosé–Hoover implementation follows the operator-splitting form of
Martyna, Tuckerman & Klein as presented in Frenkel & Smit, *Understanding
Molecular Simulation* — thermostat half-update, velocity-Verlet core,
thermostat half-update.  Its conserved quantity (the extended-system
energy)

.. math::

   H' = E_{pot} + E_{kin} + \\tfrac12 Q\\,v_\\xi^2 + g k_B T\\,\\xi

is exposed through :meth:`NoseHooverChain.conserved_quantity` and monitored by
the F5 benchmark to the same "< 1 part in 10⁴, no drift" standard the
era's TBMD papers demonstrate for their NVT runs.

The thermostat mass defaults to ``Q = g·k_B·T·τ²`` with relaxation time
τ; ``target_temperature`` is a mutable attribute, which is how the
0.5 K/fs heating-ramp protocol of the classic nanotube simulations is
driven (see :mod:`repro.md.ramps`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MDError
from repro.md.verlet import Integrator
from repro.units import FORCE_TO_ACC, KB
from repro.utils.rng import default_rng


def _ndof(atoms) -> int:
    """Degrees of freedom thermostatted: 3 per free atom."""
    return 3 * int((~atoms.fixed).sum())


class NoseHooverChain(Integrator):
    """Nosé–Hoover chain thermostat (MTK), default chain length 3.

    Chains cure the ergodicity pathologies of the single thermostat for
    small or stiff systems (the classic harmonic-oscillator failure case).

    Parameters
    ----------
    dt : time step (fs).
    temperature : target temperature (K); mutable between steps.
    tau : thermostat relaxation time (fs); sets ``Q₁ = g kB T τ²`` and
        ``Q_k = kB T τ²`` for the further links.
    chain_length : number of thermostat links.
    """

    def __init__(self, dt: float, temperature: float, tau: float = 70.0,
                 chain_length: int = 3):
        super().__init__(dt)
        if temperature <= 0:
            raise MDError("NVT target temperature must be > 0")
        if tau <= 0:
            raise MDError("tau must be > 0")
        if chain_length < 1:
            raise MDError("chain_length must be >= 1")
        self.target_temperature = float(temperature)
        self.tau = float(tau)
        self.m = int(chain_length)
        self.xi = np.zeros(self.m)      # thermostat "positions" (∫ v_xi dt)
        self.v_xi = np.zeros(self.m)    # thermostat velocities

    def _masses(self, atoms) -> np.ndarray:
        """Thermostat inertias Q_k in eV·fs²."""
        q = np.full(self.m, KB * self.target_temperature * self.tau**2)
        q[0] = _ndof(atoms) * KB * self.target_temperature * self.tau**2
        return q

    def _chain_half(self, atoms, res=None) -> None:
        """Chain update over dt/2 with the particle-velocity scaling in
        its middle (MTK); runs before and after the velocity-Verlet core."""
        dt2, dt4, dt8 = 0.5 * self.dt, 0.25 * self.dt, 0.125 * self.dt
        m, v = self.m, self.v_xi
        g = _ndof(atoms)
        kT = KB * self.target_temperature
        q = self._masses(atoms)
        ekin2 = 2.0 * atoms.kinetic_energy()

        def push(k: int) -> None:
            """Quarter step of link k: its own force, dragged by link k+1."""
            num = ekin2 - g * kT if k == 0 else q[k - 1] * v[k - 1]**2 - kT
            fac = np.exp(-dt8 * v[k + 1]) if k + 1 < m else 1.0
            v[k] = fac * (fac * v[k] + dt4 * num / q[k])

        for k in reversed(range(m)):    # chain tail → head
            push(k)
        scale = np.exp(-dt2 * v[0])
        atoms.velocities[~atoms.fixed] *= scale
        ekin2 *= scale * scale
        self.xi += dt2 * v
        for k in range(m):              # chain head → tail
            push(k)

    _before = _after = _chain_half

    def _get_state(self):
        return self.xi.copy(), self.v_xi.copy()

    def _set_state(self, state) -> None:
        self.xi, self.v_xi = state

    def conserved_quantity(self, atoms, epot: float) -> float:
        g = _ndof(atoms)
        kT = KB * self.target_temperature
        q = self._masses(atoms)
        e = epot + atoms.kinetic_energy()
        e += 0.5 * float(np.sum(q * self.v_xi**2))
        e += g * kT * self.xi[0] + kT * float(np.sum(self.xi[1:]))
        return e


class NoseHoover(NoseHooverChain):
    """Single Nosé–Hoover thermostat (NVT): the chain of length one.
    *q_mass* is an explicit thermostat mass (eV·fs²), overriding *tau*."""

    def __init__(self, dt: float, temperature: float, tau: float = 70.0,
                 q_mass: float | None = None):
        super().__init__(dt, temperature, tau=tau, chain_length=1)
        self._q_explicit = q_mass

    def q_mass(self, atoms) -> float:
        """Thermostat inertia Q in eV·fs²."""
        return float(self._masses(atoms)[0])

    def _masses(self, atoms) -> np.ndarray:
        if self._q_explicit is not None:
            return np.array([float(self._q_explicit)])
        return super()._masses(atoms)


class BerendsenThermostat(Integrator):
    """Berendsen weak-coupling thermostat (not canonical — a workhorse for
    equilibration, kept for completeness and comparison benches)."""

    def __init__(self, dt: float, temperature: float, tau: float = 100.0):
        super().__init__(dt)
        if temperature <= 0:
            raise MDError("target temperature must be > 0")
        if tau < dt:
            raise MDError("tau must be >= dt for stability")
        self.target_temperature = float(temperature)
        self.tau = float(tau)

    def _after(self, atoms, res: dict) -> None:
        t_now = atoms.temperature()
        if t_now > 0:
            lam = np.sqrt(max(0.0, 1.0 + (self.dt / self.tau)
                              * (self.target_temperature / t_now - 1.0)))
            atoms.velocities[~atoms.fixed] *= lam


class LangevinDynamics(Integrator):
    """Langevin dynamics with the BAOAB splitting (Leimkuhler–Matthews).

    Canonical sampling with excellent configurational accuracy; the O-step
    is the exact Ornstein–Uhlenbeck solution.  The core's two half-kicks
    are the two B's; the drift hook is A–O–A.
    """

    def __init__(self, dt: float, temperature: float, friction: float = 0.01,
                 seed=None):
        super().__init__(dt)
        if temperature < 0:
            raise MDError("temperature must be >= 0")
        if friction <= 0:
            raise MDError("friction must be > 0 (fs⁻¹)")
        self.target_temperature = float(temperature)
        self.friction = float(friction)
        self.rng = default_rng(seed)

    def _drift(self, atoms) -> None:
        dt = self.dt
        free = ~atoms.fixed
        # A: half drift
        atoms.positions += 0.5 * dt * atoms.velocities
        # O: Ornstein–Uhlenbeck
        c1 = np.exp(-self.friction * dt)
        sigma = np.sqrt(KB * self.target_temperature * FORCE_TO_ACC
                        / atoms.masses[free])
        noise = self.rng.normal(size=(int(free.sum()), 3)) * sigma[:, None]
        atoms.velocities[free] = (c1 * atoms.velocities[free]
                                  + np.sqrt(1.0 - c1 * c1) * noise)
        # A: half drift
        atoms.positions += 0.5 * dt * atoms.velocities

    def _get_state(self):
        return self.rng.bit_generator.state

    def _set_state(self, state) -> None:
        self.rng.bit_generator.state = state


class VelocityRescale(Integrator):
    """Velocity-Verlet with hard rescaling to the target temperature every
    *interval* steps — the crudest thermostat, kept as a baseline."""

    def __init__(self, dt: float, temperature: float, interval: int = 1):
        super().__init__(dt)
        if temperature <= 0:
            raise MDError("target temperature must be > 0")
        if interval < 1:
            raise MDError("interval must be >= 1")
        self.target_temperature = float(temperature)
        self.interval = int(interval)

    def _after(self, atoms, res: dict) -> None:
        if self.nsteps % self.interval == 0:
            t_now = atoms.temperature()
            if t_now > 0:
                atoms.velocities[~atoms.fixed] *= np.sqrt(
                    self.target_temperature / t_now)
