"""Berendsen pressure coupling (NPT-ish dynamics).

The weak-coupling barostat: each step the cell and coordinates are
scaled by ``μ = [1 − (dt/τ_P)·κ·(P₀ − P)]^{1/3}`` toward the target
pressure, stacked on top of Berendsen temperature coupling.  Not a true
isothermal–isobaric ensemble (like its thermostat sibling), but the
standard tool for equilibrating density — e.g. preparing liquid samples
at zero pressure before NVT production.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MDError
from repro.geometry.cell import Cell
from repro.md.thermostats import BerendsenThermostat
from repro.units import GPA_TO_EV_PER_A3


class BerendsenNPT(BerendsenThermostat):
    """Berendsen thermostat + barostat.

    Parameters
    ----------
    pressure_gpa :
        Target pressure (GPa).
    tau_p :
        Pressure relaxation time (fs).
    compressibility :
        κ in (eV/Å³)⁻¹; the isothermal compressibility scale of the
        material (default ≈ silicon, 1/B with B ≈ 100 GPa).
    max_scaling :
        Per-step bound on |μ − 1| to keep early equilibration stable.
    """

    def __init__(self, dt: float, temperature: float, pressure_gpa: float = 0.0,
                 tau: float = 100.0, tau_p: float = 500.0,
                 compressibility: float | None = None,
                 max_scaling: float = 0.01):
        super().__init__(dt, temperature, tau=tau)
        if tau_p < dt:
            raise MDError("tau_p must be >= dt")
        self.target_pressure = float(pressure_gpa) * GPA_TO_EV_PER_A3
        self.tau_p = float(tau_p)
        if compressibility is None:
            compressibility = 1.0 / (100.0 * GPA_TO_EV_PER_A3)
        self.compressibility = float(compressibility)
        self.max_scaling = float(max_scaling)

    def _after(self, atoms, res: dict) -> None:
        if not atoms.cell.fully_periodic:
            raise MDError("pressure coupling needs a fully periodic cell")
        super()._after(atoms, res)
        p_now = res.get("pressure")
        if p_now is None:
            raise MDError("calculator does not report pressure")
        # kinetic contribution to the pressure (virial part comes from calc)
        vol = atoms.cell.volume
        p_kin = 2.0 * atoms.kinetic_energy() / (3.0 * vol)
        p_total = p_now + p_kin
        mu3 = 1.0 - (self.dt / self.tau_p) * self.compressibility \
            * (self.target_pressure - p_total)
        mu = np.clip(mu3 ** (1.0 / 3.0),
                     1.0 - self.max_scaling, 1.0 + self.max_scaling)
        atoms.positions *= mu
        atoms.cell = Cell(atoms.cell.matrix * mu, pbc=atoms.cell.pbc)
