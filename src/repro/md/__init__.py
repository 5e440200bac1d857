"""Molecular dynamics: integrators, thermostats, driver, trajectories."""

from repro.md.velocities import maxwell_boltzmann_velocities
from repro.md.verlet import VelocityVerlet
from repro.md.thermostats import (
    BerendsenThermostat,
    LangevinDynamics,
    NoseHoover,
    NoseHooverChain,
    VelocityRescale,
)
from repro.md.driver import MDDriver
from repro.md.trajectory import Trajectory
from repro.md.observers import (
    ThermoLog, TrajectoryObserver, TrajectoryRecorder,
)
from repro.md.ramps import TemperatureRamp, anneal_protocol
from repro.md.barostat import BerendsenNPT

#: ``cli md --thermostat`` name → ``factory(dt, temperature, seed)``
THERMOSTATS = {
    "none": lambda dt, temperature, seed: VelocityVerlet(dt),
    "nose-hoover": lambda dt, temperature, seed: NoseHoover(dt, temperature),
    "nose-hoover-chain":
        lambda dt, temperature, seed: NoseHooverChain(dt, temperature),
    "langevin":
        lambda dt, temperature, seed: LangevinDynamics(dt, temperature,
                                                       seed=seed),
}

__all__ = [
    "maxwell_boltzmann_velocities",
    "VelocityVerlet",
    "NoseHoover",
    "NoseHooverChain",
    "BerendsenThermostat",
    "LangevinDynamics",
    "VelocityRescale",
    "MDDriver",
    "Trajectory",
    "ThermoLog",
    "TrajectoryRecorder",
    "TrajectoryObserver",
    "TemperatureRamp",
    "anneal_protocol",
    "BerendsenNPT",
    "THERMOSTATS",
]
