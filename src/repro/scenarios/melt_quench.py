"""Melt-quench scenario: Langevin melt, quench, then liquid analysis.

Two thermostatted MD legs through the service-resident calculator
(every step is a positions-only update — the MD fast path), followed by
g(r) / first-peak structure analysis on the quenched trajectory and the
mean-squared-displacement / Einstein diffusion coefficient of the melt
leg.  Deliberately small defaults: a campaign cell should answer "did
it melt, what liquid did we get" in seconds — production trajectories
belong to ``repro.cli md``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.msd import diffusion_coefficient, mean_squared_displacement
from repro.analysis.rdf import first_peak, radial_distribution
from repro.md import (
    LangevinDynamics, MDDriver, TrajectoryRecorder,
    maxwell_boltzmann_velocities,
)
from repro.scenarios.base import (
    ParamSpec, Scenario, ScenarioResult, StructureHandle, _timed,
    register_scenario,
)
from repro.service.calculator import RemoteCalculator


@register_scenario
class MeltQuenchScenario(Scenario):
    name = "melt-quench"
    tags = ("dynamic", "md", "liquid")
    description = ("Langevin melt + quench with g(r), first-peak and "
                   "diffusion analysis of the trajectory")
    params = (
        ParamSpec("melt_steps", int, 60, "MD steps in the melt leg"),
        ParamSpec("quench_steps", int, 60, "MD steps in the quench leg"),
        ParamSpec("dt_fs", float, 1.0, "time step (fs)"),
        ParamSpec("melt_temperature", float, 2500.0, "melt target (K)"),
        ParamSpec("quench_temperature", float, 300.0, "quench target (K)"),
        ParamSpec("friction", float, 0.05, "Langevin friction (fs⁻¹)"),
        ParamSpec("seed", int, 7, "velocity/thermostat RNG seed"),
        ParamSpec("sample_interval", int, 5,
                  "trajectory sampling stride (steps)"),
        ParamSpec("r_max", float, None,
                  "g(r) histogram range (Å); default 0.45·min cell edge"),
        ParamSpec("nbins", int, 60, "g(r) bins"),
    )

    def run(self, client, structure: StructureHandle,
            params: dict) -> ScenarioResult:
        atoms = structure.atoms.copy()
        maxwell_boltzmann_velocities(atoms, params["melt_temperature"],
                                     seed=params["seed"])
        scratch = structure.scratch_id("melt")
        client.load(scratch, atoms, calc=structure.calc_spec)
        timings: dict = {}
        rec = TrajectoryRecorder()
        traj = rec.trajectory
        interval = max(1, params["sample_interval"])

        def run_leg(leg, temperature, steps, seed):
            with _timed(timings, f"{leg}_s"):
                MDDriver(
                    atoms, calc,
                    LangevinDynamics(dt=params["dt_fs"],
                                     temperature=temperature,
                                     friction=params["friction"], seed=seed),
                    observers=[(rec, interval)]).run(steps)

        try:
            calc = RemoteCalculator(client, scratch)
            run_leg("melt", params["melt_temperature"],
                    params["melt_steps"], params["seed"])
            n_melt = len(traj)
            run_leg("quench", params["quench_temperature"],
                    params["quench_steps"], params["seed"] + 1)
        finally:
            client.unload(scratch)
        # each leg's driver counts steps and time from 0 itself: number
        # the samples globally and carry the clock across the boundary
        melt_end_fs = params["melt_steps"] * params["dt_fs"]
        for i, frame in enumerate(traj.frames):
            frame.step = i
            if i >= n_melt:
                frame.time_fs += melt_end_fs

        with _timed(timings, "analysis_s"):
            r_max = params["r_max"]
            if r_max is None:
                lengths = np.linalg.norm(atoms.cell.matrix, axis=1)
                r_max = 0.45 * float(lengths.min())
            r, g = radial_distribution(
                (traj.atoms_at(i) for i in range(n_melt, len(traj))),
                r_max, nbins=params["nbins"])
            peak = first_peak(r, g)
            diffusion = None
            if n_melt >= 6:
                msd = mean_squared_displacement(traj.positions()[:n_melt],
                                                origins=3)
                diffusion = diffusion_coefficient(traj.times()[:n_melt], msd)
        last = traj.frames[-1]
        metrics = {"first_peak_aa": float(peak),
                   "final_temperature_k": float(last.temperature),
                   "epot_final_ev_atom": float(last.epot) / len(atoms),
                   "nsamples": len(traj)}
        if diffusion is not None:
            metrics["diffusion_melt_aa2_fs"] = float(diffusion)
        value = {"r": [float(x) for x in r], "g": [float(x) for x in g],
                 "legs": {"melt": params["melt_steps"],
                          "quench": params["quench_steps"]},
                 **metrics}
        return ScenarioResult(self.name, value=value, metrics=metrics,
                              timings=timings, trajectory=traj)
