"""Regenerate tests/golden/md_parity.json (deliberate integrator changes only).

The record was written at the last commit that still had one hand-typed
``step`` per integrator; ``tests/test_md_parity.py`` holds the one
velocity-Verlet core to it.  Run from the repository root::

    PYTHONPATH=src python tests/golden/regen_md_parity.py

and review the diff: a shift beyond round-off means some integrator's
trajectory changed.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.geometry import bulk_silicon, rattle
from repro.md import (
    BerendsenNPT, BerendsenThermostat, LangevinDynamics, MDDriver, NoseHoover,
    NoseHooverChain, ThermoLog, VelocityRescale, VelocityVerlet,
    maxwell_boltzmann_velocities,
)
from repro.tb import GSPSilicon, TBCalculator

GOLDEN = pathlib.Path(__file__).with_name("md_parity.json")

T = 600.0
INTEGRATORS = {
    "verlet": lambda dt: VelocityVerlet(dt),
    "nose-hoover": lambda dt: NoseHoover(dt, T, tau=40.0),
    "nose-hoover-q": lambda dt: NoseHoover(dt, T, q_mass=50.0),
    "chain-3": lambda dt: NoseHooverChain(dt, T, tau=40.0),
    "chain-1": lambda dt: NoseHooverChain(dt, T, tau=40.0, chain_length=1),
    "berendsen": lambda dt: BerendsenThermostat(dt, T, tau=25.0),
    "rescale": lambda dt: VelocityRescale(dt, T, interval=3),
    "langevin": lambda dt: LangevinDynamics(dt, T, friction=0.05, seed=11),
    "berendsen-npt": lambda dt: BerendsenNPT(dt, T, tau=25.0, tau_p=100.0),
}


def prepared_atoms(fixed: bool):
    """Rattled 8-atom silicon at 300 K, atom 2 optionally frozen."""
    atoms = rattle(bulk_silicon(), 0.05, seed=3)
    if fixed:
        atoms.fixed[2] = True
    maxwell_boltzmann_velocities(atoms, 300.0, seed=5)
    return atoms


def run_case(name: str, dt: float, steps: int, fixed: bool) -> dict:
    """Final positions, velocities and cell plus the conserved series of
    *steps* steps of integrator *name*."""
    atoms = prepared_atoms(fixed)
    log = ThermoLog()
    MDDriver(atoms, TBCalculator(GSPSilicon()), INTEGRATORS[name](dt),
             observers=[log]).run(steps)
    return {"positions": atoms.positions, "velocities": atoms.velocities,
            "cell": atoms.cell.matrix, "conserved": np.asarray(log.conserved)}


def case_key(name: str, fixed: bool) -> str:
    return f"{name}/{'fixed' if fixed else 'free'}"


def main() -> None:
    data = json.loads(GOLDEN.read_text())
    dt, steps = data["settings"]["dt"], data["settings"]["steps"]
    cases = {
        case_key(name, fixed): {k: np.asarray(v).tolist() for k, v in
                                run_case(name, dt, steps, fixed).items()}
        for name in INTEGRATORS for fixed in (False, True)}
    # one case per line: a drifted integrator is one changed line in the diff
    head = json.dumps({k: v for k, v in data.items() if k != "cases"},
                      indent=1)
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                      for k, v in cases.items())
    GOLDEN.write_text(f'{head[:-2]},\n "cases": {{\n{body}\n }}\n}}\n')
    print(f"wrote {GOLDEN} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
