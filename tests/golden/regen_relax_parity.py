"""Regenerate tests/golden/relax_parity.json (deliberate relaxer changes only).

The record was written at the last commit that still had one hand-typed
loop per relaxer; ``tests/test_relax_parity.py`` holds the one
``minimise`` loop and its three step rules to it.  Run from the
repository root::

    PYTHONPATH=src python tests/golden/regen_relax_parity.py

and review the diff: a changed ``iterations`` or ``n_history``, or a
shift beyond round-off, means some relaxer walks a different path.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.geometry import bulk_silicon, carbon_ring, rattle
from repro.linscale import LinearScalingCalculator
from repro.relax import conjugate_gradient, fire_relax, steepest_descent
from repro.tb import GSPSilicon, TBCalculator, XuCarbon

GOLDEN = pathlib.Path(__file__).with_name("relax_parity.json")

# spelled out rather than imported from repro.relax, so that the record can
# be re-derived with PYTHONPATH pointing at the recording commit's src/
RELAXERS = {"sd": steepest_descent, "cg": conjugate_gradient,
            "fire": fire_relax}


def si8(fixed: bool = False):
    """Rattled 8-atom silicon, atom 2 optionally frozen."""
    atoms = rattle(bulk_silicon(), 0.1, seed=22)
    if fixed:
        atoms.fixed[2] = True
    return atoms


def si8_case(kT: float, fixed: bool, **kwargs):
    return lambda: (si8(fixed), TBCalculator(GSPSilicon(), kT=kT),
                    {"fmax": 0.02, **kwargs})


#: case → ``() -> (atoms, calc, relaxer kwargs)``
CASES = {
    "si8-kt0/free": si8_case(0.0, False),
    "si8-kt0/fixed": si8_case(0.0, True),
    "si8-kt0.3/free": si8_case(0.3, False),
    "si8-kt0.3/fixed": si8_case(0.3, True),
    "c6-ring": lambda: (carbon_ring(6, bond=1.50), TBCalculator(XuCarbon()),
                        {"fmax": 0.02}),
    "si8-budget-5": si8_case(0.0, False, fmax=1e-10, max_steps=5),
    "si8-linscale-kt0.2": lambda: (
        si8(), LinearScalingCalculator(GSPSilicon(), kT=0.2, r_loc=6.0),
        {"fmax": 0.05, "max_steps": 12}),
}


def run_case(relaxer: str, case: str) -> dict:
    """Outcome, history length, final objective and positions of one run."""
    atoms, calc, kwargs = CASES[case]()
    res = RELAXERS[relaxer](atoms, calc, **kwargs)
    return {"converged": res.converged, "iterations": res.iterations,
            "n_history": len(res.energy_history), "energy": res.energy,
            "positions": atoms.positions}


def case_key(relaxer: str, case: str) -> str:
    return f"{relaxer}/{case}"


def main() -> None:
    data = json.loads(GOLDEN.read_text())
    cases = {}
    for relaxer in RELAXERS:
        for case in CASES:
            got = run_case(relaxer, case)
            got["positions"] = np.asarray(got["positions"]).tolist()
            cases[case_key(relaxer, case)] = got
    # one case per line: a drifted relaxer is one changed line in the diff
    head = json.dumps({k: v for k, v in data.items() if k != "cases"},
                      indent=1)
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                      for k, v in cases.items())
    GOLDEN.write_text(f'{head[:-2]},\n "cases": {{\n{body}\n }}\n}}\n')
    print(f"wrote {GOLDEN} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
