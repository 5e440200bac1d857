"""Regenerate tests/golden/linscale_parity.json (deliberate changes only).

The record was written at the last commit whose linscale engine kept a
sparse-Hamiltonian pattern cache of its own beside the bond table, with
a dirty-row rewrite for steps that moved only some atoms;
``tests/test_bond_table.py`` holds the density-matrix calculators, which
now read one cached bond table per step, to it.  Every case is a cold
evaluation followed by a 20-step warm walk laid out like the
``tb_eval_parity`` walks: exactly one Verlet rebuild and at least one
bond crossing the cutoff between rebuilds.  The walks without jitter
move one atom per step.  Run from the repository root::

    PYTHONPATH=src python -m tests.golden.regen_linscale_parity

and read the diff: any changed number means a linscale evaluation
changed.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.geometry import beta_tin_silicon, bulk_silicon, rattle, supercell
from repro.linscale import DensityMatrixCalculator, LinearScalingCalculator
from repro.linscale.calculator import _OneRegionCalculator
from repro.tb import GSPSilicon
from tests.golden.regen_tb_eval_parity import (
    JITTER, SI8_WALK, rattled_si8, walk,
)

GOLDEN = pathlib.Path(__file__).with_name("linscale_parity.json")


def rattled_si64():
    return rattle(supercell(bulk_silicon(), 2), 0.05, seed=31)


def beta_tin_si8():
    """8-atom β-tin silicon, a small-cell metal."""
    return rattle(supercell(beta_tin_silicon(), (1, 1, 2)), 0.04, seed=11)


def linscale(**kw):
    return lambda: LinearScalingCalculator(GSPSilicon(), kT=0.2, order=80,
                                           **kw)


def dense_foe():
    """``solver: foe`` — the region engine on one all-core region — with
    every warm step verified by a second pass (``rho_tol=0``), as the
    dense calculator that wrote this case's record solved each step."""
    return _OneRegionCalculator(GSPSilicon(), kT=0.3, order=120, rho_tol=0.0)


#: case → (structure, calculator factory, (drifting atom, drift direction),
#: jitter); the Γ walk's tight rho_tol makes some warm solves fall back
CASES = {
    "linscale-si64/gamma": (rattled_si64, linscale(rho_tol=1e-16),
                            (54, (-0.1995, 0.967, 0.1584)), JITTER),
    "linscale-si8/one-atom": (rattled_si8, linscale(), SI8_WALK, 0.0),
    "linscale-betatin8/kpts2": (beta_tin_si8, linscale(r_loc=6.0, kpts=2),
                                (0, (-0.5658, 0.299, 0.7685)), JITTER),
    "linscale-si8/symmetry": (bulk_silicon,
                              linscale(kpts=2, kgrid_reduce="symmetry"),
                              (0, (1.0, 1.0, 0.0)), 0.0),
    "dm-si8/foe": (rattled_si8, dense_foe, SI8_WALK, JITTER),
    "dm-si8/purification": (rattled_si8,
                            lambda: DensityMatrixCalculator(GSPSilicon()),
                            SI8_WALK, JITTER),
}

#: per-step results held to the record (where the calculator reports them)
KEYS = ("energy", "free_energy", "fermi_level", "forces", "virial",
        "populations")


def walk_steps(case: str) -> list[np.ndarray]:
    """Positions of a case's cold evaluation and its warm walk."""
    make_atoms, _, (mover, direction), jitter = CASES[case]
    atoms = make_atoms()
    return [atoms.positions.copy()] + walk(atoms, mover, direction, jitter)


def run_case(case: str, calc=None) -> dict:
    """Per-step results of the cold evaluation and the warm walk, plus
    the pair count, whether the Verlet list rebuilt and (linscale) the
    solve mode at each step.  *calc* replaces the case's own calculator
    (same construction)."""
    make_atoms, make_calc, _, _ = CASES[case]
    atoms = make_atoms()
    calc = make_calc() if calc is None else calc
    out: dict = {}
    for pos in walk_steps(case):
        atoms.positions[:] = pos
        res = calc.compute(atoms, forces=True)
        row = {key: res[key] for key in KEYS if key in res}
        row["n_pairs"] = res["n_pairs"]
        row["rebuilt"] = calc._vlist.last_update_rebuilt
        if "fastpath" in res:
            row["mode"] = res["fastpath"]["mode"]
        for key, value in row.items():
            out.setdefault(key, []).append(value)
    return out


def main() -> None:
    data = {"_comment": [
        "Per-step energy, free energy, Fermi level, forces, virial and",
        "populations of a cold LinearScalingCalculator / DensityMatrix-",
        "Calculator evaluation plus a 20-step warm walk (one Verlet rebuild,",
        "bonds crossing the cutoff between rebuilds; Γ, k, symmetry wedge,",
        "single-atom moves), recorded at the last commit whose linscale",
        "engine kept its own sparse-Hamiltonian pattern cache.",
        "Regenerate ONLY for a deliberate change:",
        "  PYTHONPATH=src python -m tests.golden.regen_linscale_parity",
    ]}
    cases = {case: {k: np.asarray(v).tolist() for k, v in run_case(case).items()}
             for case in CASES}
    # one case per line: a drifted case is one changed line in the diff
    head = json.dumps(data, indent=1)
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                      for k, v in cases.items())
    GOLDEN.write_text(f'{head[:-2]},\n "cases": {{\n{body}\n }}\n}}\n')
    print(f"wrote {GOLDEN} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
