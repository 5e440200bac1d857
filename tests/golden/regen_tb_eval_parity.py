"""Regenerate tests/golden/tb_eval_parity.json (deliberate TB changes only).

The record was written at the last commit whose ``build_hamiltonian``,
band forces and repulsion each derived the bonds of a step on their own;
``tests/test_bond_table.py`` holds the one cached bond table to it bit
for bit.  Every case is a cold evaluation followed by a 20-step warm walk
— one atom drifts toward (or away from) a partner, everything jitters —
laid out so that the walk contains exactly one Verlet rebuild and at
least one bond crossing the cutoff between rebuilds.  Run from the
repository root::

    PYTHONPATH=src python tests/golden/regen_tb_eval_parity.py

and read the diff: any changed number means a TB evaluation changed.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.geometry import Atoms, Cell, bulk_silicon, diamond_cubic, rattle
from repro.tb import (
    GSPSilicon, HarrisonModel, NonOrthogonalSilicon, TBCalculator, XuCarbon,
)

GOLDEN = pathlib.Path(__file__).with_name("tb_eval_parity.json")

STEPS = 20
JITTER = 0.002          # Å per step, every atom
SPEED = 0.02            # Å per step, the drifting atom


def rattled_si8():
    return rattle(bulk_silicon(), 0.05, seed=31)


def si2_primitive():
    """The 2-atom fcc primitive cell: every bond beyond the first shell
    is a periodic image, some of them of the atom itself."""
    a = 5.431
    cell = Cell(np.array([[0.0, a / 2, a / 2], [a / 2, 0.0, a / 2],
                          [a / 2, a / 2, 0.0]]))
    return Atoms(["Si", "Si"], [[0.0, 0.0, 0.0], [a / 4, a / 4, a / 4]],
                 cell=cell)


def ch_cluster():
    """CH4 beside a second carbon: heteronuclear, s-only hydrogen."""
    t = 1.09 / np.sqrt(3)
    pos = [[0, 0, 0], [t, t, t], [-t, -t, t], [-t, t, -t], [t, -t, -t],
           [2.6, 0.3, -0.4]]
    return Atoms(["C", "H", "H", "H", "H", "C"], pos,
                 cell=Cell.cubic(14, pbc=False))


SI8_WALK = (3, (-1.3234, 3.9543, 1.2762))

#: case → (structure, calculator factory, (drifting atom, drift direction),
#: jitter) — the walks were picked so that each has one Verlet rebuild and
#: a cutoff crossing on a step that does not rebuild
CASES = {
    "gsp-si8/kt0": (rattled_si8, lambda: TBCalculator(GSPSilicon()),
                    SI8_WALK, JITTER),
    "gsp-si8/kt0.3": (rattled_si8,
                      lambda: TBCalculator(GSPSilicon(), kT=0.3),
                      SI8_WALK, JITTER),
    "gsp-si2/kpts3": (si2_primitive,
                      lambda: TBCalculator(GSPSilicon(), kT=0.1, kpts=3),
                      (0, (1.3577, -4.0732, 1.3578)), JITTER),
    # no jitter: the drift along [110] keeps a point group, so the wedge
    # stays folded (and forces symmetrised) over the whole walk
    "gsp-si8/symmetry": (bulk_silicon,
                         lambda: TBCalculator(GSPSilicon(), kpts=2,
                                              kgrid_reduce="symmetry"),
                         (0, (1.0, 1.0, 0.0)), 0.0),
    "nonortho-si8/kt0.1": (rattled_si8,
                           lambda: TBCalculator(NonOrthogonalSilicon(),
                                                kT=0.1),
                           SI8_WALK, JITTER),
    "harrison-ch/kt0.1": (ch_cluster,
                          lambda: TBCalculator(HarrisonModel(), kT=0.1),
                          (3, (3.2293, -0.3293, 0.2293)), JITTER),
    "xwch-c8/kt0": (lambda: rattle(diamond_cubic("C"), 0.03, seed=32),
                    lambda: TBCalculator(XuCarbon()),
                    (4, (-1.8433, -0.0454, 1.835)), JITTER),
}

#: per-step results held bit-equal
KEYS = ("energy", "free_energy", "fermi_level", "forces", "virial")


def walk(atoms, mover: int, direction, jitter: float, seed: int = 7):
    """The STEPS positions of the warm walk from *atoms*."""
    rng = np.random.default_rng(seed)
    d = np.asarray(direction, dtype=float)
    d /= np.linalg.norm(d)
    pos = atoms.positions.copy()
    out = []
    for _ in range(STEPS):
        pos = pos + rng.normal(0.0, jitter, pos.shape)
        pos[mover] += SPEED * d
        out.append(pos.copy())
    return out


def run_case(case: str, calc=None) -> dict:
    """Per-step results of the cold evaluation and the warm walk, plus
    the pair count and whether the Verlet list rebuilt at each step.
    *calc* replaces the case's own calculator (same construction)."""
    make_atoms, make_calc, (mover, direction), jitter = CASES[case]
    atoms = make_atoms()
    calc = make_calc() if calc is None else calc
    steps = [atoms.positions.copy()] + walk(atoms, mover, direction, jitter)
    out: dict = {key: [] for key in KEYS + ("n_pairs", "rebuilt")}
    for pos in steps:
        atoms.positions[:] = pos
        res = calc.compute(atoms, forces=True)
        for key in KEYS:
            out[key].append(res[key])
        out["n_pairs"].append(res["n_pairs"])
        out["rebuilt"].append(calc._vlist.last_update_rebuilt)
    return out


def main() -> None:
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {
        "_comment": [
            "Per-step energy, free energy, Fermi level, forces and virial of a",
            "cold TBCalculator evaluation plus a 20-step warm walk (one Verlet",
            "rebuild, bonds crossing the cutoff between rebuilds) for seven",
            "model / sampling cases, recorded at the last commit whose",
            "build_hamiltonian, band_forces and repulsive_energy_forces each",
            "derived the bonds on their own.  Held with array_equal.",
            "Regenerate ONLY for a deliberate change of the TB numbers:",
            "  PYTHONPATH=src python tests/golden/regen_tb_eval_parity.py",
        ]}
    cases = {case: {k: np.asarray(v).tolist() for k, v in run_case(case).items()}
             for case in CASES}
    # one case per line: a drifted case is one changed line in the diff
    head = json.dumps({k: v for k, v in data.items() if k != "cases"},
                      indent=1)
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                      for k, v in cases.items())
    GOLDEN.write_text(f'{head[:-2]},\n "cases": {{\n{body}\n }}\n}}\n')
    print(f"wrote {GOLDEN} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
