#!/usr/bin/env python
"""O(N) TBMD on a large silicon supercell.

Runs the full linear-scaling pipeline — sparse Hamiltonian,
localization regions, Fermi-operator expansion in each region,
Hellmann–Feynman forces from core density rows — on a 512-atom diamond
Si supercell, cross-checks it against exact diagonalisation, and then
takes a few NVE steps to show the O(N) engine driving plain
:class:`~repro.md.driver.MDDriver` unchanged.

The same run is available without Python through the CLI::

    python -m repro.cli md big.xyz --solver linscale --kt 0.1 --r-loc 5.5

Run:  python examples/linscale_si_supercell.py     (~1 min)
"""

import time

import numpy as np

from repro import obs
from repro.geometry import bulk_silicon, rattle, supercell
from repro.linscale import LinearScalingCalculator
from repro.md import MDDriver, ThermoLog, VelocityVerlet, maxwell_boltzmann_velocities
from repro.obs.export import aggregate_phases
from repro.tb import GSPSilicon, TBCalculator

KT = 0.2          # electronic temperature (eV)
R_LOC = 5.5       # localization radius (Å)
ORDER = 150       # Chebyshev order


def main():
    atoms = rattle(supercell(bulk_silicon(), 4), 0.04, seed=17)
    print(f"{len(atoms)} Si atoms, {4 * len(atoms)} orbitals")

    # --- O(N) single point ----------------------------------------------
    calc = LinearScalingCalculator(GSPSilicon(), kT=KT, r_loc=R_LOC,
                                   order=ORDER)
    t0 = time.perf_counter()
    with obs.recording() as tracer:
        res = calc.compute(atoms, forces=True)
    t_lin = time.perf_counter() - t0
    stats = res["region_stats"]
    print(f"\n--- FOE in localization regions "
          f"(r_loc = {R_LOC} Å, order = {ORDER}) ---")
    print(f"regions             : {res['n_regions']} "
          f"(mean {stats['atoms_mean']:.1f}, max {stats['atoms_max']} atoms)")
    print(f"energy              : {res['energy'] / len(atoms):.6f} eV/atom")
    print(f"chemical potential  : {res['fermi_level']:.4f} eV")
    print(f"electron count      : {res['n_electrons']:.4f}")
    print(f"max |Mulliken q|    : {np.abs(res['charges']).max():.4f} |e|")
    print(f"wall time           : {t_lin:.2f} s")
    for row in aggregate_phases(tracer.finished()):
        print(f"  {row['name']:<17s}: {row['seconds']:.2f} s"
              f"  ({row['calls']} calls)")

    # --- cross-check against exact diagonalisation -----------------------
    t0 = time.perf_counter()
    ref = TBCalculator(GSPSilicon(), kT=KT).compute(atoms, forces=True)
    t_diag = time.perf_counter() - t0
    de = abs(res["energy"] - ref["energy"]) / len(atoms)
    df = np.abs(res["forces"] - ref["forces"]).max()
    print(f"\n--- vs exact diagonalisation ({t_diag:.2f} s, "
          f"{t_diag / t_lin:.1f}x slower) ---")
    print(f"energy error        : {de:.2e} eV/atom")
    print(f"max force error     : {df:.2e} eV/Å "
          "(shrink with r_loc / order)")

    # --- a few O(N) MD steps ---------------------------------------------
    maxwell_boltzmann_velocities(atoms, 300.0, seed=3)
    log = ThermoLog()
    md = MDDriver(atoms, calc, VelocityVerlet(dt=1.0), observers=[log])
    t0 = time.perf_counter()
    md.run(5)
    t_md = time.perf_counter() - t0
    print(f"\n--- 5 NVE steps through MDDriver ({t_md:.1f} s) ---")
    print(f"conserved drift     : {log.conserved_drift():.2e}")
    print("\nThe eigensolve is gone: every step is sparse assembly + "
          "independent region solves, i.e. O(N) with a prefactor set by "
          "r_loc and the expansion order (see bench A7 for the measured "
          "crossover vs LAPACK).")


if __name__ == "__main__":
    main()
