#!/usr/bin/env python
"""Beyond O(N³): density-matrix purification and the Fermi-operator
expansion.

The evaluation's punchline (bench T1's phase fractions) is that exact
diagonalisation swallows ~90 % of a TBMD step by a few hundred atoms.  This example runs
the two O(N)-family answers this library implements:

* Palser–Manolopoulos canonical purification (zero temperature, gapped
  systems) — validated here against LAPACK on energy *and* forces;
* Chebyshev Fermi-operator expansion (finite electronic temperature,
  metals welcome) — the region driver on one all-core region, validated
  against exactly smeared diagonalisation;

and measures the density-matrix decay length that sets the O(N)
crossover (see benchmarks/bench_a4_purification.py).

Run:  python examples/linear_scaling.py     (~1 min)
"""

import time

import numpy as np

from repro.geometry import bulk_silicon, rattle, supercell
from repro.linscale import (
    DensityMatrixCalculator, all_core_region, solve_density_regions,
)
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon, TBCalculator, purify_density_matrix
from repro.tb.hamiltonian import build_hamiltonian


def main():
    atoms = rattle(supercell(bulk_silicon(), 2), 0.05, seed=4)
    model = GSPSilicon()
    nl = neighbor_list(atoms, model.cutoff)
    H, _ = build_hamiltonian(atoms, model, nl)
    nelec = 4.0 * len(atoms)

    # --- reference: exact diagonalisation ------------------------------------
    calc = TBCalculator(GSPSilicon())
    t0 = time.perf_counter()
    ref = calc.compute(atoms)
    t_diag = time.perf_counter() - t0

    # --- purification ------------------------------------------------------------
    t0 = time.perf_counter()
    pur = DensityMatrixCalculator(model).compute(atoms)
    t_pur = time.perf_counter() - t0
    print(f"{len(atoms)} Si atoms, {H.shape[0]} orbitals")
    print("\n--- canonical purification (zero T) ---")
    print(f"iterations          : {pur['iterations']}")
    print(f"idempotency error   : {pur['idempotency_error']:.2e}")
    print(f"energy vs LAPACK    : {abs(pur['energy'] - ref['energy']):.2e} eV")
    print(f"max force deviation : "
          f"{np.abs(pur['forces'] - ref['forces']).max():.2e} eV/Å")
    print(f"wall time           : {t_pur:.2f} s (diag path {t_diag:.2f} s)")

    # --- density-matrix locality -----------------------------------------------------
    rho = np.asarray(purify_density_matrix(H, nelec).rho)
    from repro.tb.bonds import orbital_offsets

    offsets, _ = orbital_offsets(atoms.symbols, model)
    pairs = [(atoms.distance(i, j),
              np.abs(rho[offsets[i]:offsets[i] + 4,
                         offsets[j]:offsets[j] + 4]).max())
             for i in range(len(atoms)) for j in range(i + 1, len(atoms))]
    d = np.array([p[0] for p in pairs])
    m = np.array([p[1] for p in pairs])
    half = atoms.cell.lengths.min() / 2
    sel = (d > 3.0) & (d < half) & (m > 1e-14)
    slope = np.polyfit(d[sel], np.log(m[sel]), 1)[0]
    print(f"ρ decay length ξ    : {-1.0 / slope:.2f} Å "
          "(exponential — gapped silicon)")

    # --- Fermi-operator expansion ------------------------------------------------------
    kT = 0.2
    ref_hot = TBCalculator(GSPSilicon(), kT=kT).compute(atoms)
    t0 = time.perf_counter()
    foe = solve_density_regions(H, [all_core_region(H.shape[0])], nelec, kT,
                                order=250)
    t_foe = time.perf_counter() - t0
    print(f"\n--- Chebyshev FOE (kT = {kT} eV) ---")
    print(f"order               : {foe.order}")
    print(f"μ vs exact          : {abs(foe.mu - ref_hot['fermi_level']):.2e} eV")
    print(f"band energy error   : "
          f"{abs(foe.band_energy - ref_hot['band_energy']):.2e} eV")
    print(f"entropy vs exact    : "
          f"{abs(foe.entropy / ref_hot['entropy'] - 1.0):.2e} (relative)")
    print(f"electron count      : {foe.n_electrons:.6f} / {nelec:.0f}")
    print(f"wall time           : {t_foe:.2f} s")

    print("\nBoth methods avoid the eigensolve entirely — with sparse "
          "matrices and the measured ξ they cross over to O(N) around a "
          "few thousand atoms (bench A4's projection).")


if __name__ == "__main__":
    main()
