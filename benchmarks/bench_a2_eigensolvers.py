"""A2 — Ablation: eigensolver comparison on real TB Hamiltonians.

LAPACK (the production path) vs the from-scratch cyclic Jacobi (the
distributable algorithm of the era).  Expected shape: identical spectra
to ~1e-8; LAPACK fastest; Jacobi pays its ~10× flop penalty — the
quantitative basis of the F3 crossover model.
"""

import time

import numpy as np

from repro.bench import print_table, silicon_supercell
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon
from repro.tb.eigensolvers import jacobi_eigh, solve_eigh
from repro.tb.hamiltonian import build_hamiltonian

SIZES = (1, 2)      # 32 / 256 orbitals


def tb_matrix(multiplier):
    at = silicon_supercell(multiplier, rattle_amp=0.05, seed=3)
    model = GSPSilicon()
    H, _ = build_hamiltonian(at, model, neighbor_list(at, model.cutoff))
    return H


def timed(fn, H):
    t0 = time.perf_counter()
    eps, C = fn(H)
    return time.perf_counter() - t0, eps, C


def test_a2_eigensolver_ablation(benchmark):
    rows = []
    for m in SIZES:
        H = tb_matrix(m)
        n = H.shape[0]
        t_lap, e_lap, _ = timed(solve_eigh, H)
        t_jac, e_jac, _ = timed(jacobi_eigh, H)
        err_jac = float(np.max(np.abs(e_jac - e_lap)))
        rows.append([n, t_lap, t_jac, err_jac])

    print_table(
        "A2: eigensolver ablation on TB Hamiltonians",
        ["n", "t LAPACK (s)", "t Jacobi (s)", "err Jacobi"],
        rows, float_fmt="{:.3e}")

    # --- shape assertions -------------------------------------------------
    for _n, t_lap, t_jac, err_jac in rows:
        assert err_jac < 1e-7
        assert t_lap <= t_jac + 1e-4

    H = tb_matrix(2)
    benchmark.pedantic(lambda: solve_eigh(H), rounds=5, iterations=1)
