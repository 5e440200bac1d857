"""A4 — Ablation: density-matrix purification vs diagonalisation, and the
O(N) crossover projection.

Canonical purification (Palser–Manolopoulos) replaces the O(N³)
eigensolve with matrix polynomials of the Hamiltonian.  Its O(N) promise
rests on density-matrix *locality*: |ρ_ij| decays exponentially with
distance for gapped systems.  Cells accessible in this substrate (≤ 216
atoms, ≤ 16 Å) are smaller than the decay range at useful thresholds, so
— exactly like the era's papers — this benchmark

1. validates purification against diagonalisation (energy to ~1e-8/atom,
   iteration count flat in N),
2. *measures* the exponential decay length ξ of ρ on the largest cell,
3. projects the crossover system size N* where thresholded purification
   arithmetic beats the 10·M³ eigensolve.

Expected shape: clean exponential decay (gapped Si), iteration count
roughly size-independent, projected N* in the 10²–10⁵-atom range that
drove the O(N) literature.
"""

import time

import numpy as np

from repro.bench import print_table, silicon_supercell
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon
from repro.tb.eigensolvers import solve_eigh
from repro.tb.bonds import orbital_offsets
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.purification import purify_density_matrix

MULTIPLIERS = (1, 2, 3)
THRESHOLD = 1e-5          # locality threshold for the projection


def setup(multiplier):
    at = silicon_supercell(multiplier, rattle_amp=0.03, seed=13)
    model = GSPSilicon()
    nl = neighbor_list(at, model.cutoff)
    H, _ = build_hamiltonian(at, model, nl)
    return at, model, H


def rho_decay(at, model, rho):
    """Pairs (distance, max block element) for the decay fit."""
    offsets, _ = orbital_offsets(at.symbols, model)
    n = len(at)
    dists, mags = [], []
    for i in range(n):
        for j in range(i + 1, n):
            d = at.distance(i, j)
            blk = rho[offsets[i]:offsets[i] + 4, offsets[j]:offsets[j] + 4]
            m = float(np.abs(blk).max())
            if m > 1e-14:
                dists.append(d)
                mags.append(m)
    return np.array(dists), np.array(mags)


def test_a4_purification_and_on_crossover(benchmark):
    rows = []
    iters = []
    for m in MULTIPLIERS:
        at, model, H = setup(m)
        nelec = 4.0 * len(at)

        t0 = time.perf_counter()
        eps, _ = solve_eigh(H)
        t_diag = time.perf_counter() - t0
        e_diag = 2.0 * float(eps[: int(nelec // 2)].sum())

        t0 = time.perf_counter()
        res = purify_density_matrix(H, nelec)
        t_pur = time.perf_counter() - t0

        rows.append([len(at), H.shape[0], t_diag, t_pur, res.iterations,
                     abs(res.band_energy - e_diag) / len(at)])
        iters.append(res.iterations)
        last = (at, model, res)

    print_table(
        "A4a: dense purification vs diagonalisation",
        ["N", "M", "t_diag (s)", "t_purify (s)", "iterations",
         "|ΔE|/atom (eV)"],
        rows, float_fmt="{:.3g}")

    # --- locality measurement on the largest cell ----------------------------
    at, model, res = last
    d, mag = rho_decay(at, model, np.asarray(res.rho))
    # exponential fit beyond the bonding shell and inside half the box
    # (beyond L/2 periodic images fold back and flatten the tail)
    half_box = float(at.cell.lengths.min()) / 2.0
    sel = (d > 3.0) & (d < half_box) & (mag > 1e-12)
    slope, intercept = np.polyfit(d[sel], np.log(mag[sel]), 1)
    xi = -1.0 / slope
    corr = float(np.corrcoef(d[sel], np.log(mag[sel]))[0, 1])
    r_loc = xi * np.log(np.exp(intercept) / THRESHOLD)

    # arithmetic-crossover projection: thresholded purification costs
    # ~ iters · 4 · M · nnz_row² flops vs 10 M³ for the eigensolve, with
    # nnz_row = orbitals inside the locality sphere.
    density = len(at) / at.cell.volume                 # atoms/Å³
    nnz_row = 4.0 * density * 4.0 / 3.0 * np.pi * r_loc**3
    n_iter = float(np.mean(iters))
    m_star = nnz_row * np.sqrt(0.4 * n_iter)           # 10M³ = 4·iters·M·nnz²
    n_star = m_star / 4.0

    print_table(
        f"A4b: density-matrix locality and projected O(N) crossover "
        f"(threshold {THRESHOLD})",
        ["quantity", "value"],
        [["decay length ξ (Å)", xi],
         ["fit correlation", corr],
         ["locality radius (Å)", r_loc],
         ["nnz per ρ row at threshold", nnz_row],
         ["projected crossover M*", m_star],
         ["projected crossover N* (atoms)", n_star]],
        float_fmt="{:.4g}")

    # --- shape assertions -------------------------------------------------
    for row in rows:
        assert row[5] < 1e-7, "purified band energy must match diag"
    assert max(iters) - min(iters) <= 10, "iterations ~ size-independent"
    assert corr < -0.7, "ρ must decay exponentially (gapped silicon)"
    assert 1.0 < xi < 6.0, "decay length on the Å scale"
    assert 1e2 < n_star < 1e6, \
        "crossover in the range that motivated the O(N) literature"

    _, _, H = setup(2)
    benchmark.pedantic(lambda: purify_density_matrix(H, 256.0),
                       rounds=3, iterations=1)
