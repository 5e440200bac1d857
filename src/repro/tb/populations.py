"""Mulliken population analysis: atomic charges and bond orders.

The standard chemical read-out of a TB density matrix:

* gross atomic population ``n_i = Σ_{μ∈i} (ρS)_{μμ}`` (orthogonal models:
  S = 1, so just the diagonal block trace of ρ);
* Mulliken charge ``q_i = Z_i − n_i`` (positive = electron deficit);
* Mayer-style bond order ``B_ij = Σ_{μ∈i, ν∈j} (ρS)_{μν}(ρS)_{νμ}``
  (orthogonal: Σ ρ_{μν}²) — ≈1 for single bonds, ≈2 for double.

These diagnostics are how the era's application papers talked about
edge states and dopants ("boron at the zig-zag edge removes a dangling
electron"), and they fall out of machinery this library already has.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ElectronicError
from repro.tb.bonds import orbital_offsets


def _rho_s(rho: np.ndarray, S: np.ndarray | None) -> np.ndarray:
    return rho if S is None else rho @ S


def mulliken_populations(atoms, model, rho: np.ndarray,
                         S: np.ndarray | None = None) -> np.ndarray:
    """Gross electron population per atom (Σ = total electron count)."""
    offsets, m = orbital_offsets(atoms.symbols, model)
    if rho.shape != (m, m):
        raise ElectronicError(
            f"density matrix shape {rho.shape} does not match {m} orbitals"
        )
    ps = _rho_s(rho, S)
    diag = np.diag(ps)
    pops = np.empty(len(atoms))
    for i, sym in enumerate(atoms.symbols):
        o = offsets[i]
        pops[i] = float(diag[o:o + model.norb(sym)].sum())
    return pops


def mulliken_charges(atoms, model, rho: np.ndarray,
                     S: np.ndarray | None = None) -> np.ndarray:
    """Mulliken charges ``q_i = Z_valence − population`` (|e|)."""
    pops = mulliken_populations(atoms, model, rho, S)
    z = np.array([model.n_electrons(s) for s in atoms.symbols])
    return z - pops


def bond_order_matrix(atoms, model, rho: np.ndarray,
                      S: np.ndarray | None = None) -> np.ndarray:
    """Mayer bond orders, (N, N) symmetric with zero diagonal."""
    offsets, m = orbital_offsets(atoms.symbols, model)
    if rho.shape != (m, m):
        raise ElectronicError(
            f"density matrix shape {rho.shape} does not match {m} orbitals"
        )
    ps = _rho_s(rho, S)
    sp = ps if S is None else S @ rho
    n = len(atoms)
    orders = np.zeros((n, n))
    norbs = [model.norb(s) for s in atoms.symbols]
    # ρ carries the spin factor 2; Mayer's formula uses the spin-traced
    # P = ρ/... keep the standard closed-shell convention B = Σ (PS)(PS)
    # with P spin-summed — divide by 4 to land single bonds at ~1.
    for i in range(n):
        oi, ni = offsets[i], norbs[i]
        for j in range(i + 1, n):
            oj, nj = offsets[j], norbs[j]
            blk_ij = ps[oi:oi + ni, oj:oj + nj]
            blk_ji = sp[oj:oj + nj, oi:oi + ni] if S is not None \
                else ps[oj:oj + nj, oi:oi + ni]
            b = float(np.sum(blk_ij * blk_ji.T))
            orders[i, j] = orders[j, i] = b
    return orders


def analyze_populations(atoms, calc) -> dict:
    """One-call population analysis via a calculator.

    Runs (or reuses) the calculator's evaluation, rebuilds ρ (and S for
    non-orthogonal models), and returns charges, populations and the bond
    order matrix.
    """
    from repro.neighbors import neighbor_list
    from repro.tb.eigensolvers import solve_eigh
    from repro.tb.forces import density_matrices
    from repro.tb.hamiltonian import build_hamiltonian

    model = calc.model
    res = calc.compute(atoms, forces=False)
    nl = neighbor_list(atoms, model.cutoff)
    H, S = build_hamiltonian(atoms, model, nl)
    eps, C = solve_eigh(H, S)
    rho, _ = density_matrices(C, res["occupations"])
    return {
        "populations": mulliken_populations(atoms, model, rho, S),
        "charges": mulliken_charges(atoms, model, rho, S),
        "bond_orders": bond_order_matrix(atoms, model, rho, S),
    }
