"""Hellmann–Feynman forces, repulsive forces, and the potential virial.

Band-structure term (density-matrix formulation)
------------------------------------------------
With ``ρ = Σ_n f_n C_n C_n^T`` (spin factor inside ``f``), the derivative
of ``E_bs = Tr(ρH)`` with respect to a bond vector is ``2 Σ_{μν} ρ_{μν}
∂B_{μν}`` — the factor 2 because each half-list bond appears in ``H`` as a
block *and* its transpose and ρ is symmetric.  Non-orthogonal models
subtract the energy-weighted density-matrix term ``2 Σ W_{μν} ∂S_{μν}``
with ``W = Σ_n f_n ε_n C_n C_n^T`` — this is exactly the
``C†(∇H − ε∇S)C`` Hellmann–Feynman expression summed over states.

Repulsive term
--------------
``E_rep = Σ_i f_i(x_i)`` with ``x_i = Σ_j φ(r_ij)`` gives the pair force
``(f'_i + f'_j) φ'(r) û`` — plain pairwise repulsion is the special case
``f' = 1``.

Virial
------
``virial = Σ_pairs g ⊗ d`` with ``g = ∂E/∂d`` the generalised pair force
and ``d`` the bond vector; the potential stress is ``virial / V`` and the
potential pressure ``P = −tr(virial)/(3V)``, validated against ``−dE/dV``
in the test suite.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ElectronicError
from repro.neighbors.base import NeighborList
from repro.tb.hamiltonian import (
    block_index_grids,
    orbital_offsets,
    pair_species_groups,
)
from repro.tb.slater_koster import sk_block_gradients, sk_blocks


def density_matrices(eigenvectors: np.ndarray, occupations: np.ndarray,
                     eigenvalues: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray | None]:
    """Density matrix ρ and (optionally) energy-weighted W.

    ``eigenvectors`` columns are states (LAPACK convention).  W is returned
    only when *eigenvalues* is given.  Complex eigenvectors (H(k) at
    finite k) produce the Hermitian ``ρ = Σ f C C†``.
    """
    C = eigenvectors
    f = np.asarray(occupations, dtype=float)
    # skip empty states — more than halves the matmul work at zero T
    act = f > 1e-14
    Ca = C[:, act]
    fa = f[act]
    Cat = Ca.conj().T if np.iscomplexobj(Ca) else Ca.T
    rho = (Ca * fa) @ Cat
    if eigenvalues is None:
        return rho, None
    ea = np.asarray(eigenvalues, dtype=float)[act]
    w = (Ca * (fa * ea)) @ Cat
    return rho, w


def _gather_blocks(dm, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(P, ni, nj) blocks of a density matrix: a fancy index into an
    ndarray, a CSR element gather from a scipy sparse matrix."""
    if sp.issparse(dm):
        return np.asarray(dm[rows.ravel(), cols.ravel()]).reshape(rows.shape)
    return dm[rows, cols]


def _bond_terms(dm_blk: np.ndarray, G: np.ndarray, B: np.ndarray | None,
                phases: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray | float]:
    """Per-bond force pieces ``(g_sk, q)`` of one gathered block stack
    (ρ with the hopping G/B, W with the overlap G/B).

    ``g_sk[p, c] = 2 Re Σ_ab conj(ρ_ab) p G_cab`` is the Slater–Koster
    gradient part and ``q[p] = 2 Re[i Σ_ab conj(ρ_ab) p B_ab]`` the
    scalar in front of the phase-gradient term ``q·k`` — the
    easy-to-get-wrong phase physics lives in exactly this one place.
    Unphased (``phases=None``) the contraction is the plain real
    ``2 Σ ρ_ab G_cab`` and ``q`` is 0.
    """
    if phases is None:
        return 2.0 * np.einsum("pab,pcab->pc", dm_blk, G), 0.0
    cr = np.conj(dm_blk) * phases[:, None, None]
    g_sk = 2.0 * np.real(np.einsum("pab,pcab->pc", cr, G))
    q = 2.0 * np.real(1j * np.einsum("pab,pab->p", cr, B))
    return g_sk, q


def _bond_forces(atoms, model, nl: NeighborList, rho_k, weights, k_carts,
                 w_k=None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted band forces (N, 3) and virial (3, 3) over a k list.

    The one bond contraction — the Hellmann–Feynman force
    ``F_i = −Tr(ρ ∂H/∂R_i)``, bond by bond — behind :func:`band_forces`,
    :func:`repro.linscale.foe_local.sparse_band_forces` and
    :func:`repro.linscale.kfoe.sparse_band_forces_k`.  *rho_k* (and
    *w_k*, the energy-weighted matrices a non-orthogonal model contracts
    with ``−∂S``) hold one ndarray or scipy sparse matrix per k point;
    every needed block of a sparse ρ lies inside its pattern because
    r_loc ≥ the model cutoff.  G (and B, needed only when phased) are
    computed once per pair group, not per k.  For real ρ at k = 0 only
    the plain real contraction ``g = 2 Σ ρ_ab G_cab`` is evaluated; the
    virial keeps only the SK part (see :func:`band_forces`).
    """
    with_w = not model.orthogonal
    if with_w and w_k is None:
        raise ElectronicError(
            "non-orthogonal model needs the energy-weighted density matrix"
        )
    weights = np.asarray(weights, dtype=float)
    k_carts = np.atleast_2d(np.asarray(k_carts, dtype=float))
    if len(rho_k) != len(weights) or len(rho_k) != len(k_carts):
        raise ElectronicError(
            f"{len(rho_k)} density matrices, {len(weights)} weights, "
            f"{len(k_carts)} k points — counts must match")
    phased = bool(k_carts.any()) or any(
        np.iscomplexobj(rho.data if sp.issparse(rho) else rho)
        for rho in rho_k)
    symbols = atoms.symbols
    offsets, _ = orbital_offsets(symbols, model)
    forces = np.zeros((len(atoms), 3))
    virial = np.zeros((3, 3))

    for (sa, sb), pidx in pair_species_groups(symbols, nl).items():
        r = nl.distances[pidx]
        vec = nl.vectors[pidx]
        u = vec / r[:, None]
        ni, nj = model.norb(sa), model.norb(sb)
        rows, cols = block_index_grids(offsets[nl.i[pidx]],
                                       offsets[nl.j[pidx]], ni, nj)

        # (G, B) of the hoppings, then of the overlaps W contracts with
        radials = [model.hopping(sa, sb, r)]
        if with_w:
            radials.append(model.overlap(sa, sb, r))
        sk = [(sk_block_gradients(u, r, f, df)[:, :, :ni, :nj],
               sk_blocks(u, f)[:, :ni, :nj] if phased else None)
              for f, df in radials]
        g_sk = np.zeros((len(pidx), 3))
        g_phase = np.zeros((len(pidx), 3))
        for ki, (wk, k) in enumerate(zip(weights, k_carts)):
            phases = np.exp(1j * (vec @ k)) if phased else None
            gk, q = _bond_terms(_gather_blocks(rho_k[ki], rows, cols),
                                *sk[0], phases)
            if with_w:
                gw, qw = _bond_terms(_gather_blocks(w_k[ki], rows, cols),
                                     *sk[1], phases)
                gk -= gw
                q -= qw
            g_sk += wk * gk
            if phased:
                g_phase += wk * q[:, None] * k[None, :]
        g = g_sk + g_phase

        np.add.at(forces, nl.i[pidx], g)
        np.add.at(forces, nl.j[pidx], -g)
        virial += np.einsum("pc,pd->cd", g_sk, vec)

    return forces, virial


def band_forces(atoms, model, nl: NeighborList, rho,
                w=None, k_cart=None) -> tuple[np.ndarray, np.ndarray]:
    """Band-structure forces (N, 3) and virial (3, 3) of one k point.

    Parameters
    ----------
    rho :
        Density matrix from :func:`density_matrices` (Hermitian ρ(k) at
        finite k) — an ndarray, or a scipy sparse matrix whose pattern
        covers every bonded block.
    w :
        Energy-weighted density matrix; required for non-orthogonal models.
    k_cart :
        Cartesian k (Å⁻¹); ``None`` is Γ, where the phases are 1 and only
        the real contraction ``∂E/∂d_c = 2 Σ_ab ρ_ab G_cab`` is evaluated.

    At finite k each half-list bond enters ``H(k)`` as ``p·B`` at (i, j)
    and its conjugate transpose at (j, i), with the atomic-gauge phase
    ``p = exp(i k·d)``, so its energy derivative is

    .. math::

        \\partial E / \\partial d_c
          = 2\\,\\mathrm{Re}\\sum_{ab} \\bar ρ_{ab}\\, p\\,
            (G_{cab} + i k_c B_{ab}),

    the Slater–Koster gradient **plus a phase-gradient term** — missing
    it is the classic k-force bug (forces then silently degrade toward
    their Γ values).  The *virial*, though, keeps only the SK part:
    stress is taken at fixed *fractional* k, where the reciprocal
    vectors co-strain as ``dk = −εᵀk`` and the phase-gradient
    contribution cancels exactly against ``(∂E/∂k)·dk`` (``k·d`` is
    affine-invariant).  Validated against finite-difference −dE/dV in
    the test suite.  The caller sums over k with the sampling weights.
    """
    return _bond_forces(atoms, model, nl, [rho], [1.0],
                        np.zeros(3) if k_cart is None else k_cart,
                        None if w is None else [w])


def repulsive_energy_forces(atoms, model, nl: NeighborList
                            ) -> tuple[float, np.ndarray, np.ndarray]:
    """Repulsive energy (eV), forces (N, 3) and virial (3, 3)."""
    symbols = atoms.symbols
    n = len(atoms)
    forces = np.zeros((n, 3))
    virial = np.zeros((3, 3))

    # --- per-atom embedding arguments x_i = Σ_j φ(r_ij) ----------------------
    x = np.zeros(n)
    pair_phi: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    groups = pair_species_groups(symbols, nl)
    for (sa, sb), pidx in groups.items():
        phi, dphi = model.pair_repulsion(sa, sb, nl.distances[pidx])
        pair_phi[(sa, sb)] = (phi, dphi)
        np.add.at(x, nl.i[pidx], phi)
        np.add.at(x, nl.j[pidx], phi)

    # --- embedding energy per atom, grouped by species ------------------------
    syms = np.asarray(symbols)
    energy = 0.0
    fprime = np.zeros(n)
    for sym in np.unique(syms) if n else []:
        mask = syms == sym
        f, df = model.embedding(str(sym), x[mask])
        energy += float(np.sum(f))
        fprime[mask] = df

    # --- pair forces -----------------------------------------------------------
    for (sa, sb), pidx in groups.items():
        _, dphi = pair_phi[(sa, sb)]
        r = nl.distances[pidx]
        u = nl.vectors[pidx] / r[:, None]
        coef = (fprime[nl.i[pidx]] + fprime[nl.j[pidx]]) * dphi
        g = coef[:, None] * u                                # ∂E/∂d
        np.add.at(forces, nl.i[pidx], g)
        np.add.at(forces, nl.j[pidx], -g)
        virial += np.einsum("pc,pd->cd", g, nl.vectors[pidx])

    return energy, forces, virial
