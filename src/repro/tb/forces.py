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

from repro.errors import ElectronicError
from repro.neighbors.base import NeighborList
from repro.tb.bonds import BondPattern, bond_table


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


def _gather_blocks(dm, pattern: BondPattern) -> list[np.ndarray]:
    """Per species pair, the (P, ni, nj) blocks of a dense matrix at the
    pattern's bonds, one flat take each; bond blocks (a list) pass."""
    if isinstance(dm, list):
        return dm
    return [np.take(dm, index) for index in pattern.gather_index]


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
    with ``−∂S``) hold per k point a dense matrix or its bond blocks,
    one ``(P, ni, nj)`` stack per species pair of the table's pattern
    (what the region solve hands over).  G (and B, needed only when
    phased) come from the step's bond table (:mod:`repro.tb.bonds`):
    once per pair group and step, not per k, and B is the Hamiltonian's
    own block; the per-bond forces reach the atoms in one scatter.  For
    real ρ at k = 0 only the plain real contraction ``g = 2 Σ ρ_ab
    G_cab`` is evaluated; the virial keeps only the SK part (see
    :func:`band_forces`).
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
    table = bond_table(atoms, model, nl)
    rho_k = [_gather_blocks(rho, table.pattern) for rho in rho_k]
    w_k = [_gather_blocks(w, table.pattern) for w in w_k or ()]
    phased = bool(k_carts.any()) or any(
        np.iscomplexobj(blk) for blocks in rho_k for blk in blocks)
    pair_forces = []
    virial = np.zeros((3, 3))

    for gi, bonds in enumerate(table.groups):
        # (G, B) of the hoppings, then of the overlaps W contracts with
        sk = [(bonds.h_gradients, bonds.h_blocks if phased else None)]
        if with_w:
            sk.append((bonds.s_gradients, bonds.s_blocks if phased else None))
        g_sk = np.zeros((len(bonds.r), 3))
        g_phase = np.zeros((len(bonds.r), 3))
        for ki, (wk, k) in enumerate(zip(weights, k_carts)):
            phases = bonds.phases(k) if phased else None
            gk, q = _bond_terms(rho_k[ki][gi], *sk[0], phases)
            if with_w:
                gw, qw = _bond_terms(w_k[ki][gi], *sk[1], phases)
                gk -= gw
                q -= qw
            g_sk += wk * gk
            if phased:
                g_phase += wk * q[:, None] * k[None, :]
        pair_forces.append(g_sk + g_phase)
        virial += np.einsum("pc,pd->cd", g_sk, bonds.vec)

    return table.pattern.atom_forces(pair_forces), virial


def band_forces(atoms, model, nl: NeighborList, rho,
                w=None, k_cart=None) -> tuple[np.ndarray, np.ndarray]:
    """Band-structure forces (N, 3) and virial (3, 3) of one k point.

    Parameters
    ----------
    rho :
        Density matrix from :func:`density_matrices` (Hermitian ρ(k) at
        finite k) — an ndarray, or its bond blocks (one ``(P, ni, nj)``
        stack per species pair of the bond pattern).
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
    table = bond_table(atoms, model, nl)
    pattern = table.pattern
    phis = [bonds.repulsion for bonds in table.groups]

    # --- per-atom embedding arguments x_i = Σ_j φ(r_ij) ----------------------
    x = pattern.atom_sums([phi for phi, _ in phis])

    # --- embedding energy per atom, grouped by species ------------------------
    energy = 0.0
    fprime = np.zeros(pattern.natoms)
    for sym, mask in pattern.species_masks:
        f, df = model.embedding(sym, x[mask])
        energy += float(np.sum(f))
        fprime[mask] = df

    # --- pair forces -----------------------------------------------------------
    pair_forces = []
    virial = np.zeros((3, 3))
    for bonds, (_, dphi) in zip(table.groups, phis):
        pair = bonds.pair
        coef = (fprime[pair.ii] + fprime[pair.jj]) * dphi
        g = coef[:, None] * bonds.u                          # ∂E/∂d
        pair_forces.append(g)
        virial += np.einsum("pc,pd->cd", g, bonds.vec)

    return energy, pattern.atom_forces(pair_forces), virial
