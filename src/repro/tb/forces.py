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

from repro.neighbors.base import NeighborList
from repro.tb.hamiltonian import orbital_offsets, pair_species_groups
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


def k_bond_force_terms(rho_blk: np.ndarray, phases: np.ndarray,
                       B: np.ndarray, G: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-bond k-force pieces ``(g_sk, q)`` from gathered ρ(k) blocks.

    ``g_sk[p, c] = 2 Re Σ_ab conj(ρ_ab) p (G_cab)`` is the Slater–Koster
    gradient part and ``q[p] = 2 Re[i Σ_ab conj(ρ_ab) p B_ab]`` the
    scalar in front of the phase-gradient term ``q·k`` — the single
    contraction shared by the dense (:func:`band_forces`) and sparse
    (:func:`repro.linscale.kfoe.sparse_band_forces_k`) assemblies, so
    the easy-to-get-wrong phase physics lives in exactly one place.
    """
    cr = np.conj(rho_blk) * phases[:, None, None]
    g_sk = 2.0 * np.real(np.einsum("pab,pcab->pc", cr, G))
    q = 2.0 * np.real(1j * np.einsum("pab,pab->p", cr, B))
    return g_sk, q


def _bond_terms(dm_blk: np.ndarray, u: np.ndarray, r: np.ndarray,
                radial: np.ndarray, dradial: np.ndarray, ni: int, nj: int,
                phases: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray | float]:
    """``(g_sk, q)`` of one density-matrix / Slater–Koster-function pair
    (ρ with the hoppings, W with the overlaps).  At Γ (``phases=None``)
    the contraction is the plain real ``2 Σ ρ_ab G_cab`` and ``q`` is 0.
    """
    G = sk_block_gradients(u, r, radial, dradial)[:, :, :ni, :nj]
    if phases is None:
        return 2.0 * np.einsum("pab,pcab->pc", dm_blk, G), 0.0
    B = sk_blocks(u, radial)[:, :ni, :nj]
    return k_bond_force_terms(dm_blk, phases, B, G)


def band_forces(atoms, model, nl: NeighborList, rho: np.ndarray,
                w: np.ndarray | None = None, k_cart=None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Band-structure forces (N, 3) and virial (3, 3) of one k point.

    Parameters
    ----------
    rho :
        Density matrix from :func:`density_matrices` (Hermitian ρ(k) at
        finite k).
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
    symbols = atoms.symbols
    offsets, _ = orbital_offsets(symbols, model)
    k = None if k_cart is None else np.asarray(k_cart, dtype=float).reshape(3)
    n = len(atoms)
    forces = np.zeros((n, 3))
    virial = np.zeros((3, 3))
    if nl.n_pairs == 0:
        return forces, virial

    need_overlap = not model.orthogonal
    if need_overlap and w is None:
        raise ValueError(
            "non-orthogonal model needs the energy-weighted density matrix"
        )

    for (sa, sb), pidx in pair_species_groups(symbols, nl).items():
        r = nl.distances[pidx]
        vec = nl.vectors[pidx]
        u = vec / r[:, None]
        ni, nj = model.norb(sa), model.norb(sb)
        oi = offsets[nl.i[pidx]]
        oj = offsets[nl.j[pidx]]
        phases = None if k is None else np.exp(1j * (vec @ k))

        rows = oi[:, None, None] + np.arange(ni)[None, :, None]
        cols = oj[:, None, None] + np.arange(nj)[None, None, :]
        V, dV = model.hopping(sa, sb, r)
        g_sk, q = _bond_terms(rho[rows, cols], u, r, V, dV, ni, nj, phases)

        if need_overlap:
            ov = model.overlap(sa, sb, r)
            gs_w, q_w = _bond_terms(w[rows, cols], u, r, ov[0], ov[1],
                                    ni, nj, phases)
            g_sk -= gs_w
            q -= q_w

        g = g_sk if k is None else g_sk + q[:, None] * k[None, :]
        np.add.at(forces, nl.i[pidx], g)
        np.add.at(forces, nl.j[pidx], -g)
        virial += np.einsum("pc,pd->cd", g_sk, vec)

    return forces, virial


def band_forces_k(atoms, model, nl: NeighborList, rho: np.ndarray,
                  k_cart, w: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``band_forces(..., k_cart=k_cart)`` — the positional-k signature
    kept for existing callers."""
    return band_forces(atoms, model, nl, rho, w, k_cart)


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
