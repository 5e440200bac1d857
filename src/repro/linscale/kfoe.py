"""k-sampled entry points of the region Fermi-operator expansion.

Γ-only folding wastes the O(N) advantage on small-cell metals and strain
sweeps: without k sampling those systems must be blown up into
supercells (paying the prefactor N times over) or fall back to dense k
diagonalisation.  The region engine in :mod:`repro.linscale.foe_local`
is therefore written for a *list* of complex Hermitian Bloch
Hamiltonians ``H(k)`` with Monkhorst–Pack weights, and this module holds
the names that expose that general form (the Γ names in
:mod:`~repro.linscale.foe_local` are its one-point case):

* one sparse ``H(k)`` per Monkhorst–Pack point, all on the CSR structure
  of the step's one bond pattern
  (:meth:`repro.linscale.sparse_hamiltonian.SparseHamiltonianBuilder.build_k`;
  the localization regions themselves are k-independent — Bloch phases
  live in the matrix elements, not in the folded neighbour graph);
* one cached spectral window per k (``H(k)`` spectra shift with k);
* per-(k, region) Chebyshev moments, accumulated with the MP weights
  into **one common chemical potential** through
  :func:`repro.tb.chebyshev.solve_mu_from_moments_multi` — the
  electron count is a property of the whole BZ sample, never of one k;
* per-k core density rows → the Hermitian ρ(k) at the bond pattern's
  blocks, contracted into weighted Hellmann–Feynman forces
  (Slater–Koster gradient **plus** the atomic-gauge phase-gradient term)
  by :func:`sparse_band_forces_k`;
* per-k batches of region recursions handed to the array backend, which
  spreads each batch's buckets over the usable cores.

Both evaluation strategies are available: the reference two-pass solve
(:func:`solve_density_regions_k`) and the fused single-pass MD fast path
(:func:`solve_density_regions_k_fused`), whose μ-Taylor correction is
applied per k with that k's own window coefficients.  Orthogonal models
only.  Every function here is a signature adapter; the algorithm lives
once, in :func:`repro.linscale.foe_local._solve_regions` and
:func:`repro.tb.forces._bond_forces`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.neighbors.base import NeighborList
from repro.tb.chebyshev import DEFAULT_ORDER
from repro.tb.forces import _bond_forces
from repro.tb.purification import lanczos_spectral_bounds
from repro.linscale.foe_local import (RegionFOEResult, RegionIndex,
                                      _solve_regions)
from repro.linscale.regions import LocalizationRegion


def spectral_windows_k(H_list) -> list[tuple[float, float]]:
    """Per-k Lanczos spectral bounds — one Chebyshev window per H(k)."""
    return [lanczos_spectral_bounds(sp.csr_matrix(H)) for H in H_list]


def solve_density_regions_k(H_list, weights,
                            regions: list[LocalizationRegion],
                            n_electrons: float, kT: float,
                            order: int = DEFAULT_ORDER,
                            mu: float | None = None, with_rho: bool = True,
                            windows: list[tuple[float, float]] | None = None,
                            mu_guess: float | None = None,
                            backend=None,
                            index: RegionIndex | None = None
                            ) -> RegionFOEResult:
    """k-sampled FOE-in-regions (reference two-pass solve).

    Parameters
    ----------
    H_list :
        One complex Hermitian (or real symmetric, at Γ) sparse
        Hamiltonian per k point, all on the same orbital layout.
    weights :
        MP sampling weights (sum 1); pair with a time-reversal-reduced
        grid from :func:`repro.tb.kpoints.monkhorst_pack` to halve the
        k work exactly.
    regions :
        k-independent localization regions of the folded neighbour
        graph (:func:`repro.linscale.regions.extract_regions`).
    windows :
        Optional cached per-k spectral bounds; recomputed by per-k
        Lanczos otherwise.  Stale windows raise
        :class:`~repro.errors.SpectralWindowError` through the per-k
        a-posteriori moment guard.
    mu_guess :
        Optional warm start for the common μ (e.g. last step's μ); the
        ± 10 kT bracket around it is verified and widened automatically.
    backend, index :
        As in :func:`repro.linscale.foe_local.solve_density_regions`;
        every H(k) shares one CSR structure, so one
        :class:`~repro.linscale.foe_local.RegionIndex` serves all k
        points.

    Other parameters as in
    :func:`repro.linscale.foe_local.solve_density_regions`.
    """
    return _solve_regions(
        H_list, weights, regions, n_electrons, kT, order, windows=windows,
        mu=mu, mu_guess=mu_guess, with_rho=with_rho, backend=backend,
        index=index)


def solve_density_regions_k_fused(H_list, weights,
                                  regions: list[LocalizationRegion],
                                  n_electrons: float, kT: float,
                                  order: int = DEFAULT_ORDER, *,
                                  windows: list[tuple[float, float]],
                                  mu_guess: float,
                                  rho_tol: float = 1e-10,
                                  backend=None,
                                  index: RegionIndex | None = None
                                  ) -> RegionFOEResult:
    """Single-pass k-sampled FOE with per-k μ-Taylor correction.

    One Chebyshev recursion per (k, region) produces the moments *and*
    the density-row accumulant stacks of f, ∂f/∂μ, …, ∂⁵f/∂μ⁵ at
    ``mu_guess`` — each k expanded on **its own** cached window, so the
    derivative coefficient stacks differ per k while the Taylor weights
    (``Δμʲ/j!`` of the common Δμ) are shared.  The exact common μ is
    then solved from the weighted moments; energies/entropy/populations
    carry no Taylor error, ρ(k) carries at most (|Δμ|/kT)⁶/6!, with a
    fallback to the explicit second density pass beyond
    :func:`repro.linscale.foe_local.taylor_radius`, where that bound
    exceeds *rho_tol* (see
    :func:`repro.linscale.foe_local.solve_density_regions_fused`, the
    one-point case, for the parameters; *backend* and *index* as in
    :func:`solve_density_regions_k`).
    """
    return _solve_regions(
        H_list, weights, regions, n_electrons, kT, order, windows=windows,
        mu_guess=mu_guess, fused=True, rho_tol=rho_tol, backend=backend,
        index=index)


def sparse_band_forces_k(atoms, model, nl: NeighborList, bonds_k: list,
                         weights, k_carts) -> tuple[np.ndarray, np.ndarray]:
    """MP-weighted band forces (N, 3) and virial (3, 3) from bond blocks.

    :func:`repro.tb.forces.band_forces` on a solve's ``bonds_k``, summed
    over the sampled k points: per half-list bond and k,

    ``∂E/∂d_c = 2 w_k Re[ Σ_ab conj(ρ(k)_ab) e^{i k·d} (G_cab + i k_c B_ab) ]``

    — the Slater–Koster gradient plus the atomic-gauge phase-gradient
    term.  As in the dense version, the virial keeps only the SK part
    (the phase term cancels against the reciprocal-vector strain
    response at fixed fractional k).  Orthogonal models only.  Units:
    forces in eV/Å, virial in eV.
    """
    return _bond_forces(atoms, model, nl, bonds_k, weights, k_carts)
