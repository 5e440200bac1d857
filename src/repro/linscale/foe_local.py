"""Fermi-operator expansion evaluated inside localization regions.

The O(N) electronic kernel of Goedecker & Colombo (1994): instead of one
Chebyshev polynomial of the *global* Hamiltonian, run the two-term
recursion independently in every localization region, keeping only the
density-matrix rows of each region's core atom.  (The global polynomial
is the same code on one region that is all core,
:func:`repro.linscale.regions.all_core_region` — what the dense
``foe`` solver runs.)  Each region solve is a block matvec chain
``v_{k+1} = 2 H̃_loc v_k − v_{k−1}`` on the core basis columns — the
block-partitioned matvec idiom — and regions are independent, so the
backend batches them and spreads the batches over the usable cores.

The paper's central objects (Goedecker & Colombo, PRL 73, 122 (1994)):
the finite-temperature density matrix as the Fermi operator of the
Hamiltonian, ``ρ = f((H − μ)/kT)`` (Eq. 1), its Chebyshev expansion
``ρ ≈ Σ_k c_k T_k(H̃)`` (Eq. 3), and the truncation of each column of ρ
to a localization region, which is what turns the expansion O(N).

There is **one** driver (:func:`_solve_regions`), written for a list of
Hamiltonians ``H(k)`` with sampling weights; the public solve names here
and in :mod:`repro.linscale.kfoe` are signature adapters over it.  The
Γ-point solve is its one-point case — ``[H]`` with weight 1 on the real
dtype, bit-equal scalars, no complex arithmetic.  One recursion per
(k, region) always produces the scalar Chebyshev moments
``m_n = Σ_{μ∈core} [T_n(H̃)]_{μμ}`` and energy moments
``e_n = Σ_{μ∈core} [T_n(H̃) H]_{μμ}``.  Weight-summed over k and regions
these give the electron count ``N(μ) = Σ_n c_n(μ) M_n`` (one common μ,
found by bisection at scalar cost — no matrix work per trial), the band
energy, the electronic entropy and per-atom Mulliken populations.  The
density rows then come one of two ways:

**Two-pass** (:func:`solve_density_regions`, no μ guess) — with μ fixed,
re-run the recursion accumulating ``ρ_rows = Σ_n c_n v_n`` for the core
orbitals.  Stacked over regions these rows form a sparse approximation
ρ̂ of the density matrix (every orbital is the core of exactly one
region), kept only on H's sparsity pattern — the backends return the
row entries at H's nonzeros alone; the Hermitised ``(ρ̂ + ρ̂ᴴ)/2`` feeds
the Hellmann–Feynman force contraction.  Energy-only solves
(``with_rho=False``) skip this pass.

**Fused** (:func:`solve_density_regions_fused`, warm μ guess) — the MD
fast path.  The matvec chain is the same for both passes, so the first
recursion also carries a small stack of density-row accumulants — rows
of ``f(H)``, ``∂f/∂μ(H)``, …, ``∂⁵f/∂μ⁵(H)`` at the guessed μ
(:data:`TAYLOR_ORDER`).  After the pass, the *exact* μ is bisected from
the (exact) moments and the density rows are corrected by a μ-Taylor
series; the Lagrange remainder is at most ``(|Δμ|/kT)⁶/6!``, so inside
:func:`taylor_radius` it stays below the tolerance, and beyond it the
two-pass density recursion is the automatic fallback.  Energies, entropy
and populations always come from the exact moments, so only ρ (hence
forces) carries the — bounded — Taylor error.  This halves the dominant
cost of an MD step.  The two-pass solve is this one with the derivative
stack switched off.

All scalar functions are expanded with the shared helpers in
:mod:`repro.tb.chebyshev`, on one ``(center, span)`` scaling per k from
tight Lanczos bounds of that sparse H(k) (submatrix spectra interlace,
so every region is covered).  Callers may pass *cached* windows; validity
is then checked a posteriori from the moments (``|m_k| ≤ n_core`` on a
valid window) and a stale window raises
:class:`~repro.errors.SpectralWindowError`.  Orthogonal models only,
like purification.

The region operations themselves are evaluated through an array
backend (:mod:`repro.linscale.backends`): the solvers hand each batch of
regions to the selected :class:`~repro.linscale.backends.base.Backend`
as a :class:`~repro.linscale.backends.base.RegionBlockSource` —
``numpy_batched`` (the default) runs shape-bucketed stacked-GEMM
recursions on L2-sized stacks, ``eigh`` sums the same series on each
region block's eigenvalues and is the reference the batched backend is
conformance-tested against.  Pass ``backend=`` by name
or instance, or set the ``REPRO_BACKEND`` environment variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import ElectronicError, SpectralWindowError
from repro.neighbors.base import NeighborList
from repro.tb.chebyshev import (
    DEFAULT_ORDER,
    entropy_coefficients,
    fermi_coefficients,
    fermi_mu_derivative_coefficients,
    solve_mu_from_moments,
    solve_mu_from_moments_multi,
)
from repro.tb.forces import _bond_forces
from repro.tb.purification import lanczos_spectral_bounds
from repro.linscale.backends import resolve_backend
from repro.linscale.backends.base import RegionBlockMaps, RegionBlockSource
from repro.linscale.regions import LocalizationRegion, RegionOrbits


#: Order of the fused solve's μ-Taylor step: the first recursion carries
#: the density-row stacks of f, ∂f/∂μ, …, ∂ⁿf/∂μⁿ at the guessed μ.  Each
#: order adds ``2·n·n_c`` flop per Chebyshev step to the ``2·n²·n_c``
#: matvec (1/n of it: 0.5 % at n = 188) and takes one more power of
#: |Δμ|/kT out of the remainder, so going from order 3 to 5 widens the
#: radius ninefold for 1 % more work in the pass.
TAYLOR_ORDER = 5

#: Bound used for ``sup_x |∂ᵐf/∂xᵐ|``, m = TAYLOR_ORDER + 1, of the
#: spin-summed Fermi function of ``x = (ε − μ)/kT`` (0.817 at m = 6).
TAYLOR_REMAINDER_SUP = 1.0


def taylor_radius(kT: float, rho_tol: float) -> float:
    """Largest |Δμ| (eV) the fused solve corrects by its Taylor step.

    The order-n series of ``f((ε − μ)/kT)`` in Δμ has the Lagrange
    remainder ``∂ᵐf/∂xᵐ(ξ)·(Δμ/kT)ᵐ/m!``, m = n + 1, and every element
    of ρ = f(H) is bounded by the operator norm, so ``|Δμ| ≤
    kT·(m!·rho_tol / F_m)^{1/m}`` keeps the remainder in ρ below
    *rho_tol*: 12.9 meV at kT = 0.2 eV and the default 1e-10.
    """
    m = TAYLOR_ORDER + 1
    return kT * (math.factorial(m) * rho_tol
                 / TAYLOR_REMAINDER_SUP) ** (1.0 / m)


def build_region_gather_maps(H: sp.csr_matrix,
                             regions: list[LocalizationRegion]
                             ) -> RegionBlockMaps:
    """The :class:`~repro.linscale.backends.base.RegionBlockMaps` of
    *regions* on H's CSR structure.

    Each region's block is then filled from whole atom-pair blocks — one
    flat scatter per block shape — instead of a CSR row walk.  One block
    permutation serves every region (the atoms come from the regions'
    cores and orbitals), and each region stores int32 block ids and local
    offsets, so the maps are O(stored blocks): 3.6 MB for the 512 regions
    of 512-atom silicon at the default r_loc, where (n, n) element maps
    took 72.4 MB.  They depend only on the CSR *structure* and the region
    orbital lists; :class:`RegionIndex` builds them once per structure
    and region list.
    """
    return RegionBlockMaps.build(sp.csr_matrix(H),
                                 [(r.orbitals, r.core_local) for r in regions])


# ---------------------------------------------------------------------------
# Chemical potential from aggregated moments
# ---------------------------------------------------------------------------

def chemical_potential_from_moments(moments: np.ndarray, center: float,
                                    span: float, kT: float,
                                    n_electrons: float,
                                    bracket: tuple[float, float],
                                    tol: float = 1e-10,
                                    max_iter: int = 100) -> float:
    """Solve ``Σ_k c_k(μ) M_k = n_electrons`` for μ (bisection + Newton).

    Thin wrapper over :func:`repro.tb.chebyshev.solve_mu_from_moments`,
    whose bracket-independent Newton polish makes warm-started and cold
    searches return identical chemical potentials.
    """
    return solve_mu_from_moments(moments, center, span, kT, n_electrons,
                                 bracket=bracket, tol=tol,
                                 max_iter=max_iter)


# ---------------------------------------------------------------------------
# The region solve
# ---------------------------------------------------------------------------

@dataclass
class RegionFOEResult:
    """Everything one O(N) electronic step produces.

    ``bonds_k`` is, per k, the Hermitian spin-summed ρ̂(k) at the index's
    bond pattern (one ``(P, ni, nj)`` stack per species pair: the force
    input), ``rho_k`` the same ρ̂(k) on H's sparsity pattern (CSR over
    H's structure, built when read); both are ``None`` when run
    energy-only (``bonds_k`` also without a pattern).  Scalars (band
    energy, entropy in eV/K, per-atom Mulliken ``populations`` with
    Σ = ``n_electrons``) are already weight-summed
    over the k sample.  ``mu`` is the single BZ-common chemical
    potential; ``windows`` the per-k spectral bounds the expansion ran
    on.  ``mu_shift`` is the distance from the warm-start guess to the
    converged μ, ``taylor_radius`` the :func:`taylor_radius` it was held
    against (both 0.0 for cold solves) and ``used_fallback`` records
    that a fused solve had to run the second density pass after all.  A
    Γ-point solve is the ``n_kpoints == 1`` case; ``rho`` and
    ``spectral_bounds`` read its single entry.
    """

    bonds_k: list[list[np.ndarray]] | None
    band_energy: float
    mu: float
    entropy: float
    populations: np.ndarray
    n_electrons: float
    order: int
    windows: list[tuple[float, float]]
    n_regions: int
    n_kpoints: int
    weights: np.ndarray = field(repr=False)
    mu_shift: float = 0.0
    taylor_radius: float = 0.0
    used_fallback: bool = False
    _rho_k: list[np.ndarray] | None = field(default=None, repr=False)
    _structure: tuple | None = field(default=None, repr=False)

    def _single_k(self, per_k: list):
        if self.n_kpoints != 1:
            raise ElectronicError(
                f"solve sampled {self.n_kpoints} k points; read the per-k "
                "lists (rho_k / windows) instead")
        return per_k[0]

    @property
    def rho_k(self) -> list[sp.csr_matrix] | None:
        """Per-k Hermitian ρ̂(k) on H's sparsity pattern (CSR);
        ``None`` when run energy-only."""
        if self._rho_k is None:
            return None
        indices, indptr = self._structure
        m = len(indptr) - 1
        return [sp.csr_matrix((data, indices, indptr), shape=(m, m))
                for data in self._rho_k]

    @property
    def rho(self) -> sp.csr_matrix | None:
        """ρ of a single-k (Γ) solve; ``None`` when run energy-only."""
        return None if self.rho_k is None else self._single_k(self.rho_k)

    @property
    def spectral_bounds(self) -> tuple[float, float]:
        """``(emin, emax)`` of a single-k (Γ) solve."""
        return self._single_k(self.windows)


def _scaled_window(emin: float, emax: float) -> tuple[float, float]:
    """(center, span) of the Chebyshev variable, with the stability pad."""
    span = 0.5 * (emax - emin) * 1.01
    center = 0.5 * (emax + emin)
    if span <= 0:
        raise ElectronicError("degenerate spectral bounds")
    return center, span


def _validate_inputs(H_list, weights
                     ) -> tuple[list[sp.csr_matrix], np.ndarray]:
    if len(H_list) == 0:
        raise ElectronicError("need at least one k point")
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(H_list):
        raise ElectronicError(
            f"{len(H_list)} k points but {len(weights)} weights")
    H_list = [sp.csr_matrix(H) for H in H_list]
    shapes = {H.shape for H in H_list}
    if len(shapes) != 1:
        raise ElectronicError(f"inconsistent H(k) shapes {shapes}")
    m_total, m_cols = H_list[0].shape
    if m_total != m_cols:
        raise ElectronicError(f"H must be square, got {H_list[0].shape}")
    return H_list, weights


def _check_window(m_per: np.ndarray, window: tuple[float, float]) -> None:
    """A-posteriori window validity from the moments.

    On a valid window every region eigenvalue maps into [−1, 1], so
    ``|m_k| ≤ n_core`` exactly; outside it T_k grows exponentially and
    the moments blow through that bound within a few k.  Cheap (the
    moments already exist) and reliable for any meaningful violation.
    """
    nc_per = m_per[:, 0]
    if np.any(np.abs(m_per) > nc_per[:, None] * 1.5 + 1.0):
        raise SpectralWindowError(
            f"cached spectral window {window} no longer contains the "
            "Hamiltonian spectrum (Chebyshev moments exceed the n_core "
            "bound); refresh the Lanczos bounds and re-solve"
        )


def _weighted_scalars(m_k: np.ndarray, e_k: np.ndarray, m_per_k: list,
                      scaled: list, weights: np.ndarray, mu: float,
                      kT: float, order: int):
    """Band energy, entropy, populations and per-k Fermi coefficients at μ."""
    coeffs_k = [fermi_coefficients(c, s, mu, kT, order) for c, s in scaled]
    band = float(sum(w * (ck @ ek)
                     for w, ck, ek in zip(weights, coeffs_k, e_k)))
    entropy = float(sum(
        w * (entropy_coefficients(c, s, mu, kT, order) @ mk)
        for w, (c, s), mk in zip(weights, scaled, m_k)))
    populations = sum(w * (mp @ ck)
                      for w, mp, ck in zip(weights, m_per_k, coeffs_k))
    return band, entropy, populations, coeffs_k


def _taylor_rows(w_taylor: np.ndarray, outs: np.ndarray) -> np.ndarray:
    """One region's kept core-row entries from its fused stacks at those
    entries: ``Σ_d w_d · outs[d]``, conjugated (the stacks hold the
    core columns)."""
    cols = np.tensordot(w_taylor, outs, axes=([0], [0]))
    return np.conj(cols) if np.iscomplexobj(cols) else cols


class RegionIndex:
    """Everything a solve derives from its regions, built once from H's
    CSR structure (shared by every H(k)), the regions, their translation
    ``orbits`` (:class:`~repro.linscale.regions.RegionOrbits`, every
    region its own orbit when not given) and the bond ``pattern`` H was
    built on (:class:`~repro.tb.bonds.BondPattern`; a solve without one
    hands the forces nothing).

    The backend recurses the representatives ``orbits.solved`` alone:
    ``specs`` are their ``(orbitals, core_local)`` pairs, ``maps`` their
    share of the :func:`build_region_gather_maps` of every region.  ρ̂
    lives on H's sparsity pattern: core row c of region r holds ρ̂ at
    (core orbital, region orbital), and of those rows a solve reads only
    the entries at H's nonzeros.  ``keep`` holds, per representative,
    the flat positions ``c·n + j`` of the entries any member of its orbit
    reads (a member's through its column permutation), which is all the
    backends return; for every nonzero (a, b) of H the index keeps where
    (a, b) and (b, a) sit among the concatenated kept entries (the
    trailing pad slot, zero, where the region whose core holds the row
    lacks the column), so ρ̂ is one gather-and-average per nonzero, and
    where each bond-block entry sits among H's nonzeros.
    """

    def __init__(self, H, regions: list[LocalizationRegion],
                 orbits: RegionOrbits | None = None, pattern=None):
        H = sp.csr_matrix(H)
        m = H.shape[0]
        cores = [r.orbitals[r.core_local] for r in regions]
        n_core = np.array([len(c) for c in cores], dtype=np.int64)
        owner = np.full(m, -1, dtype=np.int64)
        if n_core.sum() == m:
            owner[np.concatenate(cores)] = np.repeat(np.arange(len(regions)),
                                                     n_core)
        if (owner < 0).any():
            raise ElectronicError(
                f"regions cover {n_core.sum()} core orbitals but H has "
                f"{m}; every orbital must be the core of exactly one "
                "region")
        self.orbits = RegionOrbits.identity(len(regions)) \
            if orbits is None else orbits
        self.specs = [(regions[i].orbitals, regions[i].core_local)
                      for i in self.orbits.solved]
        self.maps = build_region_gather_maps(H, regions).take(
            self.orbits.solved)
        self.shape = (m, m)
        self.nnz = H.nnz

        # every nonzero (a, b): the region r whose core holds row a, the
        # row's place c in that core and b's place j among r's orbitals
        row = np.repeat(np.arange(m), np.diff(H.indptr))
        reg = owner[row]
        c = np.empty(m, dtype=np.int64)
        c[np.concatenate(cores)] = np.arange(m) - np.repeat(
            np.cumsum(n_core) - n_core, n_core)
        c = c[row]
        sizes = np.array([r.n_orbitals for r in regions], dtype=np.int64)
        keys = np.repeat(np.arange(len(regions)) * m, sizes) \
            + np.concatenate([r.orbitals for r in regions])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        q = reg * m + H.indices
        at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        hit = keys[at] == q
        j = order[at] - (np.cumsum(sizes) - sizes)[reg]
        del keys, order, q, at
        full = self._member_sources(regions, self.orbits, reg, c, j)
        del reg, c, j
        starts = np.cumsum([0] + [len(core) * len(orb)
                                  for orb, core in self.specs])
        kept = np.zeros(starts[-1], dtype=bool)
        kept[full[hit]] = True
        kept = np.flatnonzero(kept)
        idx = np.int32 if len(kept) + 1 < 2 ** 31 else np.int64
        fwd = np.searchsorted(kept, full).astype(idx)
        fwd[~hit] = len(kept)
        del full, hit
        self._kept_at = np.searchsorted(kept, starts)
        self.keep = [(kept[a:b] - s).astype(idx) for a, b, s in
                     zip(self._kept_at[:-1], self._kept_at[1:], starts)]

        # (b, a) of every nonzero, and each bond-block entry, among the
        # nonzeros: one search of the sorted (row, column) keys
        keys = row * m + H.indices
        order = np.argsort(keys, kind="stable")
        keys = keys[order]

        def nonzero(a, b):
            q = a * m + b
            at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
            if not np.array_equal(keys[at], q):
                raise ElectronicError(
                    "H's sparsity pattern is not symmetric or lacks a "
                    "bond of the pattern")
            return order[at]

        self._bwd = fwd[nonzero(H.indices, row)]
        # kept entries in H's own order (every region its own orbit, its
        # core rows the next of H's) need no forward gather
        self._fwd = None if np.array_equal(fwd, np.arange(self.nnz)) \
            else fwd
        del row
        nz = np.int32 if self.nnz < 2 ** 31 else np.int64
        self._bond_at = None if pattern is None else [
            nonzero(r, c).astype(nz)
            for r, c in (g.grids() for g in pattern.groups)]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the block maps and the ρ̂ positions."""
        return self.maps.nbytes + sum(
            a.nbytes for a in (*self.keep, self._bwd,
                               *(() if self._fwd is None else (self._fwd,)),
                               *(self._bond_at or ())))

    @staticmethod
    def _member_sources(regions: list[LocalizationRegion],
                        orbits: RegionOrbits, reg: np.ndarray,
                        c: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Position of core-row entry (c, j) of region *reg* (arrays) in
        the concatenated core rows of the representatives: a member's
        row c is its representative's, the columns permuted."""
        sizes = np.array([r.n_orbitals for r in regions], dtype=np.int64)
        rows = np.array([len(r.core_local) for r in regions], dtype=np.int64)
        rep = orbits.solved[orbits.slot[reg]]
        start = np.cumsum([0] + list((rows * sizes)[orbits.solved]))
        cols = np.concatenate([np.arange(r.n_orbitals) if pi is None else pi
                               for r, pi in zip(regions, orbits.cols)])
        first = np.cumsum(sizes) - sizes
        return start[orbits.slot[reg]] + c * sizes[rep] \
            + cols[first[reg] + j]

    def _rho_data(self, items: list, entries_of, dtype) -> np.ndarray:
        """``(ρ̂ + ρ̂ᴴ)/2`` at every nonzero of H, from the
        representatives' backend *items*: ``entries_of(item)`` is its
        kept core-row entries (:attr:`keep` order), written into one flat
        buffer, and the item is dropped, so a fused pass's Taylor stacks
        go one region at a time instead of living beside the buffer."""
        vals = np.zeros(int(self._kept_at[-1]) + 1, dtype=dtype)
        for j, item in enumerate(items):
            vals[self._kept_at[j]:self._kept_at[j + 1]] = entries_of(item)
            items[j] = None
        rho = vals[self._bwd]
        if rho.dtype.kind == "c":
            np.conj(rho, out=rho)
        rho += vals[:-1] if self._fwd is None else vals[self._fwd]
        rho *= 0.5
        return rho

    def _bond_blocks(self, data: np.ndarray) -> list[np.ndarray]:
        """ρ̂ of :meth:`_rho_data` at the bond pattern: one
        ``(P, ni, nj)`` stack per species pair."""
        return [data[at] for at in self._bond_at]


def _solve_regions(H_list, weights, regions: list[LocalizationRegion],
                   n_electrons: float, kT: float, order: int, *,
                   windows: list[tuple[float, float]] | None,
                   mu_guess: float | None = None, fused: bool = False,
                   mu: float | None = None,
                   with_rho: bool = True, rho_tol: float = 1e-10,
                   backend=None, index: RegionIndex | None = None
                   ) -> RegionFOEResult:
    """The one region-FOE driver behind every public solve name.

    One Chebyshev recursion per (k, region) on that k's own window gives
    the moments; the weighted moments give the common μ and every
    scalar; ρ(k) comes from a second density-rows recursion at the exact
    μ.  A warm *mu_guess* (last step's μ) starts the μ search inside
    ``mu_guess ± 10 kT``, verified and widened to the spectrum when the
    count lies outside it.  *fused* (needs the guess) makes the first
    recursion also carry the density-row stacks of f, ∂f/∂μ, …, ∂⁵f/∂μ⁵
    at the guess (the derivative coefficients differ per k, the Taylor
    weights ``Δμʲ/j!`` of the common Δμ are shared), and the second
    recursion runs only when Δμ lies outside :func:`taylor_radius`,
    where the remainder bound no longer guarantees *rho_tol*.
    ``fused=False`` is the two-pass solve; ``[H], [1.0]`` is Γ.

    What the solve derives from *regions* is *index*, their
    :class:`RegionIndex` (built here from ``H_list[0]`` with one-member
    orbits when not given).  The backend recurses its orbit
    representatives only; every other region takes its representative's
    moments and population by index and its density rows through the
    index's permuted gathers.  Each k's regions go to the backend through
    one block source over ``index.maps`` (the backend spreads its buckets
    over the usable cores), which densifies every region once per pass:
    a two-pass solve densifies twice instead of holding every dense block
    between its passes.
    """
    if kT <= 0:
        raise ElectronicError("FOE-in-regions needs kT > 0")
    if order < 2:
        raise ElectronicError("expansion order must be >= 2")
    H_list, weights = _validate_inputs(H_list, weights)
    if index is None:
        index = RegionIndex(H_list[0], regions)
    elif (index.shape, index.nnz, len(index.orbits.slot)) != \
            (H_list[0].shape, H_list[0].nnz, len(regions)):
        raise ElectronicError("region index built for another H or region "
                              "list")
    nk = len(H_list)
    backend = resolve_backend(backend)

    cached_window = windows is not None
    if windows is None:
        windows = [lanczos_spectral_bounds(H) for H in H_list]
    scaled = [_scaled_window(emin, emax) for emin, emax in windows]

    orbits = index.orbits
    sources = [RegionBlockSource(H, index.specs, gather_maps=index.maps,
                                 keep=index.keep) for H in H_list]

    def run(op: str, arg_k: list) -> list[list]:
        """Backend *op* over every (k, region): per-k result lists in
        region order; ``arg_k[ki]`` is the op's k-specific argument."""
        return [getattr(backend, op)(src, c, s, arg)
                for src, (c, s), arg in zip(sources, scaled, arg_k)]

    # -- pass 1: per-(k, region) moments → common μ, scalars ---------------
    if fused:
        first = run("fused", [fermi_mu_derivative_coefficients(
            c, s, float(mu_guess), kT, order, nderiv=TAYLOR_ORDER)
            for c, s in scaled])
    else:
        first = run("moments", [order] * nk)
    # every region's moments: an orbit member's are its representative's;
    # a fused pass keeps only its Taylor stacks beyond this point
    m_per_k = [np.stack([pk[s][0] for s in orbits.slot]) for pk in first]
    e_k = np.stack([np.stack([pk[s][1] for s in orbits.slot]).sum(axis=0)
                    for pk in first])
    first = [[item[2] for item in pk] for pk in first] if fused else None
    if cached_window:
        for m_per, window in zip(m_per_k, windows):
            _check_window(m_per, window)
    m_k = np.stack([mp.sum(axis=0) for mp in m_per_k])        # (nk, K+1)

    if mu is None:
        pad = 10.0 * kT
        mu = solve_mu_from_moments_multi(
            m_k, scaled, kT, n_electrons,
            bracket=(min(w[0] for w in windows) - pad,
                     max(w[1] for w in windows) + pad),
            weights=weights,
            warm_bracket=None if mu_guess is None
            else (mu_guess - pad, mu_guess + pad))
    dmu = mu - float(mu_guess) if fused else 0.0

    band, entropy, populations, coeffs_k = _weighted_scalars(
        m_k, e_k, m_per_k, scaled, weights, mu, kT, order)

    # -- ρ(k): μ-Taylor of the fused stacks, else the density pass ---------
    radius = taylor_radius(kT, rho_tol) if fused else 0.0
    used_fallback = abs(dmu) > radius
    rho_k = bonds_k = None
    if with_rho:
        dtypes = [np.result_type(H.dtype, np.float64) for H in H_list]
        if fused and not used_fallback:
            w_taylor = np.array([dmu ** j / math.factorial(j)
                                 for j in range(TAYLOR_ORDER + 1)])
            rho_k = [index._rho_data(
                pk, lambda r: _taylor_rows(w_taylor, r), dt)
                for pk, dt in zip(first, dtypes)]
        else:
            first = None        # no stacks beside the density pass
            rho_k = [index._rho_data(rows, np.asarray, dt)
                     for rows, dt in zip(run("density_rows", coeffs_k),
                                         dtypes)]
        if index._bond_at is not None:
            bonds_k = [index._bond_blocks(data) for data in rho_k]

    return RegionFOEResult(
        bonds_k=bonds_k, band_energy=band, mu=float(mu), entropy=entropy,
        populations=populations, n_electrons=float(populations.sum()),
        order=order, windows=windows, n_regions=len(regions), n_kpoints=nk,
        mu_shift=float(dmu), taylor_radius=radius,
        used_fallback=used_fallback, weights=weights, _rho_k=rho_k,
        _structure=(H_list[0].indices, H_list[0].indptr))


def solve_density_regions(H, regions: list[LocalizationRegion],
                          n_electrons: float, kT: float,
                          order: int = DEFAULT_ORDER,
                          mu: float | None = None, with_rho: bool = True,
                          window: tuple[float, float] | None = None,
                          mu_guess: float | None = None,
                          backend=None,
                          index: RegionIndex | None = None
                          ) -> RegionFOEResult:
    """FOE-in-regions density matrix from a sparse Hamiltonian (two-pass).

    The one-point (Γ) case of
    :func:`repro.linscale.kfoe.solve_density_regions_k`.

    Parameters
    ----------
    H :
        Real symmetric Hamiltonian, scipy sparse (dense accepted and
        converted).  Orthogonal basis assumed.
    regions :
        Output of :func:`repro.linscale.regions.extract_regions`; their
        core orbitals must tile all of H exactly once.
    n_electrons :
        Spin-summed electron count; μ is bisected from region moments
        unless given.
    kT :
        Electronic temperature in eV; must be > 0 (the expansion order
        needed grows with spectral width / kT).
    order :
        Chebyshev order K.
    with_rho :
        ``False`` skips the second (density-rows) pass entirely — band
        energy, entropy, μ and populations all come from the moments, so
        energy-only evaluations cost half the Chebyshev work and return
        ``rho=None``.
    window :
        Optional precomputed spectral bounds ``(emin, emax)``; skips the
        Lanczos solves.  A stale window (spectrum escaped it) raises
        :class:`~repro.errors.SpectralWindowError` via the moment check.
    mu_guess :
        Optional warm start of the μ search (e.g. last step's μ): the
        search is bracketed at ± 10 kT around it, verified and widened
        automatically when that no longer brackets the count.
    backend :
        Array backend evaluating the region batches — a name from
        :func:`repro.linscale.backends.available_backends`, an instance,
        or ``None`` for the ``REPRO_BACKEND``/default resolution.
    index :
        Optional cached :class:`RegionIndex` of *regions* on H's
        structure — their orbits, the representatives' block maps, the
        ρ̂ positions on H's nonzeros and, when built with the bond
        pattern, the bond positions that give the result its
        ``bonds_k`` — rejected when built for another H structure or
        region count; built per solve (one-member orbits, no pattern)
        otherwise.
    """
    return _solve_regions(
        [H], [1.0], regions, n_electrons, kT, order,
        windows=None if window is None else [window], mu=mu,
        mu_guess=mu_guess, with_rho=with_rho, backend=backend, index=index)


def solve_density_regions_fused(H, regions: list[LocalizationRegion],
                                n_electrons: float, kT: float,
                                order: int = DEFAULT_ORDER, *,
                                window: tuple[float, float],
                                mu_guess: float,
                                rho_tol: float = 1e-10,
                                backend=None,
                                index: RegionIndex | None = None
                                ) -> RegionFOEResult:
    """Single-pass FOE-in-regions with μ-Taylor correction (MD fast path).

    One Chebyshev recursion per region produces the moments *and* a stack
    of density-row accumulants — rows of f(H), ∂f/∂μ(H), …, ∂⁵f/∂μ⁵(H)
    at ``mu_guess``.  The exact μ is then bisected from the moments
    (identical to the two-pass result) and the density rows are
    corrected to fifth order in Δμ = μ − μ_guess.  Energies, entropy and
    populations are evaluated at the exact μ and carry **no** Taylor
    error; ρ carries a remainder of at most (|Δμ|/kT)⁶/6!, kept below
    *rho_tol* by falling back to an explicit second density pass when
    the guess was too far off (``used_fallback=True`` in the result).
    The one-point
    (Γ) case of
    :func:`repro.linscale.kfoe.solve_density_regions_k_fused`.

    Parameters
    ----------
    window :
        Cached spectral bounds ``(emin, emax)`` — required (a fast path
        without a cached window has nothing to reuse; use
        :func:`solve_density_regions` for cold solves).  Stale windows
        raise :class:`~repro.errors.SpectralWindowError`.
    mu_guess :
        Warm start, e.g. last MD step's μ (or a linear extrapolation).
    rho_tol :
        Bound on the acceptable μ-Taylor remainder in ρ; sets the
        fallback threshold ``|Δμ| ≤ kT·(6!·rho_tol)^{1/6}``
        (:func:`taylor_radius`).
    backend, index :
        As in :func:`solve_density_regions`.

    Returns
    -------
    :class:`RegionFOEResult` with ``rho`` always present.
    """
    return _solve_regions(
        [H], [1.0], regions, n_electrons, kT, order, windows=[window],
        mu_guess=mu_guess, fused=True, rho_tol=rho_tol, backend=backend,
        index=index)


# ---------------------------------------------------------------------------
# Hellmann–Feynman forces from the bond blocks
# ---------------------------------------------------------------------------

def sparse_band_forces(atoms, model, nl: NeighborList, bonds: list
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Band forces (N, 3) and virial (3, 3) from a Γ solve's bond blocks.

    The one-point (Γ, weight 1) case of
    :func:`repro.linscale.kfoe.sparse_band_forces_k`: the contraction
    ``g = 2 Σ ρ_ab ∂B_ab`` per half-list bond.  Orthogonal models only.

    Units: forces in eV/Å, virial in eV.
    """
    return _bond_forces(atoms, model, nl, [bonds], [1.0], np.zeros(3))
