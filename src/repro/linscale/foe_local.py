"""Fermi-operator expansion evaluated inside localization regions.

The O(N) electronic kernel of Goedecker & Colombo (1994): instead of one
Chebyshev polynomial of the *global* Hamiltonian, run the two-term
recursion independently in every localization region, keeping only the
density-matrix rows of each region's core atom.  (The global polynomial
is the same code on one region that is all core,
:func:`repro.linscale.regions.all_core_region` — what the dense
``foe`` solver runs.)  Each region solve is a block matvec chain
``v_{k+1} = 2 H̃_loc v_k − v_{k−1}`` on the core basis columns — the
block-partitioned matvec idiom — and regions are independent, so they
batch through the process pool.

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
region); the Hermitised ``(ρ̂ + ρ̂ᴴ)/2`` feeds the Hellmann–Feynman force
contraction.  Energy-only solves (``with_rho=False``) skip this pass.

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

The region recursions themselves are evaluated through a pluggable
array backend (:mod:`repro.linscale.backends`): the solvers hand each
batch of regions to the selected :class:`~repro.linscale.backends.base.
Backend` as a :class:`~repro.linscale.backends.base.RegionBlockSource`
— ``numpy_batched`` (the default) runs shape-bucketed stacked-GEMM
recursions on L2-sized stacks, ``numpy_loop`` is the per-region loop
every backend is conformance-tested against.  Pass ``backend=`` by name
or instance, or set the ``REPRO_BACKEND`` environment variable.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import ElectronicError, SpectralWindowError
from repro.neighbors.base import NeighborList
from repro.parallel.decomposition import block_partition
from repro.parallel.pool import map_tasks
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
from repro.linscale.backends.base import RegionBlockSource
from repro.linscale.backends.numpy_batched import serial_buckets
from repro.linscale.regions import LocalizationRegion


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


def _region_worker(args):
    """One pooled (k, chunk) task: build a block source over the (shared)
    sparse H and run the named backend operation — densifying inside the
    worker keeps the parent from shipping dense blocks through the pipe.
    Its buckets run serially: the pool's processes already own the cores."""
    op, H, specs, center, span, arg, backend = args
    blocks = RegionBlockSource(H, specs)
    with serial_buckets():
        return getattr(resolve_backend(backend), op)(blocks, center, span, arg)


def build_region_gather_maps(H: sp.csr_matrix,
                             regions: list[LocalizationRegion]
                             ) -> list[np.ndarray]:
    """Per-region dense gather maps into (padded) ``H.data``.

    Regions overlap heavily (every atom sits in ~tens of halos), so
    densifying each region by CSR slicing re-walks the same sparse rows
    over and over — the dominant non-recursion cost of a fast-path step.
    These maps amortise that walk: ``maps[r]`` is an (n, n) int32 array
    with ``h_sub = data_pad[maps[r]]`` where
    ``data_pad = append(H.data, 0.0)`` (the last slot backs structural
    zeros).  Maps depend only on the CSR *structure* and the region
    orbital lists, both of which the fast path already caches — rebuild
    them when either changes.

    Memory is O(Σ n_region²) int32 — the same order as one set of dense
    region Hamiltonians — so callers cap total map size and fall back to
    CSR slicing beyond it (see
    :meth:`~repro.linscale.calculator.LinearScalingCalculator`).
    """
    H = sp.csr_matrix(H)
    indptr, indices = H.indptr, H.indices
    nil = len(H.data)
    maps = []
    for region in regions:
        orb = region.orbitals
        n = len(orb)
        lo = indptr[orb]
        counts = indptr[orb + 1] - lo
        total = int(counts.sum())
        # flat indices into H.data of every stored element in these rows
        offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        flat = np.repeat(lo - offsets, counts) + np.arange(total)
        row_rep = np.repeat(np.arange(n), counts)
        cols = indices[flat]
        pos = np.searchsorted(orb, cols)
        pos_c = np.minimum(pos, n - 1)
        ok = orb[pos_c] == cols
        m = np.full((n, n), nil, dtype=np.int32)
        m[row_rep[ok], pos_c[ok]] = flat[ok]
        maps.append(m)
    return maps


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

    ``rho_k`` is the list of per-k sparse Hermitian spin-summed density
    matrices built from core rows (``None`` when the solve was run
    energy-only); scalars (band energy, entropy in eV/K, per-atom
    Mulliken ``populations`` with Σ = ``n_electrons``) are already
    weight-summed over the k sample.  ``mu`` is the single BZ-common
    chemical potential; ``windows`` the per-k spectral bounds the
    expansion ran on.  ``mu_shift`` is the distance from the warm-start
    guess to the converged μ, ``taylor_radius`` the :func:`taylor_radius`
    it was held against (both 0.0 for cold solves) and ``used_fallback``
    records that a fused solve had to run the second density pass after
    all.  A Γ-point solve is the ``n_kpoints == 1`` case; ``rho`` and
    ``spectral_bounds`` read its single entry.
    """

    rho_k: list[sp.csr_matrix] | None
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

    def _single_k(self, per_k: list):
        if self.n_kpoints != 1:
            raise ElectronicError(
                f"solve sampled {self.n_kpoints} k points; read the per-k "
                "lists (rho_k / windows) instead")
        return per_k[0]

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


def _validate_inputs(H_list, weights, regions: list[LocalizationRegion]
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
    n_core_total = sum(len(r.core_local) for r in regions)
    if n_core_total != m_total:
        raise ElectronicError(
            f"regions cover {n_core_total} core orbitals but H has "
            f"{m_total}; every orbital must be the core of exactly one region"
        )
    return H_list, weights


def _chunk_specs(regions: list[LocalizationRegion], nworkers: int
                 ) -> tuple[list, list]:
    """Region (orbitals, core_local) specs and their pool chunking.

    Workers receive (sparse H, region specs) and densify one region at a
    time; H travels once per chunk, so a pool of nworkers gets exactly
    nworkers chunks (regions are near-equal, block partition balances),
    while the inline/injected-executor path chunks finer so an external
    pool of unknown width can load-balance.
    """
    specs = [(r.orbitals, r.core_local) for r in regions]
    nchunks = nworkers if nworkers > 1 else min(len(regions), 8)
    chunks = [c for c in block_partition(len(regions), nchunks) if len(c)]
    return specs, chunks


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
    """Core density rows (n_core, n) from one region's fused column
    stacks: ``Σ_d w_d · outs[d]``, Hermitian-transposed."""
    cols = np.tensordot(w_taylor, outs, axes=([0], [0]))
    return np.conj(cols.T) if np.iscomplexobj(cols) else cols.T


class RhoIndex:
    """Where the stacked core rows land in the Hermitised ρ̂.

    Core rows of region r are ρ̂ at (core orbital, region orbital); the
    Hermitised ``(ρ̂ + ρ̂ᴴ)/2`` lives on the union of that pattern and its
    transpose.  For each stored entry (r, c) of the union, ``fwd`` and
    ``bwd`` are the positions of the row entries at (r, c) and (c, r) in
    the concatenated rows — the trailing pad slot, zero, where one is
    absent — so a step's ρ̂ is one gather-and-average
    (:meth:`assemble`).  It depends on the region list only: callers
    that keep their regions keep it beside their gather maps.
    """

    def __init__(self, regions: list[LocalizationRegion], m_total: int):
        rows = np.concatenate([np.repeat(r.orbitals[r.core_local],
                                         r.n_orbitals) for r in regions])
        cols = np.concatenate([np.tile(r.orbitals, len(r.core_local))
                               for r in regions])
        nnz = len(rows)
        # row-major keys of (r, c) and of (c, r); their sorted union is
        # the CSR order of the Hermitised matrix
        keys, where = np.unique(np.concatenate(
            [rows.astype(np.int64) * m_total + cols,
             cols.astype(np.int64) * m_total + rows]), return_inverse=True)
        idx = np.int32 if 2 * nnz < 2 ** 31 - 1 else np.int64
        self.fwd = np.full(len(keys), nnz, dtype=idx)
        self.fwd[where[:nnz]] = np.arange(nnz)
        self.bwd = np.full(len(keys), nnz, dtype=idx)
        self.bwd[where[nnz:]] = np.arange(nnz)
        self.indices = (keys % m_total).astype(idx)
        self.indptr = np.searchsorted(
            keys, np.arange(m_total + 1, dtype=np.int64) * m_total
        ).astype(idx)
        self.shape = (m_total, m_total)

    def assemble(self, rows_per_region: list) -> sp.csr_matrix:
        """``(ρ̂ + ρ̂ᴴ)/2`` from per-region core rows, in region order."""
        flat = np.concatenate([np.ravel(r) for r in rows_per_region]
                              + [np.zeros(1)])
        back = flat[self.bwd]
        if np.iscomplexobj(back):
            np.conj(back, out=back)
        return sp.csr_matrix((0.5 * (flat[self.fwd] + back), self.indices,
                              self.indptr), shape=self.shape)


def _solve_regions(H_list, weights, regions: list[LocalizationRegion],
                   n_electrons: float, kT: float, order: int, *,
                   windows: list[tuple[float, float]] | None,
                   mu_guess: float | None = None, fused: bool = False,
                   mu: float | None = None,
                   with_rho: bool = True, rho_tol: float = 1e-10,
                   nworkers: int = 1, executor=None, backend=None,
                   gather_maps: list[np.ndarray] | None = None,
                   rho_index: RhoIndex | None = None
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

    (k, region) work runs inline through one cached block source per k
    (``nworkers == 1``, no executor — the only path that can use
    *gather_maps*), or as k-major (k, chunk) tasks through
    :func:`repro.parallel.pool.map_tasks`, so parallel width is
    ``n_k × n_regions``.  Each ρ(k) is assembled through *rho_index*
    (a :class:`RhoIndex` of *regions*, built here when not given).
    """
    if kT <= 0:
        raise ElectronicError("FOE-in-regions needs kT > 0")
    if order < 2:
        raise ElectronicError("expansion order must be >= 2")
    H_list, weights = _validate_inputs(H_list, weights, regions)
    m_total = H_list[0].shape[0]
    nk = len(H_list)
    backend = resolve_backend(backend)

    cached_window = windows is not None
    if windows is None:
        windows = [lanczos_spectral_bounds(H) for H in H_list]
    scaled = [_scaled_window(emin, emax) for emin, emax in windows]

    specs, chunks = _chunk_specs(regions, nworkers)
    inline = executor is None and nworkers == 1
    if inline:
        # the two passes of a cold solve share one densification per
        # (k, region) (cache capped); a fused solve, whose second pass
        # is the exception in MD, does not hold the dense blocks
        sources = [RegionBlockSource(H, specs, gather_maps=gather_maps,
                                     cache=with_rho and not fused)
                   for H in H_list]

    def run(op: str, arg_k: list) -> list[list]:
        """Backend *op* over every (k, region): per-k result lists in
        region order; ``arg_k[ki]`` is the op's k-specific argument."""
        if inline:
            return [getattr(backend, op)(sources[ki], scaled[ki][0],
                                         scaled[ki][1], arg_k[ki])
                    for ki in range(nk)]
        tasks = [(op, H_list[ki], [specs[i] for i in c], scaled[ki][0],
                  scaled[ki][1], arg_k[ki], backend.name)
                 for ki in range(nk) for c in chunks]
        flat = map_tasks(_region_worker, tasks, nworkers, executor)
        per = len(chunks)
        return [[r for chunk in flat[ki * per:(ki + 1) * per] for r in chunk]
                for ki in range(nk)]

    own_pool = None
    if executor is None and nworkers > 1:
        # one pool for both passes instead of a spawn per map_tasks call
        own_pool = ProcessPoolExecutor(max_workers=nworkers)
        executor = own_pool
    try:
        # -- pass 1: per-(k, region) moments → common μ, scalars -----------
        if fused:
            first = run("fused", [fermi_mu_derivative_coefficients(
                c, s, float(mu_guess), kT, order, nderiv=TAYLOR_ORDER)
                for c, s in scaled])
        else:
            first = run("moments", [order] * nk)
        m_per_k = [np.stack([r[0] for r in pk]) for pk in first]  # (R, K+1)
        e_per_k = [np.stack([r[1] for r in pk]) for pk in first]
        if cached_window:
            for m_per, window in zip(m_per_k, windows):
                _check_window(m_per, window)
        m_k = np.stack([mp.sum(axis=0) for mp in m_per_k])        # (nk, K+1)
        e_k = np.stack([ep.sum(axis=0) for ep in e_per_k])

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

        # -- ρ(k): μ-Taylor of the fused stacks, else the density pass -----
        radius = taylor_radius(kT, rho_tol) if fused else 0.0
        used_fallback = abs(dmu) > radius
        rho_k = None
        if with_rho:
            if fused and not used_fallback:
                w_taylor = np.array([dmu ** j / math.factorial(j)
                                     for j in range(TAYLOR_ORDER + 1)])
                rows_k = [[_taylor_rows(w_taylor, outs) for _, _, outs in pk]
                          for pk in first]
            else:
                rows_k = run("density_rows", coeffs_k)
            if rho_index is None:
                rho_index = RhoIndex(regions, m_total)
            rho_k = [rho_index.assemble(rows) for rows in rows_k]
    finally:
        if own_pool is not None:
            own_pool.shutdown()

    return RegionFOEResult(
        rho_k=rho_k, band_energy=band, mu=float(mu), entropy=entropy,
        populations=populations, n_electrons=float(populations.sum()),
        order=order, windows=windows, n_regions=len(regions), n_kpoints=nk,
        mu_shift=float(dmu), taylor_radius=radius,
        used_fallback=used_fallback, weights=weights)


def solve_density_regions(H, regions: list[LocalizationRegion],
                          n_electrons: float, kT: float,
                          order: int = DEFAULT_ORDER,
                          mu: float | None = None, nworkers: int = 1,
                          executor=None, with_rho: bool = True,
                          window: tuple[float, float] | None = None,
                          mu_guess: float | None = None,
                          backend=None,
                          gather_maps: list[np.ndarray] | None = None,
                          rho_index: RhoIndex | None = None
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
    nworkers, executor :
        Region batches are fanned out through
        :func:`repro.parallel.pool.map_tasks`.
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
    gather_maps :
        Optional cached :func:`build_region_gather_maps` output; the
        inline (``nworkers == 1``, no executor) path then densifies each
        region with one fancy gather instead of CSR slicing.  Ignored on
        the pooled path, where shipping the maps would cost more than
        they save.
    rho_index :
        Optional cached :class:`RhoIndex` of *regions* (kept beside the
        gather maps); built per solve otherwise.
    """
    return _solve_regions(
        [H], [1.0], regions, n_electrons, kT, order,
        windows=None if window is None else [window], mu=mu,
        mu_guess=mu_guess, with_rho=with_rho, nworkers=nworkers,
        executor=executor, backend=backend, gather_maps=gather_maps,
        rho_index=rho_index)


def solve_density_regions_fused(H, regions: list[LocalizationRegion],
                                n_electrons: float, kT: float,
                                order: int = DEFAULT_ORDER, *,
                                window: tuple[float, float],
                                mu_guess: float,
                                nworkers: int = 1, executor=None,
                                rho_tol: float = 1e-10,
                                gather_maps: list[np.ndarray] | None = None,
                                backend=None,
                                rho_index: RhoIndex | None = None
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
    gather_maps, backend, rho_index :
        As in :func:`solve_density_regions`.

    Returns
    -------
    :class:`RegionFOEResult` with ``rho`` always present.
    """
    return _solve_regions(
        [H], [1.0], regions, n_electrons, kT, order, windows=[window],
        mu_guess=mu_guess, fused=True, rho_tol=rho_tol, nworkers=nworkers,
        executor=executor, backend=backend, gather_maps=gather_maps,
        rho_index=rho_index)


# ---------------------------------------------------------------------------
# Hellmann–Feynman forces from the sparse density matrices
# ---------------------------------------------------------------------------

def sparse_band_forces(atoms, model, nl: NeighborList, rho: sp.csr_matrix
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Band forces (N, 3) and virial (3, 3) from a *sparse* symmetric ρ.

    The one-point (Γ, weight 1) case of
    :func:`repro.linscale.kfoe.sparse_band_forces_k`: the contraction
    ``g = 2 Σ ρ_ab ∂B_ab`` per half-list bond.  Orthogonal models only.

    Units: forces in eV/Å, virial in eV.
    """
    return _bond_forces(atoms, model, nl, [rho], [1.0], np.zeros(3))
