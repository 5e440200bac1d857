"""Calculators built on density matrices instead of eigen-spectra.

:class:`LinearScalingCalculator` is the O(N) production path: sparse
Hamiltonian → localization regions → FOE-in-regions → Hellmann–Feynman
forces from core density rows.  It is API-compatible with
:class:`~repro.tb.calculator.TBCalculator` (``compute`` /
``get_potential_energy`` / ``get_forces`` / ``get_stress`` …), so the MD
driver, the relaxers and the CLI run unchanged on top of it; the only
deliberate gap is anything needing an eigen-spectrum (eigenvalues,
HOMO/LUMO gap), which an O(N) method never produces.

With ``reuse=True`` (the default) the calculator keeps **persistent
step-to-step state** — the MD fast path:

* skin-based Verlet neighbour lists (rebuilt only on > skin/2 drift or
  any cell change),
* the bond pattern (:mod:`repro.tb.bonds`: species-pair groups, orbital
  offsets, the CSR structure of H), rebuilt only when the pairs or the
  species change — the Hamiltonian, the band forces and the repulsion
  read one bond table per step,
* the localization regions (rebuilt only when the r_loc bond graph
  changes),
* the Chebyshev spectral window (Lanczos bounds, padded; refreshed on
  neighbour-list rebuilds and guarded a posteriori),
* the chemical potential (linear extrapolation of the last two steps
  warm-starts the next solve).

When a warm μ is available, force evaluations use the *fused*
single-pass FOE (:func:`repro.linscale.kfoe.solve_density_regions_k_fused`)
— one Chebyshev recursion instead of two, with a μ-Taylor correction —
which roughly halves the per-step cost.  The Γ-point engine is the
one-point k grid (``[H]``, weight 1, real dtype): there is one solve
dispatch, one window list and one force call for both modes.  All reuse
decisions flow through the shared :class:`repro.state.CalculatorState`
contract, so a cell, species or parameter change always falls back to a
full cold rebuild.  ``reuse=False`` restores the
rebuild-everything-per-step behaviour (benchmark baseline).

:class:`DensityMatrixCalculator` wraps the *dense* O(N)-family kernels —
Palser–Manolopoulos purification (zero temperature) and the global
Chebyshev FOE (finite temperature; the same region driver, run on a
single all-core region) — behind the same interface, which is what the
CLI's ``--solver purification|foe`` flags dispatch to and what the
crossover benchmark compares against.  It shares the same state
protocol and reuses its spectral bounds and μ across steps.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import obs
from repro.errors import ElectronicError, SpectralWindowError
from repro.neighbors.verlet import VerletList
from repro.state import CalculatorBase
from repro.tb.chebyshev import DEFAULT_ORDER
from repro.tb.forces import band_forces, repulsive_energy_forces
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.purification import (
    lanczos_spectral_bounds,
    purify_density_matrix,
    spectral_bounds,
)
from repro.units import KB

from repro.linscale.backends import resolve_backend
from repro.linscale.foe_local import (
    RhoIndex,
    build_region_gather_maps,
    solve_density_regions,
)
from repro.linscale.kfoe import (
    solve_density_regions_k,
    solve_density_regions_k_fused,
    sparse_band_forces_k,
)
from repro.linscale.regions import (
    all_core_region,
    extract_regions,
    region_statistics,
)
from repro.linscale.sparse_hamiltonian import SparseHamiltonianBuilder
from repro.tb.kpoints import frac_to_cartesian
from repro.tb.symmetry import (
    symmetrize_atom_scalars,
    symmetrize_forces,
    symmetrize_virial,
)


def _padded_lanczos_window(H) -> tuple[float, float]:
    """Tight Lanczos bounds + drift pad — the cached Chebyshev window.

    The pad absorbs spectral drift while the window is reused between
    refreshes; the a-posteriori moment guards catch the rare case of the
    spectrum escaping anyway.  One formula for every calculator, so the
    dense and O(N) engines expand on identical windows.
    """
    emin, emax = lanczos_spectral_bounds(H)
    pad = 0.02 * (emax - emin) + 0.2
    return (emin - pad, emax + pad)


class LinearScalingCalculator(CalculatorBase):
    """O(N) tight-binding calculator (FOE in localization regions).

    Parameters
    ----------
    model :
        An *orthogonal* :class:`~repro.tb.models.base.TBModel`.
    kT :
        Electronic temperature in eV; must be > 0 (the Fermi operator is
        expanded, not diagonalised).  Accuracy vs the exact smeared
        diagonalisation is controlled by *r_loc* and *order* together.
    r_loc :
        Localization radius in Å (≥ ``model.cutoff``).  Defaults to
        1.5 × cutoff — a few bonding shells, the regime the paper's
        accuracy tables use.
    order :
        Chebyshev expansion order; needed order grows like
        (spectral width)/kT.
    nworkers, executor :
        Region solves are batched through the process pool
        (:func:`repro.parallel.pool.map_tasks`).
    skin :
        Verlet-list skin margin in Å.
    reuse :
        Keep persistent step-to-step state (neighbour lists, Hamiltonian
        pattern, regions, spectral window, μ) and use the fused
        single-pass FOE when warm — the MD fast path.  ``False`` rebuilds
        everything on every call (the pre-fast-path behaviour, kept as
        the benchmark baseline).
    rho_tol :
        Acceptable μ-Taylor remainder in the fused density matrix; the
        fused solve falls back to an exact second pass when the warm μ
        guess missed by more than
        :func:`~repro.linscale.foe_local.taylor_radius` =
        ``kT·(6!·rho_tol)^{1/6}`` (12.9 meV at kT = 0.2 eV).
    kpts :
        ``None`` for the Γ point (the engine's one-point grid, on the
        real dtype), or a Monkhorst–Pack size tuple / int for k sampling
        (:mod:`repro.linscale.kfoe`): complex per-(k, region) blocks off
        the one cached bond pattern, one cached spectral window per k,
        MP-weighted moments → one common μ, weighted density-row and
        force assembly.  This is the path for *small-cell metals* — tiny
        periodic cells whose Γ-only folding would need a large
        supercell.
    kgrid_reduce :
        MP-grid folding: ``"trs"`` (default, −k onto +k with doubled
        weight), ``"full"``, or ``"symmetry"`` — the crystal-point-group
        irreducible wedge (:mod:`repro.tb.symmetry`), re-detected per
        structure, with band forces/virial/populations scattered back
        through the folding ops.  A symmetry-broken structure degrades
        to the time-reversal reduction; the per-k pattern cache, window
        caches and warm-μ fast path all run on the wedge unchanged.
    backend :
        Array backend for the region Chebyshev recursions — a name from
        :func:`repro.linscale.backends.available_backends`
        (``"numpy_loop"``, ``"numpy_batched"``, …), a
        :class:`~repro.linscale.backends.base.Backend` instance, or
        ``None`` to resolve from the ``REPRO_BACKEND`` environment
        variable / the package default (``numpy_batched``: each shape
        bucket of regions runs as one stacked-GEMM recursion on an
        L2-sized stack).  Backends are physics-equivalent
        (conformance-tested against ``numpy_loop``, the per-region
        oracle).
    """

    def __init__(self, model, kT: float = 0.1, r_loc: float | None = None,
                 order: int = DEFAULT_ORDER, nworkers: int = 1, executor=None,
                 skin: float = 0.5, reuse: bool = True,
                 rho_tol: float = 1e-10, kpts=None,
                 kgrid_reduce: str = "trs", backend=None):
        super().__init__(kpts, kgrid_reduce)
        if not model.orthogonal:
            raise ElectronicError(
                "LinearScalingCalculator supports orthogonal models only "
                "(no S-metric FOE)"
            )
        if kT <= 0:
            raise ElectronicError(
                "LinearScalingCalculator needs kT > 0 — the Fermi operator "
                "is expanded at finite electronic temperature"
            )
        self.model = model
        self.kT = float(kT)
        self.r_loc = float(r_loc) if r_loc is not None else 1.5 * model.cutoff
        if self.r_loc < model.cutoff:
            raise ElectronicError(
                f"r_loc = {self.r_loc} Å must be >= model cutoff "
                f"{model.cutoff} Å"
            )
        self.order = int(order)
        self.nworkers = int(nworkers)
        self.executor = executor
        self.reuse = bool(reuse)
        self.rho_tol = float(rho_tol)
        self.backend = resolve_backend(backend)
        self._own_pool = None
        self._vlist = VerletList(rcut=model.cutoff, skin=skin)
        self._vlist_loc = VerletList(rcut=self.r_loc, skin=skin)
        self._hbuilder = SparseHamiltonianBuilder(model)
        self.invalidate()

    def _params(self) -> tuple:
        ksig = None if self.kpts_frac is None else \
            tuple(map(tuple, np.round(self.kpts_frac, 12)))
        return (self.kT, self.r_loc, self.order, ksig, self.backend.name)

    def _reset_persistent(self) -> None:
        """Drop every step-to-step cache; the next compute is cold."""
        super()._reset_persistent()
        self._vlist_loc.reset()
        self._regions = None
        self._regions_sig = None
        self._windows = None
        self._mu_hist: list[float] = []
        self._last_solve_mode = "none"
        self._gather_cache = None

    def _region_executor(self):
        """The executor region solves run on — user-supplied, or one pool
        kept alive for the calculator's lifetime (an MD run must not pay
        process spawn every step)."""
        if self.executor is not None:
            return self.executor
        if self.nworkers > 1 and self._own_pool is None:
            self._own_pool = ProcessPoolExecutor(max_workers=self.nworkers)
        return self._own_pool

    def close(self) -> None:
        """Shut down the calculator-owned worker pool (no-op otherwise)."""
        if self._own_pool is not None:
            self._own_pool.shutdown()
            self._own_pool = None

    def __del__(self):  # pragma: no cover - interpreter-exit ordering
        with contextlib.suppress(Exception):
            self.close()

    # -- persistent-state helpers ------------------------------------------
    def _get_regions(self, atoms, nl_loc):
        """Cached localization regions, rebuilt only when the r_loc bond
        graph (the filtered pair arrays) changed."""
        sig_ok = (
            self._regions is not None
            and np.array_equal(self._regions_sig[0], nl_loc.i)
            and np.array_equal(self._regions_sig[1], nl_loc.j)
        )
        if sig_ok:
            self.counts.counter_inc("regions.reuse")
            return self._regions
        self.counts.counter_inc("regions.rebuild")
        self._regions = extract_regions(atoms, self.model, self.r_loc,
                                        nl=nl_loc)
        self._regions_sig = (nl_loc.i.copy(), nl_loc.j.copy())
        return self._regions

    def _refresh_windows(self, H_k) -> None:
        """Recompute and cache the padded Chebyshev windows (refreshed on
        neighbour-list rebuilds; see :func:`_padded_lanczos_window`) —
        one per H(k): Bloch spectra shift with k, so one shared window
        would either leak or over-widen every expansion."""
        self._windows = [_padded_lanczos_window(H) for H in H_k]
        self.counts.counter_inc("window.refresh")

    #: cap on cached densification-map memory (bytes); beyond it the
    #: fused solve falls back to CSR slicing — maps cost O(Σ n_region²),
    #: which would eventually rival the sparse problem itself
    GATHER_MAP_BYTES_MAX = 256 * 1024 * 1024

    def _region_indices(self, H, regions):
        """Cached per-region index structures: the densification maps
        (``None`` when not used) and the ρ̂ assembly index.

        Valid exactly while the CSR structure and the region list are
        the ones they were built from, so they are kept with the bond
        pattern that owns the structure and the region list, and rebuilt
        when either object is replaced (scipy copies the index arrays
        into every emitted matrix, so their identity says nothing).
        Every H(k) shares the pattern's structure, so one set serves all
        k points.  The maps are skipped for pooled solves (they would
        have to be shipped to workers) and for systems whose maps would
        exceed :data:`GATHER_MAP_BYTES_MAX`.
        """
        pattern = self._bond_cache
        cache = self._gather_cache
        if cache is None or cache[0] is not pattern or cache[1] is not regions:
            maps = None
            if self.nworkers == 1 and self.executor is None and \
                    4 * sum(r.n_orbitals ** 2 for r in regions) \
                    <= self.GATHER_MAP_BYTES_MAX:
                maps = build_region_gather_maps(H, regions)
            cache = (pattern, regions, maps, RhoIndex(regions, H.shape[0]))
            self._gather_cache = cache
        return cache[2], cache[3]

    def _mu_guess(self) -> float | None:
        """Warm μ: linear extrapolation of the last two converged values."""
        if not self._mu_hist:
            return None
        if len(self._mu_hist) >= 2:
            return 2.0 * self._mu_hist[-1] - self._mu_hist[-2]
        return self._mu_hist[-1]

    def state_report(self) -> dict:
        """Reuse diagnostics: what was rebuilt vs recycled so far.

        Keys: ``neighbors`` / ``neighbors_loc`` (Verlet build/reuse
        counts), ``hamiltonian`` (pattern builds vs value rewrites),
        ``regions``, ``window``, ``foe`` (cold / fused / fallback
        counts), ``cache_hits``.
        """
        count = self.counts.count
        return {
            "reuse": self.reuse,
            "backend": self.backend.name,
            "neighbors": self._vlist.stats(),
            "neighbors_loc": self._vlist_loc.stats(),
            "hamiltonian": {"pattern_builds": count("tb.bonds.pattern_build"),
                            "value_updates": count("tb.bonds.pattern_reuse")},
            "regions": {"rebuilds": count("regions.rebuild"),
                        "reuses": count("regions.reuse")},
            "window": {"refreshes": count("window.refresh"),
                       "reuses": count("window.reuse"),
                       "invalidations": count("window.invalidated")},
            "foe": {"cold": count("foe.cold"), "fused": count("foe.fused"),
                    "fallback": count("foe.fallback")},
            "cache_hits": count("calc.cache_hit"),
        }

    # -- main evaluation ----------------------------------------------------
    def compute(self, atoms, forces: bool = True) -> dict:
        """Evaluate and return the full results dict.

        Keys: ``energy``, ``free_energy``, ``band_energy``,
        ``repulsive_energy``, ``fermi_level``, ``entropy``,
        ``populations``, ``charges``, ``n_regions``, ``region_stats``,
        ``order``, ``r_loc``, ``n_orbitals``, ``n_pairs``, ``fastpath``
        and — with ``forces=True`` — ``forces``, ``virial``, ``stress``
        (periodic cells), ``pressure``.  Energies in eV, forces in eV/Å,
        stress/pressure in eV/Å³, entropy in eV/K.
        """
        if not obs.tracing_enabled():
            return self._compute_impl(atoms, forces)
        with obs.span("calc.compute") as sp_:
            res = self._compute_impl(atoms, forces)
            fp = res.get("fastpath") or {}
            sp_.set(natoms=len(atoms),
                    mode=fp.get("mode", self._last_solve_mode))
            return res

    def _compute_impl(self, atoms, forces: bool = True) -> dict:
        kmode = self._kgrid_size is not None
        if kmode and not atoms.cell.periodic:
            raise ElectronicError("k-point sampling requires a periodic cell")
        # resolve the (possibly structure-dependent) wedge *before* the
        # state observation: a changed wedge changes the params signature
        # and correctly forces a full reset of the per-k caches
        sym_ops = self._resolve_kgrid(atoms) if kmode else None

        report = self._state.observe(atoms, params=self._params())
        cached = self._cached(report, forces)
        if cached is not None:
            return cached
        if not self.reuse or report.needs_full_reset:
            self._reset_persistent()

        model = self.model
        model.check_species(atoms.symbols)

        with self.timer.phase("neighbors"):
            nl = self._bond_table(atoms)
            nl_loc = self._vlist_loc.update(atoms)

        with self.timer.phase("hamiltonian"):
            if kmode:
                kcarts = frac_to_cartesian(self.kpts_frac, atoms.cell)
                weights = self.kweights
                H_k = self._hbuilder.build_k(atoms, nl, kcarts)
            else:
                # Γ is the one-point grid, kept on the real dtype
                kcarts, weights = np.zeros((1, 3)), np.ones(1)
                H_k = [self._hbuilder.build(atoms, nl)]

        with self.timer.phase("regions"):
            regions = self._get_regions(atoms, nl_loc)

        if self.reuse and (self._windows is None
                           or self._vlist.last_update_rebuilt
                           or self._vlist_loc.last_update_rebuilt):
            # without reuse the two-pass solve computes its own bounds;
            # refreshing here too would double the Lanczos work
            with self.timer.phase("bounds"):
                self._refresh_windows(H_k)
        elif self.reuse:
            # cached Lanczos window carried over: no re-Lanczos this step
            self.counts.counter_inc("window.reuse")

        with self.timer.phase("foe"):
            foe = self._solve(H_k, weights, regions, atoms, with_rho=forces)
        self._mu_hist = (self._mu_hist + [foe.mu])[-2:]

        with self.timer.phase("repulsive"):
            erep, frep, vrep = repulsive_energy_forces(atoms, model, nl)

        z = np.array([model.n_electrons(s) for s in atoms.symbols])
        populations = foe.populations
        if sym_ops is not None:
            # wedge-accumulated per-atom sums → full-grid values
            populations = symmetrize_atom_scalars(populations, sym_ops)
        energy = foe.band_energy + erep
        res = {
            "band_energy": foe.band_energy,
            "repulsive_energy": erep,
            "energy": energy,
            "free_energy": energy - (self.kT / KB) * foe.entropy,
            "fermi_level": foe.mu,
            "entropy": foe.entropy,
            "populations": populations,
            "charges": z - populations,
            "n_electrons": foe.n_electrons,
            "n_regions": foe.n_regions,
            "region_stats": region_statistics(regions),
            "order": foe.order,
            "r_loc": self.r_loc,
            "spectral_bounds": foe.windows if kmode
                               else foe.spectral_bounds,
            "n_orbitals": H_k[0].shape[0],
            "n_pairs": nl.n_pairs,
            "fastpath": {"mode": self._last_solve_mode,
                         "mu_shift": foe.mu_shift,
                         "taylor_radius": foe.taylor_radius,
                         "used_fallback": foe.used_fallback},
        }
        if kmode:
            res["n_kpoints"] = len(kcarts)
            res["kweights"] = self.kweights

        if forces:
            with self.timer.phase("forces"):
                fband, vband = sparse_band_forces_k(
                    atoms, model, nl, foe.rho_k, weights, kcarts)
                if sym_ops is not None:
                    fband = symmetrize_forces(fband, sym_ops, atoms.cell)
                    vband = symmetrize_virial(vband, sym_ops, atoms.cell)
                self._attach_forces(res, atoms, fband + frep, vband + vrep)
        return self._store(res)

    def _solve(self, H_k, weights, regions, atoms, with_rho: bool):
        """The one cold / warm / fused dispatch policy (Γ and k modes).

        Fused when warm (cached windows + warm μ guess, with_rho); on a
        stale-window error, refresh and fall back to the verified
        two-pass solve, which itself retries once after a refresh.
        """
        args = (H_k, weights, regions,
                self.model.total_electrons(atoms.symbols), self.kT)
        maps, rho_index = self._region_indices(H_k[0], regions)
        common = dict(order=self.order, nworkers=self.nworkers,
                      executor=self._region_executor(), backend=self.backend,
                      gather_maps=maps, rho_index=rho_index)
        mu_guess = self._mu_guess() if self.reuse else None

        def window_invalidated():
            self.counts.counter_inc("window.invalidated")
            self._refresh_windows(H_k)

        if self.reuse and with_rho and mu_guess is not None and \
                self._windows is not None:
            try:
                foe = solve_density_regions_k_fused(
                    *args, windows=self._windows, mu_guess=mu_guess,
                    rho_tol=self.rho_tol, **common)
                if foe.used_fallback:
                    self._last_solve_mode = "fused+fallback"
                    self.counts.counter_inc("foe.fallback")
                else:
                    self._last_solve_mode = "fused"
                    self.counts.counter_inc("foe.fused")
                self.counts.observe("foe.mu_shift", abs(foe.mu_shift))
                attrs = {"mode": self._last_solve_mode,
                         "mu_shift": foe.mu_shift}
                if foe.taylor_radius > 0.0:   # rho_tol = 0: no Taylor step
                    # how close the solve ran to falling back (> 1: it did)
                    margin = abs(foe.mu_shift) / foe.taylor_radius
                    self.counts.observe("foe.taylor_margin", margin)
                    attrs["taylor_margin"] = margin
                obs.current_span().set(**attrs)
                return foe
            except SpectralWindowError:
                window_invalidated()
                # fall through to the verified two-pass solve

        def two_pass():
            return solve_density_regions_k(
                *args, with_rho=with_rho, mu_guess=mu_guess,
                windows=self._windows if self.reuse else None, **common)

        try:
            foe = two_pass()
        except SpectralWindowError:
            window_invalidated()
            foe = two_pass()
        self._last_solve_mode = "two-pass"
        self.counts.counter_inc("foe.cold")
        obs.current_span().set(mode="two-pass")
        return foe

    def get_charges(self, atoms) -> np.ndarray:
        """Mulliken charges q_i = Z_i − population_i (|e|)."""
        return self.compute(atoms, forces=False)["charges"]

    def __repr__(self) -> str:
        return (f"LinearScalingCalculator(model={self.model.name!r}, "
                f"{self._kgrid_label()}, kT={self.kT} eV, "
                f"r_loc={self.r_loc:.2f} Å, "
                f"order={self.order}, nworkers={self.nworkers}, "
                f"reuse={self.reuse}, backend={self.backend.name!r})")


class DensityMatrixCalculator(CalculatorBase):
    """Dense density-matrix calculator: purification or global FOE.

    ``method="purification"`` (Palser–Manolopoulos, kT = 0, gapped
    systems) or ``method="foe"`` (global Chebyshev expansion, kT > 0 —
    the region driver :func:`~repro.linscale.foe_local.solve_density_regions`
    on one :func:`~repro.linscale.regions.all_core_region`, through the
    ``REPRO_BACKEND``/default array backend).  Orthogonal models only.
    Same getter surface as the other calculators; results carry
    ``entropy`` (eV/K; 0 for purification) and ``free_energy =
    energy − T·S``, the quantity the forces differentiate.

    Step-to-step reuse: spectral bounds are cached across calls and
    refreshed on neighbour-list rebuilds; the FOE warm-starts its μ
    search from the last converged value.  ``reuse=False`` disables both.
    """

    def __init__(self, model, method: str = "purification", kT: float = 0.0,
                 order: int = DEFAULT_ORDER, threshold: float = 0.0,
                 skin: float = 0.5, reuse: bool = True):
        if not model.orthogonal:
            raise ElectronicError(
                "density-matrix calculators support orthogonal models only"
            )
        if method not in ("purification", "foe"):
            raise ElectronicError(f"unknown density-matrix method {method!r}")
        if method == "purification" and kT != 0.0:
            raise ElectronicError(
                "purification is a zero-temperature method; drop the "
                "electronic temperature or use the FOE for kT > 0"
            )
        if method == "foe" and kT <= 0.0:
            raise ElectronicError("the FOE needs kT > 0")
        super().__init__()
        self.model = model
        self.method = method
        self.kT = float(kT)
        self.order = int(order)
        self.threshold = float(threshold)
        self.reuse = bool(reuse)
        self._vlist = VerletList(rcut=model.cutoff, skin=skin)
        self.invalidate()

    def _params(self) -> tuple:
        return (self.method, self.kT, self.order, self.threshold)

    def _reset_persistent(self) -> None:
        super()._reset_persistent()
        self._bounds = None
        self._mu_prev = None

    def state_report(self) -> dict:
        """Reuse diagnostics (Verlet stats, cached bounds, warm μ)."""
        return {
            "reuse": self.reuse,
            "neighbors": self._vlist.stats(),
            "bounds_cached": self._bounds is not None,
            "mu_warm": self._mu_prev is not None,
            "cache_hits": self.counts.count("calc.cache_hit"),
        }

    def compute(self, atoms, forces: bool = True) -> dict:
        report = self._state.observe(atoms, params=self._params())
        cached = self._cached(report, forces)
        if cached is not None:
            return cached
        if not self.reuse or report.needs_full_reset or report.cell_changed:
            # dense spectral-bound caches have no a-posteriori guard, so a
            # cell change (which can shift the spectrum) resets them
            self._reset_persistent()
        model = self.model
        model.check_species(atoms.symbols)

        with self.timer.phase("neighbors"):
            nl = self._bond_table(atoms)
        with self.timer.phase("hamiltonian"):
            H, _ = build_hamiltonian(atoms, model, nl)
        nelec = model.total_electrons(atoms.symbols)

        if self._bounds is None or self._vlist.last_update_rebuilt:
            with self.timer.phase("bounds"):
                if self.method == "purification":
                    self._bounds = spectral_bounds(H)
                else:
                    self._bounds = _padded_lanczos_window(H)

        with self.timer.phase("density_matrix"):
            if self.method == "purification":
                pur = purify_density_matrix(H, nelec,
                                            threshold=self.threshold,
                                            bounds=self._bounds)
                rho = pur.dense_rho_spin_summed()
                band = pur.band_energy
                entropy = 0.0
                extra = {"iterations": pur.iterations,
                         "idempotency_error": pur.idempotency_error}
            else:
                def solve():
                    # the region driver on one all-core region: energy-only
                    # requests stop after the moment recursion
                    return solve_density_regions(
                        H, [all_core_region(H.shape[0])], nelec, self.kT,
                        order=self.order, window=self._bounds,
                        mu_guess=self._mu_prev, with_rho=forces)

                try:
                    foe = solve()
                except SpectralWindowError:
                    # cached window went stale between Verlet rebuilds:
                    # refresh the bounds and re-solve once
                    self._bounds = _padded_lanczos_window(H)
                    foe = solve()
                rho = foe.rho
                band = foe.band_energy
                entropy = foe.entropy
                extra = {"fermi_level": foe.mu, "order": foe.order}

        with self.timer.phase("repulsive"):
            erep, frep, vrep = repulsive_energy_forces(atoms, model, nl)

        energy = band + erep
        res = {
            "band_energy": band,
            "repulsive_energy": erep,
            "energy": energy,
            "free_energy": energy - (self.kT / KB) * entropy,
            "entropy": entropy,
            "method": self.method,
            "n_orbitals": H.shape[0],
            "n_pairs": nl.n_pairs,
            **extra,
        }
        if forces:
            with self.timer.phase("forces"):
                fband, vband = band_forces(atoms, model, nl, rho)
                self._attach_forces(res, atoms, fband + frep, vband + vrep)
        # the warm μ is committed with the finished step only: a failure
        # after the solve must not move the retry's μ search
        self._mu_prev = res.get("fermi_level")
        return self._store(res)

    def __repr__(self) -> str:
        return (f"DensityMatrixCalculator(model={self.model.name!r}, "
                f"method={self.method!r}, kT={self.kT} eV)")
