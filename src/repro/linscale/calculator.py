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

* skin-based Verlet neighbour lists (rebuilt only when drift or strain
  may have carried a pair across the skin),
* the bond pattern (:mod:`repro.tb.bonds`: species-pair groups, orbital
  offsets, the CSR structure of H), rebuilt only when the pairs or the
  species change — the Hamiltonian, the band forces and the repulsion
  read one bond table per step,
* the localization regions (rebuilt only when the r_loc bond graph
  changes),
* the Chebyshev spectral window (Lanczos bounds, padded; refreshed on
  neighbour-list rebuilds and on a cell change its pad may not cover,
  and guarded a posteriori),
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

``solver: foe`` is this engine on one all-core region
(:func:`~repro.linscale.regions.all_core_region`): the dense
Fermi-operator expansion, with every cache, guard and k mode above.

:class:`DensityMatrixCalculator` wraps dense Palser–Manolopoulos
purification (zero temperature) behind the same interface — what the
CLI's ``--solver purification`` dispatches to.  It shares the same
state protocol and reuses its spectral bounds across steps.
"""

from __future__ import annotations

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
from repro.linscale.foe_local import RegionIndex
from repro.linscale.kfoe import (
    solve_density_regions_k,
    solve_density_regions_k_fused,
    sparse_band_forces_k,
)
from repro.linscale.regions import (
    all_core_region,
    extract_regions,
    region_orbits,
    region_statistics,
)
from repro.linscale.sparse_hamiltonian import SparseHamiltonianBuilder
from repro.tb.kpoints import frac_to_cartesian
from repro.tb.symmetry import (
    symmetrize_atom_scalars,
    symmetrize_forces,
    symmetrize_virial,
)


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
        Array backend for the region Chebyshev operations — a name from
        :func:`repro.linscale.backends.available_backends`
        (``"numpy_batched"`` or ``"eigh"``), a
        :class:`~repro.linscale.backends.base.Backend` instance, or
        ``None`` to resolve from the ``REPRO_BACKEND`` environment
        variable / the package default (``numpy_batched``: each shape
        bucket of regions runs as one stacked-GEMM recursion on an
        L2-sized stack).  Backends are physics-equivalent
        (conformance-tested against ``eigh``, which sums the same
        truncated series on each region block's eigenvalues).
    """

    def __init__(self, model, kT: float = 0.1, r_loc: float | None = None,
                 order: int = DEFAULT_ORDER, skin: float = 0.5,
                 reuse: bool = True, rho_tol: float = 1e-10, kpts=None,
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
        if self.order < 2:
            raise ElectronicError(f"order must be >= 2, got {self.order}")
        self.reuse = bool(reuse)
        self.rho_tol = float(rho_tol)
        self.backend = resolve_backend(backend)
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
        self._window_ref = None
        self._mu_hist: list[float] = []
        self._last_solve_mode = "none"
        self._index_cache = None

    def close(self) -> None:
        """A no-op, kept for callers that close what they made: the region
        solves own no process or thread (the backend's helper threads are
        process-wide)."""

    # -- persistent-state helpers ------------------------------------------
    def _get_regions(self, atoms):
        """Cached localization regions, rebuilt only when the r_loc bond
        graph (the filtered pair arrays) changed."""
        nl_loc = self._vlist_loc.update(atoms)
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

    def _refresh_windows(self, H_k, cell) -> None:
        """Recompute and cache the Chebyshev windows: tight Lanczos
        bounds plus a pad that absorbs spectral drift while a window is
        reused.  A refresh runs on a cold step, when either Verlet list
        rebuilds, when the cell moved a spectrum further than its pad
        may have covered (:meth:`_windows_outgrown`), and when the
        a-posteriori moment guard finds the spectrum escaped a cached
        window (``window.invalidated``).  One per H(k): Bloch spectra
        shift with k, so one shared window would either leak or
        over-widen every expansion."""
        self._windows, pads = [], []
        for H in H_k:
            emin, emax = lanczos_spectral_bounds(H)
            pad = 0.02 * (emax - emin) + 0.2
            self._windows.append((emin - pad, emax + pad))
            pads.append(pad)
        self._window_ref = (cell.matrix.copy(), list(H_k), pads)
        self.counts.counter_inc("window.refresh")

    def _windows_outgrown(self, H_k, cell) -> bool:
        """Whether a cell change since the last refresh may have moved a
        spectrum past its window.  By Weyl's inequality no eigenvalue
        of H(k) moved further than ``‖ΔH‖₂ ≤ max_i Σ_j |ΔH_ij|`` from
        the refreshed H(k) — so a window whose pad exceeds that bound
        still covers the spectrum, and one that does not is refreshed,
        whether the cell was compressed (the window may leak) or
        expanded (it may have grown too wide).  An unchanged cell skips
        the check: atomic drift within the Verlet skin is the pad's to
        absorb, as it always was."""
        h0, refs, pads = self._window_ref
        if np.array_equal(cell.matrix, h0):
            return False
        return any(abs(H - H0).sum(axis=1).max() > pad
                   for H, H0, pad in zip(H_k, refs, pads))

    def _region_index(self, H, regions, wedge):
        """The cached :class:`~repro.linscale.foe_local.RegionIndex` of
        *regions*, their orbits under the wedge's pure translations
        (:func:`~repro.linscale.regions.region_orbits`; none outside
        symmetry mode) included.  Rebuilt when the bond pattern that owns
        H's structure (scipy copies the index arrays into every emitted
        matrix, so their identity says nothing), the region list or the
        translation set is replaced."""
        pattern = self._bond_cache
        translations = None if wedge is None else wedge.translations
        key = (pattern, regions, translations)
        cache = self._index_cache
        if cache is None or any(a is not b for a, b in zip(cache[0], key)):
            orbits = region_orbits(regions,
                                   [op.perm for op in translations or ()],
                                   pattern.offsets, pattern.m)
            cache = self._index_cache = (
                key, RegionIndex(H, regions, orbits, pattern))
        return cache[1]

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
        ``regions`` (rebuilds / reuses, the current ``orbits`` — the
        recursions a solve runs — ``reduced_solves``, the solves that
        ran one region per translation orbit, and ``index_bytes``, the
        resident bytes of the cached block maps and ρ̂ positions),
        ``window``, ``foe`` (cold / fused / fallback counts),
        ``cache_hits``.
        """
        count = self.counts.count
        index = None if self._index_cache is None else self._index_cache[1]
        return {
            "reuse": self.reuse,
            "backend": self.backend.name,
            "neighbors": self._vlist.stats(),
            "neighbors_loc": self._vlist_loc.stats(),
            "hamiltonian": {"pattern_builds": count("tb.bonds.pattern_build"),
                            "value_updates": count("tb.bonds.pattern_reuse")},
            "regions": {"rebuilds": count("regions.rebuild"),
                        "reuses": count("regions.reuse"),
                        "orbits": 0 if index is None
                        else len(index.orbits.solved),
                        "reduced_solves": count("foe.orbit_reduced"),
                        "index_bytes": 0 if index is None
                        else index.nbytes},
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
        wedge = self._resolve_kgrid(atoms) if kmode else None
        sym_ops = None if wedge is None else wedge.ops

        report = self._state.observe(atoms, params=self._params())
        cached = self._cached(forces)
        if cached is not None:
            return cached
        if not self.reuse or report.needs_full_reset:
            self._reset_persistent()

        model = self.model
        model.check_species(atoms.symbols)

        with obs.span("calc.neighbors"):
            nl = self._bond_table(atoms)

        with obs.span("calc.regions"):
            regions = self._get_regions(atoms)

        with obs.span("calc.hamiltonian"):
            if kmode:
                kcarts = frac_to_cartesian(self.kpts_frac, atoms.cell)
                weights = self.kweights
                H_k = self._hbuilder.build_k(atoms, nl, kcarts)
            else:
                # Γ is the one-point grid, kept on the real dtype
                kcarts, weights = np.zeros((1, 3)), np.ones(1)
                H_k = [self._hbuilder.build(atoms, nl)]

        if self.reuse and (self._windows is None
                           or self._vlist.last_update_rebuilt
                           or self._vlist_loc.last_update_rebuilt
                           or self._windows_outgrown(H_k, atoms.cell)):
            # without reuse the two-pass solve computes its own bounds;
            # refreshing here too would double the Lanczos work
            with obs.span("calc.bounds"):
                self._refresh_windows(H_k, atoms.cell)
        elif self.reuse:
            # cached Lanczos window carried over: no re-Lanczos this step
            self.counts.counter_inc("window.reuse")

        with obs.span("calc.foe"):
            foe = self._solve(H_k, weights, regions, wedge, atoms,
                              with_rho=forces)

        with obs.span("calc.repulsive"):
            erep, frep, vrep = repulsive_energy_forces(atoms, model, nl)

        energy = foe.band_energy + erep
        res = {
            "band_energy": foe.band_energy,
            "repulsive_energy": erep,
            "energy": energy,
            "free_energy": energy - (self.kT / KB) * foe.entropy,
            "fermi_level": foe.mu,
            "entropy": foe.entropy,
            "n_electrons": foe.n_electrons,
            "n_regions": foe.n_regions,
            "order": foe.order,
            "spectral_bounds": foe.windows if kmode
                               else foe.spectral_bounds,
            "n_orbitals": H_k[0].shape[0],
            "n_pairs": nl.n_pairs,
            "fastpath": {"mode": self._last_solve_mode,
                         "mu_shift": foe.mu_shift,
                         "taylor_radius": foe.taylor_radius,
                         "used_fallback": foe.used_fallback},
            **self._per_atom_results(atoms, regions, foe.populations,
                                     sym_ops),
        }
        if kmode:
            res["n_kpoints"] = len(kcarts)
            res["kweights"] = self.kweights

        if forces:
            with obs.span("calc.forces"):
                fband, vband = sparse_band_forces_k(
                    atoms, model, nl, foe.bonds_k, weights, kcarts)
                if sym_ops is not None:
                    fband = symmetrize_forces(fband, sym_ops, atoms.cell)
                    vband = symmetrize_virial(vband, sym_ops, atoms.cell)
                self._attach_forces(res, atoms, fband + frep, vband + vrep)
        # the warm μ is committed with the finished step only: a failure
        # after the solve must not move the retry's μ search
        self._mu_hist = (self._mu_hist + [foe.mu])[-2:]
        return self._store(res)

    def _per_atom_results(self, atoms, regions, populations,
                          sym_ops) -> dict:
        """The keys of per-atom regions: Mulliken populations and
        charges, region sizes and ``r_loc``."""
        if sym_ops is not None:
            # wedge-accumulated per-atom sums → full-grid values
            populations = symmetrize_atom_scalars(populations, sym_ops)
        z = np.array([self.model.n_electrons(s) for s in atoms.symbols])
        return {"populations": populations, "charges": z - populations,
                "region_stats": region_statistics(regions),
                "r_loc": self.r_loc}

    def _solve(self, H_k, weights, regions, wedge, atoms, with_rho: bool):
        """The one cold / warm / fused dispatch policy (Γ and k modes).

        Fused when warm (cached windows + warm μ guess, with_rho); on a
        stale-window error, refresh and fall back to the verified
        two-pass solve, which itself retries once after a refresh.
        Either way the backend recurses one region per translation orbit
        under *wedge*'s translations.
        """
        args = (H_k, weights, regions,
                self.model.total_electrons(atoms.symbols), self.kT)
        index = self._region_index(H_k[0], regions, wedge)
        if index.orbits.reduced:
            self.counts.counter_inc("foe.orbit_reduced")
        obs.current_span().set(n_regions=len(regions),
                               n_solved=len(index.orbits.solved))
        common = dict(order=self.order, backend=self.backend, index=index)
        mu_guess = self._mu_guess() if self.reuse else None

        def window_invalidated():
            self.counts.counter_inc("window.invalidated")
            self._refresh_windows(H_k, atoms.cell)

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
        return self._get(atoms, "charges", False, "Mulliken charges need "
                         "per-atom localization regions (solver 'linscale')")

    def _region_label(self) -> str:
        return f"r_loc={self.r_loc:.2f} Å"

    def __repr__(self) -> str:
        return (f"LinearScalingCalculator(model={self.model.name!r}, "
                f"{self._kgrid_label()}, kT={self.kT} eV, "
                f"{self._region_label()}, "
                f"order={self.order}, "
                f"reuse={self.reuse}, backend={self.backend.name!r})")


class _OneRegionCalculator(LinearScalingCalculator):
    """What ``solver: foe`` builds: the engine on one all-core region.

    No halo, so no ``r_loc`` and no second neighbour list; the region's
    one population is the electron count, so no per-atom populations.
    """

    def _get_regions(self, atoms):
        # the orbital count changes only with a full reset (atoms, species)
        if self._regions is None:
            self._regions = [all_core_region(self._bond_cache.m)]
        return self._regions

    def _per_atom_results(self, atoms, regions, populations,
                          sym_ops) -> dict:
        return {}

    def _region_label(self) -> str:
        return "one all-core region"


class DensityMatrixCalculator(CalculatorBase):
    """Dense Palser–Manolopoulos purification (kT = 0, gapped systems).

    Orthogonal models only; same getter surface as the other
    calculators.  The spectral bounds are cached across calls and
    refreshed on neighbour-list rebuilds and cell changes.
    """

    def __init__(self, model, skin: float = 0.5):
        if not model.orthogonal:
            raise ElectronicError(
                "density-matrix calculators support orthogonal models only"
            )
        super().__init__()
        self.model = model
        self._vlist = VerletList(rcut=model.cutoff, skin=skin)
        self.invalidate()

    def _reset_persistent(self) -> None:
        super()._reset_persistent()
        self._bounds = None

    def compute(self, atoms, forces: bool = True) -> dict:
        report = self._state.observe(atoms)
        cached = self._cached(forces)
        if cached is not None:
            return cached
        if report.needs_full_reset or report.cell_changed:
            # dense spectral-bound caches have no a-posteriori guard, so a
            # cell change (which can shift the spectrum) resets them
            self._reset_persistent()
        model = self.model
        model.check_species(atoms.symbols)

        with obs.span("calc.neighbors"):
            nl = self._bond_table(atoms)
        with obs.span("calc.hamiltonian"):
            H, _ = build_hamiltonian(atoms, model, nl)

        if self._bounds is None or self._vlist.last_update_rebuilt:
            with obs.span("calc.bounds"):
                self._bounds = spectral_bounds(H)

        with obs.span("calc.density_matrix"):
            pur = purify_density_matrix(H, model.total_electrons(atoms.symbols),
                                        bounds=self._bounds)

        with obs.span("calc.repulsive"):
            erep, frep, vrep = repulsive_energy_forces(atoms, model, nl)

        energy = pur.band_energy + erep
        res = {
            "band_energy": pur.band_energy,
            "repulsive_energy": erep,
            "energy": energy,
            "free_energy": energy,
            "entropy": 0.0,
            "n_orbitals": H.shape[0],
            "n_pairs": nl.n_pairs,
            "iterations": pur.iterations,
            "idempotency_error": pur.idempotency_error,
        }
        if forces:
            with obs.span("calc.forces"):
                fband, vband = band_forces(atoms, model, nl,
                                           pur.dense_rho_spin_summed())
                self._attach_forces(res, atoms, fband + frep, vband + vrep)
        return self._store(res)

    def __repr__(self) -> str:
        return f"DensityMatrixCalculator(model={self.model.name!r})"
