"""Shared calculator-state protocol: *what changed since the last call*.

Every calculator in pytbmd (``TBCalculator``, ``LinearScalingCalculator``,
``DensityMatrixCalculator``, ``StillingerWeber``) caches expensive
per-structure machinery — neighbour lists, sparse Hamiltonian patterns,
localization regions, Chebyshev spectral windows, the chemical
potential.  For the cache to be both *fast* and *safe*, every calculator
needs the same answer to one question on every ``compute`` call: **what
changed since last time?**

:class:`CalculatorState` is that single source of truth.  It snapshots
positions, cell, species and a parameter tuple; each call advances its
``snapshot_id`` (the stamp the result cache is keyed on) when anything
changed and returns a :class:`ChangeReport` of the two facts that decide
a reset, ``needs_full_reset`` and ``cell_changed``:

========================  =================================================
change                    consequence (the invalidation contract)
========================  =================================================
nothing                   cached results are returned as-is
positions only            *fast path*: Verlet-list refresh, new values on
                          the cached bond pattern, cached
                          regions/window/μ
cell                      fast path as well (k-sampled calculators
                          re-derive Cartesian k from the new cell on
                          every call); the Verlet layer remaps its image
                          shifts exactly, per-k Chebyshev windows are
                          guarded a posteriori, and consumers whose
                          caches are not self-validating (e.g. dense
                          spectral bounds) must reset on
                          ``cell_changed`` themselves
species / natoms          *full reset*: every persistent structure is
                          rebuilt
parameters (kT, order…)   *full reset* of the electronic state
========================  =================================================

MD, the relaxers and the CLI all drive calculators through this one
contract, so a structure mutated by any of them (in place or by
replacement) is always detected.

:class:`CalculatorBase` is the spine every calculator derives from: it
owns the :class:`CalculatorState`-keyed result cache, the event counts
(``counts``, the :class:`repro.obs.MetricsScope` that ``state_report()``
projects), the k-grid resolution, the virial → stress/pressure tail and
the ``get_*`` getters, so a subclass is its constructor, ``compute`` and
whatever persistent state it resets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.errors import ElectronicError, ModelError
from repro.units import EV_PER_A3_TO_GPA

if TYPE_CHECKING:
    from repro.tb.bonds import BondPattern, BondTable
    from repro.tb.symmetry import IrreducibleKGrid


@dataclass(frozen=True)
class ChangeReport:
    """What one ``observe`` call found changed since the last snapshot.

    Attributes
    ----------
    needs_full_reset :
        Persistent *state* (lists, patterns, windows, μ) is stale beyond
        repair and must be rebuilt from scratch: a first call (fresh or
        reset state), a changed atom count or species, or a changed
        calculator-parameter tuple.  Position-only motion is excluded —
        it is exactly the change the fast path is built to absorb — and
        so are cell changes: the Verlet layer remaps image shifts
        exactly, pattern and region caches are validated by pair-array
        comparison, and the Chebyshev window is guarded a posteriori.
    cell_changed :
        The cell differs from the snapshot; a calculator whose caches
        lack such self-validation resets on it.
    """

    needs_full_reset: bool
    cell_changed: bool


@dataclass
class StructureSnapshot:
    """A restorable copy of one structure's client-visible state.

    The batch service keeps one of these per registered structure —
    *outside* the worker that owns the live ``Atoms``/calculator pair —
    so an evicted or crash-lost structure can always be re-materialized
    into a fresh calculator.  Only client-visible state is captured
    (species, positions, cell, pbc, velocities); calculator caches are
    deliberately not part of it: a re-materialized structure starts cold
    and must reproduce the cold calculator's answers exactly.
    """

    symbols: tuple[str, ...]
    positions: np.ndarray
    cell: np.ndarray
    pbc: tuple[bool, ...]
    velocities: np.ndarray | None = None

    @classmethod
    def capture(cls, atoms: Any) -> "StructureSnapshot":
        """Deep-copy the client-visible state of *atoms*."""
        vel = np.asarray(atoms.velocities, dtype=float)
        return cls(
            symbols=tuple(atoms.symbols),
            positions=np.array(atoms.positions, dtype=float, copy=True),
            cell=np.array(atoms.cell.matrix, dtype=float, copy=True),
            pbc=tuple(bool(p) for p in atoms.cell.pbc),
            velocities=vel.copy() if np.any(vel) else None,
        )

    def update(self, positions: Any = None, cell: Any = None,
               velocities: Any = None) -> None:
        """Advance the snapshot after a successful mutating request."""
        if positions is not None:
            self.positions = np.array(positions, dtype=float, copy=True)
        if cell is not None:
            self.cell = np.array(cell, dtype=float, copy=True)
        if velocities is not None:
            self.velocities = np.array(velocities, dtype=float, copy=True)

    def materialize(self) -> Any:
        """Rebuild a fresh :class:`~repro.geometry.atoms.Atoms` object."""
        from repro.geometry.atoms import Atoms
        from repro.geometry.cell import Cell

        cell = Cell(self.cell.copy(), pbc=self.pbc)
        return Atoms(list(self.symbols), self.positions.copy(), cell=cell,
                     velocities=None if self.velocities is None
                     else self.velocities.copy())


class CalculatorState:
    """Snapshot-and-diff tracker behind every calculator cache.

    Usage::

        state = CalculatorState()
        report = state.observe(atoms, params=(kT, order))
        if report.needs_full_reset:
            rebuild_everything()
        # else: the fast path

    ``observe`` always *updates* the snapshot (copies, so in-place
    mutation of ``atoms`` between calls is detected) and advances
    :attr:`snapshot_id` on any change, so a result stamped with the
    current id is a result for this exact structure and parameters.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget the snapshot; the next ``observe`` reports a first call."""
        self._positions: np.ndarray | None = None
        self._cell: np.ndarray | None = None
        self._symbols: tuple[str, ...] | None = None
        self._params: tuple | None = None
        self._snapshot_id: int = 0

    @property
    def snapshot_id(self) -> int:
        """Generation of the current state (0 = no snapshot yet):
        advanced by every observation that *changed* something
        (including the first), stable across repeated no-change
        observations.  Calculators stamp their results cache with it and
        treat the cache as valid only while the stamp still matches — so
        a compute that raises mid-solve (after the snapshot was taken)
        can never be mistaken for having produced results for the new
        geometry."""
        return self._snapshot_id

    def observe(self, atoms: Any, params: tuple = ()) -> ChangeReport:
        """Diff *atoms* (+ *params*) against the snapshot, then update it."""
        pos = np.asarray(atoms.positions, dtype=float)
        cell = np.asarray(atoms.cell.matrix, dtype=float)
        symbols = tuple(atoms.symbols)
        params = tuple(params)

        if self._positions is None or self._cell is None:
            reset, cell_changed, changed = True, False, True
        else:
            reset = symbols != self._symbols or params != self._params
            cell_changed = not np.array_equal(cell, self._cell)
            changed = (reset or cell_changed
                       or not np.array_equal(pos, self._positions))

        self._positions = pos.copy()
        self._cell = cell.copy()
        self._symbols = symbols
        self._params = params
        if changed:
            self._snapshot_id += 1
        return ChangeReport(needs_full_reset=reset, cell_changed=cell_changed)


class CalculatorBase:
    """The spine shared by every calculator.

    A subclass calls ``super().__init__(kpts, kgrid_reduce)`` (both
    default to the Γ point), builds its Verlet list ``_vlist``, ends its
    constructor with ``self.invalidate()`` and implements
    ``compute(atoms, forces)`` on top of :meth:`_cached` / :meth:`_store`
    / :meth:`_attach_forces`; a TB calculator reads its step's bonds
    through :meth:`_bond_table`.  Persistent step-to-step state beyond the
    Verlet list and the bond pattern is dropped in a
    :meth:`_reset_persistent` override.
    """

    model: Any = None
    _vlist: Any

    def __init__(self, kpts: Any = None, kgrid_reduce: str = "trs") -> None:
        from repro.tb.kpoints import KGRID_REDUCE_MODES, reduced_kgrid

        if kgrid_reduce not in KGRID_REDUCE_MODES:
            raise ElectronicError(
                f"unknown kgrid_reduce {kgrid_reduce!r}; choose from "
                f"{KGRID_REDUCE_MODES}")
        self.counts = obs.MetricsScope()
        self.kgrid_reduce = kgrid_reduce
        self._kgrid_size = kpts
        self._sym_cache: tuple = (None, None)
        self.kpts_frac: np.ndarray | None = None
        self.kweights: np.ndarray | None = None
        if kpts is not None and kgrid_reduce != "symmetry":
            # (the symmetry wedge depends on cell + basis: resolved per
            # structure by _resolve_kgrid)
            self.kpts_frac, self.kweights, _ = reduced_kgrid(kpts,
                                                             kgrid_reduce)

    def compute(self, atoms: Any, forces: bool = True) -> dict:
        """Evaluate *atoms* and return the results dict (``energy``,
        ``free_energy``, … and, with *forces*, ``forces`` / ``virial`` /
        ``stress`` / ``pressure``)."""
        raise NotImplementedError  # pragma: no cover - abstract

    # -- cache ----------------------------------------------------------------
    def _reset_persistent(self) -> None:
        """Drop step-to-step caches; subclasses extend this with their
        regions, windows and warm μ."""
        self._vlist.reset()
        self._bond_cache: BondPattern | None = None

    def _bond_table(self, atoms: Any) -> BondTable:
        """The step's Verlet list as a bond table over the cached pattern
        (:mod:`repro.tb.bonds`) — what a TB calculator's Hamiltonian,
        band forces and repulsion all read, so a step derives its bonds
        once.  The pattern is a pure function of (symbols, model, pairs):
        it is rebuilt exactly when
        :meth:`~repro.tb.bonds.BondPattern.matches` fails (a bond crossed
        the cutoff, or the species or atom count changed) and after
        ``invalidate()``; a Verlet rebuild that brings back the same
        pairs reuses it.
        """
        from repro.tb.bonds import BondPattern, bond_table

        nl = self._vlist.update(atoms)
        pattern = self._bond_cache
        if pattern is None or not pattern.matches(atoms.symbols, nl):
            pattern = self._bond_cache = BondPattern(atoms.symbols,
                                                     self.model, nl)
            self.counts.counter_inc("tb.bonds.pattern_build")
        else:
            self.counts.counter_inc("tb.bonds.pattern_reuse")
        return bond_table(atoms, self.model, nl, pattern)

    def invalidate(self) -> None:
        """Forget everything — cached results *and* persistent state.

        Call after mutating model parameters in place; normal structural
        changes are detected automatically through the state protocol.
        """
        self._state = CalculatorState()
        self._results: dict = {}
        self._cache_key: int | None = None
        self._sym_cache = (None, None)
        self._reset_persistent()

    def _cached(self, forces: bool) -> dict | None:
        """Cached results, only when they were *stored* for the current
        state generation (call after ``self._state.observe``): any change
        advances the generation past the stamp, and a compute that raised
        after the snapshot was taken leaves ``_cache_key`` behind it, so a
        retry at the same geometry recomputes instead of serving stale
        data.  This is the one place a hit is counted
        (``calc.cache_hit``)."""
        if self._results and self._cache_key == self._state.snapshot_id \
                and (not forces or "forces" in self._results):
            self.counts.counter_inc("calc.cache_hit")
            return self._results
        return None

    def _store(self, res: dict) -> dict:
        self._results = res
        self._cache_key = self._state.snapshot_id
        return res

    def state_report(self) -> dict:
        """Reuse diagnostics: what was rebuilt vs recycled so far."""
        return {"neighbors": self._vlist.stats(),
                "snapshot_id": self._state.snapshot_id,
                "cache_hits": self.counts.count("calc.cache_hit")}

    # -- k grid ---------------------------------------------------------------
    def _resolve_kgrid(self, atoms: Any) -> IrreducibleKGrid | None:
        """The current symmetry wedge (``None`` outside symmetry mode),
        updating ``kpts_frac`` / ``kweights`` for the current structure.

        Static for the ``trs``/``full`` modes.  The wedge
        (:class:`~repro.tb.symmetry.IrreducibleKGrid`: folding ops and
        pure translations) is cached by exact cell/positions/species
        bytes — across a strain sweep of a symmetric crystal the
        *fractional* wedge is invariant, so warm per-k state survives
        every strain step.  On geometry changes the cached ops are
        revalidated in O(|ops|·N) and the wedge itself is kept; the full
        O(N²) detection reruns only when an op was lost
        (:func:`repro.tb.symmetry.rewedge`)."""
        if self.kgrid_reduce != "symmetry":
            return None
        from repro.tb.symmetry import rewedge

        key = (atoms.cell.matrix.tobytes(), tuple(atoms.symbols),
               atoms.positions.tobytes())
        cached_key, grid = self._sym_cache
        if cached_key != key:
            grid = rewedge(self._kgrid_size, atoms, prev=grid)
            self._sym_cache = (key, grid)
        else:
            self.counts.counter_inc("symmetry.wedge_cache_hit")
        self.kpts_frac, self.kweights = grid.kpts_frac, grid.weights
        return grid

    def _kgrid_label(self) -> str:
        """The sampling, for ``__repr__``."""
        if self._kgrid_size is None:
            return "Γ"
        if self.kpts_frac is None:
            return "symmetry k-grid (unresolved)"
        return f"{len(self.kpts_frac)} k-points ({self.kgrid_reduce})"

    # -- forces / stress tail -------------------------------------------------
    def _attach_forces(self, res: dict, atoms: Any, forces: np.ndarray,
                       virial: np.ndarray) -> None:
        """Total forces, virial, and — for periodic cells — stress/pressure."""
        res["forces"] = forces
        res["virial"] = virial
        if atoms.cell.fully_periodic:
            vol = atoms.cell.volume
            res["stress"] = virial / vol
            res["pressure"] = float(-np.trace(virial) / (3 * vol))
            res["pressure_gpa"] = res["pressure"] * EV_PER_A3_TO_GPA

    # -- convenience getters --------------------------------------------------
    def _get(self, atoms: Any, key: str, forces: bool, missing: str) -> Any:
        """A result key only some modes produce; *missing* says why not."""
        res = self.compute(atoms, forces=forces)
        if key not in res:
            raise ModelError(missing)
        return res[key]

    def get_potential_energy(self, atoms: Any) -> float:
        """Total energy (eV): band-structure + repulsive."""
        return self.compute(atoms, forces=False)["energy"]

    def get_free_energy(self, atoms: Any) -> float:
        """Mermin free energy E − T·S_el — the quantity the forces
        differentiate (equals the energy at kT = 0)."""
        return self.compute(atoms, forces=False)["free_energy"]

    def get_forces(self, atoms: Any) -> np.ndarray:
        """(N, 3) forces in eV/Å (Γ or k-sampled)."""
        return self.compute(atoms, forces=True)["forces"]

    def get_stress(self, atoms: Any) -> np.ndarray:
        """3×3 potential stress tensor in eV/Å³ (periodic cells only)."""
        return self._get(atoms, "stress", True,
                         "stress requires a fully periodic cell")

    def get_pressure(self, atoms: Any) -> float:
        """Potential pressure −tr(virial)/3V in eV/Å³."""
        return self._get(atoms, "pressure", True,
                         "pressure requires a fully periodic cell")

    def get_eigenvalues(self, atoms: Any) -> np.ndarray:
        """Eigenvalues (eV) — only exact diagonalisation has them."""
        raise ModelError(
            f"{type(self).__name__} never builds an eigen-spectrum; use a "
            "local TBCalculator for eigenvalues / gaps")
