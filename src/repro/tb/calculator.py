"""The TB calculator façade: energies, forces, stress from one object.

This is the user-facing entry point the MD driver, relaxers and benchmarks
all consume.  A :class:`TBCalculator` owns a model, a Verlet neighbour
list and an optional electronic temperature; it diagonalises with
LAPACK, caches the last evaluation so repeated ``get_*`` calls on an
unchanged structure cost nothing, and it records per-phase wall-clock
times in a :class:`~repro.utils.timing.PhaseTimer` — the instrumentation
behind the T1/T2 step-timing tables.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ElectronicError
from repro.neighbors.verlet import VerletList
from repro.state import CalculatorBase
from repro.tb.eigensolvers import get_solver
from repro.tb.forces import (
    band_forces,
    density_matrices,
    repulsive_energy_forces,
)
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.kpoints import frac_to_cartesian
from repro.tb.symmetry import symmetrize_forces, symmetrize_virial
from repro.tb.occupations import fermi_dirac_occupations, homo_lumo_gap
from repro.units import KB


class TBCalculator(CalculatorBase):
    """Tight-binding total-energy and force calculator.

    Parameters
    ----------
    model :
        A :class:`~repro.tb.models.base.TBModel`.
    kT :
        Electronic temperature in eV (0 = integer filling, degenerate
        shells split evenly).
    kpts :
        ``None`` for Γ-only, or a Monkhorst–Pack size tuple / int for
        k-sampled energies **and forces** (per-k Hermitian density
        matrices with the phase-gradient force term).  Γ is the
        one-point grid of the same evaluation, kept on the real dtype;
        small-cell MD and relaxation run on either mode.
    kgrid_reduce :
        How the MP grid is folded: ``"trs"`` (default) folds ±k pairs,
        ``"full"`` keeps the raw grid, ``"symmetry"`` folds the crystal
        point group on top of time reversal into an irreducible wedge
        (:mod:`repro.tb.symmetry`) — the wedge is re-detected from the
        structure on every geometry change (a symmetry-broken structure
        degrades to the time-reversal reduction), and forces/virials are
        scattered back through the rotations and atom permutations.
    skin :
        Verlet-list skin in Å.
    """

    def __init__(self, model, kT: float = 0.0, kpts=None,
                 skin: float = 0.5, kgrid_reduce: str = "trs"):
        super().__init__(kpts, kgrid_reduce)
        self.model = model
        if kT < 0:
            raise ElectronicError("kT must be >= 0")
        self.kT = float(kT)
        # looked up through get_solver, not imported as solve_eigh: the
        # perf ledger (benchmarks/ledger/layers.py) traces tb.diagonalize
        # by patching get_solver's holders, until ROADMAP item 1 Move B
        self.solve = get_solver("lapack")
        self._vlist = VerletList(rcut=model.cutoff, skin=skin)
        self.invalidate()

    def compute(self, atoms, forces: bool = True) -> dict:
        """Evaluate and return the full results dict.

        Keys: ``energy``, ``free_energy``, ``band_energy``,
        ``repulsive_energy``, ``eigenvalues``, ``occupations``,
        ``fermi_level``, ``entropy``, ``n_orbitals``, ``n_pairs``,
        ``homo``/``lumo``/``gap`` (Γ-mode), ``n_kpoints``/``weights``
        (k-mode), and — with ``forces=True`` — ``forces``, ``virial``,
        ``stress`` (periodic cells), ``pressure``.

        One loop over the k list serves both modes: Γ is ``[None]`` with
        weight 1 (real H, no phases), ``kpts=`` the Cartesian MP points
        on complex H(k).  One common Fermi level is found over the
        concatenated weighted spectrum; forces contract each k point's
        ρ(k) (and W(k) for non-orthogonal models) through
        :func:`repro.tb.forces.band_forces` and sum with the sampling
        weights.  In ``kgrid_reduce="symmetry"`` mode the sum runs over
        the irreducible wedge only and the accumulated band
        forces/virial are scattered back through the folding ops.
        Hamiltonian, band forces and repulsion read one bond table per
        step (:mod:`repro.tb.bonds`), so the step derives its bonds once.

        Structure and parameter changes are detected through the shared
        :class:`repro.state.CalculatorState` contract; an unchanged
        structure returns the cached results without any matrix work.
        """
        report = self._state.observe(atoms, params=(self.kT,))
        cached = self._cached(report, forces)
        if cached is not None:
            return cached
        model = self.model
        model.check_species(atoms.symbols)
        kmode = self._kgrid_size is not None
        if kmode:
            if not atoms.cell.periodic:
                raise ElectronicError(
                    "k-point sampling requires a periodic cell")
            wedge = self._resolve_kgrid(atoms)
            sym_ops = None if wedge is None else wedge.ops
            kcart = list(frac_to_cartesian(self.kpts_frac, atoms.cell))
            kweights = self.kweights
        else:
            sym_ops, kcart, kweights = None, [None], np.ones(1)

        with self.timer.phase("neighbors"):
            nl = self._bond_table(atoms)

        all_eps = []
        all_C = []
        for k in kcart:
            with self.timer.phase("hamiltonian"):
                H, S = build_hamiltonian(atoms, model, nl, k_cart=k)
            with self.timer.phase("diagonalize"):
                eps_k, C_k = self.solve(H, S)
            all_eps.append(eps_k)
            if forces:
                all_C.append(C_k)
        eps = np.concatenate(all_eps)
        weights = np.repeat(kweights, [len(e) for e in all_eps])

        with self.timer.phase("occupations"):
            nelec = nl.pattern.n_electrons
            f, mu, entropy = fermi_dirac_occupations(eps, nelec, self.kT,
                                                     weights=weights)
            band_energy = float(np.sum(weights * f * eps))

        with self.timer.phase("repulsive"):
            erep, frep, vrep = repulsive_energy_forces(atoms, model, nl)

        energy = band_energy + erep
        res = {
            "band_energy": band_energy,
            "repulsive_energy": erep,
            "energy": energy,
            "free_energy": energy - (self.kT / KB) * entropy
                           if self.kT > 0 else energy,
            "eigenvalues": eps,
            "occupations": f,
            "fermi_level": mu,
            "entropy": entropy,
            "n_orbitals": len(all_eps[0]),
            "n_pairs": nl.n_pairs,
        }
        if kmode:
            res["weights"] = weights
            res["n_kpoints"] = len(kcart)
        else:
            res["homo"], res["lumo"], res["gap"] = homo_lumo_gap(eps, f)

        if forces:
            with self.timer.phase("forces"):
                fband = np.zeros((len(atoms), 3))
                vband = np.zeros((3, 3))
                need_w = not model.orthogonal
                start = 0
                for k, wk, eps_k, C_k in zip(kcart, kweights, all_eps, all_C):
                    fk = f[start:start + len(eps_k)]
                    start += len(eps_k)
                    rho_k, w_k = density_matrices(
                        C_k, fk, eps_k if need_w else None)
                    fb, vb = band_forces(atoms, model, nl, rho_k, w_k,
                                         k_cart=k)
                    fband += wk * fb
                    vband += wk * vb
                if sym_ops is not None:
                    fband = symmetrize_forces(fband, sym_ops, atoms.cell)
                    vband = symmetrize_virial(vband, sym_ops, atoms.cell)
                self._attach_forces(res, atoms, fband + frep, vband + vrep)
        return self._store(res)

    def state_report(self) -> dict:
        """Reuse diagnostics, plus the bond-pattern builds vs reuses."""
        count = self.counts.count
        return {**super().state_report(),
                "bonds": {"pattern_builds": count("tb.bonds.pattern_build"),
                          "pattern_reuses": count("tb.bonds.pattern_reuse")}}

    def get_eigenvalues(self, atoms) -> np.ndarray:
        return self.compute(atoms, forces=False)["eigenvalues"]

    def get_gap(self, atoms) -> float:
        return self._get(atoms, "gap", False, "gap reporting is Γ-only")

    def __repr__(self) -> str:
        return (f"TBCalculator(model={self.model.name!r}, "
                f"{self._kgrid_label()}, kT={self.kT} eV)")
