"""ASE calculator bridge: any ``make_calculator`` spec as an
``ase.calculators.Calculator``.

::

    from ase.build import bulk
    from ase.optimize import BFGS
    from repro.ase_bridge import PytbmdCalculator

    atoms = bulk("Si", "diamond", a=5.43, cubic=True)
    atoms.calc = PytbmdCalculator(model="gsp-si", solver="linscale",
                                  kT=0.1, r_loc=6.0)
    BFGS(atoms).run(fmax=0.02)

Every repro calculator — exact diagonalisation, the dense density-matrix
kernels, the O(N) localization-region engine, the classical baseline —
becomes usable from the whole ASE ecosystem (optimizers, NEB, ASE MD,
phonon tools), and the campaign framework gains ASE-driven scenarios
(:mod:`repro.scenarios.ase_relax`).

State reuse: the bridge keeps one persistent :class:`repro.geometry
.atoms.Atoms` mirror and updates it *in place* on every ``calculate``
call, so the wrapped calculator's :class:`~repro.state.CalculatorState`
change report sees exactly what an in-process MD loop would produce —
positions-only updates (the common optimizer/MD case) ride the fast
path (warm neighbor lists, H pattern, localization regions, spectral
window); cell or species changes invalidate precisely what the state
contract demands.

Conventions: eV/Å throughout on both sides (no unit conversion), and
the stress ``σ = (1/V) ∂E/∂ε`` the repo's calculators return is already
ASE's convention — the bridge only reorders the 3×3 tensor into ASE's
Voigt ``[xx, yy, zz, yz, xz, xy]``.

``ase`` is an optional extra (``pip install pytbmd[ase]``): this module
always imports, :data:`HAVE_ASE` says whether the bridge is usable, and
constructing :class:`PytbmdCalculator` without ASE raises a
:class:`~repro.errors.ReproError` with the install hint.
"""

from __future__ import annotations

import numpy as np

from repro.calculators import CalculatorSpec, make_calculator
from repro.errors import ReproError

try:  # pragma: no cover - exercised in the optional-deps CI job
    from ase.calculators.calculator import Calculator, all_changes

    HAVE_ASE = True
except ImportError:  # pragma: no cover - the numpy/scipy-only envs
    HAVE_ASE = False
    all_changes = ["positions", "numbers", "cell", "pbc",
                   "initial_charges", "initial_magmoms"]

    class Calculator:  # type: ignore[no-redef]
        """Import-guard stand-in so this module (and subclass definition)
        loads without ASE; instantiating the bridge still fails with a
        clear message."""

        def __init__(self, **kwargs):
            pass


def to_repro_atoms(ase_atoms):
    """``ase.Atoms`` → :class:`repro.geometry.atoms.Atoms` (eV/Å both
    sides, so this is a plain repack, no unit conversion)."""
    from repro.geometry.atoms import Atoms
    from repro.geometry.cell import Cell

    cell = np.asarray(ase_atoms.cell[:], dtype=float)
    pbc = tuple(bool(p) for p in ase_atoms.pbc)
    has_cell = any(pbc) and np.abs(cell).max() > 0.0
    return Atoms(ase_atoms.get_chemical_symbols(),
                 np.asarray(ase_atoms.positions, dtype=float),
                 cell=Cell(cell, pbc=pbc) if has_cell else None)


def _voigt(stress_3x3) -> np.ndarray:
    """3×3 stress → ASE Voigt order [xx, yy, zz, yz, xz, xy]."""
    s = np.asarray(stress_3x3, dtype=float)
    s = 0.5 * (s + s.T)
    return np.array([s[0, 0], s[1, 1], s[2, 2],
                     s[1, 2], s[0, 2], s[0, 1]])


class PytbmdCalculator(Calculator):
    """ASE calculator running any pytbmd calculator spec.

    Parameters
    ----------
    spec :
        A :class:`~repro.calculators.CalculatorSpec` or plain spec dict
        (see :func:`repro.calculators.make_calculator`).  Spec fields
        may equally be passed as keyword arguments; kwargs win over
        *spec* on conflict.
    """

    implemented_properties = ["energy", "free_energy", "forces", "stress"]

    def __init__(self, spec=None, **kwargs):
        if not HAVE_ASE:
            raise ReproError(
                "the ASE bridge needs the optional 'ase' dependency — "
                "install it with: pip install pytbmd[ase]")
        spec_fields = set(CalculatorSpec.field_names())
        spec_kwargs = {k: kwargs.pop(k) for k in list(kwargs)
                       if k in spec_fields}
        Calculator.__init__(self, **kwargs)
        base = CalculatorSpec.from_dict(spec, context="ase bridge")
        self.spec = (base.replace(**spec_kwargs) if spec_kwargs else base)
        self.repro_calc = make_calculator(self.spec)
        self._repro_atoms = None

    # -- persistent-state mirror ------------------------------------------
    def _sync_atoms(self, ase_atoms):
        """Mirror *ase_atoms* into the persistent repro structure,
        updating in place whenever the change is expressible in place —
        that is what lets the wrapped calculator's state contract
        classify the change (positions-only → fast path) instead of
        seeing a brand-new structure every call."""
        mirror = self._repro_atoms
        fresh = to_repro_atoms(ase_atoms)

        def pbc_sig(at):
            return (None if at.cell is None
                    else tuple(bool(p) for p in at.cell.pbc))

        if (mirror is None or len(mirror) != len(fresh)
                or mirror.symbols != fresh.symbols
                or pbc_sig(mirror) != pbc_sig(fresh)):
            self._repro_atoms = fresh
            return self._repro_atoms
        if fresh.cell is not None and not np.array_equal(
                mirror.cell.matrix, fresh.cell.matrix):
            mirror.cell = fresh.cell
        mirror.positions[:] = fresh.positions
        return mirror

    def calculate(self, atoms=None, properties=("energy",),
                  system_changes=all_changes):
        Calculator.calculate(self, atoms, properties, system_changes)
        target = self._sync_atoms(self.atoms)
        want_forces = bool({"forces", "stress"} & set(properties))
        res = self.repro_calc.compute(target, forces=want_forces)
        self.results = {
            "energy": float(res["energy"]),
            "free_energy": float(res.get("free_energy", res["energy"])),
        }
        if want_forces:
            self.results["forces"] = np.array(res["forces"], dtype=float)
            if "stress" in res:
                self.results["stress"] = _voigt(res["stress"])

    def state_report(self) -> dict:
        """The wrapped calculator's rebuild-vs-reuse diagnostics — how
        often ASE-driven updates hit the fast path."""
        return self.repro_calc.state_report()

    def __repr__(self) -> str:
        return f"PytbmdCalculator({self.spec.describe()})"
