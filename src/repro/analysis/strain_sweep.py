"""Batch strain sweeps and equation-of-state fits with one warm calculator.

The F6-style E(V) validation curves — the energy ladder the Goedecker &
Colombo silicon results rest on — used to be produced by ad-hoc loops
that built a **fresh calculator at every strain point**, paying the full
cold cost (neighbour build, Hamiltonian pattern, localization regions,
Lanczos window, μ bisection) dozens of times for geometries that differ
by a fraction of a percent.  :func:`strain_sweep` walks the strain path
with **one persistent calculator** instead, exactly the way the MD fast
path reuses state across steps:

* strain points are visited in sorted order, so consecutive geometries
  are nearest neighbours on the path and the warm state transfers;
* a cell change is *not* a full reset under the shared
  :class:`repro.state.CalculatorState` contract — the Verlet lists remap
  their image shifts, the sparse-Hamiltonian pattern is revalidated and
  value-rewritten, the cached Chebyshev windows are kept under their
  a-posteriori moment guards, and μ warm-starts from the previous point;
* with ``kgrid_reduce="symmetry"`` the *fractional* irreducible wedge of
  a symmetric crystal is invariant under any homogeneous strain that
  preserves the point group, and re-detection is byte-cached — the per-k
  caches survive the whole sweep.

The sweep feeds the existing :mod:`repro.analysis.eos` fits
(Birch–Murnaghan / Murnaghan) and is exposed operationally as the
``repro.cli sweep`` subcommand and the batch service's ``sweep`` op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import GeometryError
from repro.geometry.transform import strain as apply_strain
from repro.analysis.eos import EOSFit, birch_murnaghan_fit, murnaghan_fit
from repro.units import EV_PER_A3_TO_GPA
from repro.utils.timing import tick

#: strain paths the driver knows how to build itself
SWEEP_MODES = ("volumetric", "uniaxial", "shear", "custom")


@dataclass(frozen=True)
class StrainPoint:
    """One evaluated point of a strain sweep (per-atom energetics)."""

    amplitude: float
    strain: np.ndarray                 # the applied 3×3 ε
    volume: float                      # Å³ / atom
    energy: float                      # eV / atom (minus energy_ref)
    free_energy: float                 # eV / atom (minus energy_ref)
    pressure_gpa: float | None = None
    max_force: float | None = None     # eV/Å
    solve_mode: str | None = None      # calculator fast-path diagnostics
    seconds: float = 0.0               # wall time of this point's compute

    def as_dict(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "strain": np.asarray(self.strain).tolist(),
            "volume": self.volume,
            "energy": self.energy,
            "free_energy": self.free_energy,
            "pressure_gpa": self.pressure_gpa,
            "max_force": self.max_force,
            "solve_mode": self.solve_mode,
            "seconds": self.seconds,
        }


@dataclass
class StrainSweepResult:
    """Everything one sweep produced: the E(ε) points and the EOS fit."""

    mode: str
    natoms: int
    points: list[StrainPoint]
    eos: EOSFit | None
    energy_ref: float
    calc_report: dict | None = None

    @property
    def volumes(self) -> np.ndarray:
        """Per-atom volumes (Å³), in sweep order."""
        return np.array([p.volume for p in self.points])

    @property
    def energies(self) -> np.ndarray:
        """Per-atom energies (eV, minus ``energy_ref``), in sweep order."""
        return np.array([p.energy for p in self.points])

    def as_dict(self) -> dict:
        """Plain-JSON payload (CLI ``--json`` / service ``sweep`` op)."""
        eos = None
        if self.eos is not None:
            eos = {"form": self.eos.form, "e0": self.eos.e0,
                   "v0": self.eos.v0, "b0": self.eos.b0,
                   "b0_gpa": self.eos.b0 * EV_PER_A3_TO_GPA,
                   "b0_prime": self.eos.b0_prime,
                   "residual": self.eos.residual}
        return {"mode": self.mode, "natoms": self.natoms,
                "energy_ref": self.energy_ref,
                "points": [p.as_dict() for p in self.points],
                "eos": eos}


def sweep_amplitudes(amplitude: float = 0.04, npoints: int = 9
                     ) -> np.ndarray:
    """The standard symmetric strain path: *npoints* across ±*amplitude*.

    The one definition behind the driver's default, the CLI flags and
    the service ``sweep`` op — validated here so every surface rejects
    a bad request identically (and instantly)."""
    amplitude = float(amplitude)
    npoints = int(npoints)
    if npoints < 1:
        raise GeometryError(f"npoints must be >= 1, got {npoints}")
    if not 0.0 < amplitude < 1.0:
        raise GeometryError(
            f"amplitude must be in (0, 1) (linear strain), got {amplitude}")
    return np.linspace(-amplitude, amplitude, npoints)


def strain_tensors(mode: str, amplitudes, axis: int = 2
                   ) -> list[np.ndarray]:
    """Build the 3×3 strain tensors of a named path.

    ``volumetric`` applies ε·1 (isotropic — lengths scale by 1+ε, the
    volume by (1+ε)³), ``uniaxial`` ε on one axis, ``shear`` a symmetric
    ε on the (axis+1, axis+2) off-diagonal pair.
    """
    if mode not in ("volumetric", "uniaxial", "shear"):
        raise GeometryError(
            f"unknown strain mode {mode!r}; choose from "
            f"('volumetric', 'uniaxial', 'shear') or pass tensors=")
    if axis not in (0, 1, 2):
        raise GeometryError(f"axis must be 0, 1 or 2, got {axis}")
    out = []
    for a in np.asarray(amplitudes, dtype=float):
        eps = np.zeros((3, 3))
        if mode == "volumetric":
            eps[np.diag_indices(3)] = a
        elif mode == "uniaxial":
            eps[axis, axis] = a
        else:
            i, j = (axis + 1) % 3, (axis + 2) % 3
            eps[i, j] = eps[j, i] = a
        out.append(eps)
    return out


def strain_sweep(atoms, calc, amplitudes=None, *, mode: str = "volumetric",
                 axis: int = 2, tensors=None, forces: bool = False,
                 fit: str | None = "birch", energy_ref: float = 0.0,
                 traj_writer=None) -> StrainSweepResult:
    """Evaluate E(ε) along a strain path with one persistent calculator.

    Parameters
    ----------
    atoms :
        The unstrained reference structure (never mutated — every point
        evaluates a strained copy).
    calc :
        Any calculator with the shared ``compute(atoms, forces=...)``
        contract.  Reuse-capable calculators (``linscale`` with
        ``reuse=True``, the default) keep their neighbour/pattern/
        window/μ state warm from point to point; the perf ledger's
        ``sweep_kfoe_si64`` row measures such a sweep and
        ``tests/test_strain_sweep.py`` holds its warm ≡ cold parity.
    amplitudes :
        Strain amplitudes ε (defaults to 9 points in ±4 %).  Visited in
        ascending order regardless of the order given, so consecutive
        evaluations are nearest neighbours on the path.
    mode, axis :
        Path construction (see :func:`strain_tensors`), or
        ``mode="custom"`` with explicit *tensors*.
    tensors :
        Explicit list of 3×3 strain tensors (implies ``mode="custom"``;
        paired with *amplitudes* as labels when given, else indexed).
    forces :
        Also compute forces/pressure per point (energy-only solves are
        cheaper — the O(N) engine skips the density-matrix pass).
    fit :
        ``"birch"`` (default), ``"murnaghan"``, or ``None``.  The fit
        needs ≥ 5 points whose volumes vary *monotonically* along the
        path — pure shear changes the volume only at O(ε²) and folds
        E(V) two-to-one, so ``mode="shear"`` (and any custom path that
        folds) must pass ``fit=None``.  All fit preconditions are
        checked **before** the sweep runs, so a bad request fails
        instantly instead of after the full E(ε) scan.
    energy_ref :
        Per-atom reference subtracted from the stored energies (e.g. the
        free-atom reference that turns E into cohesive energy).
    traj_writer :
        Optional frame writer from :func:`repro.trajio.open_writer` (or
        any object with the same ``write``) receiving each strained geometry
        as a frame (step = visit index, ``epot`` = the *total* energy of
        the point).  The caller owns the writer's lifecycle.

    Returns
    -------
    :class:`StrainSweepResult` — points in ascending-amplitude order,
    the EOS fit (per-atom V₀/E₀/B₀), and the calculator's state-reuse
    report when it exposes one.
    """
    if tensors is not None:
        mode = "custom"
        tensors = [np.asarray(t, dtype=float) for t in tensors]
        for t in tensors:
            if t.shape != (3, 3):
                raise GeometryError("custom strain tensors must be 3x3")
        if amplitudes is None:
            amplitudes = np.arange(len(tensors), dtype=float)
        amplitudes = np.asarray(amplitudes, dtype=float)
        if len(amplitudes) != len(tensors):
            raise GeometryError(
                f"{len(tensors)} tensors but {len(amplitudes)} amplitudes")
        order = np.arange(len(tensors))        # caller-chosen path order
    else:
        if mode == "custom":
            raise GeometryError("mode='custom' needs tensors=")
        if amplitudes is None:
            amplitudes = sweep_amplitudes()
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.ndim != 1 or len(amplitudes) == 0:
            raise GeometryError("amplitudes must be a non-empty 1-D array")
        if np.any(amplitudes <= -1.0):
            raise GeometryError("strain amplitudes must be > -1")
        order = np.argsort(amplitudes)         # warm state walks the path
        tensors = strain_tensors(mode, amplitudes, axis=axis)

    # -- fit preconditions, checked BEFORE any electronic work ------------
    if fit is not None:
        if fit not in ("birch", "murnaghan"):
            raise GeometryError(
                f"unknown EOS form {fit!r}; choose 'birch', 'murnaghan' "
                f"or None")
        if mode == "shear":
            raise GeometryError(
                "an E(V) fit on a shear path is meaningless (volume "
                "changes only at O(ε²), folding E(V) two-to-one); "
                "pass fit=None")
        if len(tensors) < 5:
            raise GeometryError(
                f"an EOS fit needs >= 5 strain points, got {len(tensors)}")
        vols = np.array([np.linalg.det(np.eye(3) + tensors[i])
                         for i in order])
        if np.ptp(vols) < 1e-12 or not (np.all(np.diff(vols) > 0)
                                        or np.all(np.diff(vols) < 0)):
            raise GeometryError(
                "an EOS fit needs volumes varying monotonically along "
                "the path (E(V) must be single-valued); pass fit=None "
                "for constant-volume or folded custom paths")

    n = len(atoms)
    points: list[StrainPoint] = []
    for i in order:
        strained = apply_strain(atoms, tensors[i])
        t0 = tick()
        with obs.span("sweep.point") as sp:
            res = calc.compute(strained, forces=forces)
            fast = res.get("fastpath") or {}
            sp.set(amplitude=float(amplitudes[i]), mode=fast.get("mode"))
        dt = tick() - t0
        obs.observe("sweep.point_s", dt)
        obs.counter_inc("sweep.points")
        if traj_writer is not None:
            traj_writer.write(strained, step=len(points),
                              epot=float(res["energy"]))
        points.append(StrainPoint(
            amplitude=float(amplitudes[i]),
            strain=tensors[i],
            volume=strained.cell.volume / n,
            energy=res["energy"] / n - energy_ref,
            free_energy=res.get("free_energy", res["energy"]) / n
                        - energy_ref,
            pressure_gpa=res.get("pressure_gpa"),
            max_force=(float(np.abs(res["forces"]).max())
                       if "forces" in res else None),
            solve_mode=fast.get("mode"),
            seconds=dt,
        ))

    eos = None
    if fit is not None:
        fitter = birch_murnaghan_fit if fit == "birch" else murnaghan_fit
        eos = fitter(np.array([p.volume for p in points]),
                     np.array([p.energy for p in points]))

    return StrainSweepResult(mode=mode, natoms=n, points=points, eos=eos,
                             energy_ref=float(energy_ref),
                             calc_report=calc.state_report())
