"""Cubic elastic constants from finite-strain energy differences.

C11, C12 and C44 of a cubic crystal via quadratic fits of E(δ) for three
canonical deformations:

* uniaxial ε_xx = δ                      → curvature V·C11
* orthorhombic ε_xx = δ, ε_yy = −δ       → curvature V·(C11 − C12)·2...
  precisely E/V = (C11 − C12) δ² for the traceless orthorhombic strain
* monoclinic ε_xy = ε_yx = δ/2           → E/V = ½ C44 δ² (with internal
  relaxation for diamond-structure crystals, which have a free internal
  coordinate under shear)

The bulk modulus identity B = (C11 + 2·C12)/3 cross-checks the EOS fit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.transform import strain
from repro.units import EV_PER_A3_TO_GPA


def _energy_of_strain(atoms, calc_factory, eps_tensor, relax_internal: bool,
                      fmax: float):
    deformed = strain(atoms, eps_tensor)
    calc = calc_factory()
    if relax_internal:
        from repro.relax import conjugate_gradient

        conjugate_gradient(deformed, calc, fmax=fmax,
                           max_steps=300).require_converged()
    return calc.get_potential_energy(deformed)


def _curvature(atoms, calc_factory, tensor_of_delta, deltas,
               relax_internal=False, fmax=0.005) -> float:
    """d²E/dδ² (eV) from a quadratic fit over ±deltas."""
    ds = np.concatenate([-np.asarray(deltas)[::-1], [0.0], np.asarray(deltas)])
    es = [
        _energy_of_strain(atoms, calc_factory, tensor_of_delta(d),
                          relax_internal, fmax)
        for d in ds
    ]
    coeffs = np.polyfit(ds, es, 2)
    return 2.0 * float(coeffs[0])


def cubic_elastic_constants(atoms, calc_factory, delta: float = 0.01,
                            n_points: int = 2,
                            relax_internal_c44: bool = True) -> dict:
    """(C11, C12, C44, B) of a cubic crystal in eV/Å³ and GPa.

    Parameters
    ----------
    atoms :
        The relaxed cubic cell (forces ≈ 0; this is asserted).
    calc_factory :
        Zero-argument callable returning a *fresh* calculator (cache
        isolation between strained evaluations).
    delta :
        Strain amplitude; points at ±δ, ±δ/2 (n_points=2) are fitted.
    relax_internal_c44 :
        Relax internal coordinates under the monoclinic shear (required
        for diamond-structure crystals — skipping it overestimates C44
        by the Kleinman internal-strain contribution).
    """
    if not atoms.cell.fully_periodic:
        raise GeometryError("elastic constants need a fully periodic cell")
    f0 = calc_factory().get_forces(atoms)
    if np.abs(f0).max() > 0.05:
        raise GeometryError(
            f"reference structure not relaxed (max |F| = {np.abs(f0).max():.3f})"
        )
    vol = atoms.cell.volume
    deltas = [delta * (k + 1) / n_points for k in range(n_points)]

    def uniaxial(d):
        e = np.zeros((3, 3)); e[0, 0] = d
        return e

    def orthorhombic(d):
        e = np.zeros((3, 3)); e[0, 0] = d; e[1, 1] = -d
        return e

    def monoclinic(d):
        e = np.zeros((3, 3)); e[0, 1] = d / 2; e[1, 0] = d / 2
        return e

    # E = ½ V C11 δ²  →  d²E/dδ² = V C11
    c11 = _curvature(atoms, calc_factory, uniaxial, deltas) / vol
    # traceless orthorhombic: E = V (C11 − C12) δ²  →  d²E/dδ² = 2V(C11−C12)
    c11_m_c12 = _curvature(atoms, calc_factory, orthorhombic, deltas) \
        / (2.0 * vol)
    c12 = c11 - c11_m_c12
    # engineering shear γ = δ: E = ½ V C44 δ²
    c44 = _curvature(atoms, calc_factory, monoclinic, deltas,
                     relax_internal=relax_internal_c44) / vol
    c44_unrelaxed = _curvature(atoms, calc_factory, monoclinic, deltas,
                               relax_internal=False) / vol
    bulk = (c11 + 2.0 * c12) / 3.0
    return {
        "c11": c11, "c12": c12, "c44": c44,
        "c44_unrelaxed": c44_unrelaxed,
        "bulk_modulus": bulk,
        "c11_gpa": c11 * EV_PER_A3_TO_GPA,
        "c12_gpa": c12 * EV_PER_A3_TO_GPA,
        "c44_gpa": c44 * EV_PER_A3_TO_GPA,
        "c44_unrelaxed_gpa": c44_unrelaxed * EV_PER_A3_TO_GPA,
        "bulk_modulus_gpa": bulk * EV_PER_A3_TO_GPA,
    }


def born_stability_cubic(c11: float, c12: float, c44: float) -> bool:
    """Born mechanical-stability criteria for cubic crystals."""
    return (c11 - c12 > 0) and (c11 + 2 * c12 > 0) and (c44 > 0)
