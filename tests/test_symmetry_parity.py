"""Cross-solver × cross-grid × cross-structure symmetry parity matrix.

Symmetry-reduced k sampling is exactly the kind of change that is cheap
to get 99 % right and silently wrong on forces, so this suite pins the
whole matrix against one reference — the **full-grid exact
diagonalisation** — for every structure:

* ``diag`` on ``trs`` / ``symmetry`` grids must match the full grid to
  1e-10 (an exact identity: the wedge is a re-grouping of the same sum,
  plus a linear force scattering);
* ``linscale`` (region FOE) on every grid must match the diag reference
  to the engine's own 1e-6 eV/Å contract — and, grid-vs-grid *within*
  linscale, to 1e-9 (the folding itself adds no FOE error);
* a symmetry-broken structure must degrade the wedge gracefully to the
  time-reversal-only count, never misfold.

Structures: 8-atom diamond Si (O_h, 48 ops — gapped), 8-atom β-tin Si
(D_4h, 16 ops — the canonical small-cell metal), diamond with one atom
displaced along [111] (C_3v, 6 ops — symmetric *with nonzero forces*,
the case that catches wrong rotation/permutation scattering), and a
rattled cell (trivial group).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import beta_tin_silicon, bulk_silicon, rattle, supercell
from repro.linscale import LinearScalingCalculator
from repro.tb import GSPSilicon, TBCalculator
from repro.tb.symmetry import crystal_symmetry_ops, irreducible_kpoints

from tests.helpers import assert_forces_match

KGRID = 2          # full 2×2×2 = 8 points
EXACT = 1e-10      # identity tolerance (diag vs diag, linscale vs linscale)
FOE = 1e-6         # region-FOE vs exact-diag contract (eV/Å, eV/atom)


def _diamond():
    return bulk_silicon()


def _beta_tin8():
    return supercell(beta_tin_silicon(), (1, 1, 2))


def _displaced():
    at = bulk_silicon()
    at.positions[4] += 0.06 * np.ones(3) / np.sqrt(3)   # along [111]
    return at


def _rattled():
    return rattle(bulk_silicon(), 0.05, seed=17)


#: name → (builder, kT, expected op count, expected wedge size @ 2×2×2)
STRUCTURES = {
    "diamond": (_diamond, 0.2, 48, 1),
    "beta-tin": (_beta_tin8, 0.25, 16, 1),
    "displaced-111": (_displaced, 0.2, 6, 2),
    "rattled": (_rattled, 0.2, 1, 4),     # == the TRS-only count
}

GRIDS = ("full", "trs", "symmetry")


@pytest.fixture(scope="module")
def reference():
    """Full-grid exact-diag results, one per structure."""
    out = {}
    for name, (build, kT, _, _) in STRUCTURES.items():
        at = build()
        calc = TBCalculator(GSPSilicon(), kpts=KGRID, kT=kT,
                            kgrid_reduce="full")
        out[name] = (at, calc.compute(at, forces=True))
    return out


def _check(res, ref, tol_e, tol_f, natoms):
    assert abs(res["energy"] - ref["energy"]) / natoms < tol_e
    assert abs(res["fermi_level"] - ref["fermi_level"]) < 10 * tol_e
    assert_forces_match(res["forces"], ref["forces"], atol=tol_f)
    np.testing.assert_allclose(res["virial"], ref["virial"], rtol=0,
                               atol=max(tol_f * 10, 1e-9))
    np.testing.assert_allclose(res["forces"].sum(axis=0), 0.0, atol=1e-8)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_parity_diag(name, grid, reference):
    """diag on any folding is an exact identity vs the full grid."""
    build, kT, _, _ = STRUCTURES[name]
    at, ref = reference[name]
    res = TBCalculator(GSPSilicon(), kpts=KGRID, kT=kT,
                       kgrid_reduce=grid).compute(at, forces=True)
    assert res["n_kpoints"] <= ref["n_kpoints"]
    _check(res, ref, EXACT, EXACT, len(at))


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_parity_linscale(name, grid, reference):
    """Region FOE on any folding stays inside the engine's 1e-6
    contract vs the full-grid diag reference."""
    build, kT, _, _ = STRUCTURES[name]
    at, ref = reference[name]
    lin = LinearScalingCalculator(GSPSilicon(), kT=kT, r_loc=6.0,
                                  order=300, kpts=KGRID,
                                  kgrid_reduce=grid)
    res = lin.compute(at, forces=True)
    lin.close()
    _check(res, ref, FOE, FOE, len(at))
    # Mulliken populations scatter back through the permutations too
    assert abs(res["charges"].sum()) < 1e-6


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_linscale_folding_is_exact_within_solver(name):
    """Grid-vs-grid *within* linscale: the wedge re-grouping itself adds
    no error beyond round-off on top of whatever the FOE truncation is —
    a much tighter identity than the 1e-6 cross-solver contract."""
    build, kT, _, _ = STRUCTURES[name]
    at = build()
    out = {}
    for grid in ("full", "symmetry"):
        lin = LinearScalingCalculator(GSPSilicon(), kT=kT, r_loc=6.0,
                                      order=120, kpts=KGRID,
                                      kgrid_reduce=grid)
        out[grid] = lin.compute(at, forces=True)
        lin.close()
    full, sym = out["full"], out["symmetry"]
    assert abs(sym["energy"] - full["energy"]) < 1e-9
    assert_forces_match(sym["forces"], full["forces"], atol=1e-9)
    np.testing.assert_allclose(sym["virial"], full["virial"], atol=1e-8)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_detected_group_and_wedge_sizes(name):
    """Detection finds the textbook op counts and the predicted wedges
    (O_h diamond 48, D_4h β-tin 16, C_3v displaced 6, trivial 1) — and a
    broken symmetry degrades exactly to the time-reversal fold."""
    build, _, n_ops, n_wedge = STRUCTURES[name]
    at = build()
    ops = crystal_symmetry_ops(at)
    assert len(ops) == n_ops
    assert any(op.is_identity for op in ops)
    grid = irreducible_kpoints(KGRID, atoms=at, ops=ops)
    assert len(grid) == n_wedge
    assert grid.n_full == KGRID ** 3
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_low_symmetry_never_beats_trs():
    """The rattled wedge equals the TRS fold in size *and* physics."""
    at = _rattled()
    trs = TBCalculator(GSPSilicon(), kpts=KGRID, kT=0.1,
                       kgrid_reduce="trs").compute(at, forces=True)
    sym = TBCalculator(GSPSilicon(), kpts=KGRID, kT=0.1,
                       kgrid_reduce="symmetry").compute(at, forces=True)
    assert sym["n_kpoints"] == trs["n_kpoints"]
    assert sym["energy"] == pytest.approx(trs["energy"], abs=1e-12)
    assert_forces_match(sym["forces"], trs["forces"], atol=1e-12)


def test_anisotropic_grid_drops_incompatible_ops():
    """A 2×2×1 grid on cubic diamond is only invariant under the
    tetragonal subgroup — incompatible ops must be dropped (graceful),
    and the folded physics must still match the full grid exactly."""
    at = _diamond()
    grid = irreducible_kpoints((2, 2, 1), atoms=at)
    assert len(grid.ops) < 48                 # cubic ops mixing z dropped
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
    ref = TBCalculator(GSPSilicon(), kpts=(2, 2, 1), kT=0.1,
                       kgrid_reduce="full").compute(at, forces=True)
    res = TBCalculator(GSPSilicon(), kpts=(2, 2, 1), kT=0.1,
                       kgrid_reduce="symmetry").compute(at, forces=True)
    assert res["n_kpoints"] < ref["n_kpoints"]
    _check(res, ref, EXACT, EXACT, len(at))


def test_rewedge_revalidates_instead_of_redetecting():
    """The per-step path: cached ops are re-verified in O(|ops|·N)
    against their stored permutations — surviving a symmetry-preserving
    strain, shrinking to the tetragonal subgroup under uniaxial strain,
    and collapsing to the identity on a rattled cell — with the full
    O(N²) detection reserved for ops actually being lost."""
    from repro.geometry.transform import strain
    from repro.tb.symmetry import filter_valid_ops, rewedge

    at = _diamond()
    ops = crystal_symmetry_ops(at)
    assert len(filter_valid_ops(at, ops)) == 48
    # volumetric strain keeps O_h (fractional geometry unchanged)
    iso = strain(at, 0.01)
    assert len(filter_valid_ops(iso, ops)) == 48
    # uniaxial strain keeps exactly the tetragonal subgroup
    uni = strain(at, np.diag([0.0, 0.0, 0.01]))
    kept = filter_valid_ops(uni, ops)
    assert len(kept) == 16
    # a rattled cell keeps only the identity
    assert len(filter_valid_ops(rattle(at, 0.05, seed=3), ops)) == 1
    # rewedge with intact previous ops skips detection and keeps the wedge
    base = irreducible_kpoints(KGRID, atoms=at)
    g = rewedge(KGRID, iso, prev=base)
    assert g is base and len(g.ops) == 48 and len(g) == 1
    # and the folded physics stays exact either way (vs fresh detection)
    fresh = irreducible_kpoints(KGRID, atoms=uni)
    re = rewedge(KGRID, uni, prev=base)
    assert len(re) == len(fresh)
    np.testing.assert_allclose(sorted(re.weights), sorted(fresh.weights),
                               atol=1e-15)


def test_rewedge_keeps_the_wedge_while_every_op_holds(obs_on):
    """When revalidation keeps every folding op and translation, rewedge
    returns the previous wedge itself — bit-identical to refolding the
    kept ops — and a calculator walk counts revalidations and
    re-detections exactly as the refolding policy did."""
    from repro.geometry.transform import strain
    from repro.tb.symmetry import filter_valid_ops, rewedge

    at = _diamond()
    base = irreducible_kpoints(KGRID, atoms=at)
    assert len(base.translations) == 4
    iso = strain(at, 0.01)
    assert rewedge(KGRID, iso, prev=base) is base
    refold = irreducible_kpoints(KGRID, atoms=iso,
                                 ops=filter_valid_ops(iso, base.ops))
    np.testing.assert_array_equal(base.kpts_frac, refold.kpts_frac)
    np.testing.assert_array_equal(base.weights, refold.weights)
    assert all(a is b for a, b in zip(base.ops, refold.ops))
    assert len(base.ops) == len(refold.ops)

    calc = LinearScalingCalculator(GSPSilicon(), kT=0.3, order=60,
                                   kpts=KGRID, kgrid_reduce="symmetry")
    for eps in (0.0, 0.005, 0.01, np.diag([0.0, 0.0, 0.01]),
                np.diag([0.0, 0.0, 0.015])):
        calc.compute(strain(at, eps), forces=False)
    rat = _rattled()
    calc.compute(rat, forces=False)
    rat.positions[0] += 0.01
    calc.compute(rat, forces=False)
    counters = obs_on[1].snapshot()["counters"]
    # detected at the first point, on the axial strain's lost ops and on
    # the rattle; the rest revalidate (one more: the direct call above)
    assert (counters["symmetry.redetected"],
            counters["symmetry.revalidated"]) == (3, 1 + 4)


def test_symmetry_mode_refolds_when_structure_changes():
    """One calculator, two structures: the wedge is re-detected per
    geometry (symmetric → 1 point, rattled → TRS count) and each answer
    matches a fresh full-grid calculator."""
    calc = TBCalculator(GSPSilicon(), kpts=KGRID, kT=0.1,
                        kgrid_reduce="symmetry")
    sym = calc.compute(_diamond(), forces=True)
    assert sym["n_kpoints"] == 1
    rat = _rattled()
    res = calc.compute(rat, forces=True)
    assert res["n_kpoints"] == 4
    ref = TBCalculator(GSPSilicon(), kpts=KGRID, kT=0.1,
                       kgrid_reduce="full").compute(rat, forces=True)
    _check(res, ref, EXACT, EXACT, len(rat))
