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
from hypothesis import given, settings, strategies as st

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


# ------------------------------------------- stacked ops ≡ per-op loops
# The per-op loops that ``filter_valid_ops``, ``_basis_search`` and the
# ``symmetrize_*`` functions ran before they became stacked array
# operations, kept here as the oracle: the stacked code must return the
# same ops (W, t, perm) in the same order, keep the same subsets, and
# scatter the same forces and virials.

def _loop_match_basis(mapped, frac, species, h, pbc, tol, probe):
    def nearest(rows):
        delta = mapped[rows][:, None, :] - frac[None, :, :]
        delta[..., pbc] -= np.round(delta[..., pbc])
        d2 = np.einsum("pnc,pnc->pn", delta @ h, delta @ h)
        j = np.argmin(d2, axis=1)
        return j, np.sqrt(d2[np.arange(len(rows)), j])

    jp, dp = nearest(probe)
    if (dp > tol).any() or (species[probe] != species[jp]).any():
        return None
    perm, dist = nearest(np.arange(len(frac)))
    if (dist > tol).any() or (species != species[perm]).any():
        return None
    if len(np.unique(perm)) != len(perm):
        return None
    return perm


def _loop_basis_search(atoms, w_list, tol, first_only):
    from repro.tb.symmetry import SymmetryOp, _wrap_frac

    n = len(atoms)
    h = np.asarray(atoms.cell.matrix, dtype=float)
    pbc = np.asarray(atoms.cell.pbc, dtype=bool)
    frac_w = _wrap_frac(atoms.cell.fractional(atoms.positions), pbc)
    species = np.asarray(atoms.symbols)
    uniq, counts = np.unique(species, return_counts=True)
    candidates = np.flatnonzero(species == uniq[np.argmin(counts)])
    anchor = int(candidates[0])
    probe = np.unique(np.linspace(0, n - 1, min(n, 4)).astype(int))
    ops = []
    for w in w_list:
        mapped = frac_w @ w
        for j in candidates:
            t = frac_w[j] - mapped[anchor]
            perm = _loop_match_basis(mapped + t, frac_w, species, h, pbc,
                                     tol, probe)
            if perm is not None:
                ops.append(SymmetryOp(w, _wrap_frac(t, pbc), perm))
                if first_only:
                    break
    return ops


def _loop_filter_valid_ops(atoms, ops, tol=1e-5):
    from repro.tb.symmetry import _wrap_frac, identity_op

    n = len(atoms)
    h = np.asarray(atoms.cell.matrix, dtype=float)
    pbc = np.asarray(atoms.cell.pbc, dtype=bool)
    metric = h @ h.T
    mtol = 1e-8 * np.abs(metric).max()
    frac_w = _wrap_frac(atoms.cell.fractional(atoms.positions), pbc)
    out = []
    for op in ops:
        if op.perm is None or len(op.perm) != n:
            continue
        if np.abs(op.w @ metric @ op.w.T - metric).max() > mtol:
            continue
        delta = frac_w @ op.w + op.translation - frac_w[op.perm]
        delta[:, pbc] -= np.round(delta[:, pbc])
        cart = delta @ h
        if np.einsum("nc,nc->n", cart, cart).max() <= tol * tol:
            out.append(op)
    return out or [identity_op(n)]


def _loop_symmetrize(forces, virial, values, ops, cell):
    f = np.zeros_like(forces)
    v = np.zeros_like(virial)
    p = np.zeros_like(values)
    for op in ops:
        rt = op.cartesian_rotation(cell)
        f[op.perm] += forces @ rt
        v += rt.T @ virial @ rt
        p[op.perm] += values
    return f / len(ops), v / len(ops), p / len(ops)


def _lonsdaleite():
    """Hexagonal (2H) silicon: a hexagonal cell, 4 atoms, 24 ops."""
    from repro.geometry import Atoms, Cell

    a, c, u = 3.84, 6.34, 3.0 / 8.0
    cell = Cell([[a, 0.0, 0.0], [-0.5 * a, 0.5 * np.sqrt(3.0) * a, 0.0],
                 [0.0, 0.0, c]])
    frac = [[1 / 3, 2 / 3, 0.0], [2 / 3, 1 / 3, 0.5],
            [1 / 3, 2 / 3, u], [2 / 3, 1 / 3, 0.5 + u]]
    return Atoms(["Si"] * 4, cell.cartesian(np.array(frac)), cell=cell)


def _si_slab():
    """Si32 with vacuum along z: one non-periodic axis."""
    from repro.geometry import Atoms, Cell

    bulk = supercell(bulk_silicon(), (2, 2, 1))
    h = bulk.cell.matrix.copy()
    h[2, 2] += 10.0
    return Atoms(bulk.symbols, bulk.positions,
                 Cell(h, pbc=(True, True, False)))


#: base structures of the oracle strategy
ORACLE_BASES = {
    "si8": bulk_silicon,
    "si64": lambda: supercell(bulk_silicon(), 2),
    "hexagonal": _lonsdaleite,
    "slab": _si_slab,
}


def _perturbed(base, how, seed):
    from repro.geometry import make_vacancy
    from repro.geometry.transform import strain

    if how == "none":
        return base
    if how.startswith("iso"):
        return strain(base, float(how[3:]))
    if how.startswith("axial"):
        return strain(base, np.diag([0.0, 0.0, float(how[5:])]))
    if how == "shear":
        return strain(base, np.array([[0.0, 0.01, 0.0], [0.01, 0.0, 0.0],
                                      [0.0, 0.0, 0.0]]))
    if how == "vacancy":
        return make_vacancy(base, seed % len(base))
    return rattle(base, 0.02, seed=seed)


@settings(max_examples=30, deadline=None)
@given(base=st.sampled_from(sorted(ORACLE_BASES)),
       how=st.sampled_from(["none", "iso1e-6", "iso1e-2", "axial1e-6",
                            "axial1e-2", "shear", "vacancy", "rattle"]),
       seed=st.integers(0, 10**6),
       shift=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_stacked_symmetry_matches_per_op_loops(base, how, seed, shift):
    """Detection, revalidation and scattering as stacked array operations
    return exactly what the per-op loops did: the same ops (W, t, perm)
    in the same order, the same kept subsets, and scattered forces,
    virials and per-atom scalars within 1e-14."""
    from repro.tb.symmetry import (
        filter_valid_ops, lattice_point_group, lattice_translations,
        symmetrize_atom_scalars, symmetrize_forces, symmetrize_virial,
    )

    ref_at = ORACLE_BASES[base]()
    ref_at.positions += np.asarray(shift) @ ref_at.cell.matrix
    at = _perturbed(ref_at, how, seed)

    def same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.translation, b.translation)
            np.testing.assert_array_equal(a.perm, b.perm)

    ops = crystal_symmetry_ops(at)
    same(ops, _loop_basis_search(at, lattice_point_group(at.cell), 1e-5,
                                 first_only=True))
    translations = lattice_translations(at)
    same(translations, _loop_basis_search(at, [np.eye(3, dtype=int)], 1e-5,
                                          first_only=False))

    # revalidation: the base's ops against the perturbed geometry (the
    # rewedge path), and the perturbed structure's own ops
    base_ops = crystal_symmetry_ops(ref_at) + lattice_translations(ref_at)
    for cand, geom in ((base_ops, at), (ops + translations, at),
                       (base_ops, ref_at)):
        kept = filter_valid_ops(geom, cand)
        want = _loop_filter_valid_ops(geom, cand)
        if any(want[0] is op for op in cand):
            assert [id(op) for op in kept] == [id(op) for op in want]
        else:
            same(kept, want)

    rng = np.random.default_rng(seed)
    forces = rng.normal(size=(len(at), 3))
    virial = rng.normal(size=(3, 3))
    values = rng.normal(size=len(at))
    want = _loop_symmetrize(forces, virial, values, ops, at.cell)
    got = (symmetrize_forces(forces, ops, at.cell),
           symmetrize_virial(virial, ops, at.cell),
           symmetrize_atom_scalars(values, ops))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)


@pytest.mark.parametrize("base", sorted(ORACLE_BASES))
def test_sites_on_the_periodic_wall_match_across_it(base):
    """Sites jittered by far less than tol across the wall f = 0 of the
    periodic axes (some wrap to just below 1, some to 0 exactly) match
    their images on the other side — the same ops as the per-op loop."""
    from repro.tb.symmetry import lattice_point_group, lattice_translations

    at = ORACLE_BASES[base]()
    frac = at.cell.fractional(at.positions)
    frac -= frac[0]              # atom 0 on the wall of every axis
    jitter = np.random.default_rng(3).choice([-1e-12, -1e-17, 0.0, 1e-12],
                                             size=frac.shape)
    at.positions = at.cell.cartesian(frac + jitter)
    for got, want in (
            (crystal_symmetry_ops(at),
             _loop_basis_search(at, lattice_point_group(at.cell), 1e-5,
                                first_only=True)),
            (lattice_translations(at),
             _loop_basis_search(at, [np.eye(3, dtype=int)], 1e-5,
                                first_only=False))):
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.translation, b.translation)
            np.testing.assert_array_equal(a.perm, b.perm)
