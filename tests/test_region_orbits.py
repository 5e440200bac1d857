"""One localization region per translation orbit.

A pure lattice translation leaves every bond vector unchanged, so on a
perfect supercell it carries one region's H(k) block onto another's up
to an orbital reordering.  In symmetry mode the region engine recurses
one representative per orbit and copies its results to the other
members (:func:`repro.linscale.regions.region_orbits`,
:class:`repro.linscale.foe_local.RegionIndex`).  These tests hold the
driver, the calculator's fallbacks and the telemetry; the physics row
"orbit-reduced ≡ unreduced" is in ``tests/test_contracts.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.linscale.calculator as calcmod
from repro.calculators import make_calculator
from repro.errors import ElectronicError
from repro.geometry import bulk_silicon, rattle, supercell
from repro.geometry.transform import strain
from repro.linscale.backends import resolve_backend
from repro.linscale.backends.base import Backend
from repro.linscale.foe_local import (
    RegionIndex,
    _solve_regions,
    solve_density_regions,
    solve_density_regions_fused,
    taylor_radius,
)
from repro.linscale.kfoe import spectral_windows_k
from repro.linscale.regions import (
    RegionOrbits,
    all_core_region,
    extract_regions,
    region_orbits,
)
from repro.linscale.sparse_hamiltonian import SparseHamiltonianBuilder
from repro.neighbors.base import neighbor_list
from repro.tb import GSPSilicon
from repro.tb.bonds import bond_table, orbital_offsets
from repro.tb.kpoints import frac_to_cartesian
from repro.tb.symmetry import lattice_translations

KT, ORDER = 0.3, 120
#: per-region outputs — populations, ρ(k) entries, band energy and
#: entropy per region — and μ, orbit-reduced vs every region solved on
#: the same H(k) (max measured on either backend: populations 2.7e-15,
#: ρ 2.0e-15, band energy 1.4e-14, μ 2.0e-14)
ORBIT_SOLVE_IS_FULL_SOLVE = 1e-12


def perfect_si64():
    """Perfect 64-atom diamond supercell off the origin (32 translations,
    two orbits of 32 regions)."""
    atoms = supercell(bulk_silicon(), 2)
    atoms.positions += np.array([0.31, 0.17, 0.52])
    return atoms


def solve_inputs(atoms):
    """H(k) at Γ and a generic k, the default-``r_loc`` regions, their
    translation orbits and the electron count."""
    model = GSPSilicon()
    kcarts = frac_to_cartesian(np.array([[0.0, 0.0, 0.0],
                                         [0.25, 0.5, 0.125]]), atoms.cell)
    H_k = SparseHamiltonianBuilder(model).build_k(
        atoms, neighbor_list(atoms, model.cutoff), kcarts)
    regions = extract_regions(atoms, model, 1.5 * model.cutoff)
    offsets, m = orbital_offsets(atoms.symbols, model)
    perms = [op.perm for op in lattice_translations(atoms)]
    return H_k, regions, perms, offsets, m, \
        model.total_electrons(atoms.symbols)


class SpyBackend(Backend):
    """Delegates to a registered backend and records each op's specs."""

    def __init__(self, inner):
        self.inner = resolve_backend(inner)
        self.name = self.inner.name
        self.calls: list[tuple[str, list]] = []

    def _run(self, op, blocks, *args):
        self.calls.append((op, list(blocks.specs)))
        return getattr(self.inner, op)(blocks, *args)

    def moments(self, blocks, center, span, order):
        return self._run("moments", blocks, center, span, order)

    def density_rows(self, blocks, center, span, coeffs):
        return self._run("density_rows", blocks, center, span, coeffs)

    def fused(self, blocks, center, span, deriv_coeffs):
        return self._run("fused", blocks, center, span, deriv_coeffs)


def assert_same_solve(got, want, tol=ORBIT_SOLVE_IS_FULL_SOLVE):
    np.testing.assert_allclose(got.populations, want.populations,
                               rtol=0, atol=tol)
    n = want.n_regions
    assert got.mu == pytest.approx(want.mu, abs=tol)
    for key in ("band_energy", "entropy"):
        assert getattr(got, key) / n == pytest.approx(getattr(want, key) / n,
                                                      abs=tol), key
    for rho, ref in zip(got.rho_k, want.rho_k):
        assert abs(rho - ref).max() <= tol


@pytest.mark.parametrize("backend", ["numpy_batched", "eigh"])
@pytest.mark.parametrize("fused", [False, True], ids=["two-pass", "fused"])
def test_orbit_solve_equals_the_full_solve(backend, fused):
    """The driver with orbits recurses the two representatives only and
    gives every region the populations and ρ rows of the solve that
    recursed all 64."""
    H_k, regions, perms, offsets, m, nel = solve_inputs(perfect_si64())
    orbits = region_orbits(regions, perms, offsets, m)
    assert len(perms) == 32 and list(orbits.solved) == [0, 4]
    windows = spectral_windows_k(H_k)
    args = (H_k, [0.5, 0.5], regions, nel, KT, ORDER)
    full = _solve_regions(*args, windows=windows, backend=backend,
                          index=RegionIndex(H_k[0], regions))
    kw = dict(windows=windows, fused=fused, mu_guess=full.mu + 2e-3)
    want = _solve_regions(*args, backend=backend,
                          index=RegionIndex(H_k[0], regions), **kw)
    spy = SpyBackend(backend)
    got = _solve_regions(*args, backend=spy,
                         index=RegionIndex(H_k[0], regions, orbits), **kw)
    assert_same_solve(got, want)
    assert got.n_regions == 64 and got.used_fallback == want.used_fallback
    reps = [regions[i] for i in orbits.solved]
    for _, specs in spy.calls:
        assert [s[0] for s in specs] == [r.orbitals for r in reps]


def test_inconsistent_region_list_keeps_one_member_orbits():
    """A hand-made list whose region 9 lost a halo atom: no translation
    carries a representative onto it, so it is solved on its own — and
    the solve still equals the unreduced one."""
    H_k, regions, perms, offsets, m, nel = solve_inputs(perfect_si64())
    r9 = regions[9]
    dropped = r9.halo_atoms[-1]
    keep = np.flatnonzero(np.repeat(r9.atoms, 4) != dropped)
    regions[9] = dataclasses.replace(
        r9, atoms=r9.atoms[r9.atoms != dropped], orbitals=r9.orbitals[keep],
        core_local=np.searchsorted(keep, r9.core_local))
    orbits = region_orbits(regions, perms, offsets, m)
    assert list(orbits.solved) == [0, 4, 9]
    assert orbits.slot[9] == 2 and orbits.cols[9] is None
    assert np.array_equal(np.bincount(orbits.slot), [31, 32, 1])
    args = (H_k, [0.5, 0.5], regions, nel, KT, ORDER)
    assert_same_solve(
        _solve_regions(*args, windows=None,
                       index=RegionIndex(H_k[0], regions, orbits)),
        _solve_regions(*args, windows=None,
                       index=RegionIndex(H_k[0], regions)))
    # without any translation but the identity, every region is its own
    # orbit, and the index reads the rows as they are concatenated
    ident = RegionOrbits.identity(len(regions))
    for few in (perms[:1], []):
        got = region_orbits(regions, few, offsets, m)
        assert not got.reduced and got.cols == ident.cols
        assert np.array_equal(got.slot, ident.slot)
        assert np.array_equal(got.solved, ident.solved)
    reg = np.repeat(np.arange(len(regions)),
                    [len(r.core_local) * r.n_orbitals for r in regions])
    c = np.concatenate([np.repeat(np.arange(len(r.core_local)), r.n_orbitals)
                        for r in regions])
    j = np.concatenate([np.tile(np.arange(r.n_orbitals), len(r.core_local))
                        for r in regions])
    assert np.array_equal(
        RegionIndex._member_sources(regions, ident, reg, c, j),
        np.arange(len(reg)))


def test_index_is_checked_against_its_regions():
    """Regions that leave a core orbital uncovered are refused when the
    index is built — by the driver too, which builds it — and an index
    is refused with regions or an H it was not built for."""
    H_k, regions, perms, offsets, m, nel = solve_inputs(perfect_si64())
    args = (H_k, [0.5, 0.5], regions, nel, KT, ORDER)
    tile = "every orbital must be the core of exactly one region"
    with pytest.raises(ElectronicError, match=tile):
        RegionIndex(H_k[0], regions[:-1])
    with pytest.raises(ElectronicError, match=tile):
        _solve_regions(H_k, [0.5, 0.5], regions[:-1], nel, KT, ORDER,
                       windows=None)
    si8 = solve_inputs(bulk_silicon())
    for other in (RegionIndex(H_k[0], [all_core_region(m)]),
                  RegionIndex(si8[0][0], si8[1])):
        with pytest.raises(ElectronicError, match="another H or region"):
            _solve_regions(*args, windows=None, index=other)


def member_sources(regions, orbits):
    """Position of every region's row entry (every region's core rows
    concatenated in region order, the pad slot last) in the concatenated
    rows of the representatives: a member's row c is its
    representative's, the columns permuted."""
    sizes = [len(r.core_local) * r.n_orbitals for r in regions]
    start = np.cumsum([0] + [sizes[i] for i in orbits.solved])
    parts = [start[s] + (np.arange(size) if pi is None else
                         (r.n_orbitals * np.arange(len(r.core_local))
                          [:, None] + pi[None, :]).ravel())
             for r, size, s, pi in zip(regions, sizes, orbits.slot,
                                       orbits.cols)]
    return np.concatenate(parts + [start[-1:]])


def reference_rho_sources(H, regions, orbits):
    """Where ρ̂ at every nonzero (a, b) of H and at its transpose (b, a)
    sits in the representatives' concatenated core rows, read off a
    dense (row, column) table of each region's core-row positions — an
    orbit member's then mapped to its representative's; the pad slot
    where the region lacks the column."""
    m = H.shape[0]
    nnz = sum(len(r.core_local) * r.n_orbitals for r in regions)
    table = np.full((m, m), nnz, dtype=np.int64)
    start = 0
    for r in regions:
        core = r.orbitals[r.core_local]
        size = len(core) * r.n_orbitals
        table[np.ix_(core, r.orbitals)] = start + np.arange(size).reshape(
            len(core), r.n_orbitals)
        start += size
    src = member_sources(regions, orbits)
    coo = H.tocoo()
    return src[table[coo.row, coo.col]], src[table[coo.col, coo.row]]


def kept_sources(index):
    """The representatives' core-row position of every kept entry of
    *index* (the pad slot last)."""
    starts = np.cumsum([0] + [len(core) * len(orb)
                              for orb, core in index.specs])
    return np.concatenate([keep + s for keep, s in zip(index.keep, starts)]
                          + [starts[-1:]])


@pytest.mark.parametrize("case", ["si512-gamma", "si64-wedge"])
def test_rho_positions_equal_a_dense_reference(case):
    """The ρ̂ positions of :class:`RegionIndex` — of (a, b) and (b, a)
    for every nonzero of H — equal a dense-table reference on 512-atom
    rattled silicon at Γ (every region its own orbit) and on the perfect
    Si64 symmetry wedge (two orbits, members read through permuted
    columns), where they are the one-member-orbit positions mapped to
    the representatives; the bond positions are the nonzeros at the bond
    pattern's blocks."""
    model = GSPSilicon()
    atoms = rattle(supercell(bulk_silicon(), 4), 0.03, seed=12) \
        if case == "si512-gamma" else perfect_si64()
    nl = bond_table(atoms, model, neighbor_list(atoms, model.cutoff))
    H = SparseHamiltonianBuilder(model).build(atoms, nl)
    regions = extract_regions(atoms, model, 1.5 * model.cutoff)
    offsets, m = orbital_offsets(atoms.symbols, model)
    perms = [] if case == "si512-gamma" else \
        [op.perm for op in lattice_translations(atoms)]
    orbits = region_orbits(regions, perms, offsets, m)
    assert orbits.reduced == (case == "si64-wedge")
    index = RegionIndex(H, regions, orbits, nl.pattern)
    # one-member orbits keep H's nonzeros in H's order: no forward gather
    assert (index._fwd is None) == (case == "si512-gamma")
    positions = [index._bwd, *index.keep, *index._bond_at]
    assert {a.dtype for a in positions} == {np.dtype(np.int32)}
    fwd = np.arange(index.nnz) if index._fwd is None else index._fwd
    assert fwd.dtype == np.int32 or index._fwd is None
    kept = kept_sources(index)
    assert (np.diff(kept) > 0).all()
    for got, want in zip((fwd, index._bwd),
                         reference_rho_sources(H, regions, orbits)):
        np.testing.assert_array_equal(kept[got], want)
    # every nonzero's column sits in the region of its row: no pad slot,
    # and nothing is kept that no nonzero reads
    assert (fwd < len(kept) - 1).all()
    assert len(np.unique(fwd)) == len(kept) - 1
    coo = H.tocoo()
    for at, (r, c) in zip(index._bond_at,
                          (g.grids() for g in nl.pattern.groups)):
        np.testing.assert_array_equal(coo.row[at], r)
        np.testing.assert_array_equal(coo.col[at], c)
    if orbits.reduced:
        single = RegionIndex(H, regions, pattern=nl.pattern)
        assert single._fwd is None
        np.testing.assert_array_equal(
            kept[fwd], member_sources(regions, orbits)[kept_sources(single)
                                                       [:-1]])


def assert_bonds_are_rho(foe, pattern):
    """Every k's bond blocks are the dense take of its on-demand ρ̂ at
    the pattern, bit for bit."""
    assert foe.bonds_k is not None
    for rho, bonds in zip(foe.rho_k, foe.bonds_k):
        dense = rho.toarray()
        assert len(bonds) == len(pattern.gather_index)
        for blk, index in zip(bonds, pattern.gather_index):
            assert blk.dtype == dense.dtype
            np.testing.assert_array_equal(blk, np.take(dense, index))


#: case → (calculator spec, structure)
SEAM_CASES = {
    # truncated regions, real H
    "si64-rattled-gamma": ({"solver": "linscale", "kT": 0.2, "order": 80},
                           lambda: rattle(supercell(bulk_silicon(), 2), 0.05,
                                          seed=4)),
    # complex H(k), regions covering the folded cell
    "si8-kpts2": ({"solver": "linscale", "kT": 0.2, "order": 60,
                   "kgrid": 2}, lambda: rattle(bulk_silicon(), 0.05, seed=3)),
    # orbit members on the complex wedge
    "si64-wedge": ({"solver": "linscale", "kT": KT, "order": 60,
                    "kgrid": 2, "kgrid_reduce": "symmetry"}, perfect_si64),
}


@pytest.mark.parametrize("case", list(SEAM_CASES))
def test_solve_hands_the_forces_rho_at_the_bonds(monkeypatch, case):
    """The calculator's solves — a cold two-pass one, then a warm fused
    one on the strained cell — hand the forces the Hermitised ρ̂ at the
    bond pattern: the dense take of the solve's on-demand ``rho_k``."""
    spec, make_atoms = SEAM_CASES[case]
    solves = []
    for name in ("solve_density_regions_k", "solve_density_regions_k_fused"):
        original = getattr(calcmod, name)
        monkeypatch.setattr(calcmod, name,
                            lambda *a, _f=original, **kw:
                            solves.append(_f(*a, **kw)) or solves[-1])
    calc = make_calculator(spec)
    atoms = make_atoms()
    calc.compute(atoms)
    # a strain keeps the wedge's translations
    calc.compute(strain(atoms, 0.002))
    assert [f.mu_shift == 0.0 for f in solves] == [True, False]
    nk = 1 if case == "si64-rattled-gamma" else len(calc.kweights)
    assert [f.n_kpoints for f in solves] == [nk, nk]
    if case == "si64-wedge":
        assert calc.state_report()["regions"]["reduced_solves"] >= 1
        assert np.iscomplexobj(solves[0].bonds_k[-1][0])
    for foe in solves:
        assert_bonds_are_rho(foe, calc._bond_cache)


def test_fused_fallback_hands_the_forces_rho_at_the_bonds():
    """A fused Γ solve whose μ guess lies three Taylor radii off falls
    back to the density pass, and its bond blocks are still the dense
    take of its ρ̂; a solve whose index holds no pattern has none."""
    model = GSPSilicon()
    atoms = rattle(supercell(bulk_silicon(), 2), 0.05, seed=4)
    nl = bond_table(atoms, model, neighbor_list(atoms, model.cutoff))
    H = SparseHamiltonianBuilder(model).build(atoms, nl)
    regions = extract_regions(atoms, model, 1.5 * model.cutoff)
    nel = model.total_electrons(atoms.symbols)
    window = spectral_windows_k([H])[0]
    index = RegionIndex(H, regions, pattern=nl.pattern)
    mu = solve_density_regions(H, regions, nel, KT, ORDER, window=window,
                               index=index).mu
    foe = solve_density_regions_fused(
        H, regions, nel, KT, ORDER, window=window, index=index,
        mu_guess=mu + 3.0 * taylor_radius(KT, 1e-10))
    assert foe.used_fallback
    assert_bonds_are_rho(foe, nl.pattern)
    bare = solve_density_regions(H, regions, nel, KT, ORDER, window=window)
    assert bare.bonds_k is None and bare.rho is not None


SPEC = {"solver": "linscale", "kT": KT, "order": 60, "kgrid": 1,
        "kgrid_reduce": "symmetry", "backend": "numpy_batched"}
KEYS = ("energy", "free_energy", "fermi_level", "forces", "virial",
        "populations")


def test_rattled_crystal_hands_the_backend_every_region(monkeypatch):
    """No translation but the identity: one-member orbits, and the backend
    receives every region's spec in region order — the same bits as a
    calculator that never looks for orbits."""
    atoms = rattle(supercell(bulk_silicon(), 2), 0.05, seed=4)
    calc = make_calculator(SPEC)
    spy = calc.backend = SpyBackend(calc.backend)
    res = calc.compute(atoms)
    assert calc.state_report()["regions"] == {
        "rebuilds": 1, "reuses": 0, "orbits": 64, "reduced_solves": 0,
        "index_bytes": 690_696}
    want = [(r.orbitals, r.core_local) for r in calc._regions]
    assert [op for op, _ in spy.calls] == ["moments", "density_rows"]
    for _, specs in spy.calls:
        assert len(specs) == len(want)
        for (orb, core), (worb, wcore) in zip(specs, want):
            assert np.array_equal(orb, worb) and np.array_equal(core, wcore)
    monkeypatch.setattr(calcmod, "region_orbits",
                        lambda regions, perms, offsets, m:
                        RegionOrbits.identity(len(regions)))
    ref = make_calculator(SPEC).compute(atoms)
    for key in KEYS:
        np.testing.assert_array_equal(res[key], ref[key], err_msg=key)


#: eV/atom and eV/Å — a warm sweep step vs a reuse=False cold solve (the
#: fast-path tolerance of tests/test_strain_sweep.py), at an order that
#: converges the expansion for kT = 0.35 (tests/test_fastpath.py)
WARM_IS_COLD = 1e-6
SWEEP_SPEC = {**SPEC, "kT": 0.35, "order": 220}


def test_orbits_collapse_when_an_atom_moves_mid_sweep(obs_on):
    """A sweep whose third point displaces one atom: the translations are
    lost, the wedge is re-detected, every region is solved again, and
    each warm step equals a cold solve of the same structure."""
    base = perfect_si64()
    structures = [strain(base, amp) for amp in (0.0, 0.0025, 0.005)]
    moved = strain(base, 0.0075)
    moved.positions[5] += np.array([0.05, -0.03, 0.02])
    structures.append(moved)
    warm = make_calculator(SWEEP_SPEC)
    orbits = []
    for step, atoms in enumerate(structures):
        res = warm.compute(atoms)
        orbits.append(warm.state_report()["regions"]["orbits"])
        cold = make_calculator({**SWEEP_SPEC, "reuse": False})
        ref = cold.compute(atoms)
        n = len(atoms)
        assert res["energy"] / n == pytest.approx(ref["energy"] / n,
                                                  abs=WARM_IS_COLD), step
        np.testing.assert_allclose(res["forces"], ref["forces"], rtol=0,
                                   atol=WARM_IS_COLD, err_msg=str(step))
    assert orbits == [2, 2, 2, 64]
    assert warm.state_report()["regions"]["reduced_solves"] == 3
    counters = obs_on[1].snapshot()["counters"]
    # the warm calculator's first point and its moved one; each cold
    # solve detects once
    assert counters["symmetry.redetected"] == 2 + len(structures)
    assert counters["symmetry.revalidated"] == 2


def test_foe_span_says_whether_the_solve_was_reduced(obs_on):
    """``--trace`` alone tells a reduced solve from a full one: the
    ``calc.foe`` phase span carries ``n_regions`` and ``n_solved``."""
    tracer, _ = obs_on
    calc = make_calculator(SPEC)
    atoms = perfect_si64()
    calc.compute(atoms)
    moved = atoms.copy()
    moved.positions[0] += 0.05
    calc.compute(moved)
    spans = [r["attrs"] for r in tracer.finished() if r["name"] == "calc.foe"]
    assert [(a["n_regions"], a["n_solved"]) for a in spans] == \
        [(64, 2), (64, 64)]
