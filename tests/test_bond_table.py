"""The one bond table: bit parity with the per-consumer bond loops it
replaced, the call counts that keep a warm step one bond pass, the
pattern's rebuild rule, and a solver failure after the table is built —
for the dense calculator and for the density-matrix calculators — or
after the dense density matrix is solved.

``tests/golden/tb_eval_parity.json`` was recorded at the last commit
whose Hamiltonian build, band forces and repulsion each derived the bonds
on their own, ``tests/golden/linscale_parity.json`` at the last commit
whose linscale engine kept a sparse-Hamiltonian pattern cache of its own
(``tests/golden/regen_*.py`` — regenerate only for a deliberate change
of the numbers).  The dense record is held bit for bit, the linscale one
at a declared tolerance (:data:`PARITY_RTOL`, :data:`PARITY_ATOL`).
"""

from __future__ import annotations

import collections
import json
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import repro.linscale.calculator
import repro.tb.bonds
from repro.errors import ElectronicError
from repro.linscale import LinearScalingCalculator
from repro.linscale.foe_local import RhoIndex
from repro.tb import GSPSilicon, HarrisonModel, TBCalculator
from tests.golden import regen_linscale_parity as linscale_golden
from tests.golden.regen_tb_eval_parity import (
    CASES, KEYS, ch_cluster, rattled_si8, run_case, walk,
)
from tests.helpers import FailsOnce

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "tb_eval_parity.json").read_text())
LINSCALE_GOLDEN = json.loads((GOLDEN_DIR / "linscale_parity.json").read_text())
ALL_CASES = {**CASES, **linscale_golden.CASES}


def walk_steps(case: str) -> list[np.ndarray]:
    """Positions of a case's cold evaluation and its warm walk."""
    make_atoms, _, (mover, direction), jitter = ALL_CASES[case]
    atoms = make_atoms()
    return [atoms.positions.copy()] + walk(atoms, mover, direction, jitter)


def assert_walk_shape(rebuilt: list, n_pairs: list) -> None:
    """The walk holds what its record says: a cold build, a Verlet
    rebuild on a warm step, and a bond crossing the cutoff on a step that
    did not rebuild."""
    assert rebuilt[0] and sum(rebuilt[1:]) >= 1
    assert any(n != prev and not again for prev, n, again
               in zip(n_pairs, n_pairs[1:], rebuilt[1:]))


@pytest.mark.parametrize("case", list(CASES))
def test_evaluation_matches_parity_record(case):
    want = GOLDEN["cases"][case]
    rebuilt, n_pairs = want["rebuilt"], want["n_pairs"]
    assert_walk_shape(rebuilt, n_pairs)
    assert sum(rebuilt[1:]) == 1
    got = run_case(case)
    assert got["rebuilt"] == rebuilt and got["n_pairs"] == n_pairs
    for key in KEYS:
        np.testing.assert_array_equal(np.asarray(got[key]),
                                      np.asarray(want[key]), err_msg=key)


#: One declared tolerance for every linscale case, on either backend.  The
#: record holds the numbers of the batched backend's column recursion with
#: explicit energy traces; core-row iterates and energy moments from the
#: three-term identity change their rounding only (max |Δ| over the walks:
#: energy 6.8e-13 eV on 64 atoms, forces 1.4e-14 eV/Å, virial 5.7e-13 eV,
#: μ 1.5e-13 eV).  The walks that move one atom per step also lost the
#: parent's dirty-row H rewrite, which kept unmoved bonds' blocks from an
#: older neighbour list (≤ 1.5e-13).
PARITY_RTOL, PARITY_ATOL = 1e-13, 1e-12


def coo_rho(regions, rows_per_region, m_total):
    """ρ̂ the way the engine assembled it before :class:`RhoIndex`: COO
    of the stacked core rows → CSR, plus its (conjugate) transpose, over
    two."""
    coo_r, coo_c, coo_d = [], [], []
    for region, rho_rows in zip(regions, rows_per_region):
        core_global = region.orbitals[region.core_local]
        coo_r.append(np.repeat(core_global, region.n_orbitals))
        coo_c.append(np.tile(region.orbitals, len(core_global)))
        coo_d.append(rho_rows.ravel())
    rho_hat = sp.coo_matrix(
        (np.concatenate(coo_d),
         (np.concatenate(coo_r), np.concatenate(coo_c))),
        shape=(m_total, m_total)).tocsr()
    rho_t = rho_hat.getH() if np.iscomplexobj(rho_hat.data) else rho_hat.T
    return (0.5 * (rho_hat + rho_t)).tocsr()


@pytest.mark.parametrize("case", list(linscale_golden.CASES))
def test_linscale_matches_parity_record(monkeypatch, case):
    """The record at the declared tolerance — and, on every step of the
    walk, ρ̂ assembled through the cached :class:`RhoIndex` equal to the
    COO assembly it replaced."""
    want = LINSCALE_GOLDEN["cases"][case]
    # the symmetric walk also resets once, when its first step lowers
    # the point group and so changes the k wedge
    assert_walk_shape(want["rebuilt"], want["n_pairs"])
    init, assemble = RhoIndex.__init__, RhoIndex.assemble
    assembled = []

    def keep_regions(self, regions, m_total):
        init(self, regions, m_total)
        self.regions = regions

    def checked(self, rows_per_region):
        rho = assemble(self, rows_per_region)
        ref = coo_rho(self.regions, rows_per_region, self.shape[0])
        np.testing.assert_array_equal(rho.toarray(), ref.toarray())
        assembled.append(rho.dtype)
        return rho

    monkeypatch.setattr(RhoIndex, "__init__", keep_regions)
    monkeypatch.setattr(RhoIndex, "assemble", checked)
    got = linscale_golden.run_case(case)
    if case != "dm-si8/purification":
        assert len(assembled) >= len(want["energy"])
    for key in ("rebuilt", "n_pairs", "mode"):
        assert got.get(key) == want.get(key), key
    if case == "linscale-si64/gamma":
        assert {"two-pass", "fused", "fused+fallback"} <= set(want["mode"])
    for key in linscale_golden.KEYS:
        if key in want:
            np.testing.assert_allclose(np.asarray(got[key]),
                                       np.asarray(want[key]),
                                       rtol=PARITY_RTOL, atol=PARITY_ATOL,
                                       err_msg=key)


# --------------------------------------------------------------- call counts
def count_calls(monkeypatch, owner, names, calls) -> None:
    """Route ``owner.<name>`` through a counter, for each of *names*."""
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


#: system → (structure, model, calculator factory)
WARM_SYSTEMS = {
    "gsp-si8": (rattled_si8, GSPSilicon, lambda m: TBCalculator(m, kT=0.1)),
    "harrison-ch": (ch_cluster, HarrisonModel,
                    lambda m: TBCalculator(m, kT=0.1)),
    "linscale-si8": (rattled_si8, GSPSilicon,
                     lambda m: LinearScalingCalculator(m, kT=0.2, order=40)),
    "linscale-si8/kpts2": (rattled_si8, GSPSilicon,
                           lambda m: LinearScalingCalculator(m, kT=0.2,
                                                             order=40,
                                                             kpts=2)),
}


@pytest.mark.parametrize("system", list(WARM_SYSTEMS))
def test_warm_step_derives_each_bond_once(monkeypatch, system):
    """A warm evaluation with forces evaluates every radial function
    once per species group and re-derives nothing structural — the
    per-consumer loops the table replaced called ``model.hopping`` twice
    per group, ``pair_species_groups`` 3×, ``orbital_offsets`` 2× and
    ``check_species`` 34× (8-atom silicon, dense); beside its own H
    builder the linscale engine gave band forces and repulsion a one-shot
    pattern each (``model.hopping`` 2×, ``BondPattern`` 2× per step)."""
    make_atoms, make_model, make_calc = WARM_SYSTEMS[system]
    atoms, model = make_atoms(), make_model()
    calc = make_calc(model)
    calc.compute(atoms)
    atoms.positions[1] += 0.01
    calls: collections.Counter = collections.Counter()
    count_calls(monkeypatch, model,
                ("hopping", "pair_repulsion", "embedding", "check_species",
                 "norb", "onsite", "n_electrons", "total_electrons"), calls)
    count_calls(monkeypatch, repro.tb.bonds,
                ("pair_species_groups", "orbital_offsets"), calls)
    count_calls(monkeypatch, repro.tb.bonds.BondPattern, ("__init__",),
                calls)
    count_calls(monkeypatch, repro.linscale.calculator,
                ("build_region_gather_maps",), calls)
    calc.compute(atoms, forces=True)
    groups = len(calc._bond_cache.groups)
    # C–C, C–H, H–C and H–H: a species pair is ordered along the half list
    assert groups == (4 if system == "harrison-ch" else 1)
    assert calls["hopping"] == calls["pair_repulsion"] == groups
    assert calls["embedding"] == len({*atoms.symbols})
    assert calls["check_species"] <= 1
    for name in ("pair_species_groups", "orbital_offsets", "__init__",
                 "build_region_gather_maps"):
        assert calls[name] == 0, name
    if isinstance(calc, TBCalculator):
        # (Harrison's hopping asks norb itself, to zero the s-only channels)
        for name in ("onsite", "n_electrons", "total_electrons") + \
                (("norb",) if system == "gsp-si8" else ()):
            assert calls[name] == 0, name
    assert calc.counts.count("tb.bonds.pattern_build") == 1
    assert calc.counts.count("tb.bonds.pattern_reuse") == 1


# ----------------------------------------------------------- rebuild triggers
def pairs_of(calc) -> tuple[bytes, bytes]:
    nl = calc._vlist._list
    return nl.i.tobytes(), nl.j.tobytes()


@pytest.mark.parametrize("case", ["gsp-si8/kt0", "xwch-c8/kt0",
                                  "linscale-si8/one-atom",
                                  "linscale-betatin8/kpts2"])
def test_pattern_rebuilds_when_the_pairs_move(case):
    """Along a walk the pattern is rebuilt exactly on the steps where the
    filtered pair set changed, and reused on every other — a Verlet
    rebuild that brings back the same pairs included."""
    atoms = ALL_CASES[case][0]()
    calc = ALL_CASES[case][1]()
    count = calc.counts.count
    builds, prev = [], None
    for pos in walk_steps(case):
        atoms.positions[:] = pos
        before = count("tb.bonds.pattern_build")
        calc.compute(atoms)
        builds.append(count("tb.bonds.pattern_build") - before)
        assert builds[-1] == int(pairs_of(calc) != prev)
        prev = pairs_of(calc)
    assert sum(builds) >= 2
    assert count("tb.bonds.pattern_reuse") == len(builds) - sum(builds)


def test_pattern_rebuilds_on_species_atom_count_and_invalidate():
    atoms = ch_cluster()
    calc = TBCalculator(HarrisonModel(), kT=0.1)

    def step():
        calc.compute(atoms)
        return calc.state_report()["bonds"]["pattern_builds"]

    assert step() == 1
    atoms.positions[2] += 0.003                 # the same pairs: reused
    assert step() == 1
    assert step() == 1                          # a cache hit: no step at all
    # a rigid shift beyond half the skin rebuilds the Verlet list; the
    # pairs come back the same, so the pattern is reused
    pairs = pairs_of(calc)
    atoms.positions[:] += 0.3
    assert step() == 1
    assert calc._vlist.last_update_rebuilt and pairs_of(calc) == pairs
    # H → C at an unchanged geometry: same pairs, new orbital layout
    atoms.set_symbol(4, "C")
    assert step() == 2
    assert calc.compute(atoms)["energy"] == \
        TBCalculator(HarrisonModel(), kT=0.1).compute(atoms)["energy"]
    calc.invalidate()
    assert step() == 3
    atoms = atoms.select([True] * 5 + [False])  # one atom fewer
    assert step() == 4
    assert calc.state_report()["bonds"]["pattern_reuses"] == 2


# ------------------------------------------------------------ failed solve
FAIL_STEPS = {"reuse": 5, "crossing": 10, "verlet-rebuild": 13}


@pytest.mark.parametrize("kind", list(FAIL_STEPS))
def test_solver_failure_after_the_table_is_built(kind):
    """ROADMAP 5(iii), calculator half: the eigensolver raises after the
    step's bond table — on a crossing step together with a new pattern —
    was built.  The retry at the same geometry and every later step are
    bit-equal to a calculator that never failed.  On a Verlet rebuild
    step the retry takes the list's refresh path, which rounds the bond
    vectors differently from the build, so that one retry agrees to
    round-off and the steps after it bit for bit again."""
    case, fail_step = "gsp-si8/kt0.3", FAIL_STEPS[kind]
    reference = run_case(case)
    rebuilt, n_pairs = reference["rebuilt"], reference["n_pairs"]
    assert rebuilt[fail_step] == (kind == "verlet-rebuild")
    if not rebuilt[fail_step]:
        assert (n_pairs[fail_step] != n_pairs[fail_step - 1]) == \
            (kind == "crossing")
    atoms = CASES[case][0]()
    calc = CASES[case][1]()
    calc.solve = FailsOnce(calc.solve, fail_on=fail_step + 1)   # Γ: 1 per step
    for s, pos in enumerate(walk_steps(case)):
        atoms.positions[:] = pos
        if s == fail_step:
            with pytest.raises(ElectronicError, match="injected"):
                calc.compute(atoms)
        res = calc.compute(atoms, forces=True)
        for key in KEYS:
            if s == fail_step and kind == "verlet-rebuild":
                np.testing.assert_allclose(res[key], reference[key][s],
                                           rtol=0, atol=1e-9)
            else:
                np.testing.assert_array_equal(res[key], reference[key][s],
                                              err_msg=f"{key} at step {s}")


LINSCALE_FAIL_STEPS = {"reuse": 5, "crossing": 11, "verlet-rebuild": 13}


@pytest.mark.parametrize("kind", list(LINSCALE_FAIL_STEPS))
def test_linscale_solve_failure_after_the_table_is_built(monkeypatch, kind):
    """ROADMAP 5(iii), linscale half: the warm region solve raises after
    the step's bond table, H, regions, windows and gather maps were built
    — on a crossing step together with a new pattern.  The retry at the
    same geometry and every later step are bit-equal to a calculator that
    never failed, so no μ history, window or map of the failed attempt
    leaks.  On a Verlet rebuild step the retry takes the list's refresh
    path, which rounds the bond vectors differently from the build, so it
    agrees to round-off — and so do the later steps, whose warm μ guess
    extrapolates from the retry's μ."""
    case, fail_step = "linscale-si8/one-atom", LINSCALE_FAIL_STEPS[kind]
    reference = linscale_golden.run_case(case)
    rebuilt, n_pairs = reference["rebuilt"], reference["n_pairs"]
    assert rebuilt[fail_step] == (kind == "verlet-rebuild")
    if not rebuilt[fail_step]:
        assert (n_pairs[fail_step] != n_pairs[fail_step - 1]) == \
            (kind == "crossing")
    atoms = ALL_CASES[case][0]()
    calc = ALL_CASES[case][1]()
    # one warm (fused) solve per step after the cold one
    monkeypatch.setattr(repro.linscale.calculator,
                        "solve_density_regions_k_fused",
                        FailsOnce(repro.linscale.calculator
                                  .solve_density_regions_k_fused,
                                  fail_on=fail_step))
    for s, pos in enumerate(walk_steps(case)):
        atoms.positions[:] = pos
        if s == fail_step:
            with pytest.raises(ElectronicError, match="injected"):
                calc.compute(atoms, forces=True)
        res = calc.compute(atoms, forces=True)
        assert res["fastpath"]["mode"] == reference["mode"][s]
        for key in linscale_golden.KEYS:
            if s >= fail_step and kind == "verlet-rebuild":
                np.testing.assert_allclose(res[key], reference[key][s],
                                           rtol=0, atol=1e-9)
            else:
                np.testing.assert_array_equal(res[key], reference[key][s],
                                              err_msg=f"{key} at step {s}")


DENSE_METHODS = {"purification": 0.0, "foe": 0.2}


@pytest.mark.parametrize("stage", ["repulsive_energy_forces", "band_forces"])
@pytest.mark.parametrize("method", list(DENSE_METHODS))
def test_density_matrix_failure_after_the_solve(monkeypatch, method, stage):
    """ROADMAP 5(iii), dense half: repulsion or the band forces raise
    after the step's density matrix was solved.  The retry at the same
    geometry and every later step are bit-equal to a calculator that never
    failed — the FOE's warm μ of the failed attempt used to be committed
    before the step finished and moved the retry's μ search."""
    from repro.linscale import DensityMatrixCalculator

    def calc():
        return DensityMatrixCalculator(GSPSilicon(), method=method,
                                       kT=DENSE_METHODS[method])

    start = rattled_si8().positions
    drift = 0.01 * np.random.default_rng(3).normal(size=start.shape)
    steps = [start + s * drift for s in range(6)]
    atoms, ref_calc = rattled_si8(), calc()
    reference = []
    for pos in steps:
        atoms.positions[:] = pos
        reference.append(ref_calc.compute(atoms, forces=True))
    fail_step = 3
    monkeypatch.setattr(repro.linscale.calculator, stage,
                        FailsOnce(getattr(repro.linscale.calculator, stage),
                                  fail_on=fail_step + 1))   # one per step
    atoms, failing = rattled_si8(), calc()
    for s, pos in enumerate(steps):
        atoms.positions[:] = pos
        if s == fail_step:
            with pytest.raises(ElectronicError, match="injected"):
                failing.compute(atoms, forces=True)
        res = failing.compute(atoms, forces=True)
        assert res.keys() == reference[s].keys()
        for key in ("energy", "free_energy", "forces", "virial",
                    "fermi_level"):
            if key in res:
                np.testing.assert_array_equal(res[key], reference[s][key],
                                              err_msg=f"{key} at step {s}")
