"""MD fast path: persistent state reuse, cache invalidation, equivalence.

Three layers are covered:

* the :class:`repro.state.CalculatorState` change classification (the
  shared rebuild-vs-reuse contract),
* the reusable components — cell-aware Verlet lists, the sparse
  Hamiltonian on a cached bond pattern, the fused single-pass FOE — each
  asserted
  numerically equivalent to its cold counterpart,
* the calculators end-to-end: fast-path MD forces vs rebuild-everything
  forces, correct invalidation on position/cell/species mutation (the
  stale-neighbour-list bug guard), and NVE energy conservation with the
  fast path on vs off.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import obs
from repro.errors import SpectralWindowError
from repro.geometry import Atoms, bulk_silicon, rattle, supercell
from repro.neighbors import VerletList, brute_force_neighbors, neighbor_list
from repro.state import CalculatorState
from repro.tb import GSPSilicon, TBCalculator
from repro.tb.chebyshev import (
    fermi_coefficients,
    fermi_mu_derivative_coefficients,
)
from repro.tb.purification import lanczos_spectral_bounds
from repro.calculators import make_calculator
from repro.linscale import LinearScalingCalculator
from repro.linscale.foe_local import (
    solve_density_regions,
    solve_density_regions_fused,
    taylor_radius,
)
from repro.linscale.regions import extract_regions
from repro.linscale.sparse_hamiltonian import SparseHamiltonianBuilder
from repro.tb.bonds import BondPattern, bond_table
from repro.tb.hamiltonian import build_hamiltonian

KT = 0.35
ORDER = 220   # converged for kT = 0.35 over the GSP-Si spectral width,
              # so results are window-insensitive below the 1e-8 bar


@pytest.fixture()
def gsp():
    return GSPSilicon()


@pytest.fixture()
def si64_rattled():
    return rattle(supercell(bulk_silicon(), 2), 0.04, seed=9)


# ---------------------------------------------------------------- state
def test_state_first_observation_and_no_change(si8_rattled):
    st = CalculatorState()
    assert st.snapshot_id == 0
    r = st.observe(si8_rattled, params=(1,))
    assert r.needs_full_reset and not r.cell_changed
    assert st.snapshot_id == 1
    r = st.observe(si8_rattled, params=(1,))
    assert not r.needs_full_reset and not r.cell_changed
    assert st.snapshot_id == 1, "an unchanged structure keeps its stamp"


def test_state_positions_only_ride_the_fast_path(si8_rattled):
    st = CalculatorState()
    st.observe(si8_rattled)
    si8_rattled.positions[3] += [0.1, 0.0, -0.2]
    r = st.observe(si8_rattled)
    assert not r.needs_full_reset and not r.cell_changed
    assert st.snapshot_id == 2


def test_state_cell_change_is_reported_without_reset(si8_rattled):
    st = CalculatorState()
    st.observe(si8_rattled)
    at2 = Atoms(si8_rattled.symbols, si8_rattled.positions,
                cell=si8_rattled.cell.matrix * 1.001)
    r = st.observe(at2)
    # cell changes ride the fast path; consumers self-validate
    assert r.cell_changed and not r.needs_full_reset
    assert st.snapshot_id == 2


def test_state_species_natoms_params_reset(si8_rattled):
    st = CalculatorState()
    st.observe(si8_rattled, params=("a",))
    r = st.observe(si8_rattled, params=("b",))
    assert r.needs_full_reset and not r.cell_changed
    other = Atoms(["C"] + si8_rattled.symbols[1:], si8_rattled.positions,
                  cell=si8_rattled.cell.matrix)
    assert st.observe(other, params=("b",)).needs_full_reset
    bigger = supercell(bulk_silicon(), 2)
    r = st.observe(bigger, params=("b",))
    assert r.needs_full_reset and r.cell_changed
    assert st.snapshot_id == 4


# ---------------------------------------------------------------- verlet
def test_verlet_cell_change_refresh_is_exact():
    """NPT regime: the cached skin list must remap image vectors exactly."""
    at = rattle(bulk_silicon(), 0.03, seed=4)
    vl = VerletList(rcut=2.6, skin=0.8)
    vl.update(at)
    scale = 1.004
    at2 = Atoms(at.symbols, at.positions * scale,
                cell=at.cell.matrix * scale)
    nl = vl.update(at2)
    assert vl.stats()["builds"] == 1, "small affine strain must not rebuild"
    ref = brute_force_neighbors(at2, 2.6)
    assert sorted(np.round(nl.distances, 10)) == pytest.approx(
        sorted(np.round(ref.distances, 10)), abs=1e-9)


def test_verlet_large_cell_change_rebuilds():
    """A 20 % compression pulls pairs from far beyond the skin inside the
    cutoff and must rebuild; a 20 % expansion only moves every pair
    outward, so the affine bound keeps the list (and it stays exact)."""
    at = rattle(bulk_silicon(), 0.03, seed=4)
    vl = VerletList(rcut=2.6, skin=0.4)
    vl.update(at)
    at2 = Atoms(at.symbols, at.positions * 0.8, cell=at.cell.matrix * 0.8)
    vl.update(at2)
    assert vl.stats()["builds"] == 2, "a 20% compression exhausts the skin"
    assert vl.last_rebuild_cause == "strain"
    at3 = Atoms(at.symbols, at2.positions * 1.2, cell=at2.cell.matrix * 1.2)
    nl = vl.update(at3)
    assert vl.stats()["builds"] == 2, "an expansion brings no pair closer"
    ref = brute_force_neighbors(at3, 2.6)
    assert sorted(np.round(nl.distances, 10)) == pytest.approx(
        sorted(np.round(ref.distances, 10)), abs=1e-9)


def test_verlet_reset_and_stats():
    at = rattle(bulk_silicon(), 0.03, seed=4)
    vl = VerletList(rcut=2.6, skin=0.5)
    vl.update(at)
    vl.update(at)
    assert vl.stats() == {
        "builds": 1, "updates": 2, "reused": 1,
        "causes": {"init": 1, "resize": 0, "cell-unmappable": 0,
                   "drift": 0, "strain": 0}}
    vl.reset()
    vl.update(at)
    assert vl.stats()["builds"] == 2 and vl.last_update_rebuilt


# ------------------------------------------------------------- H builder
def build_on(pattern, atoms, nl, gsp):
    """The builder's H of *atoms* on a cached bond *pattern*."""
    return SparseHamiltonianBuilder(gsp).build(
        atoms, bond_table(atoms, gsp, nl, pattern))


def test_builder_matches_full_build(si64_rattled, gsp):
    nl = neighbor_list(si64_rattled, gsp.cutoff)
    b = SparseHamiltonianBuilder(gsp)
    H = b.build(si64_rattled, nl)
    Href, _ = build_hamiltonian(si64_rattled, gsp, nl, sparse=True)
    assert abs(H - Href).max() < 1e-13


def test_builder_value_rewrite_matches(si64_rattled, gsp):
    nl = neighbor_list(si64_rattled, gsp.cutoff)
    pattern = BondPattern(si64_rattled.symbols, gsp, nl)
    build_on(pattern, si64_rattled, nl, gsp)
    at2 = rattle(si64_rattled, 0.01, seed=3)
    nl2 = neighbor_list(at2, gsp.cutoff)
    if not pattern.matches(at2.symbols, nl2):
        pytest.skip("rattle changed the bond pattern (unlucky seed)")
    H = build_on(pattern, at2, nl2, gsp)
    Href, _ = build_hamiltonian(at2, gsp, nl2, sparse=True)
    assert abs(H - Href).max() < 1e-13


def test_builder_partial_update_matches(si64_rattled, gsp):
    """Single-atom displacement on the cached pattern."""
    nl = neighbor_list(si64_rattled, gsp.cutoff)
    pattern = BondPattern(si64_rattled.symbols, gsp, nl)
    build_on(pattern, si64_rattled, nl, gsp)
    at2 = copy.deepcopy(si64_rattled)
    at2.positions[7] += [0.02, -0.015, 0.01]
    nl2 = neighbor_list(at2, gsp.cutoff)
    assert pattern.matches(at2.symbols, nl2)
    H = build_on(pattern, at2, nl2, gsp)
    Href, _ = build_hamiltonian(at2, gsp, nl2, sparse=True)
    assert abs(H - Href).max() < 1e-13


def test_builder_pattern_change_rebuilds(si64_rattled, gsp):
    nl = neighbor_list(si64_rattled, gsp.cutoff)
    pattern = BondPattern(si64_rattled.symbols, gsp, nl)
    at2 = rattle(supercell(bulk_silicon(), 2), 0.3, seed=77)  # big rattle
    nl2 = neighbor_list(at2, gsp.cutoff)
    assert not pattern.matches(at2.symbols, nl2)
    H = SparseHamiltonianBuilder(gsp).build(at2, nl2)
    Href, _ = build_hamiltonian(at2, gsp, nl2, sparse=True)
    assert abs(H - Href).max() < 1e-13


# ------------------------------------------------------ fused FOE kernel
def test_fermi_mu_derivatives_match_finite_differences():
    center, span, mu, kT = -1.0, 9.0, 0.3, 0.35
    stack = fermi_mu_derivative_coefficients(center, span, mu, kT, 60)
    h = 1e-5
    for s in (1, 2, 3):
        if s == 1:
            fd = (fermi_coefficients(center, span, mu + h, kT, 60)
                  - fermi_coefficients(center, span, mu - h, kT, 60)) / (2 * h)
        elif s == 2:
            fd = (stack_at(center, span, mu + h, kT, 1)
                  - stack_at(center, span, mu - h, kT, 1)) / (2 * h)
        else:
            fd = (stack_at(center, span, mu + h, kT, 2)
                  - stack_at(center, span, mu - h, kT, 2)) / (2 * h)
        assert np.abs(stack[s] - fd).max() < 1e-5 * max(1.0, np.abs(stack[s]).max())
    assert np.allclose(stack[0],
                       fermi_coefficients(center, span, mu, kT, 60))


def stack_at(center, span, mu, kT, s):
    return fermi_mu_derivative_coefficients(center, span, mu, kT, 60)[s]


def _foe_inputs(gsp, atoms):
    nl = neighbor_list(atoms, gsp.cutoff)
    H, _ = build_hamiltonian(atoms, gsp, nl, sparse=True)
    r_loc = 1.5 * gsp.cutoff
    regions = extract_regions(atoms, gsp, r_loc,
                              nl=neighbor_list(atoms, r_loc))
    nelec = gsp.total_electrons(atoms.symbols)
    return H, regions, nelec


def test_fused_solve_matches_two_pass(si64_rattled, gsp):
    H, regions, nelec = _foe_inputs(gsp, si64_rattled)
    emin, emax = lanczos_spectral_bounds(H)
    pad = 0.02 * (emax - emin) + 0.2
    window = (emin - pad, emax + pad)
    ref = solve_density_regions(H, regions, nelec, KT, order=ORDER,
                                window=window)
    fused = solve_density_regions_fused(
        H, regions, nelec, KT, order=ORDER, window=window,
        mu_guess=ref.mu + 2e-4)
    assert not fused.used_fallback
    assert fused.mu == pytest.approx(ref.mu, abs=1e-9)
    assert fused.band_energy == pytest.approx(ref.band_energy, abs=1e-8)
    assert fused.entropy == pytest.approx(ref.entropy, abs=1e-10)
    assert np.abs(fused.populations - ref.populations).max() < 1e-8
    assert abs(fused.rho - ref.rho).max() < 1e-8


def test_fused_solve_fallback_on_bad_guess(si64_rattled, gsp):
    """A far-off μ guess exceeds the Taylor tolerance → exact second pass."""
    H, regions, nelec = _foe_inputs(gsp, si64_rattled)
    emin, emax = lanczos_spectral_bounds(H)
    window = (emin - 0.3, emax + 0.3)
    ref = solve_density_regions(H, regions, nelec, KT, order=ORDER,
                                window=window)
    fused = solve_density_regions_fused(
        H, regions, nelec, KT, order=ORDER, window=window,
        mu_guess=ref.mu + 0.5)
    assert fused.used_fallback
    assert fused.mu == pytest.approx(ref.mu, abs=1e-9)
    assert abs(fused.rho - ref.rho).max() < 1e-10   # fallback is exact


def test_stale_window_raises(si64_rattled, gsp):
    H, regions, nelec = _foe_inputs(gsp, si64_rattled)
    emin, emax = lanczos_spectral_bounds(H)
    bad = (emin + 0.4 * (emax - emin), emax - 0.4 * (emax - emin))
    with pytest.raises(SpectralWindowError):
        solve_density_regions_fused(H, regions, nelec, KT, order=ORDER,
                                    window=bad, mu_guess=0.0)
    with pytest.raises(SpectralWindowError):
        solve_density_regions(H, regions, nelec, KT, order=ORDER, window=bad)


# --------------------------------------------------- calculators, end-to-end
def test_linscale_fast_path_matches_cold_forces(gsp):
    """MD-like sequence: reuse-on forces equal rebuild-everything forces."""
    at = rattle(supercell(bulk_silicon(), 2), 0.03, seed=21)
    fast = LinearScalingCalculator(gsp, kT=KT, order=ORDER, reuse=True)
    cold = LinearScalingCalculator(gsp, kT=KT, order=ORDER, reuse=False)
    rng = np.random.default_rng(5)
    for step in range(4):
        at.positions += rng.normal(0.0, 0.01, at.positions.shape)
        f_fast = fast.compute(at, forces=True)["forces"]
        f_cold = cold.compute(at, forces=True)["forces"]
        assert np.abs(f_fast - f_cold).max() < 1e-8, f"step {step}"
    rep = fast.state_report()
    assert rep["foe"]["fused"] >= 2, rep
    assert rep["hamiltonian"]["pattern_builds"] <= 2
    assert rep["regions"]["reuses"] >= 2
    cold_rep = cold.state_report()
    assert cold_rep["foe"]["fused"] == 0
    assert cold_rep["neighbors"]["reused"] == 0


def test_warm_solve_records_its_taylor_margin(gsp, si8_rattled, obs_on):
    """Which path and why: every warm solve leaves |Δμ| / radius in the
    calculator's counts, on its solve span and (as the radius) in the
    result — the distance to the fallback, not just the verdict."""
    tracer, reg = obs_on
    calc = LinearScalingCalculator(gsp, kT=KT, order=80)
    rng = np.random.default_rng(5)
    margins = []
    for step in range(4):
        si8_rattled.positions += rng.normal(0.0, 0.004, (8, 3))
        fp = calc.compute(si8_rattled, forces=True)["fastpath"]
        if step == 0:
            assert fp["mode"] == "two-pass" and fp["taylor_radius"] == 0.0
            continue
        assert fp["taylor_radius"] == taylor_radius(KT, calc.rho_tol)
        assert fp["used_fallback"] == (abs(fp["mu_shift"])
                                       > fp["taylor_radius"])
        margins.append(abs(fp["mu_shift"]) / fp["taylor_radius"])
    hist = calc.counts.histogram("foe.taylor_margin")
    assert hist.count == 3 and hist.max == pytest.approx(max(margins))
    assert reg.snapshot()["histograms"]["foe.taylor_margin"]["count"] == 3
    on_span = [r["attrs"]["taylor_margin"] for r in tracer.finished()
               if "taylor_margin" in r.get("attrs", {})]
    assert on_span == pytest.approx(margins)

    # rho_tol = 0 asks for no Taylor step: every warm solve takes the
    # second pass, and there is no radius to measure a margin against
    exact = LinearScalingCalculator(gsp, kT=KT, order=80, rho_tol=0.0)
    for _ in range(3):
        si8_rattled.positions += rng.normal(0.0, 0.004, (8, 3))
        fp = exact.compute(si8_rattled, forces=True)["fastpath"]
    assert fp["mode"] == "fused+fallback" and fp["taylor_radius"] == 0.0
    assert exact.state_report()["foe"] == {"cold": 1, "fused": 0,
                                           "fallback": 2}
    assert exact.counts.histogram("foe.taylor_margin").count == 0


def test_linscale_rebuild_vs_reuse_decisions(gsp, si8_rattled):
    calc = LinearScalingCalculator(gsp, kT=KT, order=80, reuse=True)
    calc.compute(si8_rattled, forces=True)
    base = calc.state_report()
    assert base["neighbors"]["builds"] == 1

    # small move → everything reused except values
    si8_rattled.positions[0] += [0.01, 0.0, 0.0]
    calc.compute(si8_rattled, forces=True)
    rep = calc.state_report()
    assert rep["neighbors"]["builds"] == 1
    assert rep["hamiltonian"]["pattern_builds"] == 1

    # unchanged structure → cache hit, no new work
    calc.compute(si8_rattled, forces=True)
    assert calc.state_report()["cache_hits"] == 1

    # huge move → neighbour rebuild
    si8_rattled.positions[0] += [0.9, 0.0, 0.0]
    calc.compute(si8_rattled, forces=True)
    assert calc.state_report()["neighbors"]["builds"] == 2

    # species change → full persistent reset (counters survive, lists don't)
    atoms_c = rattle(bulk_silicon(), 0.06, seed=1)
    calc2 = LinearScalingCalculator(GSPSilicon(), kT=KT, order=80)
    calc2.compute(atoms_c, forces=True)
    calc2.kT = KT            # params unchanged
    calc2.order = 90         # params changed
    calc2.compute(atoms_c, forces=True)
    assert calc2.state_report()["neighbors"]["builds"] == 2, \
        "parameter change must reset persistent state"


def test_gather_maps_rebuilt_only_with_pattern_or_regions(gsp, monkeypatch):
    """Warm MD steps reuse the cached densification maps; only a new CSR
    pattern or a new region list rebuilds them (once) — and the region
    orbits with them, never on a warm step."""
    import repro.linscale.calculator as calcmod
    import repro.linscale.foe_local as foemod

    real = foemod.build_region_gather_maps
    real_orbits = calcmod.region_orbits
    calls, orbit_calls = [], []

    def counting(H, regions):
        calls.append(1)
        return real(H, regions)

    def counting_orbits(*args):
        orbit_calls.append(1)
        return real_orbits(*args)

    monkeypatch.setattr(foemod, "build_region_gather_maps", counting)
    monkeypatch.setattr(calcmod, "region_orbits", counting_orbits)

    def generation(calc):
        rep = calc.state_report()
        return (rep["hamiltonian"]["pattern_builds"],
                rep["regions"]["rebuilds"])

    at = rattle(supercell(bulk_silicon(), 2), 0.03, seed=21)
    calc = LinearScalingCalculator(gsp, kT=KT, order=60)
    calc.compute(at, forces=True)                    # cold step
    assert len(calls) == 1 and generation(calc) == (1, 1)
    rng = np.random.default_rng(5)
    for _ in range(4):                               # warm MD steps
        at.positions += rng.normal(0.0, 0.005, at.positions.shape)
        calc.compute(at, forces=True)
    assert generation(calc) == (1, 1)
    assert len(calls) == len(orbit_calls) == 1
    assert calc.state_report()["foe"]["fused"] >= 3

    at.positions[0] += [0.9, 0.0, 0.0]               # bonds break / form
    calc.compute(at, forces=True)
    assert generation(calc) != (1, 1)
    assert len(calls) == len(orbit_calls) == 2

    calc.invalidate()                                # drops the maps too
    calc.compute(at, forces=True)
    assert len(calls) == len(orbit_calls) == 3


def test_linscale_energy_only_then_forces(gsp, si8_rattled):
    calc = LinearScalingCalculator(gsp, kT=KT, order=80, reuse=True)
    e = calc.get_potential_energy(si8_rattled)
    f = calc.get_forces(si8_rattled)
    assert f.shape == (8, 3)
    assert calc.compute(si8_rattled)["energy"] == pytest.approx(e, abs=1e-9)


def test_md_energy_conservation_fast_on_vs_off(gsp):
    """NVE with the fast path must conserve energy as well as without."""
    from repro.md import (
        MDDriver, ThermoLog, VelocityVerlet, maxwell_boltzmann_velocities,
    )

    drifts = {}
    energies = {}
    for reuse in (True, False):
        at = rattle(bulk_silicon(), 0.02, seed=7)
        maxwell_boltzmann_velocities(at, 300.0, seed=11)
        calc = LinearScalingCalculator(gsp, kT=KT, order=ORDER, reuse=reuse)
        log = ThermoLog()
        MDDriver(at, calc, VelocityVerlet(dt=1.0),
                 observers=[log]).run(12)
        drifts[reuse] = log.conserved_drift()
        energies[reuse] = np.asarray(log.etot)
    # absolute drift is set by the r_loc truncation at this kT, not by the
    # fast path; the load-bearing assertion is ON ≡ OFF step by step
    assert drifts[True] < 3e-4
    assert drifts[False] < 3e-4
    assert abs(drifts[True] - drifts[False]) < 1e-6
    np.testing.assert_allclose(energies[True], energies[False],
                               atol=5e-8, rtol=0.0)


def test_md_driver_attaches_calc_report(gsp):
    from repro.md import MDDriver, VelocityVerlet

    at = rattle(bulk_silicon(), 0.02, seed=3)
    calc = LinearScalingCalculator(gsp, kT=KT, order=60)
    data = MDDriver(at, calc, VelocityVerlet(dt=1.0)).run(2)
    assert "calc_report" in data
    assert data["calc_report"]["neighbors"]["updates"] >= 3


def test_failed_compute_does_not_poison_cache(gsp, si8_rattled, monkeypatch):
    """A compute that raises mid-solve must not leave the previous
    geometry's results answering for the new one on retry."""
    calc = LinearScalingCalculator(gsp, kT=KT, order=ORDER)
    e_a = calc.get_potential_energy(si8_rattled)
    si8_rattled.positions[0] += [0.05, 0.0, 0.0]

    import repro.linscale.calculator as calcmod
    real = calcmod.solve_density_regions_k
    calls = {"n": 0}

    def boom(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient solver failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(calcmod, "solve_density_regions_k", boom)
    with pytest.raises(RuntimeError):
        calc.compute(si8_rattled, forces=False)
    e_b = calc.get_potential_energy(si8_rattled)   # retry, same geometry
    fresh = LinearScalingCalculator(gsp, kT=KT, order=ORDER)
    assert e_b == pytest.approx(fresh.get_potential_energy(si8_rattled),
                                abs=1e-8)
    assert e_b != e_a


def test_tb_calculator_detects_cell_mutation(si8_rattled):
    """The stale-neighbour-list bug guard on the dense calculator."""
    calc = TBCalculator(GSPSilicon())
    e0 = calc.get_potential_energy(si8_rattled)
    at2 = Atoms(si8_rattled.symbols, si8_rattled.positions,
                cell=si8_rattled.cell.matrix * 1.02)
    e1 = calc.get_potential_energy(at2)
    assert e0 != e1
    fresh = TBCalculator(GSPSilicon())
    assert e1 == pytest.approx(fresh.get_potential_energy(at2), abs=1e-10)


def test_dense_foe_warm_start_matches_cold(si8_rattled):
    """foe is the region engine on one all-core region, so its warm step
    takes the fused path from the extrapolated μ."""
    spec = {"solver": "foe", "kT": KT, "order": ORDER}
    warm = make_calculator(spec)
    cold = make_calculator({**spec, "reuse": False})
    warm.compute(si8_rattled, forces=True)
    si8_rattled.positions[2] += [0.02, -0.01, 0.0]
    f_warm = warm.compute(si8_rattled, forces=True)["forces"]
    f_cold = cold.compute(si8_rattled, forces=True)["forces"]
    assert np.abs(f_warm - f_cold).max() < 1e-7
    assert warm.state_report()["foe"] == {"cold": 1, "fused": 1,
                                          "fallback": 0}


def test_relaxers_single_solve_per_step(si8_rattled):
    """FIRE must pay one electronic solve per step, not two."""
    from repro.relax import fire_relax

    calc = TBCalculator(GSPSilicon())
    with obs.recording() as tracer:
        res = fire_relax(si8_rattled, calc, fmax=0.5, max_steps=10)
    n_solves = [r["name"] for r in tracer.finished()].count("calc.diagonalize")
    assert n_solves <= res.iterations + 2, \
        f"{n_solves} solves for {res.iterations} FIRE iterations"
