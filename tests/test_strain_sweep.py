"""Strain-sweep/EOS driver: physics, warm-state reuse, CLI and service.

The driver's contract: the E(ε) points equal per-point fresh-calculator
evaluations exactly (warm state must never change an answer), the
sorted walking order maximises reuse, and the same sweep is reachable
through the CLI ``sweep`` subcommand and the service ``sweep`` op.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import strain_sweep, strain_tensors, sweep_amplitudes
from repro.errors import GeometryError
from repro.geometry import bulk_silicon, write_xyz
from repro.geometry.transform import strain
from repro.linscale import LinearScalingCalculator
from repro.tb import GSPSilicon, TBCalculator
from repro.units import EV_PER_A3_TO_GPA

KT = 0.1


def test_strain_tensors_shapes_and_modes():
    amps = [-0.02, 0.0, 0.02]
    vol = strain_tensors("volumetric", amps)
    uni = strain_tensors("uniaxial", amps, axis=1)
    she = strain_tensors("shear", amps, axis=2)
    assert len(vol) == len(uni) == len(she) == 3
    np.testing.assert_allclose(vol[0], -0.02 * np.eye(3))
    assert uni[2][1, 1] == 0.02 and uni[2].sum() == 0.02
    assert she[2][0, 1] == she[2][1, 0] == 0.02
    assert np.trace(she[2]) == 0.0
    with pytest.raises(GeometryError):
        strain_tensors("bogus", amps)
    with pytest.raises(GeometryError):
        strain_tensors("uniaxial", amps, axis=5)


def test_sweep_points_match_fresh_calculators():
    """Warm-walked points are bit-identical to fresh per-point solves —
    the sweep twin of the MD fast-path parity contract."""
    at = bulk_silicon()
    amps = np.linspace(-0.03, 0.03, 5)
    calc = TBCalculator(GSPSilicon(), kpts=2, kT=KT,
                        kgrid_reduce="symmetry")
    res = strain_sweep(at, calc, amps, fit=None)
    assert [p.amplitude for p in res.points] == sorted(amps)
    for p in res.points:
        fresh = TBCalculator(GSPSilicon(), kpts=2, kT=KT,
                             kgrid_reduce="symmetry")
        e = fresh.get_potential_energy(strain(at, p.strain)) / len(at)
        assert p.energy == pytest.approx(e, abs=1e-12)
    # the reference structure is never mutated
    np.testing.assert_array_equal(at.positions, bulk_silicon().positions)


def test_sweep_eos_fit_recovers_minimum():
    at = bulk_silicon()
    calc = TBCalculator(GSPSilicon(), kpts=3, kT=0.02,
                        kgrid_reduce="symmetry")
    res = strain_sweep(at, calc, np.linspace(-0.04, 0.04, 9),
                       energy_ref=2 * (-5.25) + 2 * 1.20)
    assert res.eos is not None and res.eos.form == "birch"
    # the F6 anchors: experimental volume and cohesive energy of diamond Si
    assert res.eos.v0 == pytest.approx(5.431 ** 3 / 8, rel=0.03)
    assert res.eos.e0 == pytest.approx(-4.63, abs=0.08)
    assert 70.0 < res.eos.b0 * 160.21766208 < 150.0


def test_sweep_linscale_warm_equals_cold():
    """The persistent-state walk changes no physics: warm vs
    reuse=False cold rebuilds agree to the fast-path tolerance."""
    at = bulk_silicon()
    amps = np.linspace(-0.015, 0.015, 5)
    warm = LinearScalingCalculator(GSPSilicon(), kT=0.2, r_loc=6.0,
                                   order=250, kpts=2,
                                   kgrid_reduce="symmetry")
    cold = LinearScalingCalculator(GSPSilicon(), kT=0.2, r_loc=6.0,
                                   order=250, kpts=2,
                                   kgrid_reduce="symmetry", reuse=False)
    rw = strain_sweep(at, warm, amps, fit=None, forces=True)
    rc = strain_sweep(at, cold, amps, fit=None, forces=True)
    for pw, pc in zip(rw.points, rc.points):
        assert pw.energy == pytest.approx(pc.energy, abs=1e-6)
        assert pw.max_force == pytest.approx(pc.max_force, abs=1e-6)
    # the warm walk actually reused: one pattern build, warm solves ran
    rep = rw.calc_report
    assert rep["hamiltonian"]["pattern_builds"] == 1
    assert rep["foe"]["fused"] + rep["foe"]["fallback"] >= 1
    warm.close()
    cold.close()


def test_sweep_ladder_stays_on_the_fused_path():
    """Nine points, the ledger sweep's calculator: the extrapolated μ
    guess misses by several meV at every point (μ(ε) is curved), which
    the μ-Taylor radius must absorb — one cold start, at most one
    fallback (the second point, no history to extrapolate from), fused
    from there on.  The 1 % step makes the 8-atom cell miss the way the
    64-atom workload does at 0.25 %."""
    at = bulk_silicon()
    amps = 0.01 * (np.arange(9) - 4)

    def make(reuse):
        return LinearScalingCalculator(GSPSilicon(), kT=0.2, r_loc=6.0,
                                       order=300, kpts=2,
                                       kgrid_reduce="symmetry", reuse=reuse)

    warm = make(True)
    res = strain_sweep(at, warm, amps, fit=None, forces=True)
    foe = res.calc_report["foe"]
    assert foe["cold"] == 1 and foe["fused"] >= 7 and foe["fallback"] <= 1
    assert warm.counts.histogram("foe.mu_shift").max > 2e-3
    for p in (res.points[0], res.points[4], res.points[8]):
        cold = make(False)
        ref = cold.compute(strain(at, p.strain), forces=True)
        cold.close()
        assert p.energy == pytest.approx(ref["energy"] / len(at), abs=1e-6)
        assert p.pressure_gpa == pytest.approx(
            ref["pressure"] * EV_PER_A3_TO_GPA, abs=1e-5)
    warm.close()


def test_ledger_sweep_pays_only_for_what_the_strain_changed(obs_on,
                                                           monkeypatch):
    """The perf ledger's sweep shape (Si64, kpts=2, symmetry wedge, 9
    points 0.25 % apart), counted rather than timed: each Verlet list is
    built once (a homogeneous strain is not drift), the wedge is detected
    once and revalidated at every later point, the spectral windows are
    refreshed where the ΔH bound no longer shows the pad covering the
    spectrum (the cold point and two more: pad 0.6 eV, ‖ΔH‖ 0.23 eV
    per step), and a μ solve runs at most one Chebyshev transform per
    Newton step beside the one that serves all its bisection trials."""
    import repro.tb.chebyshev as cheb

    calls = {"dct": 0, "trials": 0}
    dct, fermi = cheb.dct, cheb.fermi_function

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cheb, "dct", counted("dct", dct))
    monkeypatch.setattr(cheb, "fermi_function", counted("trials", fermi))
    solves = []
    solve = cheb.solve_mu_from_moments_multi

    def per_solve(*args, **kwargs):
        before = dict(calls)
        mu = solve(*args, **kwargs)
        solves.append({k: calls[k] - before[k] for k in calls})
        return mu

    monkeypatch.setattr("repro.linscale.foe_local.solve_mu_from_moments_multi",
                        per_solve)

    from repro.geometry import supercell

    at = supercell(bulk_silicon(), 2)
    at.positions += np.random.default_rng(12).uniform(0.0, 1.0, 3)
    calc = LinearScalingCalculator(GSPSilicon(), kT=0.2, r_loc=6.0,
                                   order=300, kpts=2,
                                   kgrid_reduce="symmetry")
    res = strain_sweep(at, calc, 0.0025 * (np.arange(9) - 4), fit=None,
                       forces=True)
    report = res.calc_report
    assert report["neighbors"]["builds"] == 1
    assert report["neighbors_loc"]["builds"] == 1
    assert report["window"]["refreshes"] == 3
    counters = obs_on[1].snapshot()["counters"]
    assert (counters["symmetry.redetected"],
            counters["symmetry.revalidated"]) == (1, 8)
    assert len(solves) == 9
    for n in solves:
        # one transform for every bisection trial, one per Newton step
        assert n["dct"] <= 1 + 4 < n["trials"]


def test_compression_sweep_windows_cover_every_spectrum():
    """Compressing Si8 by up to 7 % keeps both Verlet lists (the affine
    bound absorbs it), so only the window rule guards the Chebyshev
    windows: at every point each cached window — reused or refreshed —
    holds the exact spectrum of its H(k), and the energies equal cold
    per-point solves."""
    calc = LinearScalingCalculator(GSPSilicon(), kT=0.2, r_loc=6.0,
                                   order=300, kpts=2,
                                   kgrid_reduce="symmetry")
    built = []
    build_k = calc._hbuilder.build_k

    def capture(*args, **kwargs):
        built.append(build_k(*args, **kwargs))
        return built[-1]

    calc._hbuilder.build_k = capture
    at = bulk_silicon()
    for eps in -0.005 * np.arange(15):
        strained = strain(at, eps)
        res = calc.compute(strained, forces=False)
        for (lo, hi), H in zip(calc._windows, built[-1]):
            spectrum = np.linalg.eigvalsh(H.toarray())
            assert lo < spectrum[0] and spectrum[-1] < hi
        cold = LinearScalingCalculator(GSPSilicon(), kT=0.2, r_loc=6.0,
                                       order=300, kpts=2,
                                       kgrid_reduce="symmetry",
                                       reuse=False)
        ref = cold.compute(strained, forces=False)
        assert res["energy"] == pytest.approx(ref["energy"], abs=1e-6 * 8)
    report = calc.state_report()
    assert report["neighbors"]["builds"] == 1
    assert report["neighbors_loc"]["builds"] == 1
    assert report["window"]["refreshes"] > 1
    assert report["window"]["reuses"] > 1


def test_sweep_custom_tensors_and_validation():
    at = bulk_silicon()
    calc = TBCalculator(GSPSilicon(), kpts=2, kT=KT)
    tensors = strain_tensors("shear", [0.0, 0.01, 0.02])
    res = strain_sweep(at, calc, tensors=tensors, fit=None)
    assert res.mode == "custom" and len(res.points) == 3
    # shear stiffens the crystal: E grows with |ε|
    es = [p.energy for p in res.points]
    assert es[0] < es[1] < es[2]
    with pytest.raises(GeometryError, match="monotonic"):
        strain_sweep(at, calc, tensors=[np.zeros((3, 3))] * 5,
                     fit="birch")
    with pytest.raises(GeometryError):
        strain_sweep(at, calc, mode="custom")
    with pytest.raises(GeometryError):
        strain_sweep(at, calc, [-1.5, 0.0, 0.1, 0.2, 0.3])
    with pytest.raises(GeometryError):
        strain_sweep(at, calc, np.linspace(-0.02, 0.02, 5), fit="bogus")


def test_sweep_fit_preconditions_fail_before_any_compute():
    """A bad fit request must cost zero electronic work: shear + default
    fit (the E(V) curve folds two-to-one — a silent-garbage trap), too
    few points, and folded custom paths all raise up front."""

    class Exploding:
        def compute(self, atoms, forces=True):  # pragma: no cover
            raise AssertionError("sweep ran before validating the fit")

    at = bulk_silicon()
    with pytest.raises(GeometryError, match="shear"):
        strain_sweep(at, Exploding(), np.linspace(-0.04, 0.04, 9),
                     mode="shear")
    with pytest.raises(GeometryError, match=">= 5"):
        strain_sweep(at, Exploding(), [-0.01, 0.0, 0.01])
    folded = strain_tensors("volumetric", [-0.02, 0.0, 0.02, 0.0, -0.02])
    with pytest.raises(GeometryError, match="monotonic"):
        strain_sweep(at, Exploding(), tensors=folded)
    with pytest.raises(GeometryError, match="npoints"):
        sweep_amplitudes(npoints=0)
    with pytest.raises(GeometryError, match="amplitude"):
        sweep_amplitudes(amplitude=1.5)
    np.testing.assert_allclose(sweep_amplitudes(0.04, 9),
                               np.linspace(-0.04, 0.04, 9))


def test_sweep_result_as_dict_round_trips_json():
    at = bulk_silicon()
    calc = TBCalculator(GSPSilicon(), kpts=2, kT=KT)
    res = strain_sweep(at, calc, np.linspace(-0.03, 0.03, 5), fit="birch",
                       forces=True)
    payload = json.loads(json.dumps(res.as_dict()))
    assert payload["mode"] == "volumetric" and payload["natoms"] == 8
    assert len(payload["points"]) == 5
    assert payload["eos"]["form"] == "birch"
    assert payload["points"][0]["max_force"] is not None


def test_cli_sweep(tmp_path, capsys):
    from repro.cli import main

    p = tmp_path / "si8.xyz"
    write_xyz(str(p), bulk_silicon())
    out_json = tmp_path / "sweep.json"
    assert main(["sweep", str(p), "--kgrid", "2", "--kgrid-reduce",
                 "symmetry", "--kt", "0.1", "--amplitude", "0.03",
                 "--npoints", "5", "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "birch fit" in out and "V0" in out
    # --json writes the Result envelope (ok/value/timings), with the
    # sweep payload under "value"
    data = json.loads(out_json.read_text())
    assert data["ok"] is True
    assert len(data["value"]["points"]) == 5
    assert data["timings"]["seconds"] > 0


def test_service_sweep_op(si8):
    """The service ``sweep`` op answers with the driver's payload, warm
    from the resident calculator, and leaves the resident geometry
    untouched."""
    from repro.service import BatchClient, BatchService

    svc = BatchService(nworkers=1)
    try:
        client = BatchClient(svc)
        client.load("si", si8, calc={"model": "gsp-si", "kT": 0.1,
                                     "kgrid": 2,
                                     "kgrid_reduce": "symmetry"})
        first = client.evaluate("si", forces=False)
        out = client.sweep("si", amplitude=0.03, npoints=5)
        assert out["ok"] and len(out["points"]) == 5
        assert out["eos"]["form"] == "birch"
        # resident geometry unchanged: a re-eval matches the first one
        again = client.evaluate("si", forces=False)
        assert again["energy"] == pytest.approx(first["energy"],
                                                abs=1e-12)
        # bad parameters answer politely, not as a worker crash
        client.raise_on_error = False
        resp = client.request("sweep", structure_id="si", npoints=-3)
        assert not resp["ok"] and "npoints" in resp["error"]["message"]
        assert svc.stats()["lifecycle"]["worker_crashes"] == 0
    finally:
        svc.close()
