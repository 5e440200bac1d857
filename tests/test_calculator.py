"""TBCalculator façade: caching, modes, getters, phase spans."""

import numpy as np
import pytest

from repro import obs
from repro.errors import ElectronicError, ModelError
from repro.geometry import bulk_silicon, make_vacancy, rattle
from repro.tb import GSPSilicon, NonOrthogonalSilicon, TBCalculator, get_model


def test_results_keys_gamma(si8_rattled):
    res = TBCalculator(GSPSilicon()).compute(si8_rattled)
    for key in ("energy", "band_energy", "repulsive_energy", "forces",
                "virial", "stress", "pressure", "eigenvalues", "occupations",
                "fermi_level", "gap", "homo", "lumo"):
        assert key in res
    assert res["energy"] == pytest.approx(res["band_energy"]
                                          + res["repulsive_energy"])
    assert res["n_orbitals"] == 32


def test_cache_hit_no_recompute(si8_rattled):
    calc = TBCalculator(GSPSilicon())
    with obs.recording() as tracer:
        calc.compute(si8_rattled)
        calc.compute(si8_rattled)
        calc.get_potential_energy(si8_rattled)
    names = [r["name"] for r in tracer.finished()]
    assert names.count("calc.diagonalize") == 1


def test_cache_invalidated_by_position_change(si8_rattled):
    calc = TBCalculator(GSPSilicon())
    e0 = calc.get_potential_energy(si8_rattled)
    si8_rattled.positions[0, 0] += 0.05
    e1 = calc.get_potential_energy(si8_rattled)
    assert e0 != e1


def test_energy_only_then_forces_upgrade(si8_rattled):
    calc = TBCalculator(GSPSilicon())
    e = calc.get_potential_energy(si8_rattled)
    f = calc.get_forces(si8_rattled)      # must trigger the force pass
    assert f.shape == (8, 3)
    assert calc.compute(si8_rattled)["energy"] == pytest.approx(e)


def test_invalidate_clears_cache(si8_rattled):
    calc = TBCalculator(GSPSilicon())
    calc.compute(si8_rattled)
    calc.invalidate()
    assert calc._cache_key is None


def test_negative_kt_rejected():
    with pytest.raises(ElectronicError):
        TBCalculator(GSPSilicon(), kT=-0.1)


def test_gap_of_silicon_positive(si8):
    gap = TBCalculator(GSPSilicon()).get_gap(si8)
    assert gap > 0.5      # Γ-folded silicon is clearly gapped


def test_kpoint_mode_energy_and_forces(si8):
    calc = TBCalculator(GSPSilicon(), kpts=2, kT=0.05)
    res = calc.compute(si8)
    # 2×2×2 MP grid is time-reversal reduced: 4 points carry weight 1/4
    assert res["n_kpoints"] == 4
    f = calc.get_forces(si8)
    assert f.shape == (8, 3)
    # pristine diamond: forces vanish by symmetry
    np.testing.assert_allclose(f, 0.0, atol=1e-10)
    np.testing.assert_allclose(res["forces"].sum(axis=0), 0.0, atol=1e-10)


def test_kpoint_requires_periodic_cell():
    from repro.geometry import Atoms, Cell

    at = Atoms(["Si"], [[0, 0, 0]], cell=Cell.cubic(10, pbc=False))
    with pytest.raises(ElectronicError):
        TBCalculator(GSPSilicon(), kpts=2, kT=0.05).compute(at)


def test_kpoint_zero_t_insulator_filling(si8):
    res = TBCalculator(GSPSilicon(), kpts=2).compute(si8)
    # 32 electrons per cell; Σ w f = 32
    total = float(np.sum(res["weights"] * res["occupations"]))
    assert total == pytest.approx(32.0, abs=1e-9)


def test_kpoint_energy_below_gamma_only(si8):
    """k-sampling lowers the Γ-only band energy estimate for Si (Γ folding
    overweights the zone centre)."""
    e_gamma = TBCalculator(GSPSilicon()).get_potential_energy(si8)
    e_k = TBCalculator(GSPSilicon(), kpts=3, kT=0.02).get_potential_energy(si8)
    assert abs(e_k - e_gamma) > 1e-3     # sampling matters at this size
    assert abs(e_k - e_gamma) / 8 < 1.0  # but stays eV-scale


def test_free_energy_below_energy_with_smearing(si8_rattled):
    calc = TBCalculator(GSPSilicon(), kT=0.3)
    res = calc.compute(si8_rattled)
    assert res["free_energy"] <= res["energy"] + 1e-12
    assert res["entropy"] > 0


def test_nonorthogonal_end_to_end(si8_rattled):
    res = TBCalculator(NonOrthogonalSilicon()).compute(si8_rattled)
    assert np.isfinite(res["energy"])
    assert res["forces"].shape == (8, 3)
    np.testing.assert_allclose(res["forces"].sum(axis=0), 0.0, atol=1e-9)


def test_timer_phases_recorded(si8_rattled):
    """Each phase of a Γ-point evaluation is one ``calc.*`` span."""
    calc = TBCalculator(GSPSilicon())
    with obs.recording() as tracer:
        calc.compute(si8_rattled)
    spans = tracer.finished()
    assert sorted(r["name"] for r in spans) == sorted(
        f"calc.{phase}" for phase in ("neighbors", "hamiltonian",
                                      "diagonalize", "occupations",
                                      "repulsive", "forces"))
    assert all(r["dur"] >= 0.0 for r in spans)


def test_repr_mentions_model_and_mode():
    r1 = repr(TBCalculator(GSPSilicon()))
    assert "gsp-silicon" in r1 and "Γ" in r1
    r2 = repr(TBCalculator(GSPSilicon(), kpts=2, kT=0.1))
    assert "4 k-points" in r2     # 2×2×2 grid, time-reversal reduced


def test_wrong_species_clear_error(c_diamond):
    with pytest.raises(ModelError, match="does not support"):
        TBCalculator(GSPSilicon()).get_potential_energy(c_diamond)


_CONTRACT_STRUCTURES = {
    "si8": lambda: bulk_silicon(),
    # degenerate, partially filled defect levels: the kT=0 row needs the
    # even shell split in the weighted filler
    "si7-vacancy": lambda: make_vacancy(bulk_silicon(), 0),
    "si8-rattled": lambda: rattle(bulk_silicon(), 0.06, seed=123),
}


@pytest.mark.parametrize("kpts,reduce", [(1, "trs"), ((1, 1, 1), "full")])
@pytest.mark.parametrize("model", ["gsp-si", "nonortho-si"])
@pytest.mark.parametrize("kT", [0.0, 0.1])
@pytest.mark.parametrize("structure", sorted(_CONTRACT_STRUCTURES))
def test_gamma_equals_one_point_kgrid(structure, kT, model, kpts, reduce):
    """Γ is the one-point k grid: the real-dtype Γ evaluation and the
    complex H(k=0) evaluation of the same loop agree to round-off."""
    atoms = _CONTRACT_STRUCTURES[structure]()
    ref = TBCalculator(get_model(model), kT=kT).compute(atoms)
    res = TBCalculator(get_model(model), kT=kT, kpts=kpts,
                       kgrid_reduce=reduce).compute(atoms)
    assert res["n_kpoints"] == 1
    for key in ("energy", "free_energy", "forces", "virial"):
        np.testing.assert_allclose(res[key], ref[key], rtol=0, atol=1e-10,
                                   err_msg=key)
