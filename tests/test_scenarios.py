"""Scenario registry, parameter schemas, and per-scenario physics runs.

Every scenario runs here against the cheap classical SW baseline
through an in-process batch service — the point is the scenario
*contract* (params validated, metrics populated, scratch structures
cleaned up), not TB-grade physics, which the analysis tests own.  The
vacancy runs on finite-kT GSP silicon instead: the SW vacancy cell is
already at rest, so relaxing it would exercise nothing.
"""

from __future__ import annotations

import pytest

from repro.errors import CampaignError, ElectronicError, ServiceError
from repro.geometry import bulk_silicon
from repro.scenarios import (
    ParamSpec, ScenarioResult, StructureHandle, available_scenarios,
    get_scenario, register_scenario, scenarios_by_tag,
)
from repro.scenarios.base import Scenario
from repro.service import BatchClient, BatchService
from repro.tb import TBCalculator

SW = {"model": "sw-si"}
TB = {"model": "gsp-si", "kT": 0.1}


@pytest.fixture(scope="module")
def svc():
    service = BatchService(nworkers=2)
    yield service
    service.close()


@pytest.fixture(scope="module")
def client(svc):
    return BatchClient(svc)


@pytest.fixture(scope="module")
def si_handle(client):
    at = bulk_silicon()
    client.load("scn-si", at, calc=SW)
    return StructureHandle(structure_id="scn-si", atoms=at, calc_spec=SW)


@pytest.fixture(scope="module")
def tb_handle(client):
    at = bulk_silicon()
    client.load("scn-tb", at, calc=TB)
    return StructureHandle(structure_id="scn-tb", atoms=at, calc_spec=TB)


def no_scratch_left(client) -> bool:
    return all("::" not in s for s in client.stats()["structures"])


# -- registry --------------------------------------------------------------

def test_registry_has_the_core_scenarios():
    names = available_scenarios()
    for name in ("eos", "vacancy", "elastic", "phonons", "melt-quench"):
        assert name in names


def test_get_scenario_suggests_on_typo():
    with pytest.raises(CampaignError, match="did you mean 'eos'"):
        get_scenario("eoss")
    with pytest.raises(CampaignError, match="unknown scenario"):
        get_scenario("nonexistent")


def test_scenarios_by_tag():
    assert "eos" in scenarios_by_tag("static")
    assert "melt-quench" in scenarios_by_tag("md")
    assert scenarios_by_tag("no-such-tag") == ()


def test_register_requires_a_name():
    with pytest.raises(CampaignError, match="has no name"):
        @register_scenario
        class Nameless(Scenario):
            pass


# -- parameter schemas -----------------------------------------------------

def test_param_resolution_defaults_and_conversion():
    eos = get_scenario("eos")
    params = eos.resolve_params({"npoints": "9"})
    assert params["npoints"] == 9 and isinstance(params["npoints"], int)
    assert params["amplitude"] == 0.04          # default fills in
    assert params["mode"] == "volumetric"


def test_param_unknown_name_rejected_with_suggestion():
    eos = get_scenario("eos")
    with pytest.raises(CampaignError, match="did you mean 'npoints'"):
        eos.resolve_params({"npoint": 5})


def test_param_choices_enforced():
    eos = get_scenario("eos")
    with pytest.raises(CampaignError, match="must be one of"):
        eos.resolve_params({"mode": "sideways"})


def test_param_bad_type_rejected():
    eos = get_scenario("eos")
    with pytest.raises(CampaignError, match="must be int"):
        eos.resolve_params({"npoints": "seven"})


def test_param_required_sentinel():
    from repro.scenarios.base import _REQUIRED

    spec = ParamSpec("knob", float, default=_REQUIRED)
    with pytest.raises(CampaignError, match="required"):
        spec.resolve({}, "demo")
    assert spec.resolve({"knob": 2}, "demo") == 2.0


def test_describe_params_schema_rows():
    rows = get_scenario("eos").describe_params()
    by_name = {r["name"]: r for r in rows}
    assert by_name["mode"]["choices"] == ["volumetric", "uniaxial", "shear"]
    assert by_name["npoints"]["type"] == "int"
    assert not by_name["npoints"]["required"]


# -- scenario runs (classical SW, in-process service) ----------------------

def test_eos_scenario(client, si_handle):
    eos = get_scenario("eos")
    res = eos.run(client, si_handle,
                  eos.resolve_params({"npoints": 5, "amplitude": 0.03}))
    assert isinstance(res, ScenarioResult)
    assert res.metrics["npoints"] == 5
    # SW silicon bulk modulus ≈ 101.4 GPa (Stillinger–Weber literature)
    assert res.metrics["b0_gpa"] == pytest.approx(101.5, abs=3.0)
    assert res.value["eos"]["form"] == "birch"


def test_eos_scenario_fit_none_has_no_eos_metrics(client, si_handle):
    eos = get_scenario("eos")
    res = eos.run(client, si_handle,
                  eos.resolve_params({"npoints": 5, "fit": "none"}))
    assert "b0_gpa" not in res.metrics and res.metrics["npoints"] == 5


def test_vacancy_scenario_cleans_up_scratch(client, tb_handle):
    vac = get_scenario("vacancy")
    unrelaxed = vac.run(client, tb_handle, vac.resolve_params(None))
    assert "converged" not in unrelaxed.metrics
    res = vac.run(client, tb_handle,
                  vac.resolve_params({"relax_steps": 10}))
    # CG on the remote scratch load, to cli relax's fmax of 0.05 eV/Å
    assert res.metrics["converged"] is True
    assert res.metrics["iterations"] >= 1
    assert res.metrics["fmax_final"] < 0.05
    # relaxation can only lower the formation energy
    assert 0.0 < res.metrics["formation_ev"] \
        <= unrelaxed.metrics["formation_ev"]
    assert res.value["natoms_defect"] == 7
    # the scratch structure was unloaded — only the resident ones remain
    assert no_scratch_left(client)


def test_vacancy_scenario_unloads_when_a_trial_fails(client, tb_handle,
                                                     monkeypatch):
    """A CG trial eval that raises on the worker comes back as a typed
    error, and the scratch defect cell is still unloaded."""
    real, natoms = TBCalculator.compute, []

    def compute(self, atoms, forces=True):
        natoms.append(len(atoms))
        if natoms.count(7) == 2:        # the defect cell's first trial
            raise ElectronicError("injected failure")
        return real(self, atoms, forces=forces)

    monkeypatch.setattr(TBCalculator, "compute", compute)
    vac = get_scenario("vacancy")
    with pytest.raises(ServiceError, match="ElectronicError.*injected"):
        vac.run(client, tb_handle, vac.resolve_params({"relax_steps": 10}))
    assert no_scratch_left(client)


def test_elastic_scenario(client, si_handle):
    el = get_scenario("elastic")
    res = el.run(client, si_handle, el.resolve_params({"delta": 0.004}))
    # SW-Si literature values: C11=151.4, C12=76.4, C44=56.4 GPa
    assert res.metrics["c11_gpa"] == pytest.approx(151.4, abs=4.0)
    assert res.metrics["c12_gpa"] == pytest.approx(76.4, abs=4.0)
    assert res.metrics["c44_gpa"] == pytest.approx(56.4, abs=4.0)
    assert res.metrics["born_stable"] is True


def test_phonons_scenario(client, si_handle):
    ph = get_scenario("phonons")
    res = ph.run(client, si_handle, ph.resolve_params(None))
    assert res.metrics["n_imaginary"] == 0
    assert res.metrics["dynamically_stable"] is True
    assert 10.0 < res.metrics["nu_max_thz"] < 25.0
    assert res.metrics["asr_violation"] < 1e-8
    freqs = res.value["frequencies_thz"]
    assert len(freqs) == 3 * len(si_handle.atoms)
    assert freqs == sorted(freqs)


def test_melt_quench_scenario(client, si_handle):
    mq = get_scenario("melt-quench")
    res = mq.run(client, si_handle, mq.resolve_params(
        {"melt_steps": 30, "quench_steps": 30, "sample_interval": 5,
         "melt_temperature": 3000.0, "quench_temperature": 300.0}))
    # g(r) first peak of (disordered) Si stays near the bond length
    assert res.metrics["first_peak_aa"] == pytest.approx(2.35, abs=0.4)
    assert res.metrics["nsamples"] >= 6
    assert res.metrics["final_temperature_k"] > 0
    assert "melt_s" in res.timings and "quench_s" in res.timings
    # scratch structure unloaded here too
    assert all(not s.startswith("scn-si::")
               for s in client.stats()["structures"])
