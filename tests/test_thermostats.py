"""Thermostats: temperature control, conserved quantities, ramps."""

import numpy as np
import pytest

from repro.errors import MDError
from repro.geometry import bulk_silicon, supercell
from repro.md import (
    BerendsenThermostat, LangevinDynamics, MDDriver, NoseHoover,
    NoseHooverChain, TemperatureRamp, ThermoLog, VelocityRescale,
    maxwell_boltzmann_velocities,
)
from repro.md.ramps import anneal_protocol
from repro.tb import GSPSilicon, TBCalculator


def prepared(t=300.0, seed=1):
    at = bulk_silicon()
    maxwell_boltzmann_velocities(at, t, seed=seed)
    return at


def run_thermostat(integrator, steps=120, seed=2, t0=300.0):
    at = prepared(t0, seed=seed)
    log = ThermoLog()
    md = MDDriver(at, TBCalculator(GSPSilicon()), integrator, observers=[log])
    md.run(steps)
    return at, log


# ---------------------------------------------------------------- Nosé–Hoover
def test_nose_hoover_time_average_on_target():
    """A single NH thermostat on a small near-harmonic cell oscillates
    (the classic ergodicity caveat) but its *time average* must sit on
    the setpoint — the chain variant is tested for tight tracking."""
    at, log = run_thermostat(NoseHoover(dt=1.0, temperature=900.0, tau=30.0),
                             steps=500)
    t_avg = np.mean(log.temperature[100:])
    assert t_avg == pytest.approx(900.0, rel=0.25)


def test_nose_hoover_conserved_quantity():
    at, log = run_thermostat(NoseHoover(dt=1.0, temperature=700.0, tau=40.0),
                             steps=150)
    assert log.conserved_drift() < 2e-3


def test_nose_hoover_explicit_q_mass():
    nh = NoseHoover(dt=1.0, temperature=500.0, q_mass=123.0)
    assert nh.q_mass(bulk_silicon()) == 123.0


def test_nose_hoover_default_q_scales_with_dof():
    nh = NoseHoover(dt=1.0, temperature=500.0, tau=50.0)
    small = bulk_silicon()
    big = supercell(bulk_silicon(), (2, 1, 1))
    assert nh.q_mass(big) == pytest.approx(2 * nh.q_mass(small))


def test_nose_hoover_invalid_params():
    with pytest.raises(MDError):
        NoseHoover(dt=1.0, temperature=0.0)
    with pytest.raises(MDError):
        NoseHoover(dt=1.0, temperature=300.0, tau=-1.0)


def test_nose_hoover_chain_reaches_target():
    at, log = run_thermostat(
        NoseHooverChain(dt=1.0, temperature=900.0, tau=30.0, chain_length=3),
        steps=250)
    assert np.mean(log.temperature[-80:]) == pytest.approx(900.0, rel=0.25)


def test_nose_hoover_chain_conserved():
    at, log = run_thermostat(
        NoseHooverChain(dt=1.0, temperature=600.0, tau=40.0), steps=150)
    assert log.conserved_drift() < 2e-3


def test_nose_hoover_is_the_chain_of_length_one():
    a1, l1 = run_thermostat(NoseHoover(dt=0.7, temperature=500.0, tau=50.0),
                            steps=60, seed=5)
    a2, l2 = run_thermostat(
        NoseHooverChain(dt=0.7, temperature=500.0, tau=50.0, chain_length=1),
        steps=60, seed=5)
    np.testing.assert_array_equal(a2.positions, a1.positions)
    np.testing.assert_array_equal(a2.velocities, a1.velocities)
    np.testing.assert_array_equal(l2.conserved, l1.conserved)


def test_chain_invalid():
    with pytest.raises(MDError):
        NoseHooverChain(dt=1.0, temperature=300.0, chain_length=0)
    # tau = 0 used to construct and NaN the trajectory at step 1
    with pytest.raises(MDError):
        NoseHooverChain(dt=1.0, temperature=300.0, tau=0.0)


# ---------------------------------------------------------------- others
def test_berendsen_approaches_target_monotonically():
    at, log = run_thermostat(
        BerendsenThermostat(dt=1.0, temperature=900.0, tau=25.0), steps=200)
    t = np.asarray(log.temperature)
    assert np.mean(t[-50:]) == pytest.approx(900.0, rel=0.2)


def test_berendsen_tau_shorter_than_dt_rejected():
    with pytest.raises(MDError):
        BerendsenThermostat(dt=2.0, temperature=300.0, tau=1.0)


def test_langevin_samples_target_temperature():
    at, log = run_thermostat(
        LangevinDynamics(dt=1.0, temperature=800.0, friction=0.05, seed=3),
        steps=400)
    assert np.mean(log.temperature[-150:]) == pytest.approx(800.0, rel=0.25)


def test_langevin_deterministic_with_seed():
    a1, l1 = run_thermostat(
        LangevinDynamics(dt=1.0, temperature=500.0, friction=0.02, seed=7),
        steps=30, seed=4)
    a2, l2 = run_thermostat(
        LangevinDynamics(dt=1.0, temperature=500.0, friction=0.02, seed=7),
        steps=30, seed=4)
    np.testing.assert_array_equal(a1.positions, a2.positions)


def test_langevin_invalid():
    with pytest.raises(MDError):
        LangevinDynamics(dt=1.0, temperature=300.0, friction=0.0)


def test_velocity_rescale_pins_temperature():
    at, log = run_thermostat(
        VelocityRescale(dt=1.0, temperature=650.0, interval=1), steps=50)
    np.testing.assert_allclose(log.temperature[5:], 650.0, rtol=1e-6)


def test_velocity_rescale_interval():
    vr = VelocityRescale(dt=1.0, temperature=650.0, interval=5)
    at, log = run_thermostat(vr, steps=20)
    t = np.asarray(log.temperature)
    # at multiples of 5 the temperature is exactly on target
    np.testing.assert_allclose(t[5::5], 650.0, rtol=1e-6)


# ---------------------------------------------------------------- ramps
def test_temperature_ramp_rate():
    nh = NoseHoover(dt=1.0, temperature=1000.0, tau=40.0)
    ramp = TemperatureRamp(nh, t_final=1100.0, rate=0.5)
    assert ramp.steps_remaining() == 200
    at = prepared(1000.0, seed=8)
    md = MDDriver(at, TBCalculator(GSPSilicon()), nh, observers=[ramp])
    md.run(100)
    # after 100 steps at 0.5 K/fs: setpoint 1050
    assert nh.target_temperature == pytest.approx(1050.0, abs=1.0)
    md.run(150)
    assert nh.target_temperature == 1100.0
    assert ramp.done


def test_temperature_ramp_downward():
    nh = NoseHoover(dt=1.0, temperature=1000.0, tau=40.0)
    ramp = TemperatureRamp(nh, t_final=900.0, rate=1.0)
    at = prepared(1000.0, seed=9)
    md = MDDriver(at, TBCalculator(GSPSilicon()), nh, observers=[ramp])
    md.run(120)
    assert nh.target_temperature == 900.0


def test_ramp_invalid():
    nh = NoseHoover(dt=1.0, temperature=300.0)
    with pytest.raises(MDError):
        TemperatureRamp(nh, 500.0, rate=0.0)
    from repro.md import VelocityVerlet
    with pytest.raises(MDError):
        TemperatureRamp(VelocityVerlet(dt=1.0), 500.0)


def test_anneal_protocol_ladder():
    at = prepared(280.0, seed=10)
    nh = NoseHoover(dt=1.0, temperature=300.0, tau=25.0)
    md = MDDriver(at, TBCalculator(GSPSilicon()), nh)
    stages = []
    summaries = anneal_protocol(
        md, temperatures=[400.0, 500.0], hold_steps=15,
        equilibrate_steps=10, rate=5.0,
        stage_callback=lambda name, t, d: stages.append((name, t)))
    assert [s["setpoint"] for s in summaries] == [400.0, 500.0]
    assert ("sampled", 400.0) in stages and ("equilibrated", 500.0) in stages
    assert nh.target_temperature == 500.0
    # ramp observers must not accumulate
    assert all(not isinstance(o, TemperatureRamp) for o, _ in md.observers)
