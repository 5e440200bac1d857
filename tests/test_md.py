"""MD: velocity initialisation, NVE conservation/reversibility, driver."""

import numpy as np
import pytest

from repro.errors import MDError
from repro.geometry import bulk_silicon, rattle
from repro.md import (
    MDDriver, ThermoLog, TrajectoryRecorder, VelocityVerlet,
    maxwell_boltzmann_velocities,
)
from repro.md.observers import ProgressPrinter, TrajectoryObserver
from repro.tb import GSPSilicon, TBCalculator
from tests.golden.regen_md_parity import INTEGRATORS


def prepared(t=300.0, seed=1, amp=0.0):
    at = bulk_silicon() if amp == 0 else rattle(bulk_silicon(), amp, seed=seed)
    maxwell_boltzmann_velocities(at, t, seed=seed)
    return at


# ---------------------------------------------------------------- velocities
def test_maxwell_exact_temperature():
    at = prepared(750.0)
    assert at.temperature() == pytest.approx(750.0, rel=1e-10)


def test_maxwell_zero_momentum():
    at = prepared(500.0)
    np.testing.assert_allclose(at.momentum(), 0.0, atol=1e-12)


def test_maxwell_zero_temperature():
    at = bulk_silicon()
    maxwell_boltzmann_velocities(at, 0.0, seed=1)
    np.testing.assert_array_equal(at.velocities, 0.0)


def test_maxwell_deterministic_seed():
    a = prepared(300.0, seed=9)
    b = prepared(300.0, seed=9)
    np.testing.assert_array_equal(a.velocities, b.velocities)


def test_maxwell_fixed_atoms_stay_still():
    at = bulk_silicon()
    at.fixed[:4] = True
    maxwell_boltzmann_velocities(at, 400.0, seed=2)
    np.testing.assert_array_equal(at.velocities[:4], 0.0)
    assert at.temperature() == pytest.approx(400.0, rel=1e-10)


def test_maxwell_negative_t_rejected():
    with pytest.raises(MDError):
        maxwell_boltzmann_velocities(bulk_silicon(), -1.0)


def test_maxwell_all_fixed_rejected():
    at = bulk_silicon()
    at.fixed[:] = True
    with pytest.raises(MDError):
        maxwell_boltzmann_velocities(at, 100.0)


# ---------------------------------------------------------------- NVE
def test_nve_energy_conservation_tight():
    """dt = 1 fs must hold the era's 1-in-10⁴ conservation standard."""
    at = prepared(300.0, seed=4)
    log = ThermoLog()
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=1.0),
                  observers=[log])
    md.run(80)
    assert log.conserved_drift() < 1e-4


def test_nve_smaller_dt_conserves_better():
    drifts = {}
    for dt in (2.0, 0.5):
        at = prepared(400.0, seed=6)
        log = ThermoLog()
        md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=dt),
                      observers=[log])
        md.run(int(40 / dt))
        drifts[dt] = log.conserved_drift()
    assert drifts[0.5] < drifts[2.0]


def test_nve_conserves_free_energy_at_finite_kt():
    """At kT > 0 the forces are −∇F, so F + K is the constant of motion:
    E + K wanders by the T·S swing (0.1 eV on this run), the recorded
    ``conserved`` must not."""
    at = prepared(1500.0, seed=3)
    log = ThermoLog()
    md = MDDriver(at, TBCalculator(GSPSilicon(), kT=0.3),
                  VelocityVerlet(dt=1.0), observers=[log])
    md.run(200)
    assert np.ptp(log.conserved) < 0.01
    assert np.ptp(log.etot) > 0.05
    # epot / etot keep their meaning: the plain energy
    assert log.etot[-1] == pytest.approx(log.epot[-1] + log.ekin[-1])
    assert log.epot[-1] == md.calc.get_potential_energy(at)


def test_nve_time_reversibility():
    """Integrate forward, flip velocities, integrate back: positions must
    return to the start (to roundoff growth)."""
    at = prepared(300.0, seed=7)
    start = at.positions.copy()
    calc = TBCalculator(GSPSilicon())
    md = MDDriver(at, calc, VelocityVerlet(dt=1.0))
    md.run(25)
    at.velocities *= -1.0
    md2 = MDDriver(at, calc, VelocityVerlet(dt=1.0))
    md2.run(25)
    np.testing.assert_allclose(at.positions, start, atol=1e-7)


def test_nve_momentum_conserved():
    at = prepared(600.0, seed=8)
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=1.0))
    md.run(30)
    np.testing.assert_allclose(at.momentum(), 0.0, atol=1e-10)


@pytest.mark.parametrize("name", list(INTEGRATORS))
def test_fixed_atoms_do_not_move(name):
    """The paper's frozen tube end, under every ensemble."""
    at = prepared(800.0, seed=9)
    at.fixed[2] = True
    at.velocities[2] = 0.0
    p0 = at.positions[2].copy()
    frac0 = at.cell.fractional(p0)
    md = MDDriver(at, TBCalculator(GSPSilicon()), INTEGRATORS[name](1.0))
    md.run(20)
    if name == "berendsen-npt":     # the cell breathes and the atom rides it
        np.testing.assert_allclose(at.cell.fractional(at.positions[2]), frac0,
                                   rtol=0, atol=1e-14)
    else:
        np.testing.assert_array_equal(at.positions[2], p0)
    np.testing.assert_array_equal(at.velocities[2], 0.0)


# ---------------------------------------------------------------- driver
def test_driver_records_expected_fields():
    at = prepared(300.0, seed=10)
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=1.0))
    data = md.run(3)
    for key in ("step", "time_fs", "epot", "ekin", "etot", "temperature",
                "conserved", "results"):
        assert key in data
    assert data["step"] == 3
    assert data["time_fs"] == pytest.approx(3.0)


def test_driver_observer_interval():
    at = prepared(300.0, seed=11)
    calls = []
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=1.0),
                  observers=[(lambda s, a, d: calls.append(s), 2)])
    md.run(6)
    assert calls == [0, 2, 4, 6]


def test_driver_blowup_detection():
    at = bulk_silicon()
    # pathological overlap → huge forces
    at.positions[1] = at.positions[0] + [0.2, 0, 0]
    maxwell_boltzmann_velocities(at, 300.0, seed=1)
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=5.0),
                  blowup_temperature=1e5)
    with pytest.raises(MDError, match="blew up"):
        md.run(200)


def test_driver_zero_steps():
    at = prepared(300.0, seed=12)
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=1.0))
    data = md.run(0)
    assert data["step"] == 0


def test_driver_runs_a_calculator_with_only_compute_and_state_report():
    """The driver asks a calculator for ``compute`` and (tolerantly)
    ``state_report`` — nothing else, so a minimal calculator runs."""
    from repro.classical import StillingerWeber

    inner = StillingerWeber()

    class Plain:
        def compute(self, atoms, forces=True):
            return inner.compute(atoms, forces)

        def state_report(self):
            return {"plain": True}

    at = prepared(300.0, seed=15)
    seen = []
    md = MDDriver(at, Plain(), VelocityVerlet(dt=1.0),
                  observers=[lambda s, a, d: seen.append(d)])
    data = md.run(2)
    assert data["step"] == 2 and len(seen) == 3
    assert data["calc_report"] == {"plain": True}
    assert data["step_seconds"] > 0.0


def test_driver_invalid_inputs():
    at = prepared(300.0, seed=13)
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=1.0))
    with pytest.raises(MDError):
        md.run(-1)
    with pytest.raises(MDError):
        md.add_observer(lambda *a: None, interval=0)
    with pytest.raises(MDError):
        VelocityVerlet(dt=0.0)


def test_trajectory_recorder_and_thermolog_consistent():
    at = prepared(300.0, seed=14)
    log = ThermoLog()
    rec = TrajectoryRecorder()
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=1.0),
                  observers=[log, rec])
    md.run(5)
    assert len(rec.trajectory) == 6          # step 0 + 5
    np.testing.assert_allclose(rec.trajectory.temperatures(),
                               log.temperature, atol=1e-12)


def test_xyz_writer_observer(tmp_path):
    at = prepared(300.0, seed=15)
    path = tmp_path / "run.xyz"
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=1.0),
                  observers=[TrajectoryObserver(str(path))])
    md.run(3)
    from repro.geometry.xyz import iread_xyz
    assert len(list(iread_xyz(str(path)))) == 4


def test_progress_printer_output():
    import io

    at = prepared(300.0, seed=16)
    buf = io.StringIO()
    md = MDDriver(at, TBCalculator(GSPSilicon()), VelocityVerlet(dt=1.0),
                  observers=[ProgressPrinter(stream=buf)])
    md.run(2)
    out = buf.getvalue()
    assert "step" in out and "Epot" in out
    assert len(out.splitlines()) == 4        # header + 3 records
