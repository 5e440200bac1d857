"""End-to-end integration tests: full workflows across subsystems.

These are miniature versions of the benchmark protocols — small enough
for the unit-test budget, complete enough to exercise geometry → TB → MD
→ analysis in one pass.
"""

import numpy as np
import pytest

from repro.analysis import bond_statistics, radial_distribution, ring_statistics
from repro.analysis.rdf import first_peak
from repro.geometry import bulk_silicon, nanotube, rattle, supercell
from repro.md import (
    MDDriver, NoseHooverChain, ThermoLog, TrajectoryRecorder, VelocityVerlet,
    maxwell_boltzmann_velocities,
)
from repro.relax import conjugate_gradient, fire_relax
from repro.tb import GSPSilicon, TBCalculator, XuCarbon


def test_melt_workflow_disorders_crystal():
    """Heat Si8 far above melting (superheated: the tiny PBC cell needs
    ~4500 K to disorder within the test budget) with NVT: the RDF's crystalline second
    shell washes out while the first peak survives (liquid signature)."""
    at = bulk_silicon()
    maxwell_boltzmann_velocities(at, 4500.0, seed=30)
    calc = TBCalculator(GSPSilicon())
    rec = TrajectoryRecorder()
    md = MDDriver(at, calc, NoseHooverChain(dt=1.0, temperature=4500.0,
                                            tau=25.0),
                  observers=[(rec, 10)])
    md.run(300)
    frames = [rec.trajectory.atoms_at(i)
              for i in range(len(rec.trajectory) - 5, len(rec.trajectory))]
    r, g = radial_distribution(frames, r_max=4.5, nbins=120)
    peak = first_peak(r, g, r_window=(2.0, 3.0))
    assert 2.2 < peak < 2.9                 # bonded shell survives
    disp = np.abs(frames[-1].positions - bulk_silicon().positions).max()
    assert disp > 0.5                       # genuinely disordered


def test_quench_workflow_recovers_fourfold_network():
    """Mild heat + FIRE quench returns a mostly 4-coordinated network."""
    at = rattle(supercell(bulk_silicon(), (2, 1, 1)), 0.1, seed=31)
    calc = TBCalculator(GSPSilicon())
    res = fire_relax(at, calc, fmax=0.05, max_steps=500)
    assert res.converged
    stats = bond_statistics(at, 2.7)
    assert stats["mean_coordination"] == pytest.approx(4.0, abs=0.3)


def test_nanotube_relax_preserves_topology():
    """CG-relax an open (6,0) tube with a frozen base ring: hexagon count
    and tube integrity must survive relaxation."""
    pytest.importorskip("networkx")
    tube = nanotube(6, 0, cells=2, periodic=False)
    z = tube.positions[:, 2]
    tube.fixed[z < z.min() + 0.4] = True    # freeze the bottom ring
    rings_before = ring_statistics(tube, 1.65)
    calc = TBCalculator(XuCarbon())
    res = conjugate_gradient(tube, calc, fmax=0.08, max_steps=300)
    assert res.converged
    rings_after = ring_statistics(tube, 1.65)
    assert rings_after.get(6, 0) >= rings_before.get(6, 0) - 1
    # relaxed edge bonds contract below the ideal graphene value
    stats = bond_statistics(tube, 1.7)
    assert 1.3 < stats["mean_bond_length"] < 1.5


def test_nanotube_short_anneal_stable_at_1000k():
    """The classic observation: at 1000 K the open tube keeps all its
    hexagons over the (short) simulated window."""
    pytest.importorskip("networkx")
    tube = nanotube(6, 0, cells=2, periodic=False)
    z = tube.positions[:, 2]
    tube.fixed[z < z.min() + 0.4] = True
    calc = TBCalculator(XuCarbon())
    conjugate_gradient(tube, calc, fmax=0.15, max_steps=150)
    hex_before = ring_statistics(tube, 1.65).get(6, 0)
    maxwell_boltzmann_velocities(tube, 1000.0, seed=32)
    md = MDDriver(tube, calc,
                  NoseHooverChain(dt=1.0, temperature=1000.0, tau=30.0))
    md.run(120)
    hex_after = ring_statistics(tube, 1.75).get(6, 0)
    assert hex_after >= hex_before - 2


def test_nve_with_verlet_list_reuse_consistent():
    """MD with aggressive skin reuse must track a fresh-list trajectory."""
    at1 = bulk_silicon()
    maxwell_boltzmann_velocities(at1, 500.0, seed=33)
    at2 = at1.copy()
    c1 = TBCalculator(GSPSilicon(), skin=1.0)
    c2 = TBCalculator(GSPSilicon(), skin=0.05)
    MDDriver(at1, c1, VelocityVerlet(dt=1.0)).run(40)
    MDDriver(at2, c2, VelocityVerlet(dt=1.0)).run(40)
    np.testing.assert_allclose(at1.positions, at2.positions, atol=1e-8)


def test_calculator_survives_model_reuse_across_structures():
    """One calculator instance driving relaxation then MD then analysis."""
    calc = TBCalculator(GSPSilicon())
    at = rattle(bulk_silicon(), 0.06, seed=34)
    res = conjugate_gradient(at, calc, fmax=0.05, max_steps=200)
    assert res.converged
    maxwell_boltzmann_velocities(at, 300.0, seed=35)
    log = ThermoLog()
    MDDriver(at, calc, VelocityVerlet(dt=1.0), observers=[log]).run(30)
    assert log.conserved_drift() < 5e-4
