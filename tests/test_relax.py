"""Structural relaxation: SD, CG, FIRE on TB systems."""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.geometry import Atoms, Cell, bulk_silicon, carbon_ring, rattle
from repro.relax import conjugate_gradient, fire_relax, max_force, steepest_descent
from repro.relax.base import RelaxationResult
from repro.tb import GSPSilicon, TBCalculator, XuCarbon


RELAXERS = [steepest_descent, conjugate_gradient, fire_relax]


@pytest.mark.parametrize("relaxer", RELAXERS)
def test_relaxer_restores_rattled_crystal(relaxer):
    # amplitude small enough that the diamond basin is the only minimum
    # in reach (large rattles legitimately land in defect minima)
    at = rattle(bulk_silicon(), 0.08, seed=21)
    calc = TBCalculator(GSPSilicon())
    e_perfect = TBCalculator(GSPSilicon()).get_potential_energy(bulk_silicon())
    res = relaxer(at, calc, fmax=0.02, max_steps=600)
    assert res.converged, res
    assert res.fmax < 0.02
    assert res.energy == pytest.approx(e_perfect, abs=0.02)


@pytest.mark.parametrize("relaxer", RELAXERS)
def test_relaxer_monotone_energy_history(relaxer):
    at = rattle(bulk_silicon(), 0.1, seed=22)
    res = relaxer(at, TBCalculator(GSPSilicon()), fmax=0.05, max_steps=300)
    e = np.asarray(res.energy_history)
    # SD and CG are strictly monotone; FIRE may overshoot transiently but
    # must end below the start
    if relaxer is not fire_relax:
        assert np.all(np.diff(e) <= 1e-10)
    assert e[-1] < e[0]


@pytest.mark.parametrize("relaxer", RELAXERS)
def test_relaxer_minimises_the_free_energy_at_finite_kt(relaxer):
    """At kT > 0 the forces are −∇F: the objective the line searches
    compare — and report — is the free energy, not E."""
    at = rattle(bulk_silicon(), 0.1, seed=22)
    calc = TBCalculator(GSPSilicon(), kT=0.3)
    res = relaxer(at, calc, fmax=0.02, max_steps=600)
    assert res.converged, res
    assert res.energy == calc.get_free_energy(at)
    assert res.energy < calc.get_potential_energy(at) - 0.05
    if relaxer is not fire_relax:
        assert np.all(np.diff(res.energy_history) <= 1e-10)


def test_cg_faster_than_sd():
    at1 = rattle(bulk_silicon(), 0.1, seed=23)
    at2 = at1.copy()
    r_sd = steepest_descent(at1, TBCalculator(GSPSilicon()), fmax=0.02,
                            max_steps=800)
    r_cg = conjugate_gradient(at2, TBCalculator(GSPSilicon()), fmax=0.02,
                              max_steps=800)
    assert r_cg.converged and r_sd.converged
    assert r_cg.iterations <= r_sd.iterations


def test_relax_respects_fixed_atoms():
    at = rattle(bulk_silicon(), 0.1, seed=24)
    at.fixed[0] = True
    pinned = at.positions[0].copy()
    res = conjugate_gradient(at, TBCalculator(GSPSilicon()), fmax=0.03,
                             max_steps=400)
    np.testing.assert_array_equal(at.positions[0], pinned)
    assert res.converged


def test_relax_carbon_ring_bond_length():
    """C6 ring relaxes to the cumulenic TB bond length (~1.3 Å)."""
    ring = carbon_ring(6, bond=1.50)
    res = fire_relax(ring, TBCalculator(XuCarbon()), fmax=0.02, max_steps=800)
    assert res.converged
    from repro.neighbors import neighbor_list

    nl = neighbor_list(ring, 1.8)
    assert nl.n_pairs == 6
    assert 1.2 < nl.distances.mean() < 1.5


def test_si_dimer_bond_length():
    """GSP Si2 dimer relaxes to ≈ 2.2–2.5 Å."""
    at = Atoms(["Si", "Si"], [[0, 0, 0], [2.6, 0, 0]],
               cell=Cell.cubic(20, pbc=False))
    res = conjugate_gradient(at, TBCalculator(GSPSilicon()), fmax=0.01,
                             max_steps=300)
    assert res.converged
    d = at.distance(0, 1, mic=False)
    assert 2.1 < d < 2.6


def test_max_force_helper():
    f = np.array([[1.0, 0, 0], [0, 2.0, 0]])
    assert max_force(f) == 2.0
    fixed = np.array([False, True])
    assert max_force(f, fixed) == 1.0
    assert max_force(np.zeros((0, 3))) == 0.0


def test_nonconvergence_reported_not_raised_by_default():
    at = rattle(bulk_silicon(), 0.1, seed=25)
    res = steepest_descent(at, TBCalculator(GSPSilicon()), fmax=1e-10,
                           max_steps=3)
    assert isinstance(res, RelaxationResult)
    assert not res.converged


def test_nonconvergence_raises_when_requested():
    at = rattle(bulk_silicon(), 0.1, seed=26)
    with pytest.raises(ConvergenceError):
        conjugate_gradient(at, TBCalculator(GSPSilicon()), fmax=1e-12,
                           max_steps=2).require_converged()


def test_already_converged_returns_immediately():
    at = bulk_silicon()
    res = conjugate_gradient(at, TBCalculator(GSPSilicon()), fmax=0.05)
    assert res.converged
    assert res.iterations == 0


def test_result_repr():
    at = bulk_silicon()
    res = fire_relax(at, TBCalculator(GSPSilicon()), fmax=0.05)
    assert "converged" in repr(res)
