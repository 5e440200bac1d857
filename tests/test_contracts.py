"""The declared contract table (ROADMAP item 4), three rows so far.

Each row is a physics contract with its tolerance declared once and
checked over every option ``make_calculator`` accepts for the axis it
names — enumerated from :mod:`repro.calculators`, so a new solver is
covered the day it is added.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro.calculators import SOLVERS, CalculatorSpec, make_calculator
from repro.geometry import bulk_silicon, rattle
from repro.relax import RELAXERS

#: eV/Å — forces vs the central difference of the *reported* free energy
FORCE_IS_FREE_ENERGY_GRADIENT = 1e-5


@pytest.mark.parametrize("solver", SOLVERS)
def test_forces_are_the_gradient_of_the_reported_free_energy(solver):
    """F·d ≡ −dF/dx along a random direction d, on rattled Si₈."""
    kT = 0.0 if solver == "purification" else 0.2   # purification is T = 0

    def calc():
        # order 400 converges the expansions to 1e-7 at kT = 0.2; at the
        # default 200 the expanded F and the expanded ρ differ by 3.6e-4
        return make_calculator({"solver": solver, "kT": kT, "order": 400})

    atoms = rattle(bulk_silicon(), 0.06, seed=123)
    d = np.random.default_rng(5).normal(size=atoms.positions.shape)
    d /= np.linalg.norm(d)
    h = 1e-4
    free = []
    for sign in (+1.0, -1.0):
        moved = atoms.copy()
        moved.positions += sign * h * d
        free.append(calc().compute(moved, forces=False)["free_energy"])
    fd = -(free[0] - free[1]) / (2.0 * h)
    analytic = float(np.sum(calc().compute(atoms)["forces"] * d))
    assert abs(analytic) > 0.1
    assert analytic == pytest.approx(fd, abs=FORCE_IS_FREE_ENERGY_GRADIENT)


#: spec field → constructor argument, where the two are spelled differently
CTOR_ARG = {"kgrid": "kpts"}
#: what a spec's "unset" (``None``) is called by a constructor
UNSET_MEANS = {"kgrid_reduce": "trs"}
#: fields that pick or parametrise the engine rather than default it:
#: ``model`` is every constructor's required argument, ``solver`` picks the
#: class (``TBCalculator(solver=)`` is its eigensolver), and ``kT`` is a
#: regime — 0 is exact for diag/purification and rejected by the
#: Fermi-operator engines, for which ``make_calculator`` substitutes 0.1
NOT_A_DEFAULT = {"model", "solver", "kT"}


@pytest.mark.parametrize("solver", SOLVERS)
def test_cli_spec_and_constructor_defaults_agree(solver):
    """CLI ≡ spec ≡ direct constructor: a field left unset means the same
    calculator from ``repro.cli``, ``make_calculator`` and Python (the
    constructors used to say ``order=150`` where the spec says 200)."""
    from repro.cli import _calc_spec, build_parser

    flags = ["energy", "x.xyz", "--solver", solver]
    assert _calc_spec(build_parser().parse_args(flags)) == {"solver": solver}
    ctor = inspect.signature(type(make_calculator({"solver": solver})))
    for f in dataclasses.fields(CalculatorSpec):
        arg = ctor.parameters.get(CTOR_ARG.get(f.name, f.name))
        if arg is None or f.name in NOT_A_DEFAULT:
            continue
        want = UNSET_MEANS.get(f.name, f.default)
        assert arg.default == want, \
            f"{solver}: constructor {arg} but CalculatorSpec.{f.name} = {want!r}"


#: eV — a relaxer's reported objective vs a *cold* calculator's free energy
#: at the final point (warm and cold expansions differ by ~3e-5 at order 200)
RELAXED_ENERGY_IS_FREE_ENERGY = 1e-4
FINITE_KT_SOLVERS = [s for s in SOLVERS if s != "purification"]   # T = 0 only


@pytest.mark.parametrize("relaxer", list(RELAXERS))
@pytest.mark.parametrize("solver", FINITE_KT_SOLVERS)
def test_relaxers_minimise_the_free_energy(solver, relaxer):
    """At kT > 0 every relaxer reports — and SD/CG's line searches never
    raise — the free energy F, whichever engine supplies it."""
    spec = {"solver": solver, "kT": 0.2}
    atoms = rattle(bulk_silicon(), 0.06, seed=123)
    res = RELAXERS[relaxer](atoms, make_calculator(spec), fmax=1e-10,
                            max_steps=8)
    cold = make_calculator(spec).compute(atoms, forces=False)
    assert cold["energy"] - cold["free_energy"] > 100 * RELAXED_ENERGY_IS_FREE_ENERGY
    assert res.energy == pytest.approx(cold["free_energy"],
                                       abs=RELAXED_ENERGY_IS_FREE_ENERGY)
    assert res.energy_history[-1] < res.energy_history[0]
    if relaxer != "fire":                      # FIRE may overshoot transiently
        assert np.all(np.diff(res.energy_history) <= 1e-10)
