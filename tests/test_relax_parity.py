"""The one relaxation loop: parity with the per-relaxer loops it
replaced, the structural guard that keeps it one, one solve per trial
point, one history convention and failed-trial rollback.

``tests/golden/relax_parity.json`` was recorded at the last commit with
a hand-typed loop per relaxer (``tests/golden/regen_relax_parity.py`` —
regenerate only for a deliberate relaxer change).
"""

from __future__ import annotations

import ast
import json
import pathlib

import numpy as np
import pytest

import repro.relax
from repro.errors import ElectronicError
from repro.tb import GSPSilicon, TBCalculator
from tests.golden.regen_relax_parity import (
    CASES, RELAXERS, case_key, run_case, si8,
)
from tests.helpers import FailsOnce

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "relax_parity.json").read_text())


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("relaxer", list(RELAXERS))
def test_relaxation_matches_parity_record(relaxer, case):
    got, want = run_case(relaxer, case), GOLDEN["cases"][case_key(relaxer, case)]
    for key in ("converged", "iterations", "n_history"):
        assert got[key] == want[key], key
    # FIRE never priced a point twice, so its dense walks are the parent's
    # bit for bit; SD/CG lost the duplicate solve at each accepted point,
    # and the linscale walk moved by 2.8e-17 Å with the region kernel's
    # rounding (core-row iterates, energy moments from the moments)
    bitwise = relaxer == "fire" and "linscale" not in case
    atol = 0.0 if bitwise else GOLDEN["settings"]["atol"]
    for key in ("positions", "energy"):
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=atol,
                                   err_msg=key)


def test_minimise_is_the_only_loop():
    """Only ``minimise`` prices a point, and only through
    ``energy_and_forces`` — no relaxer solves behind its back."""
    callers = set()
    for path in pathlib.Path(repro.relax.__path__[0]).glob("*.py"):
        source = path.read_text()
        assert "get_free_energy" not in source, path.name
        assert "get_forces" not in source, path.name
        for func in ast.parse(source).body:
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "energy_and_forces"
                    for node in ast.walk(func)):
                callers.add(func.name)
    assert callers == {"minimise"}
    assert "minimise" not in repro.relax.__all__


class Recording(FailsOnce):
    """Never fails; remembers the ``forces`` flag of every ``compute``."""

    def __init__(self, calc):
        super().__init__(calc, fail_on=0)
        self.flags = []

    def compute(self, atoms, forces=True):
        self.flags.append(forces)
        return super().compute(atoms, forces=forces)


@pytest.mark.parametrize("relaxer", list(RELAXERS))
def test_one_solve_per_trial_point(relaxer):
    """solves == 1 + trials, each a ``compute(forces=True)`` (the parent
    paid 60 for SD's 34 points and 51 for CG's)."""
    calc = Recording(TBCalculator(GSPSilicon()))
    res = RELAXERS[relaxer](si8(), calc, fmax=0.02)
    assert res.converged
    # SD and FIRE try one point per iteration; CG's 17 line searches try 33
    want = 34 if relaxer == "cg" else len(res.energy_history)
    assert calc.calls == want
    assert all(calc.flags)


@pytest.mark.parametrize("relaxer", list(RELAXERS))
def test_history_has_one_entry_per_iteration(relaxer):
    res = RELAXERS[relaxer](si8(), TBCalculator(GSPSilicon()), fmax=1e-10,
                            max_steps=7)
    assert not res.converged and res.iterations == 7
    assert len(res.energy_history) == len(res.fmax_history) == 8


def test_failed_line_search_is_an_iteration_like_any_other():
    """CG used to skip the history entry of an iteration whose line search
    accepted nothing (SD always recorded its rejected iterations)."""
    atoms = si8()
    start = atoms.positions.copy()
    res = repro.relax.conjugate_gradient(
        atoms, TBCalculator(GSPSilicon()), fmax=1e-10, max_steps=4,
        step0=1.0, max_backtracks=1)
    assert len(res.energy_history) == res.iterations + 1 == 5
    # the first 1 Å trial overshoots: nothing accepted, nothing moved
    assert res.energy_history[1] == res.energy_history[0]
    assert res.energy_history[-1] < res.energy_history[0]
    assert not np.array_equal(atoms.positions, start)


# --------------------------------------------------------------- failed trial
def last_accepted_point(relaxer, fail_on: int):
    """End of the longest uninterrupted run that needs fewer than
    *fail_on* solves: where a run failing its *fail_on*-th must stand."""
    best = None
    for budget in range(fail_on):
        atoms, calc = si8(), Recording(TBCalculator(GSPSilicon()))
        res = relaxer(atoms, calc, fmax=1e-10, max_steps=budget)
        if calc.calls >= fail_on:
            break
        best = atoms.positions, res.energy_history[-1]
    return best


@pytest.mark.parametrize("relaxer", list(RELAXERS))
def test_failed_trial_is_not_a_displaced_structure(relaxer):
    """ROADMAP 5(iii): a raising trial solve leaves the atoms on the last
    accepted point, and relaxing again from there converges."""
    relax = RELAXERS[relaxer]
    atoms = si8()
    calc = FailsOnce(TBCalculator(GSPSilicon()), fail_on=6)
    with pytest.raises(ElectronicError, match="injected"):
        relax(atoms, calc, fmax=0.02)
    positions, energy = last_accepted_point(relax, fail_on=6)
    np.testing.assert_array_equal(atoms.positions, positions)
    assert TBCalculator(GSPSilicon()).get_free_energy(atoms) == \
        pytest.approx(energy, abs=1e-9)
    assert relax(atoms, calc, fmax=0.02).converged
