"""The one time step: parity with the per-integrator ``step`` bodies it
replaced, the structural guard that keeps it one, and failed-step
restore.

``tests/golden/md_parity.json`` was recorded at the last commit with a
hand-typed ``step`` per integrator (``tests/golden/regen_md_parity.py``
— regenerate only for a deliberate integrator change).
"""

from __future__ import annotations

import importlib
import inspect
import json
import pathlib
import pkgutil

import numpy as np
import pytest

import repro.md
from repro.errors import ElectronicError
from repro.md import MDDriver
from repro.tb import GSPSilicon, TBCalculator
from tests.golden.regen_md_parity import (
    INTEGRATORS, case_key, prepared_atoms, run_case,
)
from tests.helpers import FailsOnce

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "md_parity.json").read_text())


@pytest.mark.parametrize("fixed", [False, True], ids=["free", "fixed"])
@pytest.mark.parametrize("name", list(INTEGRATORS))
def test_trajectory_matches_parity_record(name, fixed):
    settings = GOLDEN["settings"]
    got = run_case(name, settings["dt"], settings["steps"], fixed)
    for key, want in GOLDEN["cases"][case_key(name, fixed)].items():
        np.testing.assert_allclose(got[key], want, rtol=0,
                                   atol=settings["atol"], err_msg=key)


def test_integrator_is_the_only_class_defining_step():
    owners = set()
    for info in pkgutil.iter_modules(repro.md.__path__):
        module = importlib.import_module(f"repro.md.{info.name}")
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and "step" in vars(cls):
                owners.add(cls_name)
    assert owners == {"Integrator"}


# ---------------------------------------------------------------- failed step
def snapshot(atoms, integrator) -> dict:
    snap = {"positions": atoms.positions.copy(),
            "velocities": atoms.velocities.copy(),
            "forces": integrator.forces.copy(),
            "nsteps": integrator.nsteps}
    for name in ("xi", "v_xi"):
        if hasattr(integrator, name):
            snap[name] = getattr(integrator, name).copy()
    if hasattr(integrator, "rng"):
        snap["rng"] = integrator.rng.bit_generator.state
    return snap


def assert_same(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)
        else:
            assert a[key] == b[key], key


@pytest.mark.parametrize("name", ["verlet", "chain-3", "langevin"])
def test_failed_step_is_not_a_half_step(name):
    """ROADMAP 5(iii): a raising ``compute`` leaves atoms and integrator
    at their pre-step values, and retrying resumes the uninterrupted
    trajectory bit for bit."""
    ref_atoms = prepared_atoms(fixed=True)
    ref_integ = INTEGRATORS[name](0.7)
    MDDriver(ref_atoms, TBCalculator(GSPSilicon()), ref_integ).run(6)

    atoms = prepared_atoms(fixed=True)
    integ = INTEGRATORS[name](0.7)
    # compute #1 is initialize(), so #4 is the force call of step 3
    md = MDDriver(atoms, FailsOnce(TBCalculator(GSPSilicon()), fail_on=4),
                  integ)
    md.run(2)
    before = snapshot(atoms, integ)
    with pytest.raises(ElectronicError, match="injected"):
        md.run(4)
    assert md.step_count == 2
    assert_same(snapshot(atoms, integ), before)

    md.run(4)
    assert_same(snapshot(atoms, integ), snapshot(ref_atoms, ref_integ))
