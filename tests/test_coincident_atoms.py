"""Coincident and near-coincident atoms are a typed input error.

Two atoms on one site have no tight-binding bond: the radial functions
diverge there, so a solve returns NaN at 0 Å and a huge but finite
energy just above it.  Every TB calculator reads its pair distances
through one bond table (:mod:`repro.tb.bonds`), which refuses such a
pair with a :class:`~repro.errors.GeometryError` naming it — in
process, and through the batch service without costing it a worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calculators import make_calculator
from repro.errors import GeometryError
from repro.geometry import bulk_silicon
from repro.service import BatchClient, BatchService
from repro.tb.bonds import MIN_PAIR_DISTANCE

SOLVERS = {"diag": 0.2, "foe": 0.2, "linscale": 0.2, "purification": 0.0}


def si8_with_atom_1_at(offset: float):
    atoms = bulk_silicon()
    atoms.positions[1] = atoms.positions[0] + [offset, 0.0, 0.0]
    return atoms


@pytest.mark.parametrize("offset", [0.0, 1e-9, 0.9 * MIN_PAIR_DISTANCE])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_coincident_atoms_raise_a_geometry_error(solver, offset):
    calc = make_calculator({"model": "gsp-si", "solver": solver,
                            "kT": SOLVERS[solver]})
    with pytest.raises(GeometryError, match=r"atoms 0 and 1 are .* Å apart"):
        calc.compute(si8_with_atom_1_at(offset), forces=True)


def test_a_pair_at_the_floor_is_still_a_bond():
    """The floor refuses coincident atoms only: a pair just above it
    solves (to a large, finite energy)."""
    calc = make_calculator({"model": "gsp-si", "solver": "diag", "kT": 0.2})
    res = calc.compute(si8_with_atom_1_at(1.01 * MIN_PAIR_DISTANCE),
                       forces=True)
    assert np.isfinite(res["energy"]) and np.isfinite(res["forces"]).all()


@pytest.mark.parametrize("solver", ["diag", "linscale"])
def test_service_answers_coincident_atoms_and_keeps_its_worker(solver):
    spec = {"model": "gsp-si", "solver": solver, "kT": 0.2}
    atoms = bulk_silicon()
    with BatchService(nworkers=1) as service:
        client = BatchClient(service, raise_on_error=False)
        assert client.load("si", atoms, calc=spec)["ok"] is True
        bad = client.request("eval", structure_id="si", forces=True,
                             positions=si8_with_atom_1_at(0.0).positions)
        assert bad["ok"] is False
        assert bad["error"]["type"] == "GeometryError"
        assert "atoms 0 and 1" in bad["error"]["message"]
        good = client.request("eval", structure_id="si", forces=True,
                              positions=atoms.positions)
        assert good["ok"] is True
        want = make_calculator(spec).compute(atoms, forces=True)
        assert good["energy"] == want["energy"]
        assert service.stats()["lifecycle"]["worker_crashes"] == 0
