"""The declared contract table (ROADMAP item 4), seven rows so far.

Each row is a physics contract with its tolerance declared once and
checked over every option ``make_calculator`` accepts for the axis it
names — enumerated from :mod:`repro.calculators`, so a new solver is
covered the day it is added.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.calculators import SOLVERS, CalculatorSpec, make_calculator
from repro.geometry import beta_tin_silicon, bulk_silicon, rattle, supercell
from repro.geometry.transform import strain
from repro.linscale.backends import numpy_batched
from repro.relax import RELAXERS
from repro.service import (
    BatchClient, BatchService, RemoteCalculator, SocketClient,
    UnixSocketServer,
)

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


#: eV/atom, eV/Å — foe vs diag at kT 0.2 and order 400: the expansion's
#: tail (max 4.1e-11 eV/Å forces, 8.4e-11 eV/atom virial on β-tin)
FOE_IS_DIAG = 1e-9
#: eV/atom, eV/Å, eV — foe vs linscale whose regions cover the folded
#: cell: one engine under two region rules, differing in summation order
#: only (forces bit-equal at Γ and on the k grid on the default backend;
#: max 2.7e-13, μ on the wedge under ``numpy_loop``)
FOE_IS_LINSCALE = 1e-12
#: case → (structure, k-grid spec fields)
FULL_COVERAGE = {
    "si8-gamma": (lambda: rattle(bulk_silicon(), 0.06, seed=123), {}),
    "betatin8-kgrid2": (lambda: rattle(supercell(beta_tin_silicon(),
                                                 (1, 1, 2)), 0.04, seed=11),
                        {"kgrid": 2}),
    "si8-symmetry": (bulk_silicon, {"kgrid": 2, "kgrid_reduce": "symmetry"}),
}


@pytest.mark.parametrize("case", list(FULL_COVERAGE))
def test_diag_foe_and_linscale_agree_at_full_coverage(case):
    """diag ≡ foe ≡ linscale, once linscale's regions cover the folded
    cell: foe is the region engine on one all-core region, so it equals
    linscale to summation order and diag to expansion accuracy."""
    make_atoms, kgrid = FULL_COVERAGE[case]
    atoms = make_atoms()
    n = len(atoms)
    res = {solver: make_calculator({"solver": solver, "kT": 0.2,
                                    "order": 400, **kgrid}).compute(atoms)
           for solver in ("diag", "foe", "linscale")}
    assert res["linscale"]["region_stats"]["atoms_mean"] == n

    def per_atom(r):
        return {"energy": r["energy"] / n, "free_energy": r["free_energy"] / n,
                "forces": r["forces"], "virial": r["virial"] / n}

    foe = per_atom(res["foe"])
    for other, tol in (("diag", FOE_IS_DIAG), ("linscale", FOE_IS_LINSCALE)):
        for key, want in per_atom(res[other]).items():
            np.testing.assert_allclose(foe[key], want, rtol=0, atol=tol,
                                       err_msg=f"foe vs {other}: {key}")
    assert res["foe"]["fermi_level"] == pytest.approx(
        res["linscale"]["fermi_level"], abs=FOE_IS_LINSCALE)


#: eV/atom, eV/Å, eV/atom, e — the symmetry wedge, whose region engine
#: recurses one region per translation orbit, vs the full grid with every
#: region recursed, on truncated perfect Si64.  The measured maximum
#: over the three points and both backends (energy 4.3e-11, forces
#: 7.5e-12, virial 3.2e-11, populations 3.6e-15) is the wedge's: the
#: parent's unreduced wedge differs from the full grid by the same.
ORBITS_ARE_UNREDUCED = 1e-10
#: strain points: a symmetric cell, a symmetric strain, and one that
#: lowers the point group but keeps every translation
ORBIT_POINTS = {"unstrained": 0.0, "volumetric+1%": 0.01,
                "axial+1%": np.diag([0.0, 0.0, 0.01])}


@pytest.mark.parametrize("backend", ["numpy_batched", "numpy_loop"])
@pytest.mark.parametrize("point", list(ORBIT_POINTS))
def test_orbit_reduced_wedge_is_the_unreduced_full_grid(point, backend):
    """orbit-reduced ≡ unreduced: 32 translations map perfect Si64 onto
    itself, so the wedge solves 2 of its 64 regions and copies the rest;
    energy, forces, virial and populations are the full grid's."""
    atoms = supercell(bulk_silicon(), 2)
    atoms.positions += np.array([0.31, 0.17, 0.52])
    atoms = strain(atoms, ORBIT_POINTS[point])
    n = len(atoms)
    res, orbits = {}, {}
    for reduce in ("symmetry", "full"):
        calc = make_calculator({"solver": "linscale", "kT": 0.3,
                                "order": 120, "kgrid": 2,
                                "kgrid_reduce": reduce, "backend": backend})
        res[reduce] = calc.compute(atoms)
        orbits[reduce] = calc.state_report()["regions"]["orbits"]
    assert orbits == {"symmetry": 2, "full": 64}

    def per_atom(r):
        return {"energy": r["energy"] / n, "forces": r["forces"],
                "virial": r["virial"] / n, "populations": r["populations"]}

    want = per_atom(res["full"])
    for key, got in per_atom(res["symmetry"]).items():
        np.testing.assert_allclose(got, want[key], rtol=0,
                                   atol=ORBITS_ARE_UNREDUCED, err_msg=key)


#: spec field → constructor argument, where the two are spelled differently
CTOR_ARG = {"kgrid": "kpts"}
#: what a spec's "unset" (``None``) is called by a constructor
UNSET_MEANS = {"kgrid_reduce": "trs"}
#: fields that pick or parametrise the engine rather than default it:
#: ``model`` is every constructor's required argument, ``solver`` picks the
#: class, and ``kT`` is a regime — 0 is exact for diag/purification and
#: rejected by the Fermi-operator engines, for which ``make_calculator``
#: substitutes 0.1
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


#: a dense finite-kT spec: relaxing it minimises F, not E
REMOTE_SPEC = {"model": "gsp-si", "kT": 0.1}


def _relax_twice(relaxer, client):
    """The same relaxation standalone and on a service-resident copy."""
    alone, remote = (rattle(bulk_silicon(), 0.06, seed=123)
                     for _ in range(2))
    relax = RELAXERS[relaxer]
    return (relax(alone, make_calculator(REMOTE_SPEC), fmax=0.01,
                  max_steps=40),
            relax(remote, RemoteCalculator(client, "si", atoms=remote,
                                           calc=REMOTE_SPEC),
                  fmax=0.01, max_steps=40))


def _assert_same_relaxation(standalone, remote):
    assert standalone.iterations >= 2
    np.testing.assert_array_equal(remote.atoms.positions,
                                  standalone.atoms.positions)
    for key in ("energy", "energy_history", "fmax_history", "converged",
                "iterations"):
        assert getattr(remote, key) == getattr(standalone, key), key


@pytest.mark.parametrize("relaxer", list(RELAXERS))
def test_relaxing_through_the_service_is_relaxing_standalone(relaxer):
    """A relaxer driving a :class:`RemoteCalculator` — one ``eval`` per
    trial point — takes the very steps it takes on the calculator itself,
    bit for bit: the service needs no relaxation op of its own."""
    service = BatchService(nworkers=1)
    try:
        _assert_same_relaxation(*_relax_twice(relaxer, BatchClient(service)))
    finally:
        service.close()


def test_relaxing_over_the_socket_is_relaxing_standalone(tmp_path):
    """The same row across the JSON-lines wire: floats round-trip
    through ``repr``, so nothing is lost between the processes' views."""
    server = UnixSocketServer(BatchService(nworkers=1),
                              str(tmp_path / "svc.sock"))
    server.start()
    try:
        with SocketClient(server.socket_path) as client:
            _assert_same_relaxation(*_relax_twice("cg", client))
    finally:
        server.stop()


#: the region-FOE solves a warm step walk: a cold step's two passes, then
#: the fused pass — at Γ and on the symmetry wedge of a k grid, whose
#: complex H(k) blocks run as embedded real stacks
BUCKET_CASES = {
    "gamma": {"solver": "linscale", "kT": 0.3, "order": 120,
              "backend": "numpy_batched"},
    "kgrid-symmetry": {"solver": "linscale", "kT": 0.3, "order": 120,
                       "backend": "numpy_batched",
                       "kgrid": 2, "kgrid_reduce": "symmetry"},
}
BUCKET_KEYS = ("energy", "free_energy", "band_energy", "entropy",
               "fermi_level", "forces", "virial", "populations")


def bucket_case(name: str) -> list[dict]:
    """Cold (two-pass) then warm (fused) step of rattled Si64 at the
    default ``r_loc``, which truncates its regions."""
    atoms = rattle(supercell(bulk_silicon(), 2), 0.05, seed=4)
    moved = atoms.copy()
    moved.positions += 0.01 * np.random.default_rng(1).normal(
        size=atoms.positions.shape)
    calc = make_calculator(BUCKET_CASES[name])
    steps = [calc.compute(a) for a in (atoms, moved)]
    assert [r["fastpath"]["mode"] for r in steps] == ["two-pass", "fused"]
    return steps


def _assert_same_bits(got: list[dict], want: list[dict]) -> None:
    for step, (g, w) in enumerate(zip(got, want)):
        for key in BUCKET_KEYS:
            np.testing.assert_array_equal(g[key], w[key],
                                          err_msg=f"{key}, step {step}")


@pytest.mark.parametrize("case", list(BUCKET_CASES))
def test_serial_and_threaded_buckets_agree_bit_for_bit(monkeypatch, case):
    """A solve's buckets drained by one thread or by the caller plus a
    helper give the same bits: each bucket owns its stack and arrays, and
    results land in region order whichever thread ran them."""
    monkeypatch.setattr(numpy_batched, "_usable_cpus", lambda: 1)
    serial = bucket_case(case)
    monkeypatch.setattr(numpy_batched, "_usable_cpus", lambda: 2)
    _assert_same_bits(bucket_case(case), serial)


ONE_CPU_SCRIPT = """
import os, sys, threading
import numpy as np
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from tests.test_contracts import BUCKET_CASES, BUCKET_KEYS, bucket_case
from repro.linscale.backends import numpy_batched

out = {f"{case}/{step}/{key}": res[key] for case in BUCKET_CASES
       for step, res in enumerate(bucket_case(case)) for key in BUCKET_KEYS}
np.savez(sys.argv[1], threads=threading.active_count(),
         pools=numpy_batched._pool.cache_info().currsize, **out)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs an affinity mask")
def test_one_cpu_process_starts_no_helper_and_gives_the_same_bits(tmp_path):
    """Pinned to one CPU, a process never creates the helper pool nor a
    thread, and its numbers are the threaded ones."""
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "one_cpu.npz"
    subprocess.run([sys.executable, "-c", ONE_CPU_SCRIPT, str(out)],
                   cwd=root, check=True, timeout=300,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                       [str(root / "src"), str(root)])))
    got = np.load(out)
    assert got["threads"] == 1 and got["pools"] == 0
    for case in BUCKET_CASES:
        want = bucket_case(case)
        _assert_same_bits([{key: got[f"{case}/{step}/{key}"]
                            for key in BUCKET_KEYS} for step in range(2)],
                          want)
