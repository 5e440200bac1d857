"""The one bond table: bit parity with the per-consumer bond loops it
replaced, the call counts that keep a warm step one bond pass, the
pattern's rebuild triggers, and a solver failure after the table is
built.

``tests/golden/tb_eval_parity.json`` was recorded at the last commit
whose Hamiltonian build, band forces and repulsion each derived the bonds
on their own (``tests/golden/regen_tb_eval_parity.py`` — regenerate only
for a deliberate change of the TB numbers).
"""

from __future__ import annotations

import collections
import json
import pathlib

import numpy as np
import pytest

import repro.tb.bonds
from repro.errors import ElectronicError
from repro.tb import GSPSilicon, HarrisonModel, TBCalculator
from tests.golden.regen_tb_eval_parity import (
    CASES, KEYS, ch_cluster, rattled_si8, run_case, walk,
)
from tests.helpers import FailsOnce

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "tb_eval_parity.json")
    .read_text())


def walk_steps(case: str) -> list[np.ndarray]:
    """Positions of a case's cold evaluation and its warm walk."""
    make_atoms, _, (mover, direction), jitter = CASES[case]
    atoms = make_atoms()
    return [atoms.positions.copy()] + walk(atoms, mover, direction, jitter)


@pytest.mark.parametrize("case", list(CASES))
def test_evaluation_matches_parity_record(case):
    want = GOLDEN["cases"][case]
    # the walk holds what the record says it does: one Verlet rebuild
    # after the cold one, and a bond crossing the cutoff between rebuilds
    rebuilt, n_pairs = want["rebuilt"], want["n_pairs"]
    assert rebuilt[0] and sum(rebuilt[1:]) == 1
    assert any(n != prev and not again for prev, n, again
               in zip(n_pairs, n_pairs[1:], rebuilt[1:]))
    got = run_case(case)
    assert got["rebuilt"] == rebuilt and got["n_pairs"] == n_pairs
    for key in KEYS:
        np.testing.assert_array_equal(np.asarray(got[key]),
                                      np.asarray(want[key]), err_msg=key)


# --------------------------------------------------------------- call counts
def count_calls(monkeypatch, owner, names, calls) -> None:
    """Route ``owner.<name>`` through a counter, for each of *names*."""
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("system", ["gsp-si8", "harrison-ch"])
def test_warm_step_derives_each_bond_once(monkeypatch, system):
    """A warm Γ evaluation with forces evaluates every radial function
    once per species group and re-derives nothing structural — the
    per-consumer loops the table replaced called ``model.hopping`` twice
    per group, ``pair_species_groups`` 3×, ``orbital_offsets`` 2× and
    ``check_species`` 34× (8-atom silicon)."""
    if system == "gsp-si8":
        atoms, model = rattled_si8(), GSPSilicon()
    else:
        atoms, model = ch_cluster(), HarrisonModel()
    calc = TBCalculator(model, kT=0.1)
    calc.compute(atoms)
    atoms.positions[1] += 0.01
    calls: collections.Counter = collections.Counter()
    count_calls(monkeypatch, model,
                ("hopping", "pair_repulsion", "embedding", "check_species",
                 "norb", "onsite", "n_electrons", "total_electrons"), calls)
    count_calls(monkeypatch, repro.tb.bonds,
                ("pair_species_groups", "orbital_offsets"), calls)
    calc.compute(atoms, forces=True)
    groups = len(calc._bond_cache.groups)
    # C–C, C–H, H–C and H–H: a species pair is ordered along the half list
    assert groups == (1 if system == "gsp-si8" else 4)
    assert calls["hopping"] == calls["pair_repulsion"] == groups
    assert calls["embedding"] == len({*atoms.symbols})
    assert calls["check_species"] <= 1
    # (Harrison's hopping asks norb itself, to zero the s-only channels)
    for name in ("pair_species_groups", "orbital_offsets", "onsite",
                 "n_electrons", "total_electrons") + \
            (("norb",) if system == "gsp-si8" else ()):
        assert calls[name] == 0, name
    assert calc.state_report()["bonds"] == {"pattern_builds": 1,
                                            "pattern_reuses": 1}


# ----------------------------------------------------------- rebuild triggers
def pairs_of(calc) -> tuple[bytes, bytes]:
    nl = calc._vlist._list
    return nl.i.tobytes(), nl.j.tobytes()


@pytest.mark.parametrize("case", ["gsp-si8/kt0", "xwch-c8/kt0"])
def test_pattern_rebuilds_when_the_pairs_move(case):
    """Along a walk the pattern is rebuilt exactly on the steps where the
    Verlet list rebuilt or the filtered pair set changed, and reused on
    every other."""
    atoms = CASES[case][0]()
    calc = CASES[case][1]()
    builds, prev = [], None
    for pos in walk_steps(case):
        atoms.positions[:] = pos
        before = calc.state_report()["bonds"]["pattern_builds"]
        calc.compute(atoms)
        builds.append(calc.state_report()["bonds"]["pattern_builds"] - before)
        expected = calc._vlist.last_update_rebuilt or pairs_of(calc) != prev
        assert builds[-1] == int(expected)
        prev = pairs_of(calc)
    report = calc.state_report()["bonds"]
    assert report["pattern_builds"] == sum(builds) >= 3
    assert report["pattern_reuses"] == len(builds) - sum(builds)


def test_pattern_rebuilds_on_species_atom_count_and_invalidate():
    atoms = ch_cluster()
    calc = TBCalculator(HarrisonModel(), kT=0.1)

    def step():
        calc.compute(atoms)
        return calc.state_report()["bonds"]["pattern_builds"]

    assert step() == 1
    atoms.positions[2] += 0.003                 # the same pairs: reused
    assert step() == 1
    assert step() == 1                          # a cache hit: no step at all
    # a rigid shift beyond half the skin rebuilds the Verlet list, even
    # though the pairs come back the same
    pairs = pairs_of(calc)
    atoms.positions[:] += 0.3
    assert step() == 2
    assert calc._vlist.last_update_rebuilt and pairs_of(calc) == pairs
    # H → C at an unchanged geometry: same pairs, new orbital layout
    atoms.set_symbol(4, "C")
    assert step() == 3
    assert calc.compute(atoms)["energy"] == \
        TBCalculator(HarrisonModel(), kT=0.1).compute(atoms)["energy"]
    calc.invalidate()
    assert step() == 4
    atoms = atoms.select([True] * 5 + [False])  # one atom fewer
    assert step() == 5
    assert calc.state_report()["bonds"]["pattern_reuses"] == 1


# ------------------------------------------------------------ failed solve
FAIL_STEPS = {"reuse": 5, "crossing": 10, "verlet-rebuild": 13}


@pytest.mark.parametrize("kind", list(FAIL_STEPS))
def test_solver_failure_after_the_table_is_built(kind):
    """ROADMAP 5(iii), calculator half: the eigensolver raises after the
    step's bond table — on a crossing step together with a new pattern —
    was built.  The retry at the same geometry and every later step are
    bit-equal to a calculator that never failed.  On a Verlet rebuild
    step the retry takes the list's refresh path, which rounds the bond
    vectors differently from the build, so that one retry agrees to
    round-off and the steps after it bit for bit again."""
    case, fail_step = "gsp-si8/kt0.3", FAIL_STEPS[kind]
    reference = run_case(case)
    rebuilt, n_pairs = reference["rebuilt"], reference["n_pairs"]
    assert rebuilt[fail_step] == (kind == "verlet-rebuild")
    if not rebuilt[fail_step]:
        assert (n_pairs[fail_step] != n_pairs[fail_step - 1]) == \
            (kind == "crossing")
    atoms = CASES[case][0]()
    calc = CASES[case][1]()
    calc.solve = FailsOnce(calc.solve, fail_on=fail_step + 1)   # Γ: 1 per step
    for s, pos in enumerate(walk_steps(case)):
        atoms.positions[:] = pos
        if s == fail_step:
            with pytest.raises(ElectronicError, match="injected"):
                calc.compute(atoms)
        res = calc.compute(atoms, forces=True)
        for key in KEYS:
            if s == fail_step and kind == "verlet-rebuild":
                np.testing.assert_allclose(res[key], reference[key][s],
                                           rtol=0, atol=1e-9)
            else:
                np.testing.assert_array_equal(res[key], reference[key][s],
                                              err_msg=f"{key} at step {s}")
