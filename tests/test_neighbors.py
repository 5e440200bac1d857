"""Neighbour lists: brute force, cell list, Verlet skin — plus property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NeighborError
from repro.geometry import Atoms, Cell, bulk_silicon, rattle, supercell
from repro.neighbors import (
    VerletList, brute_force_neighbors, cell_list_neighbors, neighbor_list,
)
from repro.neighbors.base import empty_neighbor_list
from repro.neighbors.celllist import cell_list_admissible


def canonical(nl):
    """Comparable canonical set of (i, j, rounded vector)."""
    return {(int(i), int(j), tuple(np.round(v, 6)))
            for i, j, v in zip(nl.i, nl.j, nl.vectors)}


# ---------------------------------------------------------------- brute
def test_brute_dimer_single_pair():
    at = Atoms(["Si", "Si"], [[0, 0, 0], [2.0, 0, 0]],
               cell=Cell.cubic(20.0, pbc=False))
    nl = brute_force_neighbors(at, 2.5)
    assert nl.n_pairs == 1
    assert (nl.i[0], nl.j[0]) == (0, 1)
    np.testing.assert_allclose(nl.vectors[0], [2.0, 0, 0])


def test_brute_diamond_bond_count():
    at = bulk_silicon()
    nl = brute_force_neighbors(at, 2.5)
    # 8 atoms × 4 bonds / 2 = 16 unique bonds
    assert nl.n_pairs == 16


def test_brute_self_image_single_atom():
    # one atom in a small periodic box bonds to its 6 nearest images;
    # half-list keeps 3 of them
    at = Atoms(["Si"], [[0, 0, 0]], cell=Cell.cubic(2.0))
    nl = brute_force_neighbors(at, 2.1)
    assert nl.n_pairs == 3
    assert np.all(nl.i == 0) and np.all(nl.j == 0)
    np.testing.assert_allclose(nl.distances, 2.0)


def test_brute_small_cell_multiple_images():
    # 8-atom diamond with a cutoff beyond half the box: second shell has
    # 12 neighbours at a/√2 ≈ 3.84
    at = bulk_silicon()
    nl = brute_force_neighbors(at, 3.95)
    coord = nl.coordination()
    np.testing.assert_array_equal(coord, 16)   # 4 first + 12 second shell


def test_brute_full_expansion_doubles():
    at = rattle(bulk_silicon(), 0.02, seed=0)
    nl = brute_force_neighbors(at, 2.6)
    fi, fj, fvec, fd = nl.full()
    assert len(fi) == 2 * nl.n_pairs
    # antisymmetric vectors
    np.testing.assert_allclose(fvec[:nl.n_pairs], -fvec[nl.n_pairs:])


def test_brute_unwrapped_positions_equivalent():
    at = rattle(bulk_silicon(), 0.05, seed=1)
    shifted = at.copy()
    shifted.positions[3] += at.cell.matrix[0] * 2      # unwrapped copy
    a = canonical(brute_force_neighbors(at, 2.6))
    b = canonical(brute_force_neighbors(shifted, 2.6))
    assert a == b


def skewed_beta_tin():
    """β-tin Si8 sheared into a triclinic cell."""
    from repro.geometry import beta_tin_silicon
    from repro.geometry.transform import strain

    return rattle(strain(supercell(beta_tin_silicon(), (1, 1, 2)),
                         np.array([[0.0, 0.3, 0.1], [0.0, 0.0, -0.2],
                                   [0.0, 0.0, 0.0]])), 0.04, seed=11)


def silicon_slab():
    """Si64 with vacuum along z: one non-periodic axis."""
    bulk = rattle(supercell(bulk_silicon(), 2), 0.03, seed=2)
    h = bulk.cell.matrix.copy()
    h[2, 2] += 10.0
    return Atoms(bulk.symbols, bulk.positions,
                 Cell(h, pbc=(True, True, False)))


#: case → (structure, cutoff in Å)
IMAGE_BOUND_CASES = {
    "si8-3.7": (bulk_silicon, 3.7),
    "si8-6.74": (lambda: rattle(bulk_silicon(), 0.05, seed=1), 6.74),
    "si64-6.5": (lambda: rattle(supercell(bulk_silicon(), 2), 0.05, seed=3),
                 6.5),
    "skewed-beta-tin": (skewed_beta_tin, 6.0),
    "slab": (silicon_slab, 6.5),
}


@pytest.mark.parametrize("case", list(IMAGE_BOUND_CASES))
def test_brute_tight_image_bound_is_bit_identical(monkeypatch, case):
    """Wrapped positions need |n_k| < 1 + rcut/w_k images per axis; the
    list over those is the list over the old sum-of-lengths bound, bit
    for bit (the surviving translations keep their order, so the
    lexsort breaks ties the same way)."""
    atoms, rcut = IMAGE_BOUND_CASES[case]
    atoms = atoms()
    tight = brute_force_neighbors(atoms, rcut)
    pbc = np.asarray(atoms.cell.pbc)
    diam = float(atoms.cell.lengths[pbc].sum()) + 1e-9
    full = Cell.translations_within
    seen = {}

    def loose(self, rc):
        # the old bound: any two points at most the sum of the cell
        # lengths apart
        seen["n"] = len(full(self, rc + diam))
        seen["tight"] = len(full(self, rc))
        return full(self, rc + diam)

    monkeypatch.setattr(Cell, "translations_within", loose)
    old = brute_force_neighbors(atoms, rcut)
    assert seen["tight"] < seen["n"]
    assert tight.n_pairs > 0
    for key in ("i", "j", "vectors", "distances"):
        np.testing.assert_array_equal(getattr(tight, key), getattr(old, key),
                                      err_msg=key)


def test_empty_list():
    nl = empty_neighbor_list(5, 2.0)
    assert nl.n_pairs == 0
    np.testing.assert_array_equal(nl.coordination(), np.zeros(5, dtype=int))
    assert nl.max_distance() == 0.0


def test_neighbors_of():
    at = bulk_silicon()
    nl = brute_force_neighbors(at, 2.5)
    assert len(nl.neighbors_of(0)) == 4


# ---------------------------------------------------------------- cell list
def test_cell_list_matches_brute_large_cell():
    at = rattle(supercell(bulk_silicon(), 3), 0.08, seed=2)  # 216 atoms
    rcut = 2.8
    assert cell_list_admissible(at, rcut)
    a = canonical(brute_force_neighbors(at, rcut))
    b = canonical(cell_list_neighbors(at, rcut))
    assert a == b


def test_cell_list_matches_brute_nonperiodic():
    from repro.geometry import random_cluster

    at = random_cluster(60, seed=4)
    a = canonical(brute_force_neighbors(at, 3.0))
    b = canonical(cell_list_neighbors(at, 3.0))
    assert a == b


def test_cell_list_inadmissible_raises():
    at = bulk_silicon()   # 5.43 Å box, cutoff 2.8 → fewer than 3 bins
    with pytest.raises(NeighborError, match="inadmissible"):
        cell_list_neighbors(at, 2.8)


def test_dispatcher_auto_small_uses_brute():
    at = bulk_silicon()
    nl = neighbor_list(at, 4.0)
    assert nl.n_pairs > 0


def test_dispatcher_rejects_bad_input():
    at = bulk_silicon()
    with pytest.raises(NeighborError):
        neighbor_list(at, -1.0)


# ---------------------------------------------------------------- verlet
def test_verlet_list_no_rebuild_for_small_moves():
    at = rattle(bulk_silicon(), 0.02, seed=3)
    vl = VerletList(rcut=2.6, skin=0.6)
    vl.update(at)
    at.positions += 0.05   # uniform shift — relative geometry unchanged
    vl.update(at)
    assert vl.stats()["builds"] == 1
    assert vl.stats()["updates"] == 2


def test_verlet_rebuilds_after_drift():
    at = rattle(bulk_silicon(), 0.02, seed=3)
    vl = VerletList(rcut=2.6, skin=0.4)
    vl.update(at)
    at.positions[0] += [0.3, 0, 0]   # > skin/2
    vl.update(at)
    assert vl.stats()["builds"] == 2


def test_verlet_refresh_distances_exact():
    at = rattle(bulk_silicon(), 0.02, seed=5)
    vl = VerletList(rcut=2.6, skin=0.8)
    vl.update(at)
    at.positions[1] += [0.05, -0.02, 0.01]   # below skin/2: refresh path
    nl = vl.update(at)
    ref = brute_force_neighbors(at, 2.6)
    assert canonical(nl) == canonical(ref)
    np.testing.assert_allclose(sorted(nl.distances), sorted(ref.distances),
                               atol=1e-12)


def test_verlet_atom_count_change_triggers_rebuild():
    at = bulk_silicon()
    vl = VerletList(rcut=2.6, skin=0.5)
    vl.update(at)
    bigger = supercell(at, (2, 1, 1))
    vl.update(bigger)
    assert vl.stats()["builds"] == 2


def test_verlet_invalid_params():
    with pytest.raises(NeighborError):
        VerletList(rcut=0.0)
    with pytest.raises(NeighborError):
        VerletList(rcut=2.0, skin=-0.1)


# ---------------------------------------------------------------- properties
def _deformation(rng, kind):
    """A random homogeneous deformation F (rows: r' = r @ F) of one kind."""
    if kind == "compression":
        return np.diag(1.0 - rng.uniform(0.0, 0.04, 3))
    if kind == "expansion":
        return np.diag(1.0 + rng.uniform(0.0, 0.04, 3))
    if kind == "shear":
        f = np.eye(3)
        i = rng.integers(3)
        f[i, (i + rng.integers(1, 3)) % 3] = rng.uniform(-0.03, 0.03)
        return f
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-0.3, 0.3)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * k @ k


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_affine_bound_keeps_every_reused_list_exact(seed):
    """Random triclinic cells walked through homogeneous strains
    (compression, expansion, shear, rotation) plus residual atomic
    displacements: whenever the affine bound lets ``update`` reuse the
    skin list, the refreshed list is the brute-force list at rcut, pair
    for pair."""
    rng = np.random.default_rng(seed)
    h = 5.43 * (np.eye(3) + rng.uniform(-0.15, 0.15, (3, 3)))
    at = rattle(Atoms(["Si"] * 8, bulk_silicon().cell.fractional(
        bulk_silicon().positions) @ h, cell=h), 0.05, seed=seed % 1000)
    rcut, skin = 3.0, 0.5
    vl = VerletList(rcut=rcut, skin=skin)
    vl.update(at)
    reused = 0
    for _ in range(8):
        f = _deformation(rng, rng.choice(["compression", "expansion",
                                          "shear", "rotation"]))
        at = Atoms(at.symbols, at.positions @ f
                   + rng.normal(0.0, 0.02, (len(at), 3)),
                   cell=at.cell.matrix @ f)
        nl = vl.update(at)
        if not vl.last_update_rebuilt:
            reused += 1
            want = brute_force_neighbors(at, rcut)
            assert nl.n_pairs == want.n_pairs
            assert canonical(nl) == canonical(want)
    assert vl.stats()["reused"] == reused


def test_unstrained_rebuild_steps_are_the_drift_test():
    """At A = I (fixed cell) the affine bound is the classic drift test:
    an NVE run rebuilds exactly where ``2·max|r − r_ref| > skin``."""
    from repro.classical import StillingerWeber
    from repro.md import MDDriver, VelocityVerlet
    from repro.md.velocities import maxwell_boltzmann_velocities

    at = rattle(supercell(bulk_silicon(), 2), 0.05, seed=8)
    maxwell_boltzmann_velocities(at, 2500.0, seed=9)
    calc = StillingerWeber(skin=0.3)
    vl = calc._vlist
    seen = []
    update = vl.update

    def recorded(atoms):
        nl = update(atoms)
        seen.append((atoms.positions.copy(), vl.last_update_rebuilt))
        return nl

    vl.update = recorded
    MDDriver(at, calc, VelocityVerlet(dt=1.0)).run(60)
    ref, flags = None, []
    for pos, rebuilt in seen:
        drift = ref is None or 2.0 * np.sqrt(
            np.max(np.sum((pos - ref) ** 2, axis=1))) > 0.3
        flags.append(rebuilt)
        assert rebuilt == drift
        if drift:
            ref = pos
    assert 2 < sum(flags) < len(flags)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), rcut=st.floats(1.5, 4.5))
def test_property_brute_pairs_within_cutoff(seed, rcut):
    at = rattle(bulk_silicon(), 0.1, seed=seed)
    nl = brute_force_neighbors(at, rcut)
    assert np.all(nl.distances <= rcut + 1e-12)
    assert np.all(nl.distances > 0)
    # half-list ordering contract
    assert np.all(nl.i <= nl.j)
    # vectors consistent with distances
    np.testing.assert_allclose(np.linalg.norm(nl.vectors, axis=1),
                               nl.distances, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_property_cell_equals_brute_on_cluster(seed):
    from repro.geometry import random_cluster

    at = random_cluster(40, seed=seed)
    rcut = 3.2
    assert canonical(cell_list_neighbors(at, rcut)) == \
        canonical(brute_force_neighbors(at, rcut))


@settings(max_examples=10, deadline=None)
@given(shift=st.floats(-8.0, 8.0))
def test_property_translation_invariance(shift):
    at = rattle(bulk_silicon(), 0.05, seed=9)
    moved = at.copy()
    moved.positions += shift
    assert canonical(brute_force_neighbors(at, 2.7)) == \
        canonical(brute_force_neighbors(moved, 2.7))
