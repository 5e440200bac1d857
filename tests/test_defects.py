"""Defect energetics: silicon vacancy and the Stone–Wales transformation.

The era's transferability tests — a parametrisation fit to bulk crystals
earns trust by getting defect energies on the right scale.
"""

import numpy as np
import pytest

from repro.analysis import ring_statistics
from repro.errors import GeometryError
from repro.geometry import bulk_silicon, graphene_sheet, supercell
from repro.geometry.defects import (
    make_vacancy, stone_wales, vacancy_formation_energy,
)
from repro.relax import conjugate_gradient, fire_relax
from repro.tb import GSPSilicon, TBCalculator, XuCarbon


def test_make_vacancy_removes_one_atom():
    at = supercell(bulk_silicon(), 2)
    vac = make_vacancy(at, index=10)
    assert len(vac) == 63
    with pytest.raises(GeometryError):
        make_vacancy(at, index=64)


def test_formation_energy_formula():
    # perfect bookkeeping: removing an atom at zero relaxation cost from a
    # non-interacting "solid" has E_f = 0
    assert vacancy_formation_energy(-63.0, -64.0, 64) == pytest.approx(0.0)
    with pytest.raises(GeometryError):
        vacancy_formation_energy(0.0, 0.0, 1)


def test_si_vacancy_formation_energy_scale():
    """GSP Si unrelaxed/relaxed vacancy formation: positive, eV scale
    (DFT: ~3.6 eV; TB models land 2–5 eV)."""
    perfect = supercell(bulk_silicon(), 2)
    calc = TBCalculator(GSPSilicon())
    e_perfect = calc.get_potential_energy(perfect)

    vac = make_vacancy(perfect, index=17)
    calc_v = TBCalculator(GSPSilicon())
    e_unrelaxed = calc_v.get_potential_energy(vac)
    ef_unrelaxed = vacancy_formation_energy(e_unrelaxed, e_perfect, 64)

    res = conjugate_gradient(vac, calc_v, fmax=0.05, max_steps=300)
    ef_relaxed = vacancy_formation_energy(res.energy, e_perfect, 64)

    assert 1.0 < ef_relaxed < 6.0
    assert ef_relaxed <= ef_unrelaxed + 1e-9   # relaxation can only help
    assert ef_unrelaxed - ef_relaxed < 3.0     # relaxation energy sane


def test_stone_wales_creates_5757_pattern():
    """Rotating one graphene bond converts 6 hexagons into 2×5 + 2×7."""
    pytest.importorskip("networkx")
    g = graphene_sheet(4, 4)          # 64 atoms, 32 hexagons
    rings_before = ring_statistics(g, 1.6)
    assert rings_before == {6: 32}
    # pick a central bond
    from repro.neighbors import neighbor_list

    nl = neighbor_list(g, 1.6)
    center = g.positions.mean(axis=0)
    mid = g.positions[nl.i] + 0.5 * nl.vectors     # minimum-image midpoint
    bond = int(np.argmin(np.linalg.norm(mid - center, axis=1)))
    sw = stone_wales(g, int(nl.i[bond]), int(nl.j[bond]))
    rings_after = ring_statistics(sw, 1.6)
    assert rings_after.get(5, 0) == 2
    assert rings_after.get(7, 0) == 2
    assert rings_after.get(6, 0) == rings_before[6] - 4


def test_stone_wales_formation_energy_scale():
    """Relaxed SW-defect energy in XWCH graphene: positive, several eV
    (literature: ~5 eV).  4×4 cell: wide enough for a face-pure census."""
    pytest.importorskip("networkx")
    g = graphene_sheet(4, 4)
    calc = TBCalculator(XuCarbon())
    e0 = calc.get_potential_energy(g)

    from repro.neighbors import neighbor_list

    nl = neighbor_list(g, 1.6)
    center = g.positions.mean(axis=0)
    mid = g.positions[nl.i] + 0.5 * nl.vectors
    bond = int(np.argmin(np.linalg.norm(mid - center, axis=1)))
    sw = stone_wales(g, int(nl.i[bond]), int(nl.j[bond]))
    calc_d = TBCalculator(XuCarbon())
    res = fire_relax(sw, calc_d, fmax=0.08, max_steps=600)
    e_sw = res.energy
    assert res.converged
    e_form = e_sw - e0
    assert 2.0 < e_form < 10.0
    # topology preserved through relaxation
    rings = ring_statistics(sw, 1.7)
    assert rings.get(5, 0) == 2 and rings.get(7, 0) == 2


def test_stone_wales_validation():
    g = graphene_sheet(2, 2)
    with pytest.raises(GeometryError):
        stone_wales(g, 0, 0)
    # non-bonded pair (minimum-image distance, not raw coordinates)
    dists = [g.distance(0, k) for k in range(1, len(g))]
    far = 1 + int(np.argmax(dists))
    with pytest.raises(GeometryError, match="not a bond"):
        stone_wales(g, 0, far)
