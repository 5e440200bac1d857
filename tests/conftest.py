"""Shared fixtures for the pytbmd test suite.

Systems are deliberately tiny (≤ 64 atoms) so the whole suite runs in
minutes on one core; physics-fidelity checks that need larger systems live
in benchmarks/.
"""

from __future__ import annotations

import pytest

from repro.obs import metrics as metrics_mod
from repro.obs import spans as spans_mod
from repro.geometry import bulk_silicon, diamond_cubic, graphene_sheet, rattle, supercell
from repro.tb import GSPSilicon, HarrisonModel, NonOrthogonalSilicon, TBCalculator, XuCarbon


@pytest.fixture()
def obs_on():
    """Fresh, enabled tracer + registry; restores the globals on exit."""
    old_tracer = spans_mod._swap_tracer(spans_mod.Tracer(enabled=True))
    old_registry = metrics_mod._swap_registry(metrics_mod.MetricsRegistry())
    old_enabled = metrics_mod._ENABLED
    metrics_mod._ENABLED = True
    try:
        yield spans_mod._TRACER, metrics_mod._REGISTRY
    finally:
        spans_mod._swap_tracer(old_tracer)
        metrics_mod._swap_registry(old_registry)
        metrics_mod._ENABLED = old_enabled


@pytest.fixture(scope="session")
def si8():
    """Pristine 8-atom diamond silicon cell (do not mutate)."""
    return bulk_silicon()


@pytest.fixture()
def si8_rattled():
    """Symmetry-broken 8-atom Si cell (fresh copy per test)."""
    return rattle(bulk_silicon(), 0.06, seed=123)


@pytest.fixture()
def si64():
    """64-atom Si supercell (fresh copy per test)."""
    return supercell(bulk_silicon(), 2)


@pytest.fixture()
def c_diamond():
    return diamond_cubic("C")


@pytest.fixture()
def graphene22():
    return graphene_sheet(2, 2)


@pytest.fixture(scope="session")
def gsp():
    return GSPSilicon()


@pytest.fixture(scope="session")
def xu():
    return XuCarbon()


@pytest.fixture(scope="session")
def harrison():
    return HarrisonModel()


@pytest.fixture(scope="session")
def nonortho():
    return NonOrthogonalSilicon()


@pytest.fixture()
def si_calc():
    return TBCalculator(GSPSilicon())


@pytest.fixture()
def c_calc():
    return TBCalculator(XuCarbon())
