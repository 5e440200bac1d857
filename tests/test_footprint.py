"""What a process holds: the imports ``import repro`` pays for, and the
transient memory of a warm fused region solve and of a region index.

The ring census (networkx, the ``analysis`` extra) and the EOS fits
(scipy.optimize) are imported where they are used, so no MD step,
service request, sweep point or trajectory read loads them.  ρ̂ lives
on H's sparsity pattern: the backends hand the fused solve its Taylor
stacks at the kept core-row entries only (H's nonzeros), the solve drops
each region's stacks as it combines them into one flat buffer and
Hermitises that into one value per nonzero, so it never holds stacks or
rows at every core-row entry; and the region index finds those entries
from H's nonzeros and the regions' orbital lists, with no CSR of every
core-row entry.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.geometry import bulk_silicon, rattle, supercell
from repro.linscale.backends import resolve_backend
from repro.linscale.backends import numpy_batched
from repro.linscale.backends.numpy_batched import NumpyBatchedBackend
from repro.linscale.foe_local import (
    TAYLOR_ORDER,
    RegionIndex,
    build_region_gather_maps,
    solve_density_regions,
    solve_density_regions_fused,
    taylor_radius,
)
from repro.linscale.regions import extract_regions
from repro.linscale.sparse_hamiltonian import SparseHamiltonianBuilder
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon
from repro.tb.bonds import bond_table
from repro.tb.purification import lanczos_spectral_bounds

#: the directory the imported ``repro`` lives in (src/ or site-packages)
PKG_ROOT = str(Path(repro.__file__).resolve().parents[1])


def run_python(script: str) -> str:
    """*script* in a fresh interpreter that imports this ``repro``."""
    env = dict(os.environ, PYTHONPATH=PKG_ROOT)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


IMPORT_FOOTPRINT = """
import sys
import numpy as np
import repro, repro.linscale.calculator, repro.tb.calculator
import repro.service.server, repro.service.client, repro.md
import repro.analysis, repro.trajio
heavy = ("networkx", "scipy.optimize")
print(sorted(m for m in heavy if m in sys.modules))
from repro.analysis import EOSFit, birch_murnaghan_fit
truth = EOSFit(e0=-4.6, v0=20.0, b0=0.6, b0_prime=4.2, residual=0.0,
               form="birch")
v = np.linspace(18.0, 22.0, 5)
fit = birch_murnaghan_fit(v, truth.energy(v))
print(round(fit.v0, 6), round(fit.b0, 6), "scipy.optimize" in sys.modules)
"""


def test_running_modules_load_no_analysis_only_dependency():
    """The modules an MD step, a service request, a sweep point or a
    trajectory read import leave networkx and scipy.optimize unloaded;
    the first EOS fit imports scipy.optimize on demand and still fits."""
    unloaded, fitted = run_python(IMPORT_FOOTPRINT).splitlines()
    assert unloaded == "[]"
    assert fitted == "20.0 0.6 True"


NO_NETWORKX = """
import sys
sys.modules["networkx"] = None          # an install without the extra
import repro
from repro.cli import main
from repro.errors import ReproError
from repro.geometry import graphene_sheet
from repro.analysis import bond_graph, ring_statistics
from repro.analysis.rings import connected_fragments, count_polygons
assert main(["models"]) == 0
for census in (bond_graph, ring_statistics, count_polygons,
               connected_fragments):
    try:
        census(graphene_sheet(2, 2), 1.6)
    except ReproError as exc:
        assert "pip install pytbmd[analysis]" in str(exc), exc
    else:
        raise AssertionError(census.__name__)
print("ok")
"""


def test_repro_imports_and_runs_without_networkx():
    """Without networkx ``import repro`` and ``pytbmd models`` work, and
    every ring-census function raises the install hint."""
    out = run_python(NO_NETWORKX)
    assert out.splitlines()[-1] == "ok"
    assert "gsp-si" in out


# ------------------------------------------------- fused-solve transient
KT = 0.35
ORDER = 100


@pytest.fixture(scope="module")
def si216():
    """Rattled 216-atom Γ cell, short regions: H, regions, index (with
    the bond pattern), window, electron count and the converged μ."""
    model = GSPSilicon()
    atoms = rattle(supercell(bulk_silicon(), 3), 0.03, seed=12)
    nl = bond_table(atoms, model, neighbor_list(atoms, model.cutoff))
    H = SparseHamiltonianBuilder(model).build(atoms, nl)
    regions = extract_regions(atoms, model, 4.5)
    index = RegionIndex(H, regions, pattern=nl.pattern)
    window = lanczos_spectral_bounds(H)
    n_el = model.total_electrons(atoms.symbols)
    mu = solve_density_regions(H, regions, n_el, KT, ORDER, window=window,
                               index=index).mu
    return H, regions, index, window, n_el, mu


def kept_stack_bytes(index) -> int:
    """Bytes of the fused pass's Taylor stacks at the kept entries."""
    return (TAYLOR_ORDER + 1) * 8 * sum(len(keep) for keep in index.keep)


def rho_bytes(index) -> int:
    """Bytes of the ρ̂ arrays: the kept entries' buffer and ρ̂ at H's
    nonzeros."""
    return 8 * (sum(len(keep) for keep in index.keep) + 1 + index.nnz)


def traced_transient(fn) -> int:
    """Traced peak of ``fn()`` minus the traced current when it began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shift", [0.5, 3.0], ids=["fused", "fallback"])
@pytest.mark.parametrize("name", ["numpy_batched", "eigh"])
def test_fused_solve_holds_its_stacks_and_rho_arrays_only(si216, name,
                                                           shift,
                                                           monkeypatch):
    """A warm fused solve's transient stays under its Taylor stacks at
    the kept entries plus the ρ̂ arrays on H's nonzeros (the kept-entry
    buffer and one value per nonzero) on top of what
    the same recursion needs without them — the transient of an
    energy-only solve.  μ_guess sits *shift* Taylor radii from μ:
    inside, ρ̂ is the Taylor combination; outside, the stacks go before
    the density pass.  Holding the stacks at every core-row entry (three
    times the kept ones) breaks the bound.  One region per stack,
    drained on one thread, keeps the bucket working set small beside
    the stacks."""
    H, regions, index, window, n_el, mu = si216
    backend = NumpyBatchedBackend(max_regions=1) \
        if name == "numpy_batched" else resolve_backend(name)
    guess = mu + shift * taylor_radius(KT, 1e-10)
    kw = dict(window=window, mu_guess=guess, index=index, backend=backend)
    monkeypatch.setattr(numpy_batched, "_usable_cpus", lambda: 1)
    solve_density_regions_fused(H, regions, n_el, KT, ORDER, **kw)
    working = traced_transient(lambda: solve_density_regions(
        H, regions, n_el, KT, ORDER, with_rho=False, **kw))
    got = []
    transient = traced_transient(lambda: got.append(
        solve_density_regions_fused(H, regions, n_el, KT, ORDER, **kw)))
    assert got[0].used_fallback == (shift > 1.0)
    assert all(np.isfinite(b).all() for b in got[0].bonds_k[0])
    bound = working + kept_stack_bytes(index) + rho_bytes(index)
    assert transient <= bound, (transient, working, bound)


def test_region_index_build_holds_the_maps_transient_and_positions_only():
    """Building a :class:`RegionIndex` at the default ``r_loc`` costs the
    block maps' own build transient plus at most twice the ρ̂ positions
    it keeps: the positions come from H's nonzeros and the regions'
    orbital lists, not from a CSR of every core-row entry (which alone
    holds several times the positions)."""
    model = GSPSilicon()
    atoms = rattle(supercell(bulk_silicon(), 3), 0.03, seed=12)
    nl = bond_table(atoms, model, neighbor_list(atoms, model.cutoff))
    H = SparseHamiltonianBuilder(model).build(atoms, nl)
    regions = extract_regions(atoms, model, 1.5 * model.cutoff)
    maps = traced_transient(lambda: build_region_gather_maps(H, regions))
    got = []
    transient = traced_transient(lambda: got.append(
        RegionIndex(H, regions, pattern=nl.pattern)))
    index = got[0]
    positions = index.nbytes - index.maps.nbytes
    assert 0 < positions <= 4 * (3 * index.nnz
                                 + sum(at.size for at in index._bond_at))
    assert transient <= maps + 2 * positions, (transient, maps, positions)
