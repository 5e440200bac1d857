"""A3 — Ablation: neighbour-list strategies over an MD trajectory.

Brute force (O(N²·images)) vs linked cells (O(N)) for one build, and the
Verlet skin list's rebuild avoidance over a simulated drift sequence.
Expected shape: cells overtake brute force once the system outgrows the
minimum-image restriction; the skin list rebuilds only a small fraction
of the steps (the classic ~1-in-10 economy).
"""

import time

import numpy as np

from repro.bench import print_table, silicon_supercell
from repro.neighbors import VerletList, brute_force_neighbors, cell_list_neighbors
from repro.neighbors.celllist import cell_list_admissible
from repro.tb import GSPSilicon

RCUT = GSPSilicon().cutoff


def timed_builds(at, n=3):
    tb = tc = None
    t0 = time.perf_counter()
    for _ in range(n):
        nl_b = brute_force_neighbors(at, RCUT)
    tb = (time.perf_counter() - t0) / n
    if cell_list_admissible(at, RCUT):
        t0 = time.perf_counter()
        for _ in range(n):
            nl_c = cell_list_neighbors(at, RCUT)
        tc = (time.perf_counter() - t0) / n
        assert nl_c.n_pairs == nl_b.n_pairs
    return tb, tc, nl_b.n_pairs


def test_a3_neighbor_strategies(benchmark):
    rows = []
    for mult in (2, 3, 4):
        at = silicon_supercell(mult, rattle_amp=0.1, seed=8)
        tb, tc, pairs = timed_builds(at)
        rows.append([len(at), pairs, tb * 1e3,
                     tc * 1e3 if tc else float("nan"),
                     tb / tc if tc else float("nan")])
    print_table(
        "A3: neighbour-list build time",
        ["N", "pairs", "brute (ms)", "cells (ms)", "speedup"],
        rows, float_fmt="{:.4g}")

    # Verlet skin economy over a drifting trajectory
    at = silicon_supercell(3, rattle_amp=0.05, seed=9)
    rng = np.random.default_rng(10)
    results = []
    for skin in (0.2, 0.5, 1.0):
        vl = VerletList(rcut=RCUT, skin=skin)
        sim = at.copy()
        for _ in range(60):
            sim.positions += rng.normal(0, 0.01, size=sim.positions.shape)
            vl.update(sim)
        st = vl.stats()
        results.append([skin, st["builds"], st["updates"],
                        st["builds"] / st["updates"]])
    print_table(
        "A3b: Verlet skin rebuild economy (60 MD-like steps)",
        ["skin (Å)", "rebuilds", "updates", "rebuild fraction"],
        results, float_fmt="{:.3g}")

    # --- shape assertions -------------------------------------------------
    assert rows[-1][4] > 1.0, "cells must beat brute force at 512 atoms"
    fracs = [r[3] for r in results]
    assert all(b <= a for a, b in zip(fracs, fracs[1:])), \
        "bigger skin → fewer rebuilds"
    assert fracs[-1] < 0.35

    big = silicon_supercell(4, rattle_amp=0.1, seed=8)
    benchmark.pedantic(lambda: cell_list_neighbors(big, RCUT),
                       rounds=3, iterations=1)
