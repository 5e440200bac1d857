"""Benchmark workload generators.

Deterministic (seeded) builders for the structures the T/F benchmarks
sweep over, so every run regenerates identical inputs.
"""

from __future__ import annotations

from repro.geometry import bulk_silicon, rattle, supercell


def silicon_supercell(multiplier: int, rattle_amp: float = 0.0,
                      seed: int = 0):
    """n×n×n diamond-Si supercell (8·n³ atoms), optionally rattled."""
    at = supercell(bulk_silicon(), multiplier)
    if rattle_amp > 0:
        at = rattle(at, rattle_amp, seed=seed)
    return at
