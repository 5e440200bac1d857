"""Data decompositions: block partitions and pair distribution.

The replicated-data TBMD step distributes *atoms* (hence Hamiltonian rows
and force accumulation) over ranks; the distributed Jacobi distributes
*matrix columns*.  Both reduce to the partition helpers here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParallelError


def block_partition(n: int, p: int) -> list[np.ndarray]:
    """Contiguous near-equal blocks: first ``n % p`` ranks get one extra.

    Returns a list of index arrays, one per rank (possibly empty).
    """
    if n < 0 or p < 1:
        raise ParallelError(f"invalid partition n={n}, p={p}")
    base = n // p
    extra = n % p
    out = []
    start = 0
    for r in range(p):
        count = base + (1 if r < extra else 0)
        out.append(np.arange(start, start + count))
        start += count
    return out


def partition_pairs(nl, p: int, scheme: str = "owner-i") -> list[np.ndarray]:
    """Distribute neighbour-list pairs over ranks.

    * ``owner-i`` — pair goes to the rank owning atom *i* under a block
      partition of atoms (the replicated-data convention: each rank builds
      the H rows of its atoms).
    * ``block`` — pairs split into contiguous equal chunks regardless of
      atom ownership (the work-balanced convention of the pool backend).
    """
    if scheme == "block":
        return block_partition(nl.n_pairs, p)
    if scheme == "owner-i":
        atom_parts = block_partition(nl.natoms, p)
        owner = np.empty(nl.natoms, dtype=int)
        for r, idx in enumerate(atom_parts):
            owner[idx] = r
        pair_owner = owner[nl.i]
        return [np.flatnonzero(pair_owner == r) for r in range(p)]
    raise ParallelError(f"unknown pair partition scheme {scheme!r}")


def partition_imbalance(parts: list[np.ndarray]) -> float:
    """Load imbalance factor max/mean of partition sizes (1.0 = perfect)."""
    sizes = np.array([len(x) for x in parts], dtype=float)
    mean = sizes.mean()
    if mean == 0:
        return 1.0
    return float(sizes.max() / mean)


def replicated_h_comm_bytes(n_orbitals: int, p: int) -> float:
    """Bytes each rank contributes to the H-row allgather (float64)."""
    rows_per_rank = n_orbitals / p
    return rows_per_rank * n_orbitals * 8.0


def row_striped_comm_bytes(n_orbitals: int, p: int,
                           halo_fraction: float = 0.25) -> float:
    """Bytes per rank for the row-striped assembly ablation (A1).

    Row-striped assembly keeps H distributed and only exchanges halo
    columns with neighbouring stripes; *halo_fraction* is the fraction of
    a stripe's columns that touch another stripe (sparse TB coupling, so
    far less than the replicated allgather).
    """
    rows_per_rank = n_orbitals / p
    return rows_per_rank * n_orbitals * halo_fraction * 8.0
