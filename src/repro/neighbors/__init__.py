"""Neighbour finding: brute-force (image-complete), linked cells, Verlet skin."""

from repro.neighbors.base import (
    MIN_PAIR_DISTANCE,
    NeighborList,
    check_separations,
    neighbor_list,
)
from repro.neighbors.brute import brute_force_neighbors
from repro.neighbors.celllist import cell_list_neighbors
from repro.neighbors.verlet import VerletList

__all__ = [
    "MIN_PAIR_DISTANCE",
    "NeighborList",
    "check_separations",
    "neighbor_list",
    "brute_force_neighbors",
    "cell_list_neighbors",
    "VerletList",
]
