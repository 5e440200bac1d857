"""Ring statistics of the bond network (networkx-backed).

Counts shortest-path (King-style, via minimum cycle basis) rings up to a
maximum size — the pentagon/hexagon/heptagon census that structural
analyses of sp² carbon report.

``networkx`` is an optional extra (``pip install pytbmd[analysis]``),
imported when a census runs: nothing else in the package loads it, and
without it these functions raise :class:`~repro.errors.ReproError` with
the install hint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GeometryError, ReproError
from repro.neighbors import neighbor_list

if TYPE_CHECKING:
    import networkx as nx


def _networkx():
    """The networkx module, or the install hint."""
    try:
        import networkx
    except ImportError as exc:
        raise ReproError(
            "ring statistics need the optional 'networkx' dependency — "
            "install it with: pip install pytbmd[analysis]") from exc
    return networkx


def bond_graph(atoms, r_cut: float) -> nx.Graph:
    """Undirected bond graph within *r_cut* (multiple periodic images of
    the same pair collapse onto one edge; adequate for clusters and large
    cells)."""
    nx = _networkx()
    nl = neighbor_list(atoms, r_cut)
    g = nx.Graph()
    g.add_nodes_from(range(len(atoms)))
    for i, j in zip(nl.i, nl.j):
        if i != j:
            g.add_edge(int(i), int(j))
    return g


def ring_statistics(atoms, r_cut: float, max_size: int = 10) -> dict[int, int]:
    """Histogram {ring size: count} by the shortest-cycle-per-edge census.

    For every bond, the shortest cycle containing it (shortest path
    between its endpoints with the bond removed, plus the bond) is
    recorded; distinct cycles are counted once.  This is the King-style
    ring census chemists read off a structure drawing — unlike a minimum
    *cycle basis*, it is face-faithful for sp² networks on periodic cells
    (a basis may swap a heptagon for an equivalent longer generator).
    All tied shortest cycles per bond are recorded (a Stone–Wales bond is
    shared by two heptagons).  Rings larger than *max_size* are ignored.

    Small-cell caveat: in a periodic cell only a few repeat units wide,
    cycles wrapping the torus can be as short as genuine faces (a 3-unit
    zig-zag circumference is 6 bonds) and are counted too — use a cell at
    least 4 units wide for a face-pure census.
    """
    if max_size < 3:
        raise GeometryError("max_size must be >= 3")
    nx = _networkx()
    g = bond_graph(atoms, r_cut)
    seen: dict[frozenset, int] = {}
    for u, v in g.edges():
        g.remove_edge(u, v)
        try:
            paths = list(nx.all_shortest_paths(g, u, v))
        except nx.NetworkXNoPath:
            paths = []
        g.add_edge(u, v)
        for path in paths:
            size = len(path)
            if 3 <= size <= max_size:
                seen.setdefault(frozenset(path), size)
    counts: dict[int, int] = {}
    for size in seen.values():
        counts[size] = counts.get(size, 0) + 1
    return dict(sorted(counts.items()))


def count_polygons(atoms, r_cut: float) -> tuple[int, int, int]:
    """(pentagons, hexagons, heptagons) — the 5/6/7 census of sp² carbon."""
    stats = ring_statistics(atoms, r_cut, max_size=8)
    return stats.get(5, 0), stats.get(6, 0), stats.get(7, 0)


def connected_fragments(atoms, r_cut: float) -> list[np.ndarray]:
    """Connected components of the bond graph, largest first."""
    nx = _networkx()
    g = bond_graph(atoms, r_cut)
    comps = sorted(nx.connected_components(g), key=len, reverse=True)
    return [np.array(sorted(c), dtype=int) for c in comps]
