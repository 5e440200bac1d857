"""k-point sampling: Monkhorst–Pack grids and band-structure paths."""

from __future__ import annotations

import numpy as np

from repro.errors import ElectronicError


def monkhorst_pack(size, reduce_time_reversal: bool = True
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Monkhorst–Pack fractional k grid.

    Parameters
    ----------
    size : (n1, n2, n3) grid divisions (an int means isotropic).
    reduce_time_reversal :
        Fold −k onto +k with doubled weight (default).  A real-space
        Hamiltonian is real, so ``H(−k) = H(k)*`` shares its spectrum
        with ``H(k)`` and the full grid does every ±k pair's work twice;
        folding halves the diagonalisation / FOE cost *exactly* (weighted
        band sums are identical to the full grid to round-off).  Pass
        ``False`` for the full unreduced grid (e.g. when perturbations
        break time-reversal symmetry).

    Returns
    -------
    ``(kpts_frac (K, 3), weights (K,))`` with weights summing to 1.  The
    standard MP offsets place even grids off Γ.
    """
    if np.isscalar(size):
        size = (int(size),) * 3
    size = tuple(int(s) for s in size)
    if any(s < 1 for s in size):
        raise ElectronicError(f"grid divisions must be >= 1, got {size}")
    grids = [(2.0 * np.arange(1, s + 1) - s - 1) / (2.0 * s) for s in size]
    k1, k2, k3 = np.meshgrid(*grids, indexing="ij")
    kpts = np.stack([k1.ravel(), k2.ravel(), k3.ravel()], axis=1)
    w = np.full(len(kpts), 1.0 / len(kpts))
    if reduce_time_reversal:
        return fold_time_reversal(kpts, w)
    return kpts, w


def fold_time_reversal(kpts_frac: np.ndarray, weights: np.ndarray,
                       decimals: int = 9) -> tuple[np.ndarray, np.ndarray]:
    """Fold time-reversal pairs ±k of a symmetric grid onto one member.

    For each pair ``(k, −k)`` present in the grid the lexicographically
    larger member is kept with the summed weight; self-paired points
    (Γ and zone-boundary points equal to −k modulo nothing — MP grids
    are symmetric about 0, so only exact ``k == −k``) and points whose
    partner is absent keep their own weight.  The total weight is
    conserved, and since ``ε(−k) = ε(k)`` for a real-space-real
    Hamiltonian, any weighted band quantity is *identical* to the full
    grid's to round-off — asserted in the test suite.
    """
    kpts = np.asarray(kpts_frac, dtype=float)
    w = np.asarray(weights, dtype=float).copy()
    keys = [tuple(k) for k in np.round(kpts, decimals)]
    index = {key: i for i, key in enumerate(keys)}
    keep = np.ones(len(kpts), dtype=bool)
    for i, key in enumerate(keys):
        if not keep[i]:
            continue
        neg = tuple(np.round(-kpts[i], decimals) + 0.0)   # -0.0 → 0.0
        j = index.get(neg)
        if j is None or j == i or not keep[j]:
            continue
        winner, loser = (i, j) if key >= neg else (j, i)
        w[winner] += w[loser]
        keep[loser] = False
    return kpts[keep], w[keep]


#: accepted values of the ``kgrid_reduce`` calculator/CLI/service knob
KGRID_REDUCE_MODES = ("trs", "full", "symmetry")


def reduced_kgrid(size, mode: str = "trs", atoms=None):
    """One entry point for every ``kgrid_reduce`` mode.

    ``"full"`` returns the unreduced Monkhorst–Pack grid, ``"trs"`` the
    time-reversal-folded grid (the long-standing default), and
    ``"symmetry"`` the irreducible wedge under the crystal point group
    of *atoms* (required for that mode) composed with time reversal.

    Returns ``(kpts_frac, weights, ops)`` where *ops* is the operation
    list force/virial scattering must average over (``None`` for the
    modes that need no scattering).
    """
    if mode not in KGRID_REDUCE_MODES:
        raise ElectronicError(
            f"unknown kgrid_reduce mode {mode!r}; choose from "
            f"{KGRID_REDUCE_MODES}")
    if mode == "symmetry":
        if atoms is None:
            raise ElectronicError(
                "kgrid_reduce='symmetry' needs the structure (the wedge "
                "depends on cell *and* basis)")
        from repro.tb.symmetry import irreducible_kpoints

        grid = irreducible_kpoints(size, atoms=atoms)
        return grid.kpts_frac, grid.weights, grid.ops
    kpts, w = monkhorst_pack(size, reduce_time_reversal=(mode == "trs"))
    return kpts, w, None


def reciprocal_lattice(cell) -> np.ndarray:
    """Reciprocal lattice vectors (rows, Å⁻¹) with the 2π convention."""
    return 2.0 * np.pi * np.linalg.inv(cell.matrix).T


def frac_to_cartesian(kpts_frac: np.ndarray, cell) -> np.ndarray:
    """Fractional k points → Cartesian (Å⁻¹)."""
    return np.asarray(kpts_frac, dtype=float) @ reciprocal_lattice(cell)


def kpath(points: dict[str, np.ndarray] | list, labels: list[str],
          n_per_segment: int = 20) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Linear interpolation through named high-symmetry points.

    Parameters
    ----------
    points : mapping label → fractional k point.
    labels : path through the mapping, e.g. ``["L", "G", "X"]``.
    n_per_segment : points per leg (endpoints shared).

    Returns
    -------
    ``(kpts_frac, distances, tick_indices)`` — cumulative path length is
    computed in fractional space scaled per leg, adequate for plotting.
    """
    if len(labels) < 2:
        raise ElectronicError("a k-path needs at least two labels")
    pts = [np.asarray(points[label], dtype=float) for label in labels]
    path = [pts[0]]
    ticks = [0]
    for a, b in zip(pts[:-1], pts[1:]):
        seg = [a + (b - a) * t for t in np.linspace(0, 1, n_per_segment + 1)[1:]]
        path.extend(seg)
        ticks.append(len(path) - 1)
    kpts = np.array(path)
    deltas = np.linalg.norm(np.diff(kpts, axis=0), axis=1)
    dist = np.concatenate([[0.0], np.cumsum(deltas)])
    return kpts, dist, ticks


#: High-symmetry points of the FCC Brillouin zone (fractional, conventional
#: cubic cell reciprocal basis) — used for diamond-structure band plots.
FCC_POINTS = {
    "G": np.array([0.0, 0.0, 0.0]),
    "X": np.array([0.5, 0.0, 0.5]),
    "L": np.array([0.5, 0.5, 0.5]),
    "W": np.array([0.5, 0.25, 0.75]),
    "K": np.array([0.375, 0.375, 0.75]),
}
