"""Verlet (skin) neighbour list with automatic rebuild.

MD codes of the TBMD era avoided rebuilding the neighbour list every step
by searching to ``rcut + skin`` and reusing the list until any atom has
moved more than ``skin/2`` since the last build — the classic sufficient
condition for no bond to have entered the true cutoff unseen.

This implementation additionally survives *cell* changes (NPT, cell
relaxation, strain sweeps) without rebuilding: at build time each cached
pair's integer periodic-image shift ``S`` is recovered, so a refresh can
recompute every bond vector **exactly** as ``r_j − r_i + S·h`` for the
current positions *and* current lattice vectors ``h``.  A cell change is
measured as the affine map it is, not as atomic drift: with
``A = h_ref⁻¹·h`` (the strain since the build) and the residual
displacements ``δ = r − r_ref·A``, every bond is ``d = d_ref·A + δ_j − δ_i``,
so

    ``|d| ≥ σ_min(A)·|d_ref| − 2·max|δ|``,

and a pair the skin list left out (``|d_ref| > rcut + skin``) is still
beyond ``rcut`` while ``2·max|δ| + (1 − σ_min(A))·(rcut + skin) ≤ skin``.
A homogeneous strain therefore costs only its ``1 − σ_min`` term (nothing
at all for an expansion), and at ``A = I`` the test is the classic drift
test to the bit.  Reusing a skin list across a cell change *without*
remapping is the classic silent stale-neighbour-list bug (image bond
vectors frozen at the old lattice); when the shifts cannot be recovered
(exotic singular cells) any cell change forces a rebuild instead.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import NeighborError
from repro.neighbors.base import NeighborList, neighbor_list

#: every classified rebuild trigger (see :meth:`VerletList.rebuild_cause`)
#: → its fixed counter name (the telemetry-catalog lint rule bans
#: runtime-built metric names; the CI gates key on these literals)
_REBUILD_COUNTERS = {
    "init": "neighbors.rebuild.init",
    "resize": "neighbors.rebuild.resize",
    "cell-unmappable": "neighbors.rebuild.cell-unmappable",
    "drift": "neighbors.rebuild.drift",
    "strain": "neighbors.rebuild.strain",
}


def _max_norm(disp: np.ndarray) -> float:
    """Largest row norm of a displacement array."""
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", disp, disp))))


class VerletList:
    """Stateful skin list around :func:`repro.neighbors.neighbor_list`.

    Parameters
    ----------
    rcut :
        Physical interaction cutoff (Å).
    skin :
        Extra search margin (Å); larger skins rebuild less often but return
        more candidate pairs.

    Usage
    -----
    >>> vl = VerletList(rcut=3.7, skin=0.5)
    >>> nl = vl.update(atoms)         # rebuilds only when needed
    """

    def __init__(self, rcut: float, skin: float = 0.5):
        if rcut <= 0:
            raise NeighborError("rcut must be > 0")
        if skin < 0:
            raise NeighborError("skin must be >= 0")
        self.rcut = float(rcut)
        self.skin = float(skin)
        self.counts = obs.MetricsScope()
        self.last_rebuild_cause: str | None = None
        self.reset()

    def reset(self) -> None:
        """Drop the cached list so the next :meth:`update` rebuilds.

        The build/reuse counts are kept — they describe the lifetime of
        the object, not of one list.
        """
        self._list: NeighborList | None = None
        self._full: NeighborList | None = None
        self._ref_positions: np.ndarray | None = None
        self._ref_cell: np.ndarray | None = None
        self._shifts: np.ndarray | None = None
        self._translations: np.ndarray | None = None
        self.last_update_rebuilt = False

    def _recover_shifts(self, nl: NeighborList, atoms) -> None:
        """Integer image shifts S with ``vectors = r_j − r_i + S·h``.

        Recovered by projecting the periodic translation onto the inverse
        lattice and verified by a round trip; unrecoverable shifts (at
        ~1e-9 Å) disable cell-change remapping, falling back to
        rebuild-on-any-cell-change.
        """
        t = nl.vectors - (atoms.positions[nl.j] - atoms.positions[nl.i])
        self._translations = t
        h = np.asarray(atoms.cell.matrix, dtype=float)
        try:
            s = np.rint(t @ np.linalg.pinv(h))
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            self._shifts = None
            return
        self._shifts = None if len(s) and np.max(np.abs(s @ h - t)) > 1e-9 \
            else s

    def rebuild_cause(self, atoms) -> str | None:
        """Why the cached skin list can no longer be trusted (else None).

        Causes: ``"init"`` (no cached list), ``"resize"`` (atom count
        changed), ``"cell-unmappable"`` (a cell change with unrecoverable
        image shifts or a singular reference cell), or skin exhaustion by
        the affine bound ``2·max|δ| + (1 − σ_min(A))·(rcut + skin)``, with
        ``A = h_ref⁻¹·h`` and ``δ = r − r_ref·A`` (proof in the module
        docstring: ``|d| ≥ σ_min(A)·|d_ref| − 2·max|δ|`` for every pair) —
        classified as ``"drift"`` when the residual motion dominates and
        the plain displacements alone exhaust the skin too, else as
        ``"strain"``.  An unchanged cell is ``A = I`` exactly: the bound
        is then the classic ``2·max|Δr|``.
        """
        if self._list is None or self._ref_positions is None:
            return "init"
        if len(atoms) != len(self._ref_positions):
            return "resize"
        h = np.asarray(atoms.cell.matrix, dtype=float)
        ref = self._ref_positions
        cell_term = 0.0
        if np.any(h != self._ref_cell):
            if self._shifts is None or abs(np.linalg.det(self._ref_cell)) \
                    < 1e-12:
                return "cell-unmappable"
            a = np.linalg.solve(self._ref_cell, h)
            ref = ref @ a
            sigma_min = float(np.linalg.svd(a, compute_uv=False)[-1])
            cell_term = (1.0 - sigma_min) * (self.rcut + self.skin)
        # Displacements are physical (unwrapped MD trajectories); no MIC.
        residual = _max_norm(atoms.positions - ref)
        if 2.0 * residual + cell_term <= self.skin:
            return None
        # the atoms' own motion is to blame only if it exhausts the skin
        # against the unstrained reference too (a cell change under
        # fixed Cartesian positions is all residual, but still a strain)
        if cell_term > 2.0 * residual or (
                ref is not self._ref_positions and 2.0 * _max_norm(
                    atoms.positions - self._ref_positions) <= self.skin):
            return "strain"
        return "drift"

    def stats(self) -> dict:
        """Reuse counters: ``{"builds", "updates", "reused", "causes"}``.

        ``causes`` breaks the builds down by rebuild trigger — the
        drift-vs-strain split is what tells an NPT/strain-sweep run
        whether its skin is sized for the motion it actually sees.
        """
        causes = {c: self.counts.count(name)
                  for c, name in _REBUILD_COUNTERS.items()}
        builds = sum(causes.values())
        reused = self.counts.count("neighbors.reuse")
        return {"builds": builds, "updates": builds + reused,
                "reused": reused, "causes": causes}

    def update(self, atoms) -> NeighborList:
        """Return a current neighbour list, rebuilding if necessary.

        The returned list is built with cutoff ``rcut + skin`` and then
        *filtered* to the true cutoff using current positions (and the
        current cell), so distances and vectors are always exact for the
        present configuration.
        """
        cause = self.rebuild_cause(atoms)
        if cause is not None:
            self._full = neighbor_list(atoms, self.rcut + self.skin)
            self._ref_positions = atoms.positions.copy()
            self._ref_cell = np.array(atoms.cell.matrix, copy=True)
            self._recover_shifts(self._full, atoms)
            self.last_update_rebuilt = True
            self.last_rebuild_cause = cause
            self.counts.counter_inc(_REBUILD_COUNTERS[cause])
            self._list = self._filter(self._full, atoms)
        else:
            self.last_update_rebuilt = False
            self.counts.counter_inc("neighbors.reuse")
            self._list = self._refresh(self._full, atoms)
        return self._list

    def _refresh(self, skin_list: NeighborList, atoms) -> NeighborList:
        """Recompute bond vectors for current positions/cell, then filter.

        ``r_j − r_i + S·h`` is exact for the present geometry — including
        after cell changes, where the old composite-vector shortcut would
        silently keep image translations of the stale lattice.
        """
        vec = atoms.positions[skin_list.j] - atoms.positions[skin_list.i]
        if len(vec):
            if self._shifts is not None:
                vec = vec + self._shifts @ np.asarray(atoms.cell.matrix,
                                                      dtype=float)
            else:
                # shift recovery failed: cell is pinned to the build-time
                # lattice (rebuild_cause forces a rebuild on any change),
                # so the stored translations are still exact
                vec = vec + self._translations
        dist = np.linalg.norm(vec, axis=1)
        refreshed = NeighborList(i=skin_list.i, j=skin_list.j, vectors=vec,
                                 distances=dist, rcut=skin_list.rcut,
                                 natoms=skin_list.natoms)
        return self._filter(refreshed, atoms)

    def _filter(self, nl: NeighborList, atoms) -> NeighborList:
        mask = nl.distances <= self.rcut
        return NeighborList(i=nl.i[mask], j=nl.j[mask],
                            vectors=nl.vectors[mask],
                            distances=nl.distances[mask],
                            rcut=self.rcut, natoms=len(atoms))
