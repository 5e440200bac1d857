"""Crystal symmetry: irreducible k wedges, force scattering and the
translations that let the region engine solve one region per orbit.

Time-reversal folding (:func:`repro.tb.kpoints.fold_time_reversal`)
halves every k-sampled workload; the crystal point group cuts much
deeper — an O_h-symmetric diamond cell folds a 4×4×4 Monkhorst–Pack grid
from 64 points to 4 — and the pure translations of a supercell cut the
real-space side: a perfect 64-atom diamond supercell has 32, so its 64
localization regions are two regions, each copied 32 times.  This module
supplies the pieces that make both reductions *safe*:

* **detection** — :func:`lattice_point_group` enumerates the integer
  unimodular matrices that leave the cell metric invariant, and
  :func:`crystal_symmetry_ops` keeps those that also map the atomic
  basis onto itself (with a fractional translation — non-symmorphic ops
  such as diamond's glides are found too), recording the induced atom
  permutation; one op per rotation, because the further translations of
  a supercell act trivially on k.  :func:`lattice_translations` finds
  exactly those further translations (``W = I``, every ``t`` that maps
  the basis onto itself);
* **folding** — :func:`irreducible_kpoints` folds the full MP grid into
  a weighted irreducible wedge under the detected ops (composed with
  time reversal), *dropping any op that does not map the grid onto
  itself*, so an incommensurate grid or a symmetry-broken structure
  degrades gracefully toward the plain time-reversal reduction instead
  of producing a wrong wedge.  The wedge carries the translations beside
  its folding ops;
* **revalidation** — :func:`rewedge` re-checks both op sets against a
  new geometry in O(|ops| · N) as one stacked array check
  (:func:`filter_valid_ops`), keeps the wedge while every op holds and
  re-detects when one is lost;
* **scattering** — :func:`symmetrize_forces` / :func:`symmetrize_virial`
  / :func:`symmetrize_atom_scalars` rebuild full-grid quantities from
  wedge sums by averaging over the op set used for the folding (each
  reduced-k contribution is sent back through the rotation and the atom
  permutation).

The translations are not averaged over: a translation leaves every bond
vector ``d`` unchanged, so in the atomic gauge ``exp(i k·d)`` of H(k) it
maps one region's block onto another's as an exact permutation, at every
k.  :func:`repro.linscale.regions.region_orbits` groups the regions by
them and the region engine recurses one representative per orbit.

Conventions (matching the rest of the library): the cell matrix ``h``
has lattice vectors as *rows* and Cartesian positions are row vectors
``r = f @ h``.  A symmetry op is stored as an integer matrix ``W``
acting on fractional rows, ``f' = f @ W + t``; the induced Cartesian
rotation is ``r' = r @ rt`` with ``rt = h⁻¹ W h`` (orthogonal by
construction), and fractional k rows transform as ``k' = k @ W⁻ᵀ``.

Why averaging is exact: the full-grid band force is ``Σ_{k'} w₀ f(k')``.
Every ``k'`` equals ``g·k_r`` for a wedge representative ``k_r``, and a
space-group op ``g = (W, t, perm)`` maps per-k force fields covariantly,
``f_{perm(i)}(g·k) = f_i(k) @ rt`` (the translation drops out).  Each
orbit member is reached by the same number of ops (coset property), so

    ``F_full = Σ_{k_r} w_r · (1/|G|) Σ_{g∈G} g · f(k_r)``

with ``w_r`` the summed orbit weight — i.e. accumulate over the wedge,
then average once over the ops.  The identity needs the per-k solver
output to respect the stabiliser of ``k_r``, which holds for both the
diagonalisation and the region-FOE engines on a symmetric structure;
the one exception is zero-temperature *fractional* filling of a
degenerate Fermi level (an arbitrary state choice inside a degenerate
shell) — sample metals at kT > 0, as every solver here already requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ElectronicError
from repro.tb.kpoints import monkhorst_pack


@dataclass(frozen=True)
class SymmetryOp:
    """One crystal symmetry operation in fractional coordinates.

    ``w`` is the integer rotation part (``f' = f @ w + t`` on fractional
    rows), ``translation`` the fractional translation, and ``perm`` the
    induced atom permutation (atom *i* lands on the site of atom
    ``perm[i]``) — ``None`` for lattice-only ops detected without a
    basis.
    """

    w: np.ndarray
    translation: np.ndarray
    perm: np.ndarray | None

    @property
    def is_identity(self) -> bool:
        return (np.array_equal(self.w, np.eye(3, dtype=int))
                and not self.translation.any()
                and (self.perm is None
                     or np.array_equal(self.perm,
                                       np.arange(len(self.perm)))))

    def cartesian_rotation(self, cell) -> np.ndarray:
        """The Cartesian rotation ``rt`` with ``r' = r @ rt`` (rows)."""
        return _rotations([self], cell)[0]

    def k_transform(self) -> np.ndarray:
        """Integer matrix ``A`` with ``k' = k @ A`` for fractional k rows
        (``A = W⁻ᵀ``; exact because ``W`` is unimodular)."""
        a = np.linalg.inv(self.w).T
        ai = np.round(a).astype(int)
        if np.abs(a - ai).max() > 1e-9:  # pragma: no cover - W unimodular
            raise ElectronicError("symmetry op is not unimodular")
        return ai


def identity_op(n_atoms: int | None = None) -> SymmetryOp:
    """The trivial op (always a member of every detected group)."""
    perm = None if n_atoms is None else np.arange(n_atoms)
    return SymmetryOp(np.eye(3, dtype=int), np.zeros(3), perm)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

_UNIMODULAR: np.ndarray | None = None


def _unimodular_candidates() -> np.ndarray:
    """All 3×3 integer matrices with entries in {−1, 0, 1} and |det| = 1.

    Sufficient for every conventional cubic / tetragonal / orthorhombic /
    hexagonal cell (and any Niggli-like mild shear); a pathologically
    sheared cell would merely under-detect — fewer ops, never wrong ones.
    """
    global _UNIMODULAR
    if _UNIMODULAR is None:
        vals = np.array(np.meshgrid(*[[-1, 0, 1]] * 9, indexing="ij"))
        mats = vals.reshape(9, -1).T.reshape(-1, 3, 3)
        dets = np.round(np.linalg.det(mats)).astype(int)
        _UNIMODULAR = np.ascontiguousarray(mats[np.abs(dets) == 1])
    return _UNIMODULAR


def lattice_point_group(cell, tol: float = 1e-8) -> list[np.ndarray]:
    """Integer rotation parts ``W`` that leave the cell metric invariant.

    An op qualifies when ``W G Wᵀ = G`` for the metric ``G = h hᵀ`` —
    exactly the condition for ``h⁻¹ W h`` to be orthogonal, i.e. for the
    op to be a rigid rotation/reflection mapping the lattice onto
    itself.  *tol* is relative to the largest metric entry, tight enough
    that a 1e-6 strain already breaks the strained-away ops.  Ops mixing
    periodic and non-periodic axes are excluded (a vacuum axis cannot
    map onto a lattice axis).  The identity is always first.
    """
    h = np.asarray(cell.matrix, dtype=float)
    metric = h @ h.T
    cands = _unimodular_candidates()
    transformed = cands @ metric @ cands.transpose(0, 2, 1)
    keep = (np.abs(transformed - metric).max(axis=(1, 2))
            < tol * np.abs(metric).max())
    pbc = np.asarray(cell.pbc, dtype=bool)
    if not pbc.all():
        mix = pbc[:, None] != pbc[None, :]
        keep &= ~np.any((cands != 0) & mix, axis=(1, 2))
    mats = [w for w in cands[keep].astype(int)]
    eye = np.eye(3, dtype=int)
    mats.sort(key=lambda w: not np.array_equal(w, eye))
    return mats


def _wrap_frac(frac: np.ndarray, pbc: np.ndarray) -> np.ndarray:
    """Wrap fractional coordinates into [0, 1) along periodic axes."""
    out = np.array(frac, dtype=float)
    out[..., pbc] -= np.floor(out[..., pbc])
    return out


#: float64 elements one nearest-site pass holds: a chunk that stays in
#: cache runs ~2× faster than one large pass
_MATCH_ELEMENTS = 1 << 16


class _Sites:
    """The basis of a structure, for matching mapped sites onto it.

    A site within *tol* Å of a mapped site is within ``‖h⁻¹‖₂·tol`` of
    it along every fractional axis (``reach`` is twice that, for
    rounding).  So the sites are sorted along the axis that separates
    them best, and a mapped site is compared only with the ``k`` sites
    from the first one within reach below it, ``k`` the most that any
    interval of width ``2·reach`` holds (images one period away
    included along a periodic axis).  The nearest of those by Cartesian
    distance, modulo lattice translations along periodic axes, is the
    nearest of all whenever one lies within *tol* — so a match is
    exactly what comparing with every site gives; a crowded axis only
    makes ``k`` larger.
    """

    def __init__(self, frac: np.ndarray, species: np.ndarray, h: np.ndarray,
                 pbc: np.ndarray, tol: float):
        self.frac, self.species, self.h, self.pbc = frac, species, h, pbc
        self.tol = tol
        self.periodic = np.flatnonzero(pbc)
        self.reach = 2.0 * tol * float(np.linalg.norm(np.linalg.inv(h), 2))
        best = None
        for axis in range(3):
            order = np.argsort(frac[:, axis], kind="stable")
            x = frac[order, axis]
            if pbc[axis]:
                order, x = np.tile(order, 3), np.concatenate([x - 1, x, x + 1])
            k = int((np.searchsorted(x, x + 2.0 * self.reach, side="right")
                     - np.arange(len(x))).max())
            if best is None or k < best[0]:
                best = (k, axis, order, x)
        self.k, self.axis, self.order, self.x = best
        # window w holds the sites order[w : w + k], as one gatherable row
        self.windows = np.lib.stride_tricks.sliding_window_view(
            frac[self.order], (self.k, 3))[:, 0]

    def match(self, mapped: np.ndarray, atoms: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """``(ok, j)`` for the images ``(..., p, 3)`` of atoms *atoms*
        ``(p,)``: ``j`` the basis site each lands on, ``ok`` (shape
        ``...``) whether all *p* land within *tol* Å on a site of their
        own species."""
        flat = mapped.reshape(-1, 3)
        x = flat[:, self.axis]
        if self.pbc[self.axis]:
            x = x - np.floor(x)
        first = np.minimum(np.searchsorted(self.x, x - self.reach),
                           len(self.windows) - 1)
        step = max(1, _MATCH_ELEMENTS // (3 * self.k))
        pick, d2 = [], []
        for lo in range(0, len(flat), step):
            delta = flat[lo:lo + step, None, :] - \
                self.windows[first[lo:lo + step]]
            for c in self.periodic:
                delta[..., c] -= np.rint(delta[..., c])
            cart = delta @ self.h
            dist2 = np.einsum("qkc,qkc->qk", cart, cart)
            pick.append(np.argmin(dist2, axis=1))
            d2.append(dist2[np.arange(len(dist2)), pick[-1]])
        shape = mapped.shape[:-1]
        j = self.order[first + np.concatenate(pick)].reshape(shape)
        ok = (np.concatenate(d2).reshape(shape) <= self.tol * self.tol) \
            & (self.species[j] == self.species[atoms])
        return ok.all(axis=-1), j


def _basis_search(atoms, w_list, tol: float, first_only: bool
                  ) -> list[SymmetryOp]:
    """Ops ``(W, t)`` for each ``W`` in *w_list* that map the basis of
    *atoms* onto itself within *tol* Å, with their atom permutations.

    The translations are searched by mapping an anchor atom (of the
    scarcest species) onto every atom of the same species; *first_only*
    keeps the first one per ``W``, else every one.  Anchor-first ordering
    makes ``W = I`` discover ``t = 0`` (the identity op) first.  All
    candidates are matched at once on a few probe atoms (where nearly
    every non-match dies), the survivors on the whole basis in order.
    """
    n = len(atoms)
    cell = atoms.cell
    h = np.asarray(cell.matrix, dtype=float)
    pbc = np.asarray(cell.pbc, dtype=bool)
    frac_w = _wrap_frac(cell.fractional(atoms.positions), pbc)
    species = np.asarray(atoms.symbols)
    sites = _Sites(frac_w, species, h, pbc, tol)

    uniq, counts = np.unique(species, return_counts=True)
    candidates = np.flatnonzero(species == uniq[np.argmin(counts)])
    anchor = int(candidates[0])
    probe = np.unique(np.linspace(0, n - 1, min(n, 4)).astype(int))

    mapped = frac_w @ np.stack(w_list)                       # (W, n, 3)
    shifts = frac_w[candidates] - mapped[:, anchor, None, :]  # (W, c, 3)
    alive = sites.match(mapped[:, None, probe, :] + shifts[:, :, None, :],
                        probe)[0]
    queue = [list(np.flatnonzero(row)) for row in alive]
    found: list[list] = [[] for _ in w_list]
    everyone = np.arange(n)
    slab = max(1, _MATCH_ELEMENTS // (3 * n))
    while any(queue):
        if first_only:      # each W's next survivor, until one holds
            batch = [(i, q.pop(0)) for i, q in enumerate(queue) if q]
        else:
            batch = [(i, c) for i, q in enumerate(queue) for c in q]
            queue = [[] for _ in queue]
        for lo in range(0, len(batch), slab):
            part = batch[lo:lo + slab]
            wi = np.array([i for i, _ in part])
            t = shifts[wi, [c for _, c in part]]
            ok, perms = sites.match(mapped[wi] + t[:, None, :], everyone)
            ok &= (np.sort(perms, axis=1) == everyone).all(axis=1)
            for i, ti, good, perm in zip(wi, t, ok, perms):
                if good:
                    found[i].append(SymmetryOp(w_list[i], _wrap_frac(ti, pbc),
                                               perm))
                    if first_only:
                        queue[i] = []
    return [op for ops in found for op in ops]


def crystal_symmetry_ops(atoms, tol: float = 1e-5) -> list[SymmetryOp]:
    """Space-group operations of *atoms* as :class:`SymmetryOp` objects.

    For each lattice rotation the first fractional translation that maps
    the whole basis onto itself (within *tol* Å) is kept — one op per
    rotation, which is all the k-folding and force scattering need: the
    further translations of a supercell act trivially on k.  Those are
    what the localization regions use, and
    :func:`lattice_translations` finds them.  A structure with no
    symmetry returns just the identity; non-periodic structures likewise.
    """
    n = len(atoms)
    if n == 0 or not atoms.cell.periodic:
        return [identity_op(n)]
    return _basis_search(atoms, lattice_point_group(atoms.cell), tol,
                         first_only=True)


def lattice_translations(atoms, tol: float = 1e-5) -> list[SymmetryOp]:
    """Every pure translation (``W = I``) that maps *atoms* onto itself.

    The identity comes first.  A perfect supercell of an n-atom primitive
    cell has one translation per primitive cell it contains (a 64-atom
    diamond supercell: 32, so its atoms fall into two sublattices).
    Each op's permutation carries one atom's localization region onto
    another's (:func:`repro.linscale.regions.region_orbits`).
    Non-periodic structures return just the identity.
    """
    n = len(atoms)
    if n == 0 or not atoms.cell.periodic:
        return [identity_op(n)]
    return _basis_search(atoms, [np.eye(3, dtype=int)], tol,
                         first_only=False)


def filter_valid_ops(atoms, ops: list[SymmetryOp], tol: float = 1e-5
                     ) -> list[SymmetryOp]:
    """The subset of *ops* that still hold for *atoms* — O(|ops| · N).

    Each op is re-verified directly against its stored permutation (no
    nearest-neighbour search), all ops at once: the metric condition
    ``W G Wᵀ = G`` for the current cell, then
    ``|f @ W + t − f[perm]| < tol`` modulo lattice translations.  This
    is the cheap per-step path of :func:`rewedge`; full O(N²) detection
    happens only when it loses an op.  Never empty — the identity is
    restored if everything else fails.
    """
    n = len(atoms)
    ops = [op for op in ops if op.perm is not None and len(op.perm) == n]
    if not ops:
        return [identity_op(n)]
    cell = atoms.cell
    h = np.asarray(cell.matrix, dtype=float)
    pbc = np.asarray(cell.pbc, dtype=bool)
    metric = h @ h.T
    w = np.stack([op.w for op in ops])
    # a strain breaks the lattice ops whose metric condition fails
    lattice_ok = (np.abs(w @ metric @ w.transpose(0, 2, 1) - metric)
                  .max(axis=(1, 2)) <= 1e-8 * np.abs(metric).max())
    frac_w = _wrap_frac(cell.fractional(atoms.positions), pbc)
    delta = frac_w @ w + np.stack([op.translation for op in ops])[:, None] \
        - frac_w[np.stack([op.perm for op in ops])]
    delta[..., pbc] -= np.round(delta[..., pbc])
    cart = delta @ h
    basis_ok = np.einsum("mnc,mnc->mn", cart, cart).max(axis=1) <= tol * tol
    return [op for op, ok in zip(ops, lattice_ok & basis_ok) if ok] \
        or [identity_op(n)]


def rewedge(size, atoms, prev: "IrreducibleKGrid | None" = None,
            tol: float = 1e-5) -> "IrreducibleKGrid":
    """Irreducible wedge of *atoms*, reusing *prev* when its ops hold.

    The calculators call this on every geometry change, with *prev* the
    wedge it last returned for the same grid *size*.  Revalidating its
    folding ops and translations is O(|ops| · N); when every one holds,
    *prev* itself is returned — the fold depends on the grid and the ops
    only.  The full O(N²) detection runs on the first resolve and
    whenever revalidation *loses* an op (the structure broke symmetry and
    the true subgroup must be found).  Ops the structure has *gained*
    since the last full detection are not searched for — a
    larger-than-minimal wedge is still physically exact, just less
    reduced — so an MD trajectory pays detection once, not per step.
    """
    held = [] if prev is None else prev.ops + prev.translations
    if held and [id(op) for op in filter_valid_ops(atoms, held, tol)] \
            == [id(op) for op in held]:
        obs.counter_inc("symmetry.revalidated")
        return prev
    obs.counter_inc("symmetry.redetected")
    return irreducible_kpoints(size, atoms=atoms, tol=tol)


# ---------------------------------------------------------------------------
# irreducible wedges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrreducibleKGrid:
    """A symmetry-folded Monkhorst–Pack grid.

    ``kpts_frac`` / ``weights`` are the wedge representatives (members of
    the original grid) with orbit-summed weights (Σw = 1); ``ops`` the
    operations actually used for the folding — exactly the set force and
    virial scattering must average over; ``n_full`` the unreduced grid
    size.  ``translations`` are the structure's pure translations
    (:func:`lattice_translations`; empty when the wedge was folded from
    given ops or a bare cell), carried beside the folding ops so that
    the region engine can solve one region per translation orbit.
    """

    kpts_frac: np.ndarray
    weights: np.ndarray
    ops: list[SymmetryOp]
    n_full: int
    translations: list[SymmetryOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.kpts_frac)


def _grid_keys(k: np.ndarray) -> list[tuple]:
    """Canonical dict keys of fractional k rows wrapped to [−½, ½)."""
    wrapped = k - np.round(k)
    wrapped[wrapped >= 0.5 - 1e-9] -= 1.0          # round-off at the edge
    return list(map(tuple, (np.round(wrapped, 9) + 0.0).tolist()))


def irreducible_kpoints(size, cell=None, atoms=None,
                        ops: list[SymmetryOp] | None = None,
                        time_reversal: bool = True,
                        tol: float = 1e-5) -> IrreducibleKGrid:
    """Fold a Monkhorst–Pack grid into its irreducible wedge.

    Parameters
    ----------
    size : MP divisions (int or 3-tuple).
    cell, atoms :
        Where the operations come from when *ops* is not given: with
        *atoms*, the full crystal symmetry (lattice + basis) and the
        pure translations; with only *cell*, the bare lattice point
        group (no atom permutations — fine for weight bookkeeping,
        unusable for force scattering).
    ops :
        Pre-detected operations (e.g. cached across a strain sweep).
    time_reversal :
        Compose every op with k → −k (valid for the real-space-real
        Hamiltonians used throughout this library).

    Ops that do not map the grid onto itself (an anisotropic grid on a
    cubic crystal, say) are dropped — never misfolded — so the wedge
    degrades continuously toward the time-reversal-only reduction.
    Representatives are grid members; orbit weights are summed exactly,
    so every weighted band quantity matches the full grid to round-off
    (the test suite asserts 1e-12 on energies and Σw).
    """
    translations: list[SymmetryOp] = []
    if ops is None:
        if atoms is not None:
            ops = crystal_symmetry_ops(atoms, tol=tol)
            translations = lattice_translations(atoms, tol=tol)
        elif cell is not None:
            ops = [SymmetryOp(w, np.zeros(3), None)
                   for w in lattice_point_group(cell)]
        else:
            ops = [identity_op()]
    kpts, w = monkhorst_pack(size, reduce_time_reversal=False)
    index = {key: i for i, key in enumerate(_grid_keys(kpts))}

    ka = kpts @ np.stack([op.k_transform() for op in ops])   # (ops, k, 3)
    images = np.array([index.get(key, -1) for key in
                       _grid_keys(ka.reshape(-1, 3))]).reshape(len(ops), -1)
    on_grid = (images >= 0).all(axis=1)      # the op maps the grid onto itself
    usable = [op for op, keep in zip(ops, on_grid) if keep]
    images = images[on_grid]
    if time_reversal:
        images = np.concatenate([images, np.reshape(
            [index[key] for key in _grid_keys(-ka[on_grid].reshape(-1, 3))],
            images.shape)])
    orbits = images.T

    assigned = np.zeros(len(kpts), dtype=bool)
    reps: list[int] = []
    weights: list[float] = []
    for i in range(len(kpts)):
        if assigned[i]:
            continue
        orbit_idx = np.unique(orbits[i])
        assigned[orbit_idx] = True
        reps.append(i)
        weights.append(float(w[orbit_idx].sum()))
    return IrreducibleKGrid(kpts_frac=kpts[reps],
                            weights=np.asarray(weights),
                            ops=usable, n_full=len(kpts),
                            translations=translations)


# ---------------------------------------------------------------------------
# scattering wedge sums back to full-grid quantities
# ---------------------------------------------------------------------------

def _require_perms(ops: list[SymmetryOp]) -> None:
    if any(op.perm is None for op in ops):
        raise ElectronicError(
            "force/virial symmetrisation needs ops with atom permutations "
            "(detect them with crystal_symmetry_ops, not lattice-only)")


def _rotations(ops: list[SymmetryOp], cell) -> np.ndarray:
    """Every op's Cartesian rotation ``rt = h⁻¹ W h``, stacked in op
    order (one inverse per call)."""
    h = cell.matrix
    return np.linalg.inv(h) @ np.stack([op.w for op in ops]) @ h


def symmetrize_forces(forces: np.ndarray, ops: list[SymmetryOp],
                      cell) -> np.ndarray:
    """Average a wedge-accumulated force array over the folding ops.

    ``out[perm[i]] += f[i] @ rt`` per op, divided by the op count —
    linear, so it can be applied once to the weighted k sum instead of
    per k point.  One scatter for all ops, accumulated in op order.
    With only the identity op this is a copy.
    """
    if len(ops) <= 1:
        return forces
    _require_perms(ops)
    out = np.zeros_like(forces)
    np.add.at(out, np.concatenate([op.perm for op in ops]),
              (forces @ _rotations(ops, cell)).reshape(-1, 3))
    return out / len(ops)


def symmetrize_virial(virial: np.ndarray, ops: list[SymmetryOp],
                      cell) -> np.ndarray:
    """Average a wedge-accumulated virial (3×3) over the folding ops:
    ``(1/|G|) Σ R V Rᵀ`` with ``R = rtᵀ``."""
    if len(ops) <= 1:
        return virial
    rt = _rotations(ops, cell)
    out = np.zeros_like(virial)
    for term in rt.transpose(0, 2, 1) @ virial @ rt:
        out += term
    return out / len(ops)


def symmetrize_atom_scalars(values: np.ndarray, ops: list[SymmetryOp]
                            ) -> np.ndarray:
    """Average per-atom scalars (e.g. Mulliken populations) over the
    folding ops' permutations."""
    if len(ops) <= 1:
        return values
    _require_perms(ops)
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    np.add.at(out, np.concatenate([op.perm for op in ops]),
              np.tile(values, len(ops)))
    return out / len(ops)
