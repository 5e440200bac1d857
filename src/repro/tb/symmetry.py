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
  new geometry in O(|ops| · N) (:func:`filter_valid_ops`), keeps the
  wedge while every op holds and re-detects when one is lost;
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
        h = cell.matrix
        return np.linalg.inv(h) @ self.w @ h

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
    transformed = np.einsum("mij,jk,mlk->mil", cands, metric, cands)
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


def _match_basis(mapped: np.ndarray, frac: np.ndarray, species: np.ndarray,
                 h: np.ndarray, pbc: np.ndarray, tol: float,
                 probe: np.ndarray) -> np.ndarray | None:
    """Atom permutation sending each mapped site onto a basis site of the
    same species within *tol* Å (modulo lattice translations along
    periodic axes), or ``None``.  *probe* indices are checked first so
    the overwhelmingly common non-match dies after O(probe × N) work."""

    def nearest(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        delta = mapped[rows][:, None, :] - frac[None, :, :]
        delta[..., pbc] -= np.round(delta[..., pbc])
        d2 = np.einsum("pnc,pnc->pn", delta @ h, delta @ h)
        j = np.argmin(d2, axis=1)
        return j, np.sqrt(d2[np.arange(len(rows)), j])

    jp, dp = nearest(probe)
    if (dp > tol).any() or (species[probe] != species[jp]).any():
        return None
    allrows = np.arange(len(frac))
    perm, dist = nearest(allrows)
    if (dist > tol).any() or (species != species[perm]).any():
        return None
    if len(np.unique(perm)) != len(perm):
        return None
    return perm


def _basis_search(atoms, w_list, tol: float, first_only: bool
                  ) -> list[SymmetryOp]:
    """Ops ``(W, t)`` for each ``W`` in *w_list* that map the basis of
    *atoms* onto itself within *tol* Å, with their atom permutations.

    The translations are searched by mapping an anchor atom (of the
    scarcest species) onto every atom of the same species; *first_only*
    keeps the first one per ``W``, else every one.  Anchor-first ordering
    makes ``W = I`` discover ``t = 0`` (the identity op) first.
    """
    n = len(atoms)
    cell = atoms.cell
    h = np.asarray(cell.matrix, dtype=float)
    pbc = np.asarray(cell.pbc, dtype=bool)
    frac_w = _wrap_frac(cell.fractional(atoms.positions), pbc)
    species = np.asarray(atoms.symbols)

    uniq, counts = np.unique(species, return_counts=True)
    candidates = np.flatnonzero(species == uniq[np.argmin(counts)])
    anchor = int(candidates[0])
    probe = np.unique(np.linspace(0, n - 1, min(n, 4)).astype(int))

    ops: list[SymmetryOp] = []
    for w in w_list:
        mapped = frac_w @ w
        for j in candidates:
            t = frac_w[j] - mapped[anchor]
            perm = _match_basis(mapped + t, frac_w, species, h, pbc, tol,
                                probe)
            if perm is not None:
                ops.append(SymmetryOp(w, _wrap_frac(t, pbc), perm))
                if first_only:
                    break
    return ops


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
    nearest-neighbour search): the metric condition for the current
    cell, then ``|f @ W + t − f[perm]| < tol`` modulo lattice
    translations.  This is the cheap per-step path of :func:`rewedge`;
    full O(N²) detection happens only when it loses an op.  Never
    empty — the identity is restored if everything else fails.
    """
    n = len(atoms)
    cell = atoms.cell
    h = np.asarray(cell.matrix, dtype=float)
    pbc = np.asarray(cell.pbc, dtype=bool)
    metric = h @ h.T
    mtol = 1e-8 * np.abs(metric).max()
    frac_w = _wrap_frac(cell.fractional(atoms.positions), pbc)
    out = []
    for op in ops:
        if op.perm is None or len(op.perm) != n:
            continue
        if np.abs(op.w @ metric @ op.w.T - metric).max() > mtol:
            continue                  # strain broke this lattice op
        delta = frac_w @ op.w + op.translation - frac_w[op.perm]
        delta[:, pbc] -= np.round(delta[:, pbc])
        cart = delta @ h
        if np.einsum("nc,nc->n", cart, cart).max() <= tol * tol:
            out.append(op)
    return out or [identity_op(n)]


def _all_hold(atoms, ops: list[SymmetryOp], tol: float) -> bool:
    """Whether revalidation keeps every op of *ops* (an empty list holds)."""
    if not ops:
        return True
    kept = filter_valid_ops(atoms, ops, tol=tol)
    return len(kept) == len(ops) and all(a is b for a, b in zip(kept, ops))


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
    if prev is not None and _all_hold(atoms, prev.ops, tol) and \
            _all_hold(atoms, prev.translations, tol):
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


def _grid_key(k: np.ndarray) -> tuple:
    """Canonical dict key of a fractional k point wrapped to [−½, ½)."""
    wrapped = k - np.round(k)
    wrapped[wrapped >= 0.5 - 1e-9] -= 1.0          # round-off at the edge
    return tuple(np.round(wrapped, 9) + 0.0)


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
    index = {_grid_key(k): i for i, k in enumerate(kpts)}

    usable: list[tuple[SymmetryOp, np.ndarray]] = []
    for op in ops:
        a = op.k_transform()
        if all(_grid_key(k) in index for k in kpts @ a):
            usable.append((op, a))
    signs = (1.0, -1.0) if time_reversal else (1.0,)

    assigned = np.zeros(len(kpts), dtype=bool)
    reps: list[int] = []
    weights: list[float] = []
    for i in range(len(kpts)):
        if assigned[i]:
            continue
        orbit = set()
        for _, a in usable:
            ki = kpts[i] @ a
            for s in signs:
                orbit.add(index[_grid_key(s * ki)])
        orbit_idx = np.fromiter(orbit, dtype=int)
        assigned[orbit_idx] = True
        reps.append(i)
        weights.append(float(w[orbit_idx].sum()))
    return IrreducibleKGrid(kpts_frac=kpts[reps],
                            weights=np.asarray(weights),
                            ops=[op for op, _ in usable],
                            n_full=len(kpts), translations=translations)


# ---------------------------------------------------------------------------
# scattering wedge sums back to full-grid quantities
# ---------------------------------------------------------------------------

def _require_perms(ops: list[SymmetryOp]) -> None:
    if any(op.perm is None for op in ops):
        raise ElectronicError(
            "force/virial symmetrisation needs ops with atom permutations "
            "(detect them with crystal_symmetry_ops, not lattice-only)")


def symmetrize_forces(forces: np.ndarray, ops: list[SymmetryOp],
                      cell) -> np.ndarray:
    """Average a wedge-accumulated force array over the folding ops.

    ``out[perm[i]] += f[i] @ rt`` per op, divided by the op count —
    linear, so it can be applied once to the weighted k sum instead of
    per k point.  With only the identity op this is a copy.
    """
    if len(ops) <= 1:
        return forces
    _require_perms(ops)
    out = np.zeros_like(forces)
    for op in ops:
        out[op.perm] += forces @ op.cartesian_rotation(cell)
    return out / len(ops)


def symmetrize_virial(virial: np.ndarray, ops: list[SymmetryOp],
                      cell) -> np.ndarray:
    """Average a wedge-accumulated virial (3×3) over the folding ops:
    ``(1/|G|) Σ R V Rᵀ`` with ``R = rtᵀ``."""
    if len(ops) <= 1:
        return virial
    out = np.zeros_like(virial)
    for op in ops:
        rt = op.cartesian_rotation(cell)
        out += rt.T @ virial @ rt
    return out / len(ops)


def symmetrize_atom_scalars(values: np.ndarray, ops: list[SymmetryOp]
                            ) -> np.ndarray:
    """Average per-atom scalars (e.g. Mulliken populations) over the
    folding ops' permutations."""
    if len(ops) <= 1:
        return values
    _require_perms(ops)
    out = np.zeros_like(np.asarray(values, dtype=float))
    for op in ops:
        out[op.perm] += values
    return out / len(ops)
