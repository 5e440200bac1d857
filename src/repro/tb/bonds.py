"""The bond table: one structure's bonds, derived once per step.

The Hamiltonian (:func:`repro.tb.hamiltonian.build_hamiltonian`), the
band forces (:func:`repro.tb.forces.band_forces`, through the one bond
contraction ``_bond_forces``) and the repulsion
(:func:`repro.tb.forces.repulsive_energy_forces`) all walk the same
half-list bonds grouped by species pair.  This module derives them once,
in two layers:

* :class:`BondPattern` — everything the pair set, the species and the
  model fix: per species pair the pair and atom indices and the orbital
  block layout, plus the flat indices the sinks scatter into and gather
  from.  Every TB calculator keeps one across steps
  (:meth:`repro.state.CalculatorBase._bond_table`) and rebuilds it only
  when :meth:`BondPattern.matches` fails — new pairs, new species, a new
  atom count — or on ``invalidate()``.
* :class:`BondTable` — the step's :class:`NeighborList` together with
  its pattern, so it travels as the ``nl`` argument every consumer
  already takes.  Per species pair (:class:`Bonds`) it derives what the
  geometry sets — r, u, hopping and overlap radials with their
  derivatives, Slater–Koster blocks and gradients, φ/φ′ — on first use,
  and every consumer of the step reads the same arrays.  A plain
  :class:`NeighborList` gets a one-shot table (:func:`bond_table`), so
  callers that never cache (band structures, populations, tools) need
  no change.  Every table checks its list for coincident atoms
  (:data:`MIN_PAIR_DISTANCE`).

A matrix leaves the pattern through one of two sinks over the same
entries: :meth:`BondPattern.to_dense` and :meth:`BondPattern.to_csr`.
:func:`scatter_add` is the one scatter: the dense H and S, band and
repulsive forces and the embedding arguments are each one pass over the
pattern's cached flat indices.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.errors import GeometryError, ModelError
from repro.neighbors.base import NeighborList
from repro.tb.slater_koster import sk_block_gradients, sk_blocks

#: ``(V, dV)`` channel dicts of a radial matrix element
Radials = tuple[dict[str, np.ndarray], dict[str, np.ndarray]]

#: Shortest pair distance (Å) a bond table accepts.  The radial functions
#: diverge at r → 0 (the bond direction is undefined at r = 0), so two
#: atoms on one site give NaN or a huge finite energy.  A seventh of
#: H₂'s 0.74 Å, the shortest bond any shipped model describes (the
#: Harrison H/C/Si/Ge terms; C–C ≈ 1.2 Å, Si–Si ≈ 2.35 Å), so no physical
#: configuration comes near it, while a pair squeezed to 0.2 Å still
#: solves (to the huge forces an exploding MD run is caught by).
MIN_PAIR_DISTANCE = 0.1


def orbital_offsets(symbols: Sequence[str], model: Any) -> tuple[np.ndarray, int]:
    """Per-atom orbital offsets and total orbital count.

    Returns ``(offsets, M)`` with ``offsets[i]`` the first matrix row of
    atom *i*.
    """
    norbs = np.array([model.norb(s) for s in symbols], dtype=int)
    offsets = np.concatenate(([0], np.cumsum(norbs)[:-1]))
    return offsets, int(norbs.sum())


def pair_species_groups(symbols: Sequence[str], nl: NeighborList
                        ) -> dict[tuple[str, str], np.ndarray]:
    """Group half-list pair indices by (species_i, species_j).

    Vectorised radial evaluation then happens once per species pair instead
    of once per bond.
    """
    syms = np.asarray(symbols)
    si = syms[nl.i]
    sj = syms[nl.j]
    groups: dict[tuple[str, str], np.ndarray] = {}
    if nl.n_pairs == 0:
        return groups
    keys = np.char.add(np.char.add(si.astype(str), "|"), sj.astype(str))
    for key in np.unique(keys):
        a, b = key.split("|")
        groups[(a, b)] = np.flatnonzero(keys == key)
    return groups


def scatter_add(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``out[index[n]] += values[n]`` for n in order, over *size* zeros.

    The one scatter of dense H and S, forces and the embedding
    arguments.  Every bin receives its terms in the order ``np.add.at``
    would add them (the count is a sequential loop), so one call over all
    species pairs is bit-equal to one ``np.add.at`` per pair group and
    direction.  Complex values scatter their real and imaginary parts
    separately — which is how a complex sum rounds anyway.
    """
    if np.iscomplexobj(values):
        out = np.empty(size, dtype=complex)
        out.real = np.bincount(index, values.real, size)
        out.imag = np.bincount(index, values.imag, size)
        return out
    return np.bincount(index, values, size)


def _concat(parts: list[np.ndarray], dtype: Any = float) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


class PairGroup:
    """The bonds of one species pair (``sa`` on atom i, ``sb`` on atom j)
    within a pattern: their positions in the pair list (``pidx``), their
    atoms (``ii``, ``jj``) and the first matrix rows of those atoms'
    orbitals (``oi``, ``oj``)."""

    def __init__(self, sa: str, sb: str, pidx: np.ndarray, nl: NeighborList,
                 offsets: np.ndarray, model: Any) -> None:
        self.sa, self.sb = sa, sb
        self.pidx = pidx
        self.ii = nl.i[pidx]
        self.jj = nl.j[pidx]
        self.oi = offsets[self.ii]
        self.oj = offsets[self.jj]
        self.ni, self.nj = model.norb(sa), model.norb(sb)

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, ni, nj) row and column grids of the bonds' orbital blocks
        (derived on demand: a resident pattern keeps only flat indices)."""
        ni, nj = self.ni, self.nj
        rows = (self.oi[:, None, None] + np.arange(ni)[None, :, None]
                + np.zeros((1, 1, nj), dtype=int))
        cols = (self.oj[:, None, None] + np.arange(nj)[None, None, :]
                + np.zeros((1, ni, 1), dtype=int))
        return rows, cols


class BondPattern:
    """What one step's bonds share with the next: everything fixed by
    the pair set (the list's ``i``, ``j``), the species and the model.

    Built from the first list of a pair set; the sinks' flat indices are
    derived on first use, so a one-shot table pays only for what its
    consumer reads.
    """

    def __init__(self, symbols: Sequence[str], model: Any,
                 nl: NeighborList) -> None:
        model.check_species(symbols)
        self.symbols = tuple(symbols)
        self.model = model
        self.natoms = len(self.symbols)
        self._pairs = (nl.i.tobytes(), nl.j.tobytes())
        self.offsets, self.m = orbital_offsets(self.symbols, model)
        self.groups = tuple(
            PairGroup(sa, sb, pidx, nl, self.offsets, model)
            for (sa, sb), pidx in pair_species_groups(self.symbols, nl).items())

    def matches(self, symbols: Sequence[str], nl: NeighborList) -> bool:
        """True when *symbols* and *nl*'s pairs, in order, are exactly
        this pattern's — the one rebuild rule: a pattern is a pure
        function of (symbols, model, i, j).  The pairs are compared by
        bytes, so a mere dtype change reads as a new pattern."""
        return (self.symbols == tuple(symbols)
                and self._pairs == (nl.i.tobytes(), nl.j.tobytes()))

    @cached_property
    def onsite(self) -> np.ndarray:
        """The (M,) on-site diagonal."""
        onsite = np.zeros(self.m)
        for o, sym in zip(self.offsets, self.symbols):
            e = self.model.onsite(sym)
            onsite[o:o + len(e)] = e
        return onsite

    @cached_property
    def n_electrons(self) -> float:
        """Valence electron count of the structure."""
        return float(self.model.total_electrons(self.symbols))

    @cached_property
    def species_masks(self) -> list[tuple[str, np.ndarray]]:
        """``(symbol, atom mask)`` per distinct species, sorted."""
        syms = np.asarray(self.symbols)
        return [(str(s), syms == s) for s in np.unique(syms)]

    def matrix_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows and columns of every matrix entry a bond table emits, in
        emission order: the diagonal, then per species pair each block
        and its transpose."""
        diag = np.arange(self.m)
        rows, cols = [diag], [diag]
        for g in self.groups:
            r, c = g.grids()
            rows += [r.ravel(), np.swapaxes(c, 1, 2).ravel()]
            cols += [c.ravel(), np.swapaxes(r, 1, 2).ravel()]
        return np.concatenate(rows), np.concatenate(cols)

    @cached_property
    def matrix_index(self) -> np.ndarray:
        """:meth:`matrix_coords` as flat indices into a raveled M×M
        matrix — the dense sink's.  Kept as int32 (a dense M² fits it
        long before M² doubles fit memory): it is the bulk of what a
        resident pattern holds."""
        rows, cols = self.matrix_coords()
        return (rows * self.m + cols).astype(np.int32)

    @cached_property
    def csr_structure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
        """The CSR sink's maps: the lexsort permutation of
        :meth:`matrix_coords` into (row, column) order, the
        ``np.add.reduceat`` starts of its distinct entries, and the int32
        ``indices`` / ``indptr`` of the matrix they fill."""
        rows, cols = self.matrix_coords()
        perm = np.lexsort((cols, rows))
        rows, cols = rows[perm], cols[perm]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(first)
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows[starts], minlength=self.m))))
        return (perm, starts, cols[starts].astype(np.int32),
                indptr.astype(np.int32))

    def to_dense(self, values: np.ndarray) -> np.ndarray:
        """The M×M matrix of one value per :meth:`matrix_coords` entry;
        periodic-image duplicates add in emission order."""
        return scatter_add(self.matrix_index, values,
                           self.m * self.m).reshape(self.m, self.m)

    def to_csr(self, values: np.ndarray) -> sp.csr_matrix:
        """The same matrix as scipy CSR in O(M) memory: duplicates add in
        one ``reduceat`` over the lexsorted entries, in emission order
        within each slot.  Every matrix of a pattern — H at Γ and each
        H(k) — shares one structure."""
        perm, starts, indices, indptr = self.csr_structure
        data = np.add.reduceat(values[perm], starts) if len(starts) \
            else values[:0]
        return sp.csr_matrix((data, indices, indptr), shape=(self.m, self.m))

    @cached_property
    def gather_index(self) -> list[np.ndarray]:
        """Per species pair, where its (P, ni, nj) blocks sit in a raveled
        M×M matrix — the density-matrix gather of the band forces, as
        views of the forward segments of :attr:`matrix_index`."""
        out, start = [], self.m
        for g in self.groups:
            n = len(g.ii) * g.ni * g.nj
            out.append(self.matrix_index[start:start + n].reshape(
                len(g.ii), g.ni, g.nj))
            start += 2 * n
        return out

    @cached_property
    def atom_index(self) -> np.ndarray:
        """Atom of every per-bond term a pair sum adds: per species pair
        the i ends, then the j ends."""
        return _concat([x for g in self.groups for x in (g.ii, g.jj)], int)

    @cached_property
    def force_index(self) -> np.ndarray:
        """:attr:`atom_index` spread over the Cartesian components of a
        raveled (N, 3) force array."""
        return (3 * self.atom_index[:, None] + np.arange(3)).ravel()

    def atom_sums(self, per_bond: list[np.ndarray]) -> np.ndarray:
        """(N,) sums of one scalar per bond and species pair, added to
        both of its atoms."""
        values = _concat([x for v in per_bond for x in (v, v)])
        return scatter_add(self.atom_index, values, self.natoms)

    def atom_forces(self, pair_forces: list[np.ndarray]) -> np.ndarray:
        """(N, 3) forces from one (P, 3) ``∂E/∂d`` per species pair: each
        bond's g lands on its atom i, −g on its atom j."""
        values = _concat([x for g in pair_forces
                          for x in (g.ravel(), (-g).ravel())])
        return scatter_add(self.force_index, values,
                           3 * self.natoms).reshape(self.natoms, 3)


class Bonds:
    """One species pair's bonds at the step's geometry: the pattern's
    :class:`PairGroup` (``pair``) plus the values the geometry sets,
    each derived on first use and then shared by every consumer."""

    def __init__(self, pair: PairGroup, model: Any, distances: np.ndarray,
                 vectors: np.ndarray) -> None:
        self.pair = pair
        self.model = model
        self._distances = distances
        self._vectors = vectors

    @cached_property
    def r(self) -> np.ndarray:
        return self._distances[self.pair.pidx]

    @cached_property
    def vec(self) -> np.ndarray:
        return self._vectors[self.pair.pidx]

    @cached_property
    def u(self) -> np.ndarray:
        return self.vec / self.r[:, None]

    @cached_property
    def hopping(self) -> Radials:
        return self.model.hopping(self.pair.sa, self.pair.sb, self.r)

    @cached_property
    def overlap(self) -> Radials:
        ov: Radials | None = self.model.overlap(self.pair.sa, self.pair.sb,
                                                self.r)
        if ov is None:
            raise ModelError(
                f"model {self.model.name!r} requested with overlap but "
                f"returns none for pair ({self.pair.sa}, {self.pair.sb})")
        return ov

    @cached_property
    def h_blocks(self) -> np.ndarray:
        """(P, ni, nj) hopping blocks."""
        return self._blocks(self.hopping)

    @cached_property
    def s_blocks(self) -> np.ndarray:
        """(P, ni, nj) overlap blocks."""
        return self._blocks(self.overlap)

    @cached_property
    def h_gradients(self) -> np.ndarray:
        """(P, 3, ni, nj) bond-vector gradients of the hopping blocks."""
        return self._gradients(self.hopping)

    @cached_property
    def s_gradients(self) -> np.ndarray:
        """(P, 3, ni, nj) bond-vector gradients of the overlap blocks."""
        return self._gradients(self.overlap)

    @cached_property
    def repulsion(self) -> tuple[np.ndarray, np.ndarray]:
        """Pair repulsion φ(r) and φ′(r)."""
        return self.model.pair_repulsion(self.pair.sa, self.pair.sb, self.r)

    def phases(self, k: np.ndarray) -> np.ndarray:
        """Atomic-gauge phases ``exp(i k·d)`` at Cartesian *k*."""
        return np.exp(1j * (self.vec @ k))

    def _blocks(self, radials: Radials) -> np.ndarray:
        return sk_blocks(self.u, radials[0])[:, :self.pair.ni, :self.pair.nj]

    def _gradients(self, radials: Radials) -> np.ndarray:
        return sk_block_gradients(self.u, self.r, *radials)[
            :, :, :self.pair.ni, :self.pair.nj]


@dataclass(frozen=True, eq=False)
class BondTable(NeighborList):
    """A step's half neighbour list together with its :class:`BondPattern`.

    A :class:`NeighborList` in every respect, so it is passed wherever a
    list is; the consumers that know it read :attr:`groups` instead of
    deriving the bonds again.
    """

    pattern: BondPattern = field(repr=False)

    @cached_property
    def groups(self) -> tuple[Bonds, ...]:
        """The step's :class:`Bonds`, one per species pair of the pattern."""
        return tuple(Bonds(g, self.pattern.model, self.distances, self.vectors)
                     for g in self.pattern.groups)


def _check_separations(nl: NeighborList) -> None:
    """Raise :class:`GeometryError` naming the closest pair of *nl* when
    it is nearer than :data:`MIN_PAIR_DISTANCE`."""
    if nl.n_pairs == 0:
        return
    p = int(np.argmin(nl.distances))
    r = float(nl.distances[p])
    if r < MIN_PAIR_DISTANCE:
        raise GeometryError(
            f"atoms {int(nl.i[p])} and {int(nl.j[p])} are {r:.3g} Å apart, "
            f"closer than {MIN_PAIR_DISTANCE} Å: coincident atoms have no "
            "bond (a duplicated atom in the input?)")


def bond_table(atoms: Any, model: Any, nl: NeighborList,
               pattern: BondPattern | None = None) -> BondTable:
    """*nl* as a bond table of *model*.

    A table already built for *model* is returned as it is.  Otherwise
    the list's closest pair is checked against :data:`MIN_PAIR_DISTANCE`
    and the list is wrapped over *pattern* — which the caller vouches holds
    exactly these pairs — or, without one, over a one-shot pattern.
    """
    if isinstance(nl, BondTable) and nl.pattern.model is model:
        return nl
    _check_separations(nl)
    if pattern is None:
        pattern = BondPattern(atoms.symbols, model, nl)
    return BondTable(nl.i, nl.j, nl.vectors, nl.distances, nl.rcut,
                     nl.natoms, pattern)
