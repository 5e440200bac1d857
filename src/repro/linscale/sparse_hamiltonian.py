"""Sparse (CSR) tight-binding Hamiltonian assembly.

The dense builder in :mod:`repro.tb.hamiltonian` allocates M×M even
though a short-ranged TB Hamiltonian has O(M) nonzeros — the wall every
O(N) method hits first.  This module assembles the *same* matrix straight
from the half neighbour list as scipy CSR: each bond contributes its
Slater–Koster block and the block's transpose as COO triplets, periodic
image duplicates summing on conversion (the sparse analogue of the
``np.add.at`` scatter).

The result equals the dense builder to summation order of image
duplicates (~1 ulp; asserted in ``tests/test_linscale.py``), so every
downstream consumer — purification and the region engine, with one
all-core region or many — can switch representation freely.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.errors import ModelError
from repro.neighbors.base import NeighborList
from repro.tb.bonds import (
    block_index_grids,
    orbital_offsets,
    pair_species_groups,
)
from repro.tb.hamiltonian import _matrix_entries
from repro.tb.slater_koster import sk_blocks


def _build_sparse(atoms, model, nl: NeighborList,
                  with_overlap: bool | None, k_cart
                  ) -> tuple[sp.csr_matrix, sp.csr_matrix | None]:
    """COO → CSR sink of :func:`repro.tb.hamiltonian._matrix_entries`
    for Γ (``k_cart=None``) and finite k."""
    pattern, h, s = _matrix_entries(atoms, model, nl, with_overlap, k_cart)
    rows, cols = pattern.matrix_coords()
    m = pattern.m

    def to_csr(values):
        mat = sp.coo_matrix((values, (rows, cols)), shape=(m, m)).tocsr()
        mat.sum_duplicates()
        return mat

    return to_csr(h), None if s is None else to_csr(s)


def build_sparse_hamiltonian(atoms, model, nl: NeighborList,
                             with_overlap: bool | None = None
                             ) -> tuple[sp.csr_matrix, sp.csr_matrix | None]:
    """Assemble the Γ-point Hamiltonian (and overlap) in CSR form.

    Returns ``(H, S)`` with ``S`` ``None`` for orthogonal models; both are
    real symmetric and numerically identical to
    :func:`repro.tb.hamiltonian.build_hamiltonian`.
    """
    return _build_sparse(atoms, model, nl, with_overlap, None)


def build_sparse_hamiltonian_k(atoms, model, nl: NeighborList, k_cart,
                               with_overlap: bool | None = None
                               ) -> tuple[sp.csr_matrix, sp.csr_matrix | None]:
    """Assemble the complex Hermitian H(k) (and S(k)) in CSR form.

    The sparse twin of :func:`repro.tb.hamiltonian.build_hamiltonian`
    at ``k_cart``: the same atomic-gauge phases ``exp(i k·d)`` on the same half-list
    bonds, with periodic-image duplicates (which carry *different*
    phases) summing on CSR conversion.  Returns ``(H_k, S_k)`` with
    ``S_k`` ``None`` for orthogonal models.
    """
    return _build_sparse(atoms, model, nl, with_overlap, k_cart)


def hamiltonian_fill_fraction(H: sp.spmatrix) -> float:
    """nnz / M² — how much the dense builder over-allocates."""
    m = H.shape[0]
    return H.nnz / float(m * m) if m else 0.0


class SparseHamiltonianBuilder:
    """Incremental CSR assembler for MD: reuse the pattern, rewrite values.

    :func:`build_sparse_hamiltonian` pays the full COO → CSR conversion
    (lexsort, duplicate merge, structure allocation) on every call even
    though the *sparsity pattern* of a TB Hamiltonian only changes when a
    bond crosses the cutoff — rare between MD steps, and detectable by
    comparing the neighbour-list pair arrays.  This builder caches, per
    pattern:

    * the species-pair groups and their orbital block index layout,
    * the lexsort permutation and duplicate-merge boundaries mapping raw
      block triplets onto unique CSR slots,
    * the CSR ``indices`` / ``indptr`` structure itself,
    * the constant on-site data and the last hopping blocks per group.

    A pattern *hit* then costs only the Slater–Koster value recomputation
    plus one gather/reduce into the cached structure; and when only a
    subset of atoms moved (``moved`` mask — numerical phonons, partial
    relaxations, frozen regions), hopping is re-evaluated **only for the
    bonds whose neighbour environment changed** — the incremental
    row-rewrite of the MD fast path.  The assembled matrix equals
    :func:`build_sparse_hamiltonian` to duplicate-summation order
    (≤ ~1 ulp).

    Orthogonal models only (the O(N) pipeline's contract); the overlap
    path stays on the full builder.
    """

    def __init__(self, model):
        if not model.orthogonal:
            raise ModelError(
                "SparseHamiltonianBuilder supports orthogonal models only; "
                "use build_sparse_hamiltonian for S-metric models"
            )
        self.model = model
        self.counts = obs.MetricsScope()
        self.reset()

    def reset(self) -> None:
        """Drop the cached pattern (next :meth:`build` is a full build)."""
        self._sig_i: np.ndarray | None = None
        self._sig_j: np.ndarray | None = None
        self._symbols: tuple | None = None
        self._groups: list | None = None
        self._perm = None            # lexsort permutation of raw triplets
        self._starts = None          # reduceat boundaries of unique slots
        self._indices = None         # cached CSR structure
        self._indptr = None
        self._m = 0
        self._raw = None             # raw triplet data vector (layout-fixed)
        self._raw_k = None           # complex twin of _raw for H(k) emits
        self._onsite_len = 0

    def stats(self) -> dict:
        """Assembly counters: pattern builds vs value-only rewrites."""
        count = self.counts.count
        return {"pattern_builds": count("hamiltonian.pattern_miss"),
                "value_updates": count("hamiltonian.pattern_hit"),
                "partial_updates": count("hamiltonian.partial_update")}

    # -- full (pattern) build ----------------------------------------------
    def _build_pattern(self, atoms, nl: NeighborList) -> None:
        symbols = atoms.symbols
        model = self.model
        offsets, m = orbital_offsets(symbols, model)

        onsite = np.concatenate(
            [np.asarray(model.onsite(s), dtype=float) for s in symbols])
        rows = [np.arange(m)]
        cols = [np.arange(m)]

        groups = []
        cursor = m
        for (sa, sb), pidx in pair_species_groups(symbols, nl).items():
            ni, nj = model.norb(sa), model.norb(sb)
            oi = offsets[nl.i[pidx]]
            oj = offsets[nl.j[pidx]]
            rgrid, cgrid = block_index_grids(oi, oj, ni, nj)
            rows.append(np.concatenate(
                [rgrid.ravel(), np.swapaxes(cgrid, 1, 2).ravel()]))
            cols.append(np.concatenate(
                [cgrid.ravel(), np.swapaxes(rgrid, 1, 2).ravel()]))
            seg_len = 2 * len(pidx) * ni * nj
            groups.append({
                "sa": sa, "sb": sb, "pidx": pidx, "ni": ni, "nj": nj,
                "slice": slice(cursor, cursor + seg_len),
                "blocks": None,
            })
            cursor += seg_len

        r = np.concatenate(rows)
        c = np.concatenate(cols)
        perm = np.lexsort((c, r))
        rs, cs = r[perm], c[perm]
        is_first = np.ones(len(rs), dtype=bool)
        if len(rs) > 1:
            is_first[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        starts = np.flatnonzero(is_first)
        indices = cs[starts]
        counts = np.bincount(rs[starts], minlength=m)
        indptr = np.concatenate(([0], np.cumsum(counts)))

        self._sig_i = nl.i.copy()
        self._sig_j = nl.j.copy()
        self._symbols = tuple(symbols)
        self._groups = groups
        self._perm = perm
        self._starts = starts
        self._indices = indices.astype(np.int32, copy=False)
        self._indptr = indptr.astype(np.int32, copy=False)
        self._m = m
        self._raw = np.empty(cursor)
        self._raw[:m] = onsite
        self._onsite_len = m

        self._write_group_values(nl, dirty=None)

    # -- value paths --------------------------------------------------------
    def _write_group_values(self, nl: NeighborList,
                            dirty: np.ndarray | None) -> None:
        """(Re)compute SK blocks and write them into the raw data vector.

        ``dirty`` is a boolean mask over the *pair* axis; ``None`` means
        recompute every bond.  Clean bonds keep their cached block values
        — their endpoints did not move, so their vectors are unchanged.
        """
        model = self.model
        for g in self._groups:
            pidx = g["pidx"]
            sel = None if dirty is None else np.flatnonzero(dirty[pidx])
            if sel is not None and len(sel) == 0 and g["blocks"] is not None:
                continue
            if sel is None or g["blocks"] is None or \
                    len(sel) * 2 >= len(pidx):
                take = pidx
                dst = None
            else:
                take = pidx[sel]
                dst = sel
            r = nl.distances[take]
            u = nl.vectors[take] / r[:, None]
            V, _ = model.hopping(g["sa"], g["sb"], r)
            blocks = sk_blocks(u, V)[:, :g["ni"], :g["nj"]]
            if dst is None:
                g["blocks"] = blocks
            else:
                g["blocks"][dst] = blocks
            seg = self._raw[g["slice"]]
            half = seg.shape[0] // 2
            seg[:half] = g["blocks"].ravel()
            seg[half:] = np.swapaxes(g["blocks"], 1, 2).ravel()

    def _emit(self) -> sp.csr_matrix:
        data = np.add.reduceat(self._raw[self._perm], self._starts) \
            if len(self._starts) else np.zeros(0)
        return sp.csr_matrix((data, self._indices, self._indptr),
                             shape=(self._m, self._m))

    def _ensure_values(self, atoms, nl: NeighborList,
                       moved: np.ndarray | None) -> None:
        """Bring the raw value vector (and cached SK blocks) up to date:
        full pattern rebuild on a miss, value/dirty-row rewrite on a hit."""
        pattern_hit = (
            self._groups is not None
            and self._symbols == tuple(atoms.symbols)
            and np.array_equal(self._sig_i, nl.i)
            and np.array_equal(self._sig_j, nl.j)
        )
        if not pattern_hit:
            self.counts.counter_inc("hamiltonian.pattern_miss")
            self._build_pattern(atoms, nl)
            return
        self.counts.counter_inc("hamiltonian.pattern_hit")

        dirty = None
        if moved is not None and moved.any() and not moved.all():
            dirty = moved[nl.i] | moved[nl.j]
            self.counts.counter_inc("hamiltonian.partial_update")
        elif moved is not None and not moved.any():
            # nothing moved: the cached values are exactly current
            return
        self._write_group_values(nl, dirty=dirty)

    def build(self, atoms, nl: NeighborList,
              moved: np.ndarray | None = None) -> sp.csr_matrix:
        """Assemble H; value-only rewrite when the bond pattern is cached.

        Parameters
        ----------
        atoms, nl :
            Structure and its half neighbour list at the model cutoff.
        moved :
            Optional boolean (N,) mask of atoms whose positions changed
            since the previous call (from
            :meth:`repro.state.CalculatorState.observe`).  On a pattern
            hit, only bonds touching a moved atom are re-evaluated.
        """
        self._ensure_values(atoms, nl, moved)
        return self._emit()

    def build_k(self, atoms, nl: NeighborList, k_carts,
                moved: np.ndarray | None = None) -> list[sp.csr_matrix]:
        """Assemble complex Hermitian H(k) for every Cartesian k point.

        The k-aware face of the incremental builder: the sparsity
        pattern, lexsort/merge maps and Slater–Koster blocks are all
        k-*independent* (bonds are real-space objects), so they are
        maintained exactly as for :meth:`build` — one pattern cache, one
        set of value/dirty-row rewrites — and each k point only pays the
        atomic-gauge phases ``exp(i k·d)`` plus one gather/reduce into
        the shared CSR structure.  Periodic-image duplicate bonds carry
        different phases and sum in the duplicate merge, which is what
        makes the result numerically identical to
        :func:`build_sparse_hamiltonian_k` /
        :func:`repro.tb.hamiltonian.build_hamiltonian`.

        Parameters
        ----------
        k_carts :
            (K, 3) Cartesian k points (Å⁻¹); a single 3-vector is
            accepted.
        moved :
            As for :meth:`build`.

        Returns
        -------
        list of K complex CSR matrices sharing one structure.
        """
        self._ensure_values(atoms, nl, moved)
        k_carts = np.atleast_2d(np.asarray(k_carts, dtype=float))
        if self._raw_k is None or len(self._raw_k) != len(self._raw):
            self._raw_k = np.empty(len(self._raw), dtype=complex)
        raw_k = self._raw_k
        out = []
        for k in k_carts:
            raw_k[:self._onsite_len] = self._raw[:self._onsite_len]
            for g in self._groups:
                vec = nl.vectors[g["pidx"]]
                phases = np.exp(1j * (vec @ k))
                fwd = g["blocks"] * phases[:, None, None]
                seg = raw_k[g["slice"]]
                half = seg.shape[0] // 2
                seg[:half] = fwd.ravel()
                seg[half:] = np.conj(np.swapaxes(fwd, 1, 2)).ravel()
            data = np.add.reduceat(raw_k[self._perm], self._starts) \
                if len(self._starts) else np.zeros(0, dtype=complex)
            out.append(sp.csr_matrix((data, self._indices, self._indptr),
                                     shape=(self._m, self._m)))
        return out
