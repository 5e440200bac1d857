"""Tight-binding Hamiltonian (and overlap) assembly.

One assembly for the Γ-point supercell (MD) and for H(k) (k sampling,
band structures): Γ is ``k_cart=None``, kept on the real dtype with the
phase factors skipped.  The half neighbour list feeds both: each bond
contributes its Slater–Koster block and the block's transpose (conjugate
transpose with a phase at finite k); periodic self-image bonds fold onto
the atom's own diagonal block, which is what makes tiny supercells exact
at Γ.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.neighbors.base import NeighborList
from repro.tb.slater_koster import sk_blocks


def orbital_offsets(symbols, model) -> tuple[np.ndarray, int]:
    """Per-atom orbital offsets and total orbital count.

    Returns ``(offsets, M)`` with ``offsets[i]`` the first matrix row of
    atom *i*.
    """
    norbs = np.array([model.norb(s) for s in symbols], dtype=int)
    offsets = np.concatenate(([0], np.cumsum(norbs)[:-1]))
    return offsets, int(norbs.sum())


def pair_species_groups(symbols, nl: NeighborList) -> dict[tuple[str, str], np.ndarray]:
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


def block_index_grids(oi: np.ndarray, oj: np.ndarray, ni: int, nj: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(P, ni, nj) row/column index grids for per-pair orbital blocks —
    shared by the CSR assembly (:mod:`repro.linscale.sparse_hamiltonian`)
    and the density-matrix block gather of the bond-force loop
    (:mod:`repro.tb.forces`)."""
    rows = (oi[:, None, None] + np.arange(ni)[None, :, None]
            + np.zeros((1, 1, nj), dtype=int))
    cols = (oj[:, None, None] + np.arange(nj)[None, None, :]
            + np.zeros((1, ni, 1), dtype=int))
    return rows, cols


def _scatter_blocks(mat: np.ndarray, blocks: np.ndarray,
                    oi: np.ndarray, oj: np.ndarray,
                    ni: int, nj: int,
                    phases: np.ndarray | None = None) -> None:
    """Accumulate (P, ni, nj) blocks — times the per-pair *phases*
    ``exp(i k·d)`` at finite k — and their conjugate transposes into
    *mat*.

    Duplicate (i, j) pairs (multiple periodic images) must *add*, hence
    ``np.add.at``.
    """
    if phases is not None:
        blocks = blocks * phases[:, None, None]
    rows = oi[:, None, None] + np.arange(ni)[None, :, None]
    cols = oj[:, None, None] + np.arange(nj)[None, None, :]
    np.add.at(mat, (rows, cols), blocks)
    np.add.at(mat, (np.swapaxes(cols, 1, 2), np.swapaxes(rows, 1, 2)),
              np.conj(np.swapaxes(blocks, 1, 2)))


def _hamiltonian_terms(atoms, model, nl: NeighborList,
                       with_overlap: bool | None, k_cart):
    """The one walk over a structure's matrix elements.

    Returns ``(m, dtype, onsite, with_overlap, bonds)``: orbital count,
    matrix dtype (real at Γ, ``k_cart=None``), the (m,) on-site
    diagonal, the resolved overlap switch, and a generator of ``(oi, oj,
    ni, nj, h_blocks, s_blocks | None, phases | None)`` per species pair
    — Slater–Koster blocks of the half-list bonds, their first-orbital
    offsets and, at finite k, the phases ``exp(i k·d)``.  The dense
    scatter below and the COO triplets of
    :mod:`repro.linscale.sparse_hamiltonian` differ only in the sink.
    """
    symbols = atoms.symbols
    model.check_species(symbols)
    offsets, m = orbital_offsets(symbols, model)
    k = None if k_cart is None else np.asarray(k_cart, dtype=float).reshape(3)
    if with_overlap is None:
        with_overlap = not model.orthogonal
    onsite = np.zeros(m)
    for o, sym in zip(offsets, symbols):
        e = model.onsite(sym)
        onsite[o:o + len(e)] = e

    def bonds():
        for (sa, sb), pidx in pair_species_groups(symbols, nl).items():
            r = nl.distances[pidx]
            vec = nl.vectors[pidx]
            u = vec / r[:, None]
            ni, nj = model.norb(sa), model.norb(sb)
            V, _ = model.hopping(sa, sb, r)
            s_blocks = None
            if with_overlap:
                ov = model.overlap(sa, sb, r)
                if ov is None:
                    raise ModelError(
                        f"model {model.name!r} requested with overlap but "
                        f"returns none for pair ({sa}, {sb})"
                    )
                s_blocks = sk_blocks(u, ov[0])[:, :ni, :nj]
            yield (offsets[nl.i[pidx]], offsets[nl.j[pidx]], ni, nj,
                   sk_blocks(u, V)[:, :ni, :nj], s_blocks,
                   None if k is None else np.exp(1j * (vec @ k)))

    return m, (float if k is None else complex), onsite, with_overlap, bonds()


def build_hamiltonian(atoms, model, nl: NeighborList,
                      with_overlap: bool | None = None,
                      sparse: bool = False, k_cart=None
                      ) -> tuple[np.ndarray, np.ndarray | None]:
    """Assemble the Hamiltonian (M×M, eV) at Γ or at Cartesian *k_cart*.

    ``k_cart=None`` is the Γ point: real symmetric matrices, no phase
    factors.  A *k_cart* (Å⁻¹) gives the complex Hermitian ``H(k)`` in
    the "atomic gauge" — each bond block carries ``exp(i k · d)`` with
    ``d`` the physical bond vector; eigenvalues are gauge-independent.

    Returns ``(H, S)``; ``S`` is ``None`` for orthogonal models, else the
    overlap matrix with unit diagonal.  With ``sparse=True`` both come
    back as scipy CSR (numerically identical entries), assembled in O(M)
    memory by :mod:`repro.linscale.sparse_hamiltonian`.
    """
    if sparse:
        from repro.linscale.sparse_hamiltonian import _build_sparse

        return _build_sparse(atoms, model, nl, with_overlap, k_cart)
    m, dtype, onsite, with_overlap, bonds = _hamiltonian_terms(
        atoms, model, nl, with_overlap, k_cart)
    H = np.zeros((m, m), dtype=dtype)
    H[np.diag_indices(m)] = onsite
    S = np.eye(m, dtype=dtype) if with_overlap else None
    for oi, oj, ni, nj, h_blocks, s_blocks, phases in bonds:
        _scatter_blocks(H, h_blocks, oi, oj, ni, nj, phases)
        if s_blocks is not None:
            _scatter_blocks(S, s_blocks, oi, oj, ni, nj, phases)
    return H, S
