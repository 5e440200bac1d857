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
    symbols = atoms.symbols
    model.check_species(symbols)
    offsets, m = orbital_offsets(symbols, model)
    k = None if k_cart is None else np.asarray(k_cart, dtype=float).reshape(3)
    dtype = float if k is None else complex

    if with_overlap is None:
        with_overlap = not model.orthogonal

    H = np.zeros((m, m), dtype=dtype)
    S = np.zeros((m, m), dtype=dtype) if with_overlap else None

    # on-site terms
    for idx, sym in enumerate(symbols):
        e = model.onsite(sym)
        o = offsets[idx]
        H[o:o + len(e), o:o + len(e)][np.diag_indices(len(e))] = e
    if S is not None:
        S[np.diag_indices(m)] = 1.0

    for (sa, sb), pidx in pair_species_groups(symbols, nl).items():
        r = nl.distances[pidx]
        vec = nl.vectors[pidx]
        u = vec / r[:, None]
        ni, nj = model.norb(sa), model.norb(sb)
        oi = offsets[nl.i[pidx]]
        oj = offsets[nl.j[pidx]]
        phases = None if k is None else np.exp(1j * (vec @ k))

        V, _ = model.hopping(sa, sb, r)
        blocks = sk_blocks(u, V)[:, :ni, :nj]
        _scatter_blocks(H, blocks, oi, oj, ni, nj, phases)

        if S is not None:
            ov = model.overlap(sa, sb, r)
            if ov is None:
                raise ModelError(
                    f"model {model.name!r} requested with overlap but "
                    f"returns none for pair ({sa}, {sb})"
                )
            sblocks = sk_blocks(u, ov[0])[:, :ni, :nj]
            _scatter_blocks(S, sblocks, oi, oj, ni, nj, phases)

    return H, S


def build_hamiltonian_k(atoms, model, nl: NeighborList, k_cart,
                        with_overlap: bool | None = None,
                        sparse: bool = False
                        ) -> tuple[np.ndarray, np.ndarray | None]:
    """``build_hamiltonian(..., k_cart=k_cart)`` — the positional-k
    signature kept for existing callers."""
    return build_hamiltonian(atoms, model, nl, with_overlap, sparse, k_cart)
