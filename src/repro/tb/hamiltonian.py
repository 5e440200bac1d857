"""Tight-binding Hamiltonian (and overlap) assembly.

One assembly for the Γ-point supercell (MD) and for H(k) (k sampling,
band structures): Γ is ``k_cart=None``, kept on the real dtype with the
phase factors skipped.  The half neighbour list feeds both: each bond
contributes its Slater–Koster block and the block's transpose (conjugate
transpose with a phase at finite k); periodic self-image bonds fold onto
the atom's own diagonal block, which is what makes tiny supercells exact
at Γ.  The bonds come from the step's bond table
(:mod:`repro.tb.bonds`).
"""

from __future__ import annotations

import numpy as np

from repro.neighbors.base import NeighborList
from repro.tb.bonds import BondPattern, bond_table


def _matrix_entries(atoms, model, nl: NeighborList,
                    with_overlap: bool | None, k_cart
                    ) -> tuple[BondPattern, np.ndarray, np.ndarray | None]:
    """The one walk over a structure's matrix elements.

    Returns ``(pattern, h, s)``: the bond pattern, whose
    ``matrix_coords`` say where each entry goes, and the values of H
    and — when the overlap is requested (default: non-orthogonal models)
    — of S in that order: the on-site (unit) diagonal, then per species
    pair each half-list bond's Slater–Koster block, times the phase
    ``exp(i k·d)`` at finite k, and its (conjugate) transpose.  The dense
    and the CSR matrix differ only in the pattern's sink
    (:meth:`~repro.tb.bonds.BondPattern.to_dense` /
    :meth:`~repro.tb.bonds.BondPattern.to_csr`).
    """
    table = bond_table(atoms, model, nl)
    pattern = table.pattern
    k = None if k_cart is None else np.asarray(k_cart, dtype=float).reshape(3)
    if with_overlap is None:
        with_overlap = not model.orthogonal
    phases = [None if k is None else g.phases(k) for g in table.groups]

    def entries(blocks: list[np.ndarray], diag: np.ndarray) -> np.ndarray:
        parts = [diag if k is None else diag.astype(complex)]
        for b, p in zip(blocks, phases):
            if p is None:
                parts += [b.ravel(), np.swapaxes(b, 1, 2).ravel()]
            else:
                b = b * p[:, None, None]
                parts += [b.ravel(), np.conj(np.swapaxes(b, 1, 2)).ravel()]
        return np.concatenate(parts)

    h = entries([g.h_blocks for g in table.groups], pattern.onsite)
    s = entries([g.s_blocks for g in table.groups],
                np.ones(pattern.m)) if with_overlap else None
    return pattern, h, s


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
    memory on the bond pattern's CSR structure.
    """
    pattern, h, s = _matrix_entries(atoms, model, nl, with_overlap, k_cart)
    sink = pattern.to_csr if sparse else pattern.to_dense
    return sink(h), None if s is None else sink(s)
