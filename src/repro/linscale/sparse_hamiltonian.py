"""The O(N) engine's Hamiltonian sink: sparse (CSR) H and H(k).

The dense builder allocates M×M even though a short-ranged TB
Hamiltonian has O(M) nonzeros — the wall every O(N) method hits first.
The CSR structure (lexsort permutation, duplicate-merge starts, int32
``indices`` / ``indptr``) is a property of the bond pattern
(:meth:`repro.tb.bonds.BondPattern.to_csr`) and the values are the step's
bond table's, so a calculator that keeps one table per step builds H
from the same Slater–Koster blocks its band forces read, and rebuilds the
structure only when the pattern itself changes.
:func:`repro.tb.hamiltonian.build_hamiltonian` with ``sparse=True`` is
the general form (overlap included); the result equals the dense
builder to the summation order of periodic-image duplicates (~1 ulp;
asserted in ``tests/test_linscale.py``).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.errors import ModelError
from repro.neighbors.base import NeighborList
from repro.tb.bonds import bond_table
from repro.tb.hamiltonian import _matrix_entries


def hamiltonian_fill_fraction(H: sp.spmatrix) -> float:
    """nnz / M² — how much the dense builder over-allocates."""
    m = H.shape[0]
    return H.nnz / float(m * m) if m else 0.0


class SparseHamiltonianBuilder:
    """CSR H of one *model* at Γ (:meth:`build`) or at a list of k points
    (:meth:`build_k`) — a stateless sink over the step's bond table.

    Pass the calculator's :class:`~repro.tb.bonds.BondTable` as *nl* and
    the values are its cached Slater–Koster blocks, placed on its
    pattern's CSR structure; a plain list gets a one-shot table.
    Orthogonal models only (the O(N) pipeline's contract).
    """

    def __init__(self, model: Any) -> None:
        if not model.orthogonal:
            raise ModelError(
                "SparseHamiltonianBuilder supports orthogonal models only; "
                "use build_hamiltonian(..., sparse=True) for S-metric models"
            )
        self.model = model

    def build(self, atoms: Any, nl: NeighborList) -> sp.csr_matrix:
        """Real symmetric CSR H at Γ."""
        pattern, h, _ = _matrix_entries(atoms, self.model, nl, False, None)
        return pattern.to_csr(h)

    def build_k(self, atoms: Any, nl: NeighborList,
                k_carts: Any) -> list[sp.csr_matrix]:
        """Complex Hermitian CSR H(k) at each Cartesian k point ((K, 3),
        Å⁻¹; a single 3-vector is accepted), all on the pattern's one
        structure: the blocks are derived once per step, each k pays its
        atomic-gauge phases ``exp(i k·d)`` and one ``reduceat``."""
        table = bond_table(atoms, self.model, nl)
        out = []
        for k in np.atleast_2d(np.asarray(k_carts, dtype=float)):
            pattern, h, _ = _matrix_entries(atoms, self.model, table, False, k)
            out.append(pattern.to_csr(h))
        return out
