"""Reference backend: one ``eigh`` per region block (the oracle).

Diagonalising each region block is W. Yang's divide-and-conquer method
(PRL 66, 1438 (1991)).  With ``H_i = U diag(ε) U^H`` and
``x = (ε − center)/span``, every Chebyshev term of the region is
``T_k(H̃_i) = U diag(T_k(x)) U^H``, so the three operations below sum
the same truncated series the recursion does — they agree with it to
rounding at every order K, by a different algorithm whose cost barely
grows with K.  Complex H(k) blocks go through the complex ``eigh``.
Every other backend is validated against this one by the conformance
suite (``tests/test_backends.py``).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.linscale.backends.base import Backend, RegionBlockSource


def _regions(blocks: RegionBlockSource, center: float, span: float,
             order: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Per region ``(ε, U, U_c, T)``: the eigenpairs of its block, the
    core rows of U, and ``T[k] = T_k(x)`` for k = 0 … *order*."""
    for i in range(len(blocks)):
        eps, u = np.linalg.eigh(blocks.get(i))
        x = (eps - center) / span
        t = np.empty((order + 1, len(eps)))
        t[0] = 1.0
        if order >= 1:
            t[1] = x
        for k in range(2, order + 1):
            t[k] = 2.0 * x * t[k - 1] - t[k - 2]
        yield eps, u, u[blocks.core_local(i)], t


def _moment_pair(eps: np.ndarray, uc: np.ndarray, t: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``m_k = Σ_a T_k(x_a) w_a`` and ``e_k = Σ_a T_k(x_a) w_a ε_a`` with
    the core weights ``w_a = Σ_c |U_ca|²``."""
    w = (uc.real ** 2 + uc.imag ** 2).sum(axis=0)
    return t @ w, t @ (w * eps)


class EighBackend(Backend):
    """Per-region dense ``eigh`` — a different algorithm for the same
    truncated series, unbatched."""

    name = "eigh"

    def moments(self, blocks: RegionBlockSource, center: float, span: float,
                order: int) -> list[tuple[np.ndarray, np.ndarray]]:
        return [_moment_pair(eps, uc, t)
                for eps, _, uc, t in _regions(blocks, center, span, order)]

    def density_rows(self, blocks: RegionBlockSource, center: float,
                     span: float, coeffs: np.ndarray) -> list[np.ndarray]:
        # core rows of ρ_loc = U diag(f) U^H
        rows = [(uc * (coeffs @ t)) @ u.conj().T
                for _, u, uc, t in _regions(blocks, center, span,
                                            len(coeffs) - 1)]
        return rows if blocks.keep is None else [
            r.ravel()[keep] for r, keep in zip(rows, blocks.keep)]

    def fused(self, blocks: RegionBlockSource, center: float, span: float,
              deriv_coeffs: np.ndarray
              ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        out = []
        for eps, u, uc, t in _regions(blocks, center, span,
                                      deriv_coeffs.shape[1] - 1):
            # core columns of every Taylor row: outs[s] = U diag(F_s) U_c^H
            f = deriv_coeffs @ t
            cols = u @ (f[:, :, None] * uc.conj().T)
            if blocks.keep is not None:
                c, j = np.divmod(blocks.keep[len(out)], len(eps))
                cols = cols[:, j, c]
            out.append((*_moment_pair(eps, uc, t), cols))
        return out
