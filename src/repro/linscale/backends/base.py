"""The array-backend protocol of the region FOE engine.

A :class:`Backend` evaluates the three Chebyshev region operations the
solvers in :mod:`repro.linscale.foe_local` / :mod:`repro.linscale.kfoe`
are built from — moment reductions, density-row assembly, and the fused
moments+accumulants pass — for a whole *batch* of localization regions
at once.  The solvers never touch dense region blocks themselves any
more; they hand a :class:`RegionBlockSource` (sparse H plus region
specs) to a backend and get back per-region results in region order.
How the backend walks the batch — a per-region Python loop, bucketed
stacked GEMMs, a JIT kernel, a GPU — is entirely its business, which is
what makes the implementations interchangeable and lets the conformance
suite (``tests/test_backends.py``) hold every registered backend to the
``numpy_loop`` oracle.

All inputs are picklable (sparse matrix, index arrays, floats), so a
backend resolved *by name* inside a process-pool worker sees exactly
the same data as the inline path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro import obs


class RegionBlockSource:
    """Dense region Hamiltonian blocks, densified once and shared.

    The pre-backend engine densified regions with ad-hoc
    ``H[orb][:, orb].toarray()`` calls *inside* every worker loop — so a
    two-pass solve paid the CSR walk twice per region, and nothing
    counted the cost.  This class is the single chokepoint for
    sparse→dense conversion: every densification increments the
    ``foe.densify`` obs counter, gather maps (from
    :func:`repro.linscale.foe_local.build_region_gather_maps`) are used
    when available, and with ``cache=True`` each block is densified at
    most once for the lifetime of the source (both passes of a two-pass
    solve share one source).

    Parameters
    ----------
    H :
        The sparse (CSR) Hamiltonian — real symmetric or complex
        Hermitian.
    specs :
        Per-region ``(orbitals, core_local)`` index-array pairs, as
        produced by the solvers from ``LocalizationRegion``s.
    gather_maps :
        Optional per-region (n, n) int32 maps into ``H.data`` (padded
        with one trailing zero slot); densification then costs one fancy
        gather instead of a CSR row walk.
    cache :
        Keep densified blocks for reuse.  Declined silently when the
        blocks would exceed :data:`CACHE_BYTES_MAX` in total — the
        source still works, each ``get`` just densifies again.
    """

    #: Cap on cached dense blocks (all regions, one H) — beyond this the
    #: cache is declined and blocks are re-densified on demand.
    CACHE_BYTES_MAX = 512 * 1024 * 1024

    def __init__(self, H: Any, specs: list,
                 gather_maps: "list[np.ndarray] | None" = None,
                 cache: bool = False) -> None:
        self._H = H if sp.issparse(H) else sp.csr_matrix(H)
        self.specs = specs
        self._maps = gather_maps
        self._data_pad = (np.append(self._H.data, 0.0)
                          if gather_maps is not None else None)
        self._scaled: tuple[float, float, np.ndarray | None] | None = None
        if cache:
            nbytes = sum(len(orb) ** 2 for orb, _ in specs) \
                * self._H.dtype.itemsize
            cache = nbytes <= self.CACHE_BYTES_MAX
        self._cache: list[np.ndarray | None] | None = \
            [None] * len(specs) if cache else None

    @property
    def dtype(self) -> np.dtype:
        return self._H.dtype

    def __len__(self) -> int:
        return len(self.specs)

    def shapes(self) -> list[tuple[int, int]]:
        """Per-region (n_region, n_core) — the bucketing key material."""
        return [(len(orb), len(core)) for orb, core in self.specs]

    def core_local(self, i: int) -> np.ndarray:
        return self.specs[i][1]

    def get(self, i: int, out: np.ndarray | None = None, shift: float = 0.0,
            scale: float = 1.0) -> np.ndarray:
        """Dense (n, n) Hamiltonian block of region *i*.

        With *out* (an (n, n) view — a backend's stack slot) the block is
        written there as ``(H_i − shift·I) / scale``, the shift taken
        before the division, and *out* is returned.  Through gather maps
        that is one gather from a shifted and scaled copy of ``H.data``
        (kept for the last ``(shift, scale)``), bit-equal to shifting and
        scaling the block.
        """
        block = None if self._cache is None else self._cache[i]
        if block is None:
            obs.counter_inc("foe.densify")
            if out is not None and self._maps is not None:
                data = self.scaled_data(shift, scale)
                if data is not None:
                    return np.take(data, self._maps[i], out=out, mode="clip")
            if self._maps is not None and self._data_pad is not None:
                block = self._data_pad[self._maps[i]]
            else:
                orb = self.specs[i][0]
                block = self._H[orb][:, orb].toarray()
            if self._cache is not None:
                self._cache[i] = block
        if out is None:
            return block
        np.divide(block, scale, out=out)
        d = np.arange(len(block))
        out[d, d] = (block[d, d] - shift) / scale
        return out

    def scaled_data(self, shift: float, scale: float) -> np.ndarray | None:
        """``H.data`` with its diagonal shifted, then scaled (pad slot 0),
        that ``get(out=…)`` gathers from — built here once, before threads
        share it; ``None`` without gather maps, with a block cache, or
        when a diagonal element is not stored (its maps point at the pad
        slot, which cannot be shifted)."""
        if self._data_pad is None or self._cache is not None:
            return None
        if self._scaled is None or self._scaled[:2] != (shift, scale):
            H = self._H
            row = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
            diag = np.flatnonzero(H.indices == row)
            data = None
            if len(diag) == H.shape[0]:
                data = self._data_pad.copy()
                data[diag] -= shift
                data /= scale
            self._scaled = (shift, scale, data)
        return self._scaled[2]


class Backend(ABC):
    """One array strategy for the batched region Chebyshev operations.

    Contract (shared by every implementation, enforced by the
    conformance suite):

    * results come back as a list in **region order** — entry *i*
      belongs to ``blocks.specs[i]``;
    * real symmetric and complex Hermitian blocks are both supported,
      and outputs match the reference kernels in
      :mod:`repro.linscale.backends.kernels` to rounding error
      (moments ≤ 1e-12, forces ≤ 1e-10 in the suite);
    * backends hold **no solve state** — instances are reusable and
      shareable across solves, calculators, and (by name) pool workers.
    """

    #: Registry name; set by each implementation.
    name: str = "?"

    @abstractmethod
    def moments(self, blocks: RegionBlockSource, center: float, span: float,
                order: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-region Chebyshev moment pairs ``(m_k, e_k)``."""

    @abstractmethod
    def density_rows(self, blocks: RegionBlockSource, center: float,
                     span: float, coeffs: np.ndarray) -> list[np.ndarray]:
        """Per-region core density rows ``Σ_k c_k T_k``, (n_core, n)."""

    @abstractmethod
    def fused(self, blocks: RegionBlockSource, center: float, span: float,
              deriv_coeffs: np.ndarray
              ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-region ``(m, e, outs)`` fused moments + μ-Taylor stacks."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
