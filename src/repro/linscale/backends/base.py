"""The array-backend protocol of the region FOE engine.

A :class:`Backend` evaluates the three Chebyshev region operations the
solvers in :mod:`repro.linscale.foe_local` / :mod:`repro.linscale.kfoe`
are built from — moment reductions, density-row assembly, and the fused
moments+accumulants pass — for a whole *batch* of localization regions
at once.  The solvers never touch dense region blocks themselves any
more; they hand a :class:`RegionBlockSource` (sparse H plus region
specs) to a backend and get back per-region results in region order.
How the backend walks the batch — bucketed stacked GEMMs, or one
diagonalisation per region — is entirely its business, which is what
makes the implementations interchangeable and lets the conformance
suite (``tests/test_backends.py``) hold the batched backend to the
``eigh`` oracle.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro import obs


@functools.lru_cache(maxsize=256)
def _block_offsets(ni: int, nj: int, stride: int) -> np.ndarray:
    """Flat offsets of an ``ni × nj`` block's entries in rows *stride*
    apart (read-only: every caller shares it)."""
    offsets = (np.arange(ni)[:, None] * stride + np.arange(nj)).ravel()
    offsets.flags.writeable = False
    return offsets


class RegionBlockMaps:
    """Where each region's H block comes from, one atom block at a time.

    Regions overlap heavily (every atom sits in tens of halos), so
    densifying each by CSR slicing re-walks the same sparse rows over and
    over.  These maps replace the walk by a scatter of whole atom-pair
    blocks, and they are as large as the stored blocks, not as Σ n².

    * The orbitals are cut into **blocks**: the shortest orbital ranges
      that every region and every region's core takes whole.  For the
      full region list of :func:`~repro.linscale.regions.extract_regions`
      these are the atoms (the cores); an all-core region is one block.
      A subset of the regions leaves the halo atoms outside its cores
      merged into longer ranges of many shapes, so build the maps of a
      subset from every region and :meth:`take` it.
    * One block **permutation** serves every region.  It lists every
      block pair (I, J) with a stored entry, and every on-site (I, I),
      grouped by shape ``(n_I, n_J)``: ``perm[s]`` is a
      ``(P_s, n_I, n_J)`` array of positions in ``H.data``.  Entries that
      are not stored point at a pad slot: ``len(H.data)`` (zero), or
      ``len(H.data) + 1`` on the diagonal, which is shifted like any
      other diagonal element.
    * Per block shape, ``blocks[s]`` holds one int32 row
      ``(block id, local row offset, local column offset)`` for every
      block of every region, region by region; region *r* owns rows
      ``bounds[r, s]:bounds[r + 1, s]``.

    The maps depend only on the CSR *structure* and the region orbital
    lists.  Periodic-image duplicates are already summed in ``H.data``,
    so a block filled from them is bit-identical to CSR slicing, and
    every H(k) of one bond pattern shares them.
    """

    def __init__(self, perm: list[np.ndarray], blocks: list[np.ndarray],
                 bounds: np.ndarray) -> None:
        self.perm = perm
        self.blocks = blocks
        self.bounds = bounds

    @classmethod
    def build(cls, H: Any, specs: list) -> "RegionBlockMaps":
        """The maps of the ``(orbitals, core_local)`` *specs* on the CSR
        structure of *H*."""
        H = H if sp.issparse(H) else sp.csr_matrix(H)
        m = H.shape[0]
        nnz = len(H.data)
        # a block boundary wherever a region's or a core's orbitals start
        # or stop a run of consecutive orbitals
        runs = [orb for orb, _ in specs] + [orb[core] for orb, core in specs]
        orbs = np.concatenate(runs + [np.zeros(0, dtype=np.int64)])
        first = np.zeros(len(orbs), dtype=bool)
        starts = np.cumsum([0] + [len(r) for r in runs[:-1]])
        first[starts[starts < len(orbs)]] = True
        first[1:] |= np.diff(orbs) != 1
        cut = np.zeros(m + 1, dtype=bool)
        cut[[0, m]] = True
        cut[orbs[first]] = True
        cut[orbs[np.append(first[1:], True)] + 1] = True
        start = np.flatnonzero(cut[:m])
        size = np.diff(np.append(start, m))
        owner = np.cumsum(cut[:m]) - 1
        nb = len(start)

        # stored block pairs plus every on-site pair, in (I, J) order,
        # grouped by shape; ``index`` numbers the pairs within a group
        row = np.repeat(np.arange(m), np.diff(H.indptr))
        bi, bj = owner[row], owner[H.indices]
        pairs, where = np.unique(np.concatenate(
            [bi * nb + bj, np.arange(nb) * (nb + 1)]), return_inverse=True)
        pi, pj = pairs // nb, pairs % nb
        width = int(size.max()) + 1
        shapes, group = np.unique(size[pi] * width + size[pj],
                                  return_inverse=True)
        counts = np.bincount(group, minlength=len(shapes))
        index = np.zeros(len(pairs), dtype=np.int64)
        for g in range(len(shapes)):
            index[group == g] = np.arange(counts[g])

        # every entry starts at a pad slot, then the stored ones move in
        idx = np.int32 if nnz + 2 < 2 ** 31 else np.int64
        pads = []
        for g, key in enumerate(shapes):
            ni, nj = divmod(int(key), width)
            p = np.full((counts[g], ni, nj), nnz, dtype=idx)
            onsite = np.flatnonzero((pi == pj)[group == g])
            if len(onsite):
                d = np.arange(ni)
                p[onsite[:, None], d, d] = nnz + 1
            pads.append(p)
        offsets = np.cumsum([0] + [p.size for p in pads])
        whole = np.concatenate([p.ravel() for p in pads])
        e = where[:nnz]                    # stored entry -> its pair
        ni_e, nj_e = size[bi], size[bj]
        whole[offsets[group[e]] + index[e] * ni_e * nj_e
              + (row - start[bi]) * nj_e + (H.indices - start[bj])] = \
            np.arange(nnz)
        perm = [whole[a:b].reshape(p.shape)
                for a, b, p in zip(offsets[:-1], offsets[1:], pads)]

        # every region's blocks, as rows of the block-pair CSR over I
        ptr = np.searchsorted(pi, np.arange(nb + 1))
        local = np.full(nb, -1, dtype=np.int64)
        parts: list[list[np.ndarray]] = [[] for _ in shapes]
        bounds = np.zeros((len(specs) + 1, len(shapes)), dtype=np.int64)
        for r, (orb, _) in enumerate(specs):
            ob = owner[orb]
            heads = np.concatenate(([0], np.flatnonzero(ob[1:] != ob[:-1])
                                    + 1))
            mine = ob[heads]
            local[mine] = heads
            lo, cnt = ptr[mine], ptr[mine + 1] - ptr[mine]
            cand = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) \
                + np.arange(int(cnt.sum()))
            cand = cand[local[pj[cand]] >= 0]
            rows = np.stack([index[cand], local[pi[cand]],
                             local[pj[cand]]], axis=1).astype(np.int32)
            g = group[cand]
            for s in range(len(shapes)):
                parts[s].append(rows[g == s])
            bounds[r + 1] = bounds[r] + np.bincount(g, minlength=len(shapes))
            local[mine] = -1
        return cls(perm, [np.concatenate(p) if p else
                          np.zeros((0, 3), dtype=np.int32) for p in parts],
                   bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    @property
    def nbytes(self) -> int:
        """Resident bytes of the permutation and the region tables."""
        return sum(a.nbytes for a in (*self.perm, *self.blocks, self.bounds))

    def take(self, regions: np.ndarray) -> "RegionBlockMaps":
        """The maps of *regions* (indices) alone, their permutation cut
        to the blocks they use: the orbit representatives' maps cut out
        of maps built from every region (whose cores give every atom's
        block).  All regions, in order,
        are these maps themselves."""
        if np.array_equal(regions, np.arange(len(self))):
            return self
        perm: list[np.ndarray] = []
        blocks: list[np.ndarray] = []
        for s, (p, b) in enumerate(zip(self.perm, self.blocks)):
            rows = np.concatenate(
                [b[self.bounds[r, s]:self.bounds[r + 1, s]] for r in regions]
                + [np.zeros((0, 3), dtype=np.int32)])
            used, rows[:, 0] = np.unique(rows[:, 0], return_inverse=True)
            perm.append(p[used])
            blocks.append(rows)
        counts = np.diff(self.bounds, axis=0)[regions]
        return RegionBlockMaps(perm, blocks, np.concatenate(
            (np.zeros((1, counts.shape[1]), dtype=np.int64),
             np.cumsum(counts, axis=0))))

    def values(self, data: np.ndarray) -> list[np.ndarray]:
        """Per block shape, the ``(P, n_I·n_J)`` raveled blocks of *data*
        — ``H.data`` transformed, with its two pad slots appended."""
        return [data[p.reshape(p.shape[0], p.shape[1] * p.shape[2])]
                for p in self.perm]

    def scatter(self, r: int, values: list[np.ndarray],
                out: np.ndarray) -> None:
        """Write region *r*'s blocks of *values* into the top-left
        ``n × n`` corner of the zeroed, C-contiguous *out* with one flat
        scatter per block shape."""
        flat = out.reshape(-1)
        stride = out.shape[1]
        for s, (vals, blocks) in enumerate(zip(values, self.blocks)):
            rows = blocks[self.bounds[r, s]:self.bounds[r + 1, s]]
            pos = rows[:, 1] * np.intp(stride)
            pos += rows[:, 2]
            flat[np.add.outer(pos, _block_offsets(
                *self.perm[s].shape[1:], stride))] = vals[rows[:, 0]]


class RegionBlockSource:
    """Dense region Hamiltonian blocks, densified on demand.

    The single chokepoint for sparse→dense conversion: every call of
    :meth:`get` increments the ``foe.densify`` obs counter and fills the
    region's block from its :class:`RegionBlockMaps` (from
    :func:`repro.linscale.foe_local.build_region_gather_maps`, or built
    here from *specs* when not given).  Nothing is kept between calls:
    a two-pass solve densifies each region once per pass, which takes no
    longer than copying the blocks out of a cache of every dense block
    of the solve would, and needs no such cache.

    Parameters
    ----------
    H :
        The sparse (CSR) Hamiltonian — real symmetric or complex
        Hermitian.
    specs :
        Per-region ``(orbitals, core_local)`` index-array pairs, as
        produced by the solvers from ``LocalizationRegion``s.
    gather_maps :
        The :class:`RegionBlockMaps` of *specs* on H's structure.
    keep :
        Per region, the flat positions ``c·n + j`` of the core-row
        entries (core orbital c, region orbital j) the caller reads —
        :attr:`repro.linscale.foe_local.RegionIndex.keep`;
        ``density_rows`` and ``fused`` then return those entries alone.
        ``None`` keeps every entry.
    """

    def __init__(self, H: Any, specs: list,
                 gather_maps: "RegionBlockMaps | None" = None,
                 keep: list | None = None) -> None:
        self._H = H if sp.issparse(H) else sp.csr_matrix(H)
        self.specs = specs
        self.keep = keep
        self._maps = RegionBlockMaps.build(self._H, specs) \
            if gather_maps is None else gather_maps
        self._values: tuple[float, float, list[np.ndarray]] | None = None

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
        """Region *i*'s block ``(H_i − shift·I) / scale``, the shift
        taken before the division.

        With *out* — a backend's whole stack slot: zeroed, C-contiguous,
        at least (n, n) — the block is written into its top-left n × n
        corner and *out* is returned; without, a fresh (n, n) block.
        Either way it is one scatter of the blocks
        :meth:`block_values` built, bit-equal to shifting and scaling
        the CSR slice.
        """
        obs.counter_inc("foe.densify")
        values = self.block_values(shift, scale)
        n = len(self.specs[i][0])
        if out is None:
            out = np.zeros((n, n), dtype=self.dtype)
        elif not out.flags.c_contiguous or min(out.shape) < n:
            raise ValueError(
                f"out must be a C-contiguous slot of at least {n} x {n} "
                "(a padded view would be written through a copy)")
        self._maps.scatter(i, values, out)
        return out

    def block_values(self, shift: float, scale: float) -> list[np.ndarray]:
        """The maps' blocks of ``H.data`` with the diagonal shifted, then
        scaled — built once per ``(shift, scale)``; a backend that shares
        the source between threads calls this before they start."""
        if self._values is None or self._values[:2] != (shift, scale):
            H = self._H
            data = np.append(H.data, np.zeros(2, dtype=H.dtype))
            row = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
            data[np.flatnonzero(H.indices == row)] -= shift
            data[-1] -= shift
            data /= scale
            self._values = (shift, scale, self._maps.values(data))
        return self._values[2]


class Backend(ABC):
    """One array strategy for the batched region Chebyshev operations.

    Contract (shared by every implementation, enforced by the
    conformance suite):

    * results come back as a list in **region order** — entry *i*
      belongs to ``blocks.specs[i]``;
    * real symmetric and complex Hermitian blocks are both supported,
      and outputs match the reference backend
      (:mod:`repro.linscale.backends.eigh`) to rounding error
      (moments ≤ 1e-12, forces ≤ 1e-10 in the suite);
    * backends hold **no solve state** — instances are reusable and
      shareable across solves, calculators and threads.
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
        """Per-region core density rows ``Σ_k c_k T_k``, (n_core, n);
        with ``blocks.keep``, ``rows.ravel()[keep[i]]`` alone."""

    @abstractmethod
    def fused(self, blocks: RegionBlockSource, center: float, span: float,
              deriv_coeffs: np.ndarray
              ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-region ``(m, e, outs)`` fused moments + μ-Taylor stacks:
        ``outs`` (s, n, n_core) is the core columns of every stack; with
        ``blocks.keep``, ``outs[:, j, c]`` at each kept (c, j) alone."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
