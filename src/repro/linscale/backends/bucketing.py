"""Shape bucketing for the batched region backend.

A bulk crystal yields hundreds of localization regions with only a
handful of distinct (n_region, n_core) shapes — identical coordination
means identical halos.  Surfaces, defects and clusters break the
degeneracy but mildly: sizes cluster tightly around the bulk value.
:func:`plan_buckets` exploits that by padding region sizes up to a
*granularity* and grouping equal padded shapes, so near-equal regions
share one ``(B, n_pad, n_pad)`` stack and the Chebyshev recursion runs
as one batched GEMM per step instead of B interpreter-dispatched 2-D
calls.

The padding is exact, not approximate: the batched backend embeds each
region's *scaled* H̃ (each quadrant of a complex one's real embedding)
in the top-left corner of a zero (n_pad, n_pad) block, so the padded
rows/columns carry eigenvalue 0 ∈ [−1, 1] and the padded entries of
every Chebyshev iterate stay identically zero (the recursion is linear
and starts from zero-padded vectors).  Moments and density rows
gathered through the core-index masks therefore never see a pad
contribution — a property the hypothesis suite pins down on random
size distributions.

This module is pure index arithmetic (no arrays are allocated for the
regions themselves) so the property tests can drive it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import DTypeLike

#: Region sizes are padded up to a multiple of this before grouping —
#: larger values merge more near-miss shapes per bucket at the price of
#: a few extra zero rows in the stack.
GRANULARITY = 8

#: Ceiling on regions per bucket: bounds the stack of small regions,
#: which :data:`MAX_BUCKET_BYTES` alone would let grow without limit.
MAX_BUCKET_REGIONS = 256

#: Ceiling on one stack's H̃ bytes (:func:`block_bytes` per region).  The
#: batched recursion re-reads the whole stack every Chebyshev step, so
#: the stack, the blocked iterate buffer and the accumulants together
#: must stay inside one core's L2 (2 MiB on the reference box): half of it for H̃.  The
#: cap is a measurement, not a guess — ``tools/scan_bucket_cap.py``
#: re-derives it and docs/backends.md holds the scan (fused pass,
#: 288 KiB blocks: 3 regions per stack run 2.0x the per-region loop,
#: 4 or 5 no faster, 7 or more 1.1x and 14 or more slower than it).
MAX_BUCKET_BYTES = 1024 * 1024


def block_bytes(n_pad: int, dtype: DTypeLike) -> int:
    """Stack bytes of one padded region: ``n_pad²`` float64 entries, or
    ``(2·n_pad)²`` for a complex block, stacked as its real embedding."""
    width = 2 * n_pad if np.dtype(dtype).kind == "c" else n_pad
    return width * width * 8


@dataclass(frozen=True)
class Bucket:
    """One stack of like-shaped regions.

    ``indices`` are positions into the solver's region list, in region
    order; ``n_pad × n_pad`` is the padded block shape and ``nc_pad``
    the padded core width shared by the whole stack.
    """

    n_pad: int
    nc_pad: int
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)

    def fill(self, shapes: list[tuple[int, int]]) -> float:
        """Fraction of stack entries holding real (non-pad) H elements."""
        real = sum(shapes[i][0] ** 2 for i in self.indices)
        return real / (len(self.indices) * self.n_pad ** 2)


def plan_buckets(shapes: list[tuple[int, int]],
                 granularity: int = GRANULARITY,
                 max_regions: int = MAX_BUCKET_REGIONS,
                 max_bytes: int = MAX_BUCKET_BYTES,
                 dtype: DTypeLike = np.float64) -> list[Bucket]:
    """Partition region indices into like-shaped padded stacks.

    Parameters
    ----------
    shapes :
        Per-region ``(n_region, n_core)`` pairs
        (:meth:`~repro.linscale.backends.base.RegionBlockSource.shapes`).
    granularity :
        Regions are keyed on ``n_region`` rounded up to a multiple of
        this; 1 buckets exact shapes only.
    max_regions :
        Buckets larger than this are split (memory bound); the split
        pieces keep region order.
    max_bytes, dtype :
        Cap on one stack's H̃ footprint (``B * block_bytes(n_pad,
        dtype)``) — keeps the stack L2-resident across the whole
        Chebyshev recursion.  A single region always fits (the cap
        splits, it never rejects).

    Returns
    -------
    Buckets whose ``indices`` concatenate (in bucket order) to a
    permutation of ``range(len(shapes))`` — an exact partition, never a
    sample.  Empty input produces no buckets.
    """
    if granularity < 1:
        raise ValueError(f"granularity must be >= 1, got {granularity}")
    if max_regions < 1:
        raise ValueError(f"max_regions must be >= 1, got {max_regions}")
    if max_bytes < 1:
        raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
    groups: dict[int, list[int]] = {}
    for i, (n, nc) in enumerate(shapes):
        if nc > n or nc < 1:
            raise ValueError(
                f"region {i}: core width {nc} invalid for size {n}")
        n_pad = -(-n // granularity) * granularity
        groups.setdefault(n_pad, []).append(i)

    buckets = []
    for n_pad in sorted(groups):
        idx = groups[n_pad]
        cap = max(1, min(max_regions, max_bytes // block_bytes(n_pad, dtype)))
        for lo in range(0, len(idx), cap):
            part = np.asarray(idx[lo:lo + cap], dtype=np.intp)
            nc_pad = max(shapes[i][1] for i in part)
            buckets.append(Bucket(n_pad=n_pad, nc_pad=nc_pad, indices=part))
    return buckets
