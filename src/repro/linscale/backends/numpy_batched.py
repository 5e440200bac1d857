"""Bucketed stacked-GEMM backend: one batched recursion per shape bucket.

The per-region loop pays one interpreter round-trip *per region per
Chebyshev step* — at typical MD shapes (hundreds of regions × order a
few hundred) that is ~10⁵ NumPy dispatches per solve on matrices small
enough that dispatch rivals the GEMM itself.  This backend removes the
Python from the hot loop: regions are bucketed by padded shape
(:mod:`repro.linscale.backends.bucketing`), each bucket is embedded in
one ``(B, n_pad, n_pad)`` stack, and the whole bucket advances one
Chebyshev step with a single batched :func:`numpy.matmul` — the
``(nbucket, nhalo, ncore)`` tensors of ROADMAP item 2.

Two cache disciplines keep the stacks fast:

* buckets are split so one H̃ stack, its iterate block and accumulants
  stay inside one core's L2
  (:data:`~repro.linscale.backends.bucketing.MAX_BUCKET_BYTES`) — the
  recursion re-reads the whole stack every k, and at 288 KiB blocks a
  3-region stack runs 1.4x the per-region loop where a stack streaming
  from L3 runs 0.8x of it (the scan is in docs/backends.md);
* iterates are buffered ``block`` steps at a time and consumed with one
  tensordot/gather per block, so moment extraction and density
  accumulation cost a handful of BLAS calls per block instead of per k.

Padding is exact (see the bucketing module): the scaled H̃ sits in the
top-left corner of a zero block, so padded rows and columns of every
iterate are identically zero and the masked core gathers reproduce the
loop oracle to rounding error.  Per-bucket launches are instrumented in
the obs plane (``foe.bucket.*``) so a production trace shows exactly
how the region population bucketed.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.linscale.backends.base import Backend, RegionBlockSource
from repro.utils.timing import tick
from repro.linscale.backends.bucketing import (
    GRANULARITY,
    MAX_BUCKET_BYTES,
    MAX_BUCKET_REGIONS,
    Bucket,
    plan_buckets,
)

#: Cap on the blocked iterate buffer (block, B, n_pad, nc_pad).  Under
#: the byte cap on the H̃ stack a 24-step block of thin-core regions is
#: ``24·n_c/n`` of the stack, so this only binds for stacks of tiny
#: wide-core regions (clusters); shortening the block below ~0.5 MiB
#: measures slower, the per-block reductions stop amortising.
BLOCK_BYTES_MAX = 16 * 1024 * 1024


class _BucketStack:
    """Padded tensors of one bucket: H̃ stack, core gathers, pad masks."""

    def __init__(self, blocks: RegionBlockSource, bucket: Bucket,
                 center: float, span: float, with_cols: bool):
        B, n_pad, nc_pad = len(bucket), bucket.n_pad, bucket.nc_pad
        dtype = blocks.dtype
        ht = np.zeros((B, n_pad, n_pad), dtype=dtype)
        h_cols = np.zeros((B, n_pad, nc_pad), dtype=dtype) \
            if with_cols else None
        core_idx = np.zeros((B, nc_pad), dtype=np.intp)
        mask = np.zeros((B, nc_pad))
        shapes = []
        for b, i in enumerate(bucket.indices):
            block = blocks.get(i)
            core = blocks.core_local(i)
            n, nc = block.shape[0], len(core)
            shapes.append((n, nc))
            ht[b, :n, :n] = block
            d = np.arange(n)
            ht[b, d, d] -= center          # pad diagonal stays exactly 0
            if with_cols:
                h_cols[b, :n, :nc] = block[:, core]
            core_idx[b, :nc] = core
            mask[b, :nc] = 1.0
        ht /= span
        if with_cols and np.iscomplexobj(h_cols):
            np.conj(h_cols, out=h_cols)    # e_k = Re Σ T_k·conj(H_cols)
        self.ht = ht
        self.h_cols = h_cols
        self.core_idx = core_idx
        self.mask = mask
        self.shapes = shapes
        self._brow = np.arange(B)[:, None]
        self._ccol = np.arange(nc_pad)[None, :]

    def v0(self) -> np.ndarray:
        B, n_pad = self.ht.shape[:2]
        v = np.zeros((B, n_pad, self.core_idx.shape[1]), dtype=self.ht.dtype)
        v[self._brow, self.core_idx, self._ccol] = self.mask
        return v

    def core_diag(self, chunk: np.ndarray) -> np.ndarray:
        """(j, B) masked core-diagonal sums — m_k for a block of iterates."""
        diag = chunk[:, self._brow, self.core_idx, self._ccol]
        if np.iscomplexobj(diag):
            diag = diag.real
        return (diag * self.mask).sum(axis=2)

    def energy_trace(self, chunk: np.ndarray) -> np.ndarray:
        """(j, B) values of ``Re Σ conj(T_k)·H_cols`` for a block."""
        e = np.einsum("kbnc,bnc->kb", chunk, self.h_cols)
        return e.real if np.iscomplexobj(e) else e

    def recurse(self, order: int, consume_block) -> None:
        """Drive ``v_{k+1} = 2 H̃ v_k − v_{k−1}`` for the whole stack.

        Iterates are buffered ``block`` at a time;
        ``consume_block(k0, chunk)`` sees ``chunk[j] = v_{k0+j}``.  The
        buffer is recycled across blocks, so consumers must not keep
        references into it.
        """
        B, n_pad = self.ht.shape[:2]
        nc_pad = self.core_idx.shape[1]
        k1 = order + 1
        slot = max(1, B * n_pad * nc_pad * self.ht.dtype.itemsize)
        block = max(3, min(24, BLOCK_BYTES_MAX // slot, k1))
        buf = np.empty((block, B, n_pad, nc_pad), dtype=self.ht.dtype)
        v0 = self.v0()
        v_prev = v0
        v_cur = v0            # placeholder until k = 1 exists
        kpos = 0
        while kpos <= order:
            jmax = min(block, k1 - kpos)
            for j in range(jmax):
                k = kpos + j
                if k == 0:
                    buf[j] = v0
                elif k == 1:
                    np.matmul(self.ht, v0, out=buf[j])
                else:
                    np.matmul(self.ht, v_cur, out=buf[j])
                    buf[j] *= 2.0
                    buf[j] -= v_prev
                if k >= 1:
                    v_prev, v_cur = v_cur, buf[j]
            consume_block(kpos, buf[:jmax])
            kpos += jmax


class NumpyBatchedBackend(Backend):
    """Shape-bucketed batched-GEMM evaluation of the region recursions."""

    name = "numpy_batched"

    def __init__(self, granularity: int = GRANULARITY,
                 max_regions: int = MAX_BUCKET_REGIONS,
                 max_bytes: int = MAX_BUCKET_BYTES):
        self.granularity = granularity
        self.max_regions = max_regions
        self.max_bytes = max_bytes

    # -- bucket orchestration ---------------------------------------------

    def _run_buckets(self, blocks: RegionBlockSource, op: str, with_cols,
                     run_bucket) -> list:
        """Plan buckets, run each, scatter results back to region order."""
        shapes = blocks.shapes()
        buckets = plan_buckets(shapes, self.granularity, self.max_regions,
                               self.max_bytes, blocks.dtype.itemsize)
        results: list = [None] * len(blocks)
        instrumented = obs.metrics_enabled()
        for bucket in buckets:
            if instrumented:
                with obs.span("foe.bucket") as sp_:
                    sp_.set(op=op, n_pad=bucket.n_pad,
                            nc_pad=bucket.nc_pad, n_regions=len(bucket))
                    t0 = tick()
                    out = run_bucket(bucket, with_cols)
                    obs.observe("foe.bucket.batch_s",
                                tick() - t0)
                obs.counter_inc("foe.bucket.launch")
                obs.counter_inc("foe.bucket.regions", len(bucket))
                obs.observe("foe.bucket.size", len(bucket))
                obs.observe("foe.bucket.fill", bucket.fill(shapes))
            else:
                out = run_bucket(bucket, with_cols)
            for b, i in enumerate(bucket.indices):
                results[i] = out[b]
        return results

    # -- the three protocol operations ------------------------------------

    def moments(self, blocks: RegionBlockSource, center: float, span: float,
                order: int) -> list[tuple[np.ndarray, np.ndarray]]:
        def run_bucket(bucket, with_cols):
            st = _BucketStack(blocks, bucket, center, span, with_cols)
            B = len(bucket)
            m = np.zeros((B, order + 1))
            e = np.zeros((B, order + 1))

            def consume(kpos, chunk):
                j = len(chunk)
                m[:, kpos:kpos + j] = st.core_diag(chunk).T
                e[:, kpos:kpos + j] = st.energy_trace(chunk).T

            st.recurse(order, consume)
            return [(m[b], e[b]) for b in range(B)]

        return self._run_buckets(blocks, "moments", True, run_bucket)

    def density_rows(self, blocks: RegionBlockSource, center: float,
                     span: float, coeffs: np.ndarray) -> list[np.ndarray]:
        order = len(coeffs) - 1

        def run_bucket(bucket, with_cols):
            st = _BucketStack(blocks, bucket, center, span, with_cols)
            B, n_pad, nc_pad = len(bucket), bucket.n_pad, bucket.nc_pad
            out = np.zeros((B, n_pad, nc_pad), dtype=blocks.dtype)

            def consume(kpos, chunk):
                j = len(chunk)
                out[...] += np.tensordot(coeffs[kpos:kpos + j], chunk,
                                         axes=([0], [0]))

            st.recurse(order, consume)
            rows = []
            for b, (n, nc) in enumerate(st.shapes):
                res = out[b, :n, :nc]
                rows.append(np.conj(res.T) if np.iscomplexobj(res)
                            else res.T)
            return rows

        return self._run_buckets(blocks, "density", False, run_bucket)

    def fused(self, blocks: RegionBlockSource, center: float, span: float,
              deriv_coeffs: np.ndarray
              ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        s_stack, k1 = deriv_coeffs.shape
        order = k1 - 1

        def run_bucket(bucket, with_cols):
            st = _BucketStack(blocks, bucket, center, span, with_cols)
            B, n_pad, nc_pad = (len(bucket), bucket.n_pad, bucket.nc_pad)
            m = np.zeros((B, k1))
            e = np.zeros((B, k1))
            outs = np.zeros((s_stack, B, n_pad, nc_pad),
                            dtype=blocks.dtype)

            def consume(kpos, chunk):
                j = len(chunk)
                m[:, kpos:kpos + j] = st.core_diag(chunk).T
                e[:, kpos:kpos + j] = st.energy_trace(chunk).T
                outs[...] += np.tensordot(deriv_coeffs[:, kpos:kpos + j],
                                          chunk, axes=([1], [0]))

            st.recurse(order, consume)
            return [(m[b], e[b], outs[:, b, :n, :nc])
                    for b, (n, nc) in enumerate(st.shapes)]

        return self._run_buckets(blocks, "fused", True, run_bucket)
