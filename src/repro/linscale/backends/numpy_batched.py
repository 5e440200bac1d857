"""Bucketed stacked-GEMM backend: one batched recursion per shape bucket.

The per-region loop pays one interpreter round-trip *per region per
Chebyshev step* — at typical MD shapes (hundreds of regions × order a
few hundred) that is ~10⁵ NumPy dispatches per solve on matrices small
enough that dispatch rivals the GEMM itself.  Here regions are bucketed
by padded shape (:mod:`repro.linscale.backends.bucketing`), each bucket
is one real ``(B, width, width)`` stack, and a Chebyshev step of the
bucket is one batched GEMM and one subtract on core *rows*,
``v_{k+1} = v_k·(2H̃) − v_{k−1}``, and nothing else:

* the stack holds ``2H̃``, scattered straight into its slots from the
  shifted and scaled atom blocks of ``H.data``
  (:meth:`~repro.linscale.backends.base.RegionBlockSource.get`); the
  doubling is exact, so every iterate is the one ``2·(H̃v)`` would give,
  and the k = 1 product is halved, also exactly;
* every stack is real symmetric, so rows step through the stack
  itself: a complex ``2H̃ = A + iB`` is stacked as its embedding
  ``[[A, −B], [B, A]]`` with iterate rows ``[Re v | Im v]`` (the dgemm
  outruns the zgemm; docs/backends.md has the scan);
* the energy moments come from the moments by the three-term identity
  (:func:`energy_moments`), which costs one extra moment instead of an
  energy contraction per iterate, and the moment pass recurses only to
  ``T_⌈(K+1)/2⌉``: the products ``T_n·T_l`` give every higher moment as
  a dot of two iterates' core rows.

Two cache disciplines keep the stacks fast:

* buckets are split so one H̃ stack, its iterate block and accumulants
  stay inside one core's L2
  (:data:`~repro.linscale.backends.bucketing.MAX_BUCKET_BYTES`) — the
  recursion re-reads the whole stack every k, and at 288 KiB blocks a
  3-region stack runs 2.0x the per-region loop where a stack streaming
  from L3 runs 0.7–0.8x of it (the scan is in docs/backends.md);
* iterates are buffered ``block`` steps at a time and consumed with one
  tensordot/gather per block, so moment extraction and density
  accumulation cost a handful of BLAS calls per block instead of per k.

Padding is exact (see the bucketing module), so the core gathers
reproduce the ``eigh`` oracle to rounding error.  Per-bucket launches are
instrumented in the obs plane (``foe.bucket.*``), and the calling
thread drains them together with GIL-free helper threads (:func:`_drain`).
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

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

#: Cap on the blocked iterate buffer (block, B, nc_pad, width).  Under
#: the byte cap on the H̃ stack a 24-step block of thin-core regions is
#: ``24·n_c/n`` of the stack, so this only binds for stacks of tiny
#: wide-core regions (clusters); shortening the block below ~0.5 MiB
#: measures slower, the per-block reductions stop amortising.
BLOCK_BYTES_MAX = 16 * 1024 * 1024

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The process-wide helpers, made at the first fan-out; a forked child,
    which inherits none of their threads, drops them."""
    return ThreadPoolExecutor(_usable_cpus() - 1, thread_name_prefix="foe")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _drain(launch, plan: list) -> list:
    """``[launch(b) for b in plan]``: this thread and ``width − 1`` pool
    helpers take buckets in turn (``width`` = usable CPUs, ≤ len(plan)).
    The first error stops them all and is re-raised here."""
    width = min(_usable_cpus(), len(plan))
    outs, errors = [None] * len(plan), []
    nxt = enumerate(plan)   # shared: one next() is one C call, atomic
    parent = obs.current_span()

    def drain() -> None:
        with parent.carry():
            for j, bucket in nxt:
                if errors:
                    return
                try:
                    outs[j] = launch(bucket)
                except BaseException as exc:   # re-raised by the caller
                    errors.append(exc)

    helpers = [_pool().submit(drain) for _ in range(width - 1)]
    drain()
    for f in helpers:
        if not f.cancel():
            f.result()
    if errors:
        raise errors[0]
    return outs


def energy_moments(m: np.ndarray, center: float, span: float) -> np.ndarray:
    """Energy moments ``e_0 … e_K`` from the moments ``m_0 … m_{K+1}``.

    With ``H = span·H̃ + center`` and ``T_k(H̃)·H̃ = (T_{k+1} + T_{k−1})/2``
    the core partial trace ``e_k = Σ_μ [T_k(H̃) H]_μμ`` is
    ``span·(m_{k+1} + m_{k−1})/2 + center·m_k``, and
    ``e_0 = span·m_1 + center·m_0``.  *m* is ``(..., K+2)``.
    """
    e = np.empty(m.shape[:-1] + (m.shape[-1] - 1,))
    e[..., 0] = span * m[..., 1] + center * m[..., 0]
    e[..., 1:] = span * (0.5 * (m[..., 2:] + m[..., :-2])) \
        + center * m[..., 1:-1]
    return e


class _BucketStack:
    """One bucket's pre-doubled real symmetric stack and its recursion.

    A complex ``2H̃ = A + iB`` is stacked as ``[[A, −B], [B, A]]``
    (``embedded``) with iterate rows ``[Re v | Im v]``; either way
    iterates and accumulants are core rows ``(B, nc_pad, width)``.
    """

    def __init__(self, blocks: RegionBlockSource, bucket: Bucket,
                 center: float, span: float):
        B, n_pad, nc_pad = len(bucket), bucket.n_pad, bucket.nc_pad
        self.embedded = blocks.dtype.kind == "c"
        width = 2 * n_pad if self.embedded else n_pad
        ht2 = np.zeros((B, width, width))
        core_idx = np.zeros((B, nc_pad), dtype=np.intp)
        live = np.zeros((B, nc_pad), dtype=bool)
        shapes = []
        for b, i in enumerate(bucket.indices):
            orb, core = blocks.specs[i]
            n, nc = len(orb), len(core)
            shapes.append((n, nc))
            if self.embedded:
                # fill the top rows, move B, A down, rebuild [A, −B]
                z = blocks.get(i, out=ht2[b, :n_pad].view(blocks.dtype),
                               shift=center, scale=0.5 * span)[:n, :n]
                re, im = slice(0, n), slice(n_pad, n_pad + n)
                ht2[b, im, re] = z.imag
                ht2[b, im, im] = z.real
                ht2[b, re, n:n_pad] = 0.0      # the fill spilled here
                ht2[b, re, re] = ht2[b, im, im]
                np.negative(ht2[b, im, re], out=ht2[b, re, im])
            else:
                blocks.get(i, out=ht2[b], shift=center, scale=0.5 * span)
            core_idx[b, :nc] = core
            live[b, :nc] = True
        # flat position of core entry c of region b in one stored iterate
        # (an embedded row's real half); a pad core row reads an exact 0
        b_ = np.arange(B)[:, None]
        c_ = np.arange(nc_pad)[None, :]
        self._diag = (b_ * nc_pad + c_) * width + core_idx
        self._live = self._diag[live]
        self.ht2 = ht2
        self.n_pad = n_pad
        self.indices = bucket.indices
        self.shapes = shapes
        self.slab = (B, nc_pad, width)

    def zeros(self, *lead: int) -> np.ndarray:
        """Zeroed accumulant ``(*lead, B, nc_pad, width)``."""
        return np.zeros(lead + self.slab)

    def core_rows(self, a: np.ndarray, b: int, conj: bool = False,
                  keep: np.ndarray | None = None) -> np.ndarray:
        """Region *b*'s ``(..., n_c, n)`` core rows of stored array *a*:
        ``x ± i·y`` from the ``[x | y]`` halves of an embedded row
        (``−`` with *conj*), the rows themselves for a real stack; with
        *keep* (flat positions ``c·n + j``) the ``(..., len(keep))``
        entries there alone."""
        n, nc = self.shapes[b]
        if keep is None:
            half = a[..., b, :nc, :]
            at = np.s_[..., :n]
        else:
            half = a[..., b, :, :].reshape(a.shape[:-3] + (-1,))
            c, j = np.divmod(keep.astype(np.intp), n)
            at = np.s_[..., c * a.shape[-1] + j]
        x = half[at]
        if not self.embedded:
            return x
        y = half[..., self.n_pad:][at]
        return x - 1j * y if conj else x + 1j * y

    def dots(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(j, B) real dots of stored iterate blocks *x*, *y* over each
        region's core rows — ``Re⟨x|y⟩`` of embedded ``[Re | Im]`` rows."""
        nb, nc_pad, width = self.slab
        return (x * y).reshape(len(x), nb, nc_pad * width).sum(axis=2)

    def core_diag(self, chunk: np.ndarray) -> np.ndarray:
        """(j, B) core-diagonal sums — m_k for a block of iterates."""
        return chunk.reshape(len(chunk), -1)[:, self._diag].sum(axis=2)

    def recurse(self, last: int, consume_block) -> None:
        """Drive ``v_{k+1} = v_k·2H̃ − v_{k−1}`` for k = 0 … *last*.

        Iterates are buffered ``block`` at a time;
        ``consume_block(k0, chunk)`` sees ``chunk[j] = v_{k0+j}``.  The
        buffer is recycled across blocks, so consumers must not keep
        references into it.
        """
        ht2 = self.ht2
        v0 = self.zeros()
        v0.reshape(-1)[self._live] = 1.0
        nsteps = last + 1
        block = max(3, min(24, BLOCK_BYTES_MAX // v0.nbytes, nsteps))
        buf = np.empty((block,) + v0.shape)
        v_prev = v_cur = v0   # v_cur is a placeholder until k = 1 exists
        kpos = 0
        while kpos < nsteps:
            jmax = min(block, nsteps - kpos)
            for j in range(jmax):
                k = kpos + j
                if k == 0:
                    buf[j] = v0
                elif k == 1:
                    np.matmul(v0, ht2, out=buf[j])
                    buf[j] *= 0.5
                else:
                    np.matmul(v_cur, ht2, out=buf[j])
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

    def plan(self, blocks: RegionBlockSource) -> list[Bucket]:
        """The buckets this backend stacks *blocks* into."""
        return plan_buckets(blocks.shapes(), self.granularity,
                            self.max_regions, self.max_bytes, blocks.dtype)

    def _run_buckets(self, blocks: RegionBlockSource, op: str,
                     center: float, span: float, run_bucket) -> list:
        """Plan buckets, run each on its own stack (across threads, see
        :func:`_drain`), scatter results back to region order."""
        shapes = blocks.shapes()
        traced, counted = obs.tracing_enabled(), obs.metrics_enabled()

        def launch(bucket: Bucket) -> list:
            if not (traced or counted):
                return run_bucket(_BucketStack(blocks, bucket, center, span))
            with obs.span("foe.bucket") as sp_:
                t0 = tick()
                st = _BucketStack(blocks, bucket, center, span)
                sp_.set(op=op, n_pad=bucket.n_pad,
                        nc_pad=bucket.nc_pad, n_regions=len(bucket),
                        embedded=st.embedded)
                out = run_bucket(st)
                batch_s = tick() - t0
            if counted:
                obs.observe("foe.bucket.batch_s", batch_s)
                obs.counter_inc("foe.bucket.launch")
                obs.counter_inc("foe.bucket.regions", len(bucket))
                obs.observe("foe.bucket.size", len(bucket))
                obs.observe("foe.bucket.fill", bucket.fill(shapes))
            return out

        plan = self.plan(blocks)
        blocks.block_values(center, 0.5 * span)  # before the threads share it
        results: list = [None] * len(blocks)
        for bucket, out in zip(plan, _drain(launch, plan)):
            for b, i in enumerate(bucket.indices):
                results[i] = out[b]
        return results

    # -- the three protocol operations ------------------------------------

    def moments(self, blocks: RegionBlockSource, center: float, span: float,
                order: int) -> list[tuple[np.ndarray, np.ndarray]]:
        # m_0 … m_{K+1} from v_0 … v_last by T_2n = 2T_n² − T_0 and
        # T_2n+1 = 2T_n+1·T_n − T_1: for Hermitian T_n, [T_n T_l]_cc is
        # the dot of core rows c of v_n and v_l
        last = (order + 2) // 2
        even, odd = np.arange(2, order + 2, 2), np.arange(3, order + 2, 2)

        def run_bucket(st):
            nb = len(st.shapes)
            sq, cross = np.zeros((nb, last + 1)), np.zeros((nb, last + 1))
            m01 = np.zeros((nb, 2))
            prev = None     # the last iterate of the previous block

            def consume(kpos, chunk):
                nonlocal prev
                if kpos == 0:
                    m01[...] = st.core_diag(chunk[:2]).T
                sq[:, kpos:kpos + len(chunk)] = st.dots(chunk, chunk).T
                cross[:, kpos + 1:kpos + len(chunk)] = \
                    st.dots(chunk[1:], chunk[:-1]).T
                if prev is not None:
                    cross[:, kpos] = st.dots(chunk[:1], prev)[0]
                prev = chunk[-1:].copy()

            st.recurse(last, consume)
            m = np.empty((nb, order + 2))
            m[:, :2] = m01
            m[:, even] = 2.0 * sq[:, even // 2] - m01[:, :1]
            m[:, odd] = 2.0 * cross[:, (odd + 1) // 2] - m01[:, 1:]
            e = energy_moments(m, center, span)
            return [(m[b, :-1], e[b]) for b in range(nb)]

        return self._run_buckets(blocks, "moments", center, span, run_bucket)

    def density_rows(self, blocks: RegionBlockSource, center: float,
                     span: float, coeffs: np.ndarray) -> list[np.ndarray]:
        def run_bucket(st):
            out = st.zeros()

            def consume(kpos, chunk):
                out[...] += np.tensordot(coeffs[kpos:kpos + len(chunk)],
                                         chunk, axes=([0], [0]))

            st.recurse(len(coeffs) - 1, consume)
            # ρ_loc is Hermitian: core row c is the conjugate of column c
            return [st.core_rows(out, b, conj=True,
                                 keep=None if blocks.keep is None
                                 else blocks.keep[i])
                    for b, i in enumerate(st.indices)]

        return self._run_buckets(blocks, "density", center, span, run_bucket)

    def fused(self, blocks: RegionBlockSource, center: float, span: float,
              deriv_coeffs: np.ndarray
              ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        s_stack, k1 = deriv_coeffs.shape

        def run_bucket(st):
            m = np.zeros((len(st.shapes), k1 + 1))
            outs = st.zeros(s_stack)

            def consume(kpos, chunk):
                m[:, kpos:kpos + len(chunk)] = st.core_diag(chunk).T
                j = min(len(chunk), k1 - kpos)     # T_{K+1} feeds m only
                if j > 0:
                    outs[...] += np.tensordot(
                        deriv_coeffs[:, kpos:kpos + j], chunk[:j],
                        axes=([1], [0]))

            st.recurse(k1, consume)
            e = energy_moments(m, center, span)
            return [(m[b, :-1], e[b], st.core_rows(outs, b).swapaxes(1, 2)
                     if blocks.keep is None else
                     st.core_rows(outs, b, keep=blocks.keep[i]))
                    for b, i in enumerate(st.indices)]

        return self._run_buckets(blocks, "fused", center, span, run_bucket)
