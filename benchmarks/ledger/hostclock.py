"""Host-speed clock: wall time re-expressed at the reference box's speed.

The reference box is a shared 2-vCPU VM whose speed is not its own: with
nothing else running in the guest, work slows down and speeds up by
10-50 % over seconds to hours, and CPU time moves with wall time, so it
is not descheduling.  A wall-clock reading therefore says as much about
the hour it was taken in as about the code.

:class:`HostClock` measures that factor while a workload runs.  Between
timed ops the workload calls :meth:`HostClock.tick`, which (at most
twice a second) times short reference kernels; the ratio of that reading
to the kernel's nominal time is how much slower than nominal the host
was just then.  :meth:`HostClock.seconds` integrates ``dt / slowdown``
between two ``perf_counter`` readings, skipping the time spent inside
the samples themselves: *reference-speed seconds*.  Every timing row of
the ledger is stated in them; the raw wall-clock values and the median
slowdown are kept beside them in each record.

The kernels are of the **same kind of work as the workload** (each
workload names its kinds in ``spec.py``), because the host does not slow
all work alike: in a noisy hour floating-point GEMMs lose up to twice as
much as interpreter or zlib work.  Measured on 16 MD runs, half of them
in a noisy hour: by the wall clock the two halves' median step differs
by 27 %, divided by a mixed GEMM + Python + zlib kernel by 11 %, by the
GEMM kernel alone by 4 %.

What this does not remove: anything shorter than the gap between two
samples (a 2 s MD step is known only by the samples on either side of
it), and waits that do not scale with the host's speed (the service's
2 ms coalescing window).
"""

from __future__ import annotations

import zlib
from time import perf_counter

import numpy as np

#: ``tick()`` samples when this much time has passed since the last one:
#: the host's speed flickers on a sub-second scale, so a window is only
#: as well known as it is densely sampled (one sample costs 0.05-0.1 s).
MIN_GAP_S = 0.5


def _gemm(rng):
    """Dense floating-point work that stays in L2, like one region's
    Chebyshev recursion."""
    a, b = rng.random((160, 160)), rng.random((160, 160))

    def run() -> None:
        for _ in range(300):
            a @ b
    return run


def _python(_rng):
    """Interpreter work: protocol, bookkeeping, per-frame loops."""
    def run() -> None:
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
    return run


def _zlib(rng):
    """Trajectory chunk compression."""
    blob = rng.normal(0.0, 0.01, 280_000).astype("f4").tobytes()

    def run() -> None:
        zlib.compress(blob, 6)
    return run


#: kind -> (kernel factory, wall seconds of one run on the reference box
#: at its calm ceiling: the fastest of 300 back-to-back runs).  The
#: nominal times only fix the unit: at that speed a reference-speed
#: second is a wall-clock second.
KINDS = {
    "gemm": (_gemm, 0.0446),
    "python": (_python, 0.0352),
    "zlib": (_zlib, 0.0425),
}


class HostClock:
    def __init__(self, kinds: tuple) -> None:
        # fixed work, the same in every run: not an input, so no seed
        rng = np.random.default_rng(0)
        self._kernels = [(KINDS[k][0](rng), KINDS[k][1]) for k in kinds]
        self.samples: list[tuple[float, float, float]] = []  # start, end, slowdown

    def sample(self) -> None:
        start = t0 = perf_counter()
        slow = 0.0
        for run, nominal in self._kernels:
            run()
            t1 = perf_counter()
            slow += (t1 - t0) / nominal
            t0 = t1
        self.samples.append((start, t0, slow / len(self._kernels)))

    def tick(self, min_gap_s: float = MIN_GAP_S) -> None:
        """Sample if the last sample is at least *min_gap_s* old."""
        if perf_counter() - self.samples[-1][1] >= min_gap_s:
            self.sample()

    def slowdown(self) -> float:
        """Median sample slowdown (1.0 = the nominal host)."""
        return float(np.median([s[2] for s in self.samples]))

    def seconds(self, t0, t1, *, wall: bool = False):
        """Reference-speed seconds from *t0* to *t1* (``perf_counter``
        readings, scalars or arrays, both inside the sampled span).

        Between two samples the slowdown is the mean of the two; time
        inside a sample does not count.  ``wall=True`` leaves the
        slowdown out: plain wall-clock seconds, samples still skipped.
        """
        s = np.asarray(self.samples)
        if len(s) < 2:
            raise ValueError("HostClock.seconds needs two samples or more")
        if np.min(t0) < s[0, 0] or np.max(t1) > s[-1, 1]:
            raise ValueError("interval outside the sampled span")
        between = s[1:, 0] - s[:-1, 1]
        if not wall:
            between = between / (0.5 * (s[:-1, 2] + s[1:, 2]))
        # the clock's reading at each sample's start and, unchanged, its end
        clock = np.repeat(np.concatenate([[0.0], np.cumsum(between)]), 2)
        edges = s[:, :2].ravel()
        out = np.interp(t1, edges, clock) - np.interp(t0, edges, clock)
        return out if np.ndim(out) else float(out)
