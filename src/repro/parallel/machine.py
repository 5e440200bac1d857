"""Machine specifications for the simulated communicator.

A :class:`MachineSpec` is the classic (flops, α, β) abstraction: sustained
per-node floating-point rate, per-message latency, and point-to-point
bandwidth.  The presets are order-of-magnitude archetypes of the machines
1994 parallel-TBMD papers evaluated on — good enough to reproduce the
*shape* of their scaling curves (which is all this reproduction claims;
see docs/architecture.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from repro.errors import ParallelError


@dataclass(frozen=True)
class MachineSpec:
    """An abstract distributed-memory machine.

    Attributes
    ----------
    name : identifier used in benchmark tables.
    flops : sustained per-node floating-point rate (flop/s).
    latency : per-message software latency α (seconds).
    bandwidth : per-link bandwidth β (bytes/second).
    max_nodes : largest configuration the preset represents.
    """

    name: str
    flops: float
    latency: float
    bandwidth: float
    max_nodes: int = 1024

    def __post_init__(self):
        if self.flops <= 0 or self.latency < 0 or self.bandwidth <= 0:
            raise ParallelError(f"unphysical machine spec: {self}")

    # -- primitive costs ---------------------------------------------------------
    def compute_time(self, flops: float) -> float:
        """Seconds to execute *flops* floating-point operations."""
        return max(0.0, flops) / self.flops

    def send_time(self, nbytes: float) -> float:
        """Point-to-point message time α + n·β⁻¹."""
        return self.latency + max(0.0, nbytes) / self.bandwidth

    # -- presets ------------------------------------------------------------------
    @classmethod
    def paragon(cls) -> "MachineSpec":
        """Intel Paragon XP/S archetype: i860XP nodes (~10 MFLOPS sustained
        on dense kernels), ~60 µs message latency, ~40 MB/s realisable
        bandwidth."""
        return cls("paragon", flops=1.0e7, latency=60e-6,
                   bandwidth=40e6, max_nodes=1024)

    @classmethod
    def delta(cls) -> "MachineSpec":
        """Intel Touchstone Delta archetype: earlier i860 nodes, slower
        mesh (~25 MB/s), higher latency."""
        return cls("delta", flops=8.0e6, latency=80e-6,
                   bandwidth=25e6, max_nodes=512)

    @classmethod
    def cm5(cls) -> "MachineSpec":
        """Thinking Machines CM-5 archetype (SPARC nodes + fat tree,
        without vector units on the dense kernels)."""
        return cls("cm5", flops=5.0e6, latency=85e-6,
                   bandwidth=10e6, max_nodes=1024)

    @classmethod
    def modern(cls) -> "MachineSpec":
        """A contemporary cluster node for contrast: ~10 GFLOPS sustained,
        ~1.5 µs latency, ~10 GB/s links."""
        return cls("modern", flops=1.0e10, latency=1.5e-6,
                   bandwidth=1.0e10, max_nodes=4096)


# read-only by construction (MappingProxyType): machine.py is imported
# from parallel workers, so the preset table must not be mutable shared
# state (see the shared-state lint rule)
PRESETS = MappingProxyType({
    "paragon": MachineSpec.paragon,
    "delta": MachineSpec.delta,
    "cm5": MachineSpec.cm5,
    "modern": MachineSpec.modern,
})
