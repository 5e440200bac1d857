"""Multi-structure batch service: resident calculator workers.

The scale-out layer over the per-calculator state reuse of
:mod:`repro.state`: a long-lived service keeps many structures'
calculators warm (sticky per-structure workers), coalesces concurrent
energy/force requests into per-worker batches, and survives worker
crashes and memory-budget evictions by re-materializing structures from
snapshots.  ``repro.cli serve`` exposes it on a Unix socket;
:class:`BatchClient` drives it in process.  Relaxation and MD run
client-side on a :class:`RemoteCalculator`, one ``eval`` per step.

See ``docs/service.md`` for the protocol and an example session.
"""

from repro.service.batcher import CoalescingQueue
from repro.service.calculator import RemoteCalculator
from repro.service.client import BatchClient, SocketClient
from repro.service.server import UnixSocketServer
from repro.service.service import BatchService
from repro.service.worker import Worker, WorkerCrashError

__all__ = [
    "BatchClient",
    "BatchService",
    "CoalescingQueue",
    "RemoteCalculator",
    "SocketClient",
    "UnixSocketServer",
    "Worker",
    "WorkerCrashError",
]
