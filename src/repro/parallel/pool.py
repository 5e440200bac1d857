"""The one task-mapping policy shared by every fan-out in the package.

The batch service spreads a batch over its resident workers and a
campaign spreads its cells over a thread pool, both through
:func:`map_tasks`, which also carries worker-side telemetry back across
a process boundary when it is given one (:mod:`repro.obs.remote`).
The localization-region solves do not use it: the array backend spreads
their buckets over the usable cores itself
(:mod:`repro.linscale.backends.numpy_batched`).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro import obs
from repro.errors import ParallelError


def map_tasks(worker, tasks, nworkers: int = 1, executor=None) -> list:
    """Map a *worker* over *tasks*, preserving order.

    The one dispatch policy every pool consumer shares (the per-worker
    batch fan-out of :meth:`repro.service.service.BatchService.submit_many`
    and the campaign cells of :mod:`repro.campaign`):

    * ``executor`` given — use it (tests inject serial executors; a caller
      can keep one ``ProcessPoolExecutor`` alive across calls; the
      batch service passes a ``ThreadPoolExecutor`` because its worker
      objects are not picklable — any ``concurrent.futures`` executor
      works);
    * ``nworkers == 1`` — run inline, no IPC;
    * otherwise — a fresh ``ProcessPoolExecutor(nworkers)`` (*worker* and
      *tasks* must then be picklable).

    When telemetry is enabled (:mod:`repro.obs`) and execution crosses a
    process boundary, the worker is wrapped so spans/metrics recorded in
    the workers ship back with the results and merge into the parent
    trace (see :mod:`repro.obs.remote`).  Same-process paths (inline,
    thread pools) record straight into the parent's collectors.
    """
    if nworkers < 1:
        raise ParallelError("nworkers must be >= 1")
    if executor is not None:
        if isinstance(executor, ProcessPoolExecutor) and obs.telemetry_active():
            worker = obs.TelemetryWorker(worker)
            return obs.absorb_results(executor.map(worker, tasks))
        return list(executor.map(worker, tasks))
    if nworkers == 1:
        return [worker(t) for t in tasks]
    if obs.telemetry_active():
        worker = obs.TelemetryWorker(worker)
    with ProcessPoolExecutor(max_workers=nworkers) as pool:
        return obs.absorb_results(pool.map(worker, tasks))
