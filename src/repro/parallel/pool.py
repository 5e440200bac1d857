"""The one task-mapping policy shared by every fan-out in the package.

The batch service spreads a batch over its resident workers and a
campaign spreads its cells over a thread pool, both through
:func:`map_tasks`.  The localization-region solves do not use it: the
array backend spreads their buckets over the usable cores itself
(:mod:`repro.linscale.backends.numpy_batched`).
"""

from __future__ import annotations


def map_tasks(worker, tasks, executor=None) -> list:
    """Map a *worker* over *tasks*, preserving order.

    The one dispatch policy every fan-out shares (the per-worker batch
    fan-out of :meth:`repro.service.service.BatchService.submit_many`
    and the cells of :func:`repro.scenarios.campaign.run_campaign`):
    through ``executor.map`` when an executor is given (both pass a
    ``ThreadPoolExecutor``), inline on the calling thread otherwise.
    Either way the tasks run in this process, so their spans and
    metrics record straight into its collectors.
    """
    if executor is not None:
        return list(executor.map(worker, tasks))
    return [worker(t) for t in tasks]
