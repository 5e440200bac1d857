"""Array backends for the region FOE engine.

The solvers in :mod:`repro.linscale.foe_local` and
:mod:`repro.linscale.kfoe` evaluate every Chebyshev region operation
through a :class:`~repro.linscale.backends.base.Backend`, selected here
by name from a fixed table:

``numpy_batched``
    Shape-bucketed stacked-GEMM evaluation on L2-sized stacks
    (:mod:`~repro.linscale.backends.numpy_batched`) — the default.
``eigh``
    One ``eigh`` per region block, the series summed on its eigenvalues
    (:mod:`~repro.linscale.backends.eigh`) — the reference oracle the
    batched backend is conformance-tested against.

Selection precedence in :func:`resolve_backend`: explicit argument
(name or instance) → ``REPRO_BACKEND`` environment variable →
:data:`DEFAULT_BACKEND`.  The env override reaches every construction
path — ``make_calculator`` specs and directly built calculators alike —
which is what lets CI re-run the whole linscale tier under the oracle
backend without touching a single test.
"""

from __future__ import annotations

import os

from repro.errors import ReproError
from repro.linscale.backends.base import Backend, RegionBlockSource
from repro.linscale.backends.bucketing import Bucket, plan_buckets
from repro.linscale.backends.eigh import EighBackend
from repro.linscale.backends.numpy_batched import NumpyBatchedBackend

__all__ = [
    "Backend",
    "Bucket",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "EighBackend",
    "NumpyBatchedBackend",
    "RegionBlockSource",
    "available_backends",
    "get_backend",
    "plan_buckets",
    "resolve_backend",
]

#: Backend used when neither an argument nor the env var selects one.
DEFAULT_BACKEND = "numpy_batched"

#: Environment variable overriding the default backend by name.
ENV_VAR = "REPRO_BACKEND"

#: The shared instances, by name (backends hold no solve state).
_BACKENDS: dict[str, Backend] = {b.name: b for b in (EighBackend(),
                                                     NumpyBatchedBackend())}


def available_backends() -> tuple[str, ...]:
    """Backend names, sorted — the conformance-suite matrix."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> Backend:
    """The shared backend instance named *name*."""
    if name not in _BACKENDS:
        raise ReproError(
            f"unknown array backend {name!r}; available: "
            f"{', '.join(available_backends())}")
    return _BACKENDS[name]


def resolve_backend(backend: str | Backend | None = None) -> Backend:
    """Argument → ``REPRO_BACKEND`` env var → :data:`DEFAULT_BACKEND`."""
    if isinstance(backend, Backend):
        return backend
    name = backend or os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    return get_backend(name)
