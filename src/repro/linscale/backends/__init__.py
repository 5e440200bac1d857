"""Pluggable array backends for the region FOE engine.

The solvers in :mod:`repro.linscale.foe_local` and
:mod:`repro.linscale.kfoe` evaluate every Chebyshev region operation
through a :class:`~repro.linscale.backends.base.Backend`, selected here
by name:

``numpy_batched``
    Shape-bucketed stacked-GEMM evaluation on L2-sized stacks
    (:mod:`~repro.linscale.backends.numpy_batched`) — the default.
``numpy_loop``
    The original per-region dense recursion — the reference oracle
    every other backend is conformance-tested against.

Selection precedence in :func:`resolve_backend`: explicit argument
(name or instance) → ``REPRO_BACKEND`` environment variable →
:data:`DEFAULT_BACKEND`.  The env override reaches every construction
path — ``make_calculator`` specs, directly built calculators, pool
workers — which is what lets CI re-run the whole linscale tier under
the oracle backend without touching a single test.

Third-party backends register with :func:`register_backend`; the
conformance suite (``tests/test_backends.py``) parametrizes over
:func:`available_backends`, so a new backend inherits the whole
physics-equivalence matrix for free.
"""

from __future__ import annotations

import os

from repro.errors import ReproError
from repro.linscale.backends.base import Backend, RegionBlockSource
from repro.linscale.backends.bucketing import Bucket, plan_buckets
from repro.linscale.backends.numpy_batched import NumpyBatchedBackend
from repro.linscale.backends.numpy_loop import NumpyLoopBackend

__all__ = [
    "Backend",
    "Bucket",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "NumpyBatchedBackend",
    "NumpyLoopBackend",
    "RegionBlockSource",
    "available_backends",
    "get_backend",
    "plan_buckets",
    "register_backend",
    "resolve_backend",
]

#: Backend used when neither an argument nor the env var selects one.
DEFAULT_BACKEND = "numpy_batched"

#: Environment variable overriding the default backend by name.
ENV_VAR = "REPRO_BACKEND"

_FACTORIES: dict[str, type[Backend]] = {}
_INSTANCES: dict[str, Backend] = {}


def register_backend(name: str, factory: type[Backend], *,
                     replace: bool = False) -> None:
    """Register a backend class under *name* (instantiated lazily)."""
    if not replace and name in _FACTORIES:
        raise ReproError(f"backend {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted — the conformance-suite matrix."""
    return tuple(sorted(_FACTORIES))


def get_backend(name: str) -> Backend:
    """The (shared) backend instance registered under *name*."""
    if name not in _FACTORIES:
        raise ReproError(
            f"unknown array backend {name!r}; available: "
            f"{', '.join(available_backends())}")
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def resolve_backend(backend: str | Backend | None = None) -> Backend:
    """Argument → ``REPRO_BACKEND`` env var → :data:`DEFAULT_BACKEND`."""
    if isinstance(backend, Backend):
        return backend
    name = backend or os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    return get_backend(name)


register_backend("numpy_loop", NumpyLoopBackend)
register_backend("numpy_batched", NumpyBatchedBackend)
