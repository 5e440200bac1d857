"""Deterministic random-number helpers.

Every stochastic component (velocity initialisation, Langevin noise,
rattle displacements, workload generators) accepts either a seed or a
``numpy.random.Generator``; this module centralises the coercion so results
are reproducible end-to-end from a single integer.
"""

from __future__ import annotations

import numpy as np


def default_rng(seed=None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an ``int``, or an existing generator
    (returned unchanged so callers can thread one generator through a whole
    simulation).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
