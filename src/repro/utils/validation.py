"""Input validation helpers used across the public API surface.

These raise early with specific messages instead of letting NumPy produce a
confusing broadcast error three stack frames deeper.
"""

from __future__ import annotations

import numpy as np


def as_float_array(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """Coerce *x* to a C-contiguous float64 array, optionally checking shape.

    ``shape`` entries of ``-1`` match any extent.
    """
    arr = np.ascontiguousarray(x, dtype=float)
    if shape is not None:
        check_shape(arr, name, shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_shape(arr: np.ndarray, name: str, shape: tuple) -> None:
    """Validate ``arr.shape`` against *shape* (``-1`` is a wildcard)."""
    if arr.ndim != len(shape):
        raise ValueError(
            f"{name} must have {len(shape)} dimensions, got shape {arr.shape}"
        )
    for got, want in zip(arr.shape, shape):
        if want != -1 and got != want:
            raise ValueError(
                f"{name} must have shape {shape} (-1 = any), got {arr.shape}"
            )
