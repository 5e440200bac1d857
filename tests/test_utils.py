"""Tests for tables, rng and validation utilities."""

import numpy as np
import pytest

from repro.utils.rng import default_rng
from repro.utils.tables import Table, sparkline
from repro.utils.validation import as_float_array, check_shape


# ---------------------------------------------------------------- tables
def test_table_renders_aligned_columns():
    t = Table(["N", "t"], title="T")
    t.add_row([64, 0.125])
    t.add_row([512, 3.5])
    text = t.render()
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "64" in text and "512" in text
    # all data lines same width
    assert len(lines[2]) == len(lines[3])


def test_table_row_length_mismatch():
    t = Table(["a", "b"])
    with pytest.raises(ValueError, match="columns"):
        t.add_row([1])


def test_sparkline_length_and_empty():
    assert sparkline([]) == ""
    s = sparkline(list(range(200)), width=40)
    assert len(s) == 40


def test_sparkline_constant_series():
    s = sparkline([5.0] * 10)
    assert len(s) == 10


# ---------------------------------------------------------------- rng
def test_default_rng_deterministic():
    a = default_rng(42).normal(size=5)
    b = default_rng(42).normal(size=5)
    np.testing.assert_array_equal(a, b)


def test_default_rng_passthrough():
    g = np.random.default_rng(1)
    assert default_rng(g) is g


# ---------------------------------------------------------------- validation
def test_as_float_array_shape_wildcard():
    arr = as_float_array([[1, 2, 3]], "x", shape=(-1, 3))
    assert arr.dtype == float


def test_as_float_array_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        as_float_array([[1, 2]], "x", shape=(-1, 3))


def test_as_float_array_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        as_float_array([np.nan], "x")


def test_check_shape_ndim_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        check_shape(np.zeros((2, 2)), "m", (2,))
