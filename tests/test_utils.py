"""Tests for timing, tables, rng and validation utilities."""

import time

import numpy as np
import pytest

from repro.utils.rng import default_rng, spawn
from repro.utils.tables import Table, format_series, sparkline
from repro.utils.timing import PhaseTimer, Timer
from repro.utils.validation import as_float_array, check_positive, check_shape


# ---------------------------------------------------------------- timing
def test_timer_accumulates():
    t = Timer()
    with t:
        time.sleep(0.01)
    with t:
        time.sleep(0.01)
    assert t.calls == 2
    assert t.elapsed >= 0.015
    assert t.mean == pytest.approx(t.elapsed / 2)


def test_timer_double_start_raises():
    t = Timer()
    t.start()
    with pytest.raises(RuntimeError):
        t.start()


def test_timer_stop_without_start_raises():
    with pytest.raises(RuntimeError):
        Timer().stop()


def test_timer_reset():
    t = Timer()
    with t:
        pass
    t.reset()
    assert t.elapsed == 0.0 and t.calls == 0


def test_phase_timer_fractions_sum_to_one():
    pt = PhaseTimer()
    with pt.phase("a"):
        time.sleep(0.005)
    with pt.phase("b"):
        time.sleep(0.005)
    fr = pt.fractions()
    assert set(fr) == {"a", "b"}
    assert sum(fr.values()) == pytest.approx(1.0)


def test_phase_timer_unknown_phase_elapsed_zero():
    assert PhaseTimer().elapsed("nothing") == 0.0


def test_phase_timer_report_mentions_phases():
    pt = PhaseTimer()
    with pt.phase("diag"):
        pass
    assert "diag" in pt.report()


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


def test_format_series_lengths_must_match():
    with pytest.raises(ValueError):
        format_series([1, 2], [1])


def test_format_series_content():
    out = format_series([1, 2], [10.0, 20.0], xlabel="P", ylabel="S")
    assert "P" in out and "S" in out and "20" in out


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


def test_spawn_children_independent():
    children = spawn(default_rng(7), 3)
    assert len(children) == 3
    draws = [c.normal() for c in children]
    assert len(set(draws)) == 3


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


def test_check_positive():
    assert check_positive(1.5, "v") == 1.5
    with pytest.raises(ValueError):
        check_positive(0.0, "v")
    assert check_positive(0.0, "v", strict=False) == 0.0
    with pytest.raises(ValueError):
        check_positive(-1.0, "v", strict=False)
