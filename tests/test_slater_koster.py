"""Slater–Koster blocks and gradients against hand values and finite
differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tb.slater_koster import (
    CHANNELS, sk_block_gradients, sk_blocks,
)


def channels(vals):
    return {ch: np.array([v]) for ch, v in zip(CHANNELS, vals)}


def test_block_along_z_axis():
    """Bond along z: only m-conserving elements survive."""
    V = channels([1.0, 2.0, 3.0, 4.0, 5.0])   # sss sps pss pps ppp
    B = sk_blocks(np.array([[0.0, 0.0, 1.0]]), V)[0]
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0          # ssσ
    expect[0, 3] = 2.0          # s–p_z σ
    expect[3, 0] = -3.0         # p_z–s σ
    expect[3, 3] = 4.0          # ppσ
    expect[1, 1] = 5.0          # ppπ (x)
    expect[2, 2] = 5.0          # ppπ (y)
    np.testing.assert_allclose(B, expect, atol=1e-14)


def test_block_along_x_axis():
    V = channels([1.0, 2.0, 2.0, 4.0, 5.0])
    B = sk_blocks(np.array([[1.0, 0.0, 0.0]]), V)[0]
    assert B[0, 1] == pytest.approx(2.0)
    assert B[1, 0] == pytest.approx(-2.0)
    assert B[1, 1] == pytest.approx(4.0)
    assert B[2, 2] == pytest.approx(5.0)
    assert B[3, 3] == pytest.approx(5.0)
    assert B[1, 2] == pytest.approx(0.0)


def test_block_general_direction_pp_formula():
    u = np.array([[0.6, 0.0, 0.8]])
    V = channels([0.0, 0.0, 0.0, 2.0, -0.5])
    B = sk_blocks(u, V)[0]
    # E_{x,z} = l·n (ppσ − ppπ)
    assert B[1, 3] == pytest.approx(0.6 * 0.8 * 2.5)
    # E_{x,x} = l² ppσ + (1−l²) ppπ
    assert B[1, 1] == pytest.approx(0.36 * 2.0 + 0.64 * (-0.5))


def test_block_reversal_symmetry():
    """B(−u) must equal B(u).T for homonuclear channels (Hermiticity)."""
    rng = np.random.default_rng(1)
    u = rng.normal(size=(6, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    vals = rng.normal(size=(6, 5))
    V = {ch: vals[:, k] for k, ch in enumerate(CHANNELS)}
    V["pss"] = V["sps"]          # homonuclear
    Bf = sk_blocks(u, V)
    Bb = sk_blocks(-u, V)
    np.testing.assert_allclose(Bb, np.swapaxes(Bf, 1, 2), atol=1e-13)


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(3)

    def radial(r):
        # smooth synthetic radial channels with distinct shapes
        V = {
            "sss": -1.8 * np.exp(-r / 1.3),
            "sps": 2.0 * np.exp(-r / 1.1),
            "pss": 1.5 * np.exp(-r / 1.7),
            "pps": 3.1 * np.exp(-r / 0.9),
            "ppp": -0.9 * np.exp(-r / 1.5),
        }
        dV = {
            "sss": -V["sss"] / 1.3 * 0 - 1.8 * np.exp(-r / 1.3) * (-1 / 1.3),
            "sps": 2.0 * np.exp(-r / 1.1) * (-1 / 1.1),
            "pss": 1.5 * np.exp(-r / 1.7) * (-1 / 1.7),
            "pps": 3.1 * np.exp(-r / 0.9) * (-1 / 0.9),
            "ppp": -0.9 * np.exp(-r / 1.5) * (-1 / 1.5),
        }
        dV["sss"] = -1.8 * np.exp(-r / 1.3) * (-1 / 1.3)
        return V, dV

    vec = rng.normal(size=(4, 3)) * 2.0 + np.array([2.0, 0.5, -1.0])
    r = np.linalg.norm(vec, axis=1)
    u = vec / r[:, None]
    V, dV = radial(r)
    G = sk_block_gradients(u, r, V, dV)

    h = 1e-6
    for c in range(3):
        vp = vec.copy(); vp[:, c] += h
        vm = vec.copy(); vm[:, c] -= h
        rp = np.linalg.norm(vp, axis=1); rm = np.linalg.norm(vm, axis=1)
        Bp = sk_blocks(vp / rp[:, None], radial(rp)[0])
        Bm = sk_blocks(vm / rm[:, None], radial(rm)[0])
        num = (Bp - Bm) / (2 * h)
        np.testing.assert_allclose(G[:, c], num, atol=1e-7)


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(0.01, 3.13), phi=st.floats(0.0, 6.28),
    vals=st.tuples(*[st.floats(-5, 5) for _ in range(5)]),
)
def test_property_block_rotation_consistency(theta, phi, vals):
    """Trace of the pp block is rotation invariant: ppσ + 2ppπ."""
    u = np.array([[np.sin(theta) * np.cos(phi),
                   np.sin(theta) * np.sin(phi),
                   np.cos(theta)]])
    V = channels(vals)
    B = sk_blocks(u, V)[0]
    assert np.trace(B[1:, 1:]) == pytest.approx(vals[3] + 2 * vals[4],
                                                abs=1e-10)
    # s-p column has magnitude |sps|
    assert np.linalg.norm(B[0, 1:]) == pytest.approx(abs(vals[1]), abs=1e-10)
