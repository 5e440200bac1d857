"""TB model zoo: species data, radial functions, calibrated properties."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.tb.models import (
    GSPSilicon, HarrisonModel, NonOrthogonalSilicon, XuCarbon,
    get_model, gsp_scaling, quintic_switch,
)
from repro.tb.models.base import apply_switch


# ---------------------------------------------------------------- registry
def test_registry_known_models():
    assert isinstance(get_model("gsp-si"), GSPSilicon)
    assert isinstance(get_model("xu-c"), XuCarbon)
    assert isinstance(get_model("harrison"), HarrisonModel)
    assert isinstance(get_model("nonortho-si"), NonOrthogonalSilicon)


def test_registry_unknown():
    with pytest.raises(KeyError, match="known"):
        get_model("dft")


# ---------------------------------------------------------------- radial forms
def test_gsp_scaling_unity_at_r0():
    s, _ = gsp_scaling(np.array([2.36]), 2.36, 2.0, 6.48, 3.67)
    assert s[0] == pytest.approx(1.0)


def test_gsp_scaling_monotone_decreasing():
    r = np.linspace(1.8, 4.0, 50)
    s, ds = gsp_scaling(r, 2.36, 2.0, 6.48, 3.67)
    assert np.all(np.diff(s) < 0)
    assert np.all(ds < 0)


def test_gsp_scaling_derivative_finite_difference():
    r = np.array([2.0, 2.5, 3.0, 3.5])
    h = 1e-6
    s, ds = gsp_scaling(r, 2.36, 2.0, 6.48, 3.67)
    sp, _ = gsp_scaling(r + h, 2.36, 2.0, 6.48, 3.67)
    sm, _ = gsp_scaling(r - h, 2.36, 2.0, 6.48, 3.67)
    np.testing.assert_allclose(ds, (sp - sm) / (2 * h), rtol=1e-6)


def test_quintic_switch_limits():
    r = np.array([1.0, 2.0, 3.0])
    s, ds = quintic_switch(r, 2.0, 3.0)
    assert s[0] == 1.0 and ds[0] == 0.0
    assert s[2] == 0.0 and ds[2] == 0.0


def test_quintic_switch_midpoint_half():
    s, _ = quintic_switch(np.array([2.5]), 2.0, 3.0)
    assert s[0] == pytest.approx(0.5)


def test_quintic_switch_derivative_continuity():
    eps = 1e-7
    for edge in (2.0, 3.0):
        s1, d1 = quintic_switch(np.array([edge - eps]), 2.0, 3.0)
        s2, d2 = quintic_switch(np.array([edge + eps]), 2.0, 3.0)
        assert abs(d1[0] - d2[0]) < 1e-4
        assert abs(s1[0] - s2[0]) < 1e-6


def test_quintic_switch_bad_window():
    with pytest.raises(ModelError):
        quintic_switch(np.array([1.0]), 3.0, 2.0)


def test_apply_switch_product_rule():
    r = np.array([2.2, 2.5, 2.9])
    v = r**2
    dv = 2 * r
    sv, sdv = apply_switch(v, dv, r, 2.0, 3.0)
    h = 1e-6
    vp, _ = apply_switch((r + h)**2, 2 * (r + h), r + h, 2.0, 3.0)
    vm, _ = apply_switch((r - h)**2, 2 * (r - h), r - h, 2.0, 3.0)
    np.testing.assert_allclose(sdv, (vp - vm) / (2 * h), rtol=1e-5)


# ---------------------------------------------------------------- GSP silicon
def test_gsp_species_data(gsp):
    assert gsp.norb("Si") == 4
    assert gsp.n_electrons("Si") == 4.0
    np.testing.assert_allclose(gsp.onsite("Si"), [-5.25, 1.20, 1.20, 1.20])


def test_gsp_rejects_carbon(gsp):
    with pytest.raises(ModelError, match="does not support"):
        gsp.check_species(["C"])
    with pytest.raises(ModelError):
        gsp.norb("C")


def test_gsp_hopping_reference_values(gsp):
    V, dV = gsp.hopping("Si", "Si", np.array([gsp.R0]))
    assert V["sss"][0] == pytest.approx(-1.820)
    assert V["sps"][0] == pytest.approx(1.960)
    assert V["pps"][0] == pytest.approx(3.060)
    assert V["ppp"][0] == pytest.approx(-0.870)
    assert V["pss"][0] == V["sps"][0]


def test_gsp_hopping_vanishes_at_cutoff(gsp):
    V, dV = gsp.hopping("Si", "Si", np.array([gsp.cutoff]))
    for ch in V:
        assert V[ch][0] == 0.0
        assert dV[ch][0] == 0.0


def test_gsp_repulsion_positive_and_decaying(gsp):
    r = np.linspace(2.0, 3.5, 20)
    phi, dphi = gsp.pair_repulsion("Si", "Si", r)
    assert np.all(phi > 0)
    assert np.all(dphi < 0)


def test_gsp_default_embedding_identity(gsp):
    x = np.array([0.0, 1.0, 5.0])
    f, df = gsp.embedding("Si", x)
    np.testing.assert_allclose(f, x)
    np.testing.assert_allclose(df, 1.0)


def test_gsp_bad_switch_window():
    with pytest.raises(ModelError):
        GSPSilicon(r_on=4.2, r_off=4.0)


# ---------------------------------------------------------------- XWCH carbon
def test_xu_species_data(xu):
    assert xu.norb("C") == 4
    np.testing.assert_allclose(xu.onsite("C"), [-2.99, 3.71, 3.71, 3.71])


def test_xu_hopping_reference_values(xu):
    V, _ = xu.hopping("C", "C", np.array([xu.R0]))
    assert V["sss"][0] == pytest.approx(-5.0)
    assert V["sps"][0] == pytest.approx(4.7)
    assert V["pps"][0] == pytest.approx(5.5)
    assert V["ppp"][0] == pytest.approx(-1.55)


def test_xu_embedding_polynomial_derivative(xu):
    x = np.linspace(1.0, 30.0, 7)
    f, df = xu.embedding("C", x)
    h = 1e-6
    fp, _ = xu.embedding("C", x + h)
    fm, _ = xu.embedding("C", x - h)
    np.testing.assert_allclose(df, (fp - fm) / (2 * h), rtol=1e-6)


def test_xu_diamond_equilibrium_near_experiment():
    """The model's diamond minimum must fall within 1% of 3.567 Å."""
    from repro.geometry import diamond_cubic
    from repro.tb import TBCalculator

    es = {}
    for a in (3.50, 3.567, 3.63):
        es[a] = TBCalculator(XuCarbon(), kpts=3, kT=0.1).get_potential_energy(
            diamond_cubic("C", a=a)) / 8
    assert es[3.567] < es[3.50]
    assert es[3.567] < es[3.63]


def test_xu_graphene_slightly_favored_over_diamond():
    """XWCH orders graphene ≤ diamond (near-degenerate, graphite wins)."""
    from repro.geometry import diamond_cubic, graphene_sheet
    from repro.tb import TBCalculator

    e_dia = TBCalculator(XuCarbon(), kpts=4, kT=0.1).get_potential_energy(
        diamond_cubic("C")) / 8
    g = graphene_sheet(2, 2)
    e_gra = TBCalculator(XuCarbon(), kpts=(4, 4, 1), kT=0.1
                         ).get_potential_energy(g) / len(g)
    assert e_gra < e_dia + 0.05


# ---------------------------------------------------------------- GSP calibration
def test_gsp_silicon_equilibrium_lattice_constant():
    """Refit repulsion: E(a) minimal at the experimental a₀ = 5.431."""
    from repro.geometry import diamond_cubic
    from repro.tb import TBCalculator

    es = {}
    for a in (5.35, 5.431, 5.51):
        es[a] = TBCalculator(GSPSilicon(), kpts=3, kT=0.05
                             ).get_potential_energy(diamond_cubic("Si", a=a)) / 8
    assert es[5.431] < es[5.35]
    assert es[5.431] < es[5.51]


def test_gsp_silicon_cohesive_energy():
    from repro.geometry import diamond_cubic
    from repro.tb import TBCalculator

    e = TBCalculator(GSPSilicon(), kpts=4, kT=0.05).get_potential_energy(
        diamond_cubic("Si")) / 8
    ecoh = e - (2 * (-5.25) + 2 * 1.20)
    assert ecoh == pytest.approx(-4.63, abs=0.05)


# ---------------------------------------------------------------- Harrison
def test_harrison_hydrogen_s_only(harrison):
    assert harrison.norb("H") == 1
    assert harrison.norb("C") == 4
    assert harrison.onsite("H").shape == (1,)


def test_total_electrons_looks_each_species_up_once(harrison, monkeypatch):
    symbols = ["C", "H", "H", "C", "H", "H"] * 50
    want = float(sum(harrison.n_electrons(s) for s in symbols))
    lookups = []
    n_electrons = harrison.n_electrons
    monkeypatch.setattr(
        harrison, "n_electrons",
        lambda s: lookups.append(s) or n_electrons(s))
    assert harrison.total_electrons(symbols) == want
    assert sorted(lookups) == ["C", "H"]        # not one per atom
    with pytest.raises(ModelError, match="does not support"):
        harrison.total_electrons(["C", "Xe"])


def test_harrison_heteronuclear_channel_asymmetry(harrison):
    r = np.array([1.1])
    V, _ = harrison.hopping("H", "C", r)
    # s-only H: sps (s on H, p on C) alive; pss (p on H) dead
    assert V["sps"][0] != 0.0
    assert V["pss"][0] == 0.0
    assert V["pps"][0] == 0.0 and V["ppp"][0] == 0.0
    Vr, _ = harrison.hopping("C", "H", r)
    assert Vr["pss"][0] == pytest.approx(V["sps"][0])
    assert Vr["sps"][0] == 0.0


def test_harrison_inverse_square_scaling(harrison):
    r1, r2 = np.array([1.0]), np.array([2.0])
    V1, _ = harrison.hopping("C", "C", r1)
    V2, _ = harrison.hopping("C", "C", r2)
    assert V1["sss"][0] / V2["sss"][0] == pytest.approx(4.0, rel=1e-6)


def test_harrison_invalid_construction():
    with pytest.raises(ModelError):
        HarrisonModel(cutoff=0.3, switch_width=0.4)


# ---------------------------------------------------------------- non-orthogonal
def test_nonortho_overlap_channels(nonortho):
    S, dS = nonortho.overlap("Si", "Si", np.array([nonortho.R0]))
    assert S["sss"][0] == pytest.approx(0.12)
    assert S["pss"][0] == S["sps"][0]


def test_nonortho_flag(nonortho, gsp):
    assert not nonortho.orthogonal
    assert gsp.orthogonal
    assert gsp.overlap("Si", "Si", np.array([2.3])) is None


def test_describe_mentions_kind(nonortho, gsp):
    assert "non-orthogonal" in nonortho.describe()
    assert "orthogonal" in gsp.describe()
