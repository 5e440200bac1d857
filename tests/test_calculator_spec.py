"""CalculatorSpec: validation, dict round-trips, context threading."""

from __future__ import annotations

import pytest

from repro.calculators import (
    SOLVERS, CalculatorSpec, make_calculator, parse_kgrid, suggest_key,
)
from repro.classical import StillingerWeber
from repro.errors import ReproError
from repro.geometry import bulk_silicon
from repro.linscale import LinearScalingCalculator
from repro.service import BatchClient, BatchService
from repro.tb import GSPSilicon, TBCalculator


def test_defaults_describe_a_buildable_calculator():
    spec = CalculatorSpec()
    assert spec.model == "gsp-si" and spec.solver == "diag"
    assert isinstance(make_calculator(spec), TBCalculator)


def test_frozen():
    spec = CalculatorSpec()
    with pytest.raises(AttributeError):
        spec.model = "sw-si"


def test_field_coercion_and_kgrid_normalisation():
    spec = CalculatorSpec(model="gsp-si", solver="linscale", kT="0.2",
                          order="80", kgrid="2x3x4")
    assert spec.kT == 0.2 and isinstance(spec.kT, float)
    assert spec.order == 80 and isinstance(spec.order, int)
    assert spec.kgrid == (2, 3, 4)


def test_bad_numeric_field():
    with pytest.raises(ReproError, match="'kT' must be a number"):
        CalculatorSpec(kT="warm")


def test_from_dict_accepts_spec_none_and_dict():
    spec = CalculatorSpec(model="sw-si")
    assert CalculatorSpec.from_dict(spec) is spec
    assert CalculatorSpec.from_dict(None) == CalculatorSpec()
    assert CalculatorSpec.from_dict({"model": "sw-si"}).model == "sw-si"
    with pytest.raises(ReproError, match="must be a mapping"):
        CalculatorSpec.from_dict(["model"])


def test_unknown_key_suggestion():
    with pytest.raises(ReproError, match="did you mean 'kgrid'"):
        CalculatorSpec.from_dict({"kgird": 2})
    # the historical message prefix is stable API for error matching
    with pytest.raises(ReproError, match="unknown calculator spec keys"):
        CalculatorSpec.from_dict({"completely_novel": 1})


def test_unknown_model_and_solver_suggestions():
    with pytest.raises(ReproError, match="did you mean 'gsp-si'"):
        CalculatorSpec(model="gsp_si")
    with pytest.raises(ReproError, match="did you mean 'linscale'"):
        CalculatorSpec(model="gsp-si", solver="linscal")


def test_context_threads_into_errors():
    with pytest.raises(ReproError, match="op 'load': unknown calculator"):
        CalculatorSpec.from_dict({"oops": 1}, context="op 'load'")
    with pytest.raises(ReproError, match="op 'load'.*kgrid"):
        CalculatorSpec.from_dict({"kgrid": "4xx"}, context="op 'load'")
    with pytest.raises(ReproError, match="op 'eval': kgrid"):
        parse_kgrid("bad", context="op 'eval'")


def test_to_dict_round_trip_and_default_elision():
    spec = CalculatorSpec(model="gsp-si", solver="linscale", kT=0.3,
                          order=60, kgrid=(2, 2, 2))
    d = spec.to_dict()
    assert d["kgrid"] == [2, 2, 2]          # JSON-safe
    assert "skin" not in d                  # defaulted fields elided
    assert CalculatorSpec.from_dict(d) == spec
    assert CalculatorSpec().to_dict() == {}


def test_replace_revalidates():
    spec = CalculatorSpec(model="gsp-si", solver="linscale", kT=0.3)
    assert spec.replace(order=40).order == 40
    with pytest.raises(ReproError, match="unknown solver"):
        spec.replace(solver="nope")


@pytest.mark.parametrize("surface", ["spec", "constructor", "load"])
def test_worker_count_and_order_are_checked_where_given(surface):
    """``order < 2`` fails where it is given, not at the first solve."""
    spec = {"model": "gsp-si", "solver": "linscale", "kT": 0.2, "order": 1}
    if surface == "spec":
        with pytest.raises(ReproError, match="order must be >= 2"):
            make_calculator(spec)
    elif surface == "constructor":
        with pytest.raises(ReproError, match="order must be >= 2"):
            LinearScalingCalculator(GSPSilicon(), kT=0.2, order=1)
    else:
        with BatchService(nworkers=1) as service, \
                pytest.raises(ReproError,
                              match="op 'load'.*order must be >= 2"):
            BatchClient(service).load("si", bulk_silicon(), calc=spec)


def test_cross_field_rules_preserved():
    with pytest.raises(ReproError, match="kgrid_reduce only applies"):
        CalculatorSpec(kgrid_reduce="symmetry")
    with pytest.raises(ReproError, match="diag.*linscale"):
        CalculatorSpec(solver="purification", kgrid=2)
    with pytest.raises(ReproError, match="zero-temperature"):
        CalculatorSpec(solver="purification", kT=0.2)
    with pytest.raises(ReproError, match="foe.*linscale"):
        CalculatorSpec(solver="purification", backend="eigh")
    # foe is the region engine on one all-core region: it takes both
    spec = CalculatorSpec(solver="foe", kT=0.2, kgrid=2, backend="eigh")
    assert (spec.kgrid, spec.backend) == ((2, 2, 2), "eigh")
    with pytest.raises(ReproError, match="classical"):
        CalculatorSpec(model="sw-si", solver="foe")
    with pytest.raises(ReproError, match="tight-binding"):
        CalculatorSpec(model="sw-si", kgrid=2)
    with pytest.raises(ReproError, match="linscale"):
        CalculatorSpec(solver="diag", backend="eigh")


def test_make_calculator_dispatch_unchanged():
    assert isinstance(make_calculator({"model": "sw-si"}), StillingerWeber)
    lin = make_calculator(CalculatorSpec(
        model="gsp-si", solver="linscale", kT=0.3, order=60))
    assert isinstance(lin, LinearScalingCalculator)


def test_describe_mentions_the_load_bearing_fields():
    text = CalculatorSpec(model="gsp-si", solver="linscale", kT=0.2,
                          kgrid=2, kgrid_reduce="symmetry").describe()
    assert "gsp-si" in text and "linscale" in text
    assert "2x2x2" in text and "symmetry" in text


def test_suggest_key_no_match_is_silent():
    assert suggest_key("zzzzz", ["model", "solver"]) == ""


@pytest.mark.parametrize("model", ["gsp-si", "xu-c"])
@pytest.mark.parametrize("solver", SOLVERS)
def test_cli_flags_carry_no_defaults_of_their_own(solver, model):
    """One flag source: a calculator built from CLI flags is the one the
    same spec builds through the service, a campaign or Python — the
    parser adds no default the spec does not have (``--r-loc`` used to
    say 6.0 Å where the spec says 1.5 × the model cutoff)."""
    from repro.cli import _make_calculator, build_parser

    kT = 0.0 if solver == "purification" else 0.2
    args = build_parser().parse_args(
        ["energy", "x.xyz", "--model", model, "--solver", solver,
         "--kt", str(kT)])
    want = make_calculator({"model": model, "solver": solver, "kT": kT})
    assert repr(_make_calculator(args)) == repr(want)


def test_cli_calculator_flags_are_the_spec_fields():
    """Every generated flag lands on its spec field's name with no
    default; ``skin`` is the one field that declares no flag."""
    from repro.cli import _calc_spec, build_parser

    args = build_parser().parse_args(["md", "x.xyz"])
    flagged = {n for n in CalculatorSpec.field_names() if hasattr(args, n)}
    assert flagged == set(CalculatorSpec.field_names()) - {"skin"}
    assert _calc_spec(args) == {}
    args = build_parser().parse_args(
        ["md", "x.xyz", "--no-reuse", "--r-loc", "5.5", "--order", "40"])
    assert _calc_spec(args) == {"reuse": False, "r_loc": 5.5, "order": 40}
