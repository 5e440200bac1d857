"""One typed spec for every calculator the CLI, service and bridges build.

The CLI used to own the model/solver dispatch table; the batch service,
the campaign runner (:mod:`repro.scenarios`) and the ASE bridge
(:mod:`repro.ase_bridge`) all need the identical table so a structure
loaded from any surface gets *exactly* the calculator a one-shot
``repro.cli energy`` run would have used (the service's state-reuse
parity guarantees depend on it).  The contract is the frozen
:class:`CalculatorSpec` dataclass::

    spec = CalculatorSpec(model="gsp-si", solver="linscale", kT=0.2)
    calc = make_calculator(spec)

Plain dicts are still accepted everywhere through the
:meth:`CalculatorSpec.from_dict` shim (the wire format of the service
``calc`` field is a dict, and older clients keep working unchanged)::

    calc = make_calculator({"model": "gsp-si", "solver": "linscale",
                            "kT": 0.2})

Unknown keys are rejected with a did-you-mean suggestion — a typo in a
service request must surface as an error, not silently fall back to a
default.  Validation runs at construction, so a bad spec fails when it
is *built* (the service ``load``), not when it first evaluates.  Errors
raised while building a spec on behalf of a request carry the request's
op name (``op 'load': ...``) so a campaign log pinpoints the failing
cell's field.
"""

from __future__ import annotations

import difflib
from dataclasses import asdict, dataclass, field, fields
from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.tb.chebyshev import DEFAULT_ORDER

#: model names accepted by ``--model`` / the service ``calc`` spec
TB_MODELS = ("gsp-si", "xu-c", "harrison", "nonortho-si")
CLASSICAL_MODELS = ("sw-si",)
SOLVERS = ("diag", "purification", "foe", "linscale")

#: MP-grid folding modes accepted by ``kgrid_reduce``
KGRID_REDUCE = ("trs", "full", "symmetry")


def suggest_key(name: str, known: Iterable[object]) -> str:
    """``"; did you mean 'x'?"`` for the closest match, or ``""``.

    Shared by the spec validation here and the scenario parameter
    schemas (:mod:`repro.scenarios.base`) so every surface answers a
    typo the same way.
    """
    close = difflib.get_close_matches(str(name), [str(k) for k in known],
                                      n=1, cutoff=0.6)
    return f"; did you mean {close[0]!r}?" if close else ""


def with_context(exc: ReproError, context: str | None) -> ReproError:
    """Re-wrap *exc* with a ``context: `` message prefix (same class)."""
    if not context:
        return exc
    wrapped = ReproError(f"{context}: {exc}")
    wrapped.__cause__ = exc
    return wrapped


def parse_kgrid(value: Any, context: str | None = None
                ) -> tuple[int, int, int] | None:
    """Normalise a k-grid spec: ``None``, an int, ``"n1xn2xn3"`` (the CLI
    form), or a 3-sequence → MP divisions tuple (or ``None`` for Γ).

    *context* (e.g. the service op that carried the value) is prefixed
    to every error message so a bad field can be traced to its request.
    """
    try:
        if value is None:
            return None
        if isinstance(value, str):
            parts = value.lower().replace("×", "x").split("x")
            if len(parts) == 1:
                parts = parts * 3
            if len(parts) != 3:
                raise ReproError(
                    f"kgrid must look like 'n1xn2xn3' or 'n', got {value!r}")
            value = parts
        if np.isscalar(value):
            value = (value,) * 3
        try:
            if any(float(v) != int(v) for v in value):
                raise ValueError
            grid = tuple(int(v) for v in value)
        except (TypeError, ValueError) as exc:
            raise ReproError(
                f"kgrid divisions must be integers, got {value!r}") from exc
        if len(grid) != 3 or any(g < 1 for g in grid):
            raise ReproError(
                f"kgrid needs three divisions >= 1, got {value!r}")
        return (grid[0], grid[1], grid[2])
    except ReproError as exc:
        raise with_context(exc, context) from exc.__cause__


def _coerce(key: str, value: Any, conv: Callable[[Any], Any],
            default: Any) -> Any:
    """Numeric spec field → *conv*; bad values become ReproError, so a
    malformed service request is answered politely instead of being
    mistaken for a worker crash."""
    if value is None:
        return None if default is None else conv(default)
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"calculator spec field {key!r} must be a number, got "
            f"{value!r}") from exc


@dataclass(frozen=True)
class CalculatorSpec:
    """A validated, immutable calculator specification.

    Fields mirror the historical plain-dict spec keys one-to-one; every
    field is optional except that the defaults must describe a buildable
    calculator (they do: Γ-point exact diagonalisation of ``gsp-si``).

    Construction validates *types* and *cross-field constraints* —
    model/solver names, purification at kT = 0 and Γ only, the backend
    applying to the region engine (``foe``/``linscale``) only — so an
    invalid spec can never be carried around and fail later at build
    time.

    ``kgrid`` accepts every historical form (``"4x4x4"``, an int, a
    3-sequence) and is normalised to a tuple; ``kgrid_reduce`` is
    ``None`` for "the default" (time-reversal folding) and may only be
    set together with a grid.
    """

    # ``metadata["cli"]`` holds the argparse keywords of the field's
    # command-line flag (``repro.cli`` derives ``--<name>`` from the
    # field name and leaves the default absent, so the defaults below
    # are the only ones); a field without it has no flag.
    model: str = field(default="gsp-si", metadata={"cli": {
        "choices": TB_MODELS + CLASSICAL_MODELS}})
    solver: str = field(default="diag", metadata={"cli": {
        "choices": SOLVERS,
        "help": "electronic solver: exact diagonalisation, dense "
                "purification/FOE, or the O(N) localization-region path"}})
    kT: float = field(default=0.0, metadata={"cli": {
        "type": float, "help": "electronic temperature (eV)"}})
    order: int = field(default=DEFAULT_ORDER, metadata={"cli": {
        "type": int, "help": "Chebyshev expansion order (foe/linscale)"}})
    r_loc: float | None = field(default=None, metadata={"cli": {
        "type": float,
        "help": "localization radius in Å (linscale; default 1.5 x the "
                "model cutoff)"}})
    reuse: bool = field(default=True, metadata={"cli": {
        "flag": "--no-reuse", "action": "store_const", "const": False,
        "help": "disable step-to-step state reuse (neighbor lists, "
                "Hamiltonian pattern, regions, spectral window, warm μ) in "
                "the foe/linscale solvers — rebuild everything every step"}})
    skin: float = 0.5
    kgrid: tuple[int, int, int] | None = field(default=None, metadata={"cli": {
        "metavar": "n1xn2xn3",
        "help": "Monkhorst-Pack k grid (e.g. 4x4x4, or one int for "
                "isotropic). Small-cell metals via diag, foe or linscale; "
                "default Γ-only"}})
    kgrid_reduce: str | None = field(default=None, metadata={"cli": {
        "choices": KGRID_REDUCE,
        "help": "k-grid folding: time-reversal only (trs, default), none "
                "(full), or the crystal point-group irreducible wedge "
                "(symmetry) — up to ~16x fewer k points on cubic cells"}})
    backend: str | None = field(default=None, metadata={"cli": {
        "help": "array backend for the foe/linscale region operations "
                "(numpy_batched or the eigh reference); default: "
                "$REPRO_BACKEND, then numpy_batched"}})

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        defaults = {f.name: f.default for f in fields(self)}
        for name, conv in (("kT", float), ("order", int), ("r_loc", float),
                           ("skin", float)):
            set_(self, name, _coerce(name, getattr(self, name), conv,
                                     defaults[name]))
        set_(self, "reuse", bool(self.reuse))
        set_(self, "kgrid", parse_kgrid(self.kgrid))
        if self.model not in TB_MODELS + CLASSICAL_MODELS:
            raise ReproError(
                f"unknown model {self.model!r}; choose from "
                f"{TB_MODELS + CLASSICAL_MODELS}"
                f"{suggest_key(self.model, TB_MODELS + CLASSICAL_MODELS)}")
        if self.solver not in SOLVERS:
            raise ReproError(
                f"unknown solver {self.solver!r}; choose from {SOLVERS}"
                f"{suggest_key(self.solver, SOLVERS)}")
        if self.backend is not None:
            if self.solver in ("diag", "purification"):
                raise ReproError(
                    "backend applies to the 'foe' and 'linscale' solvers "
                    "only (diag and purification have no region recursions "
                    "to dispatch)")
            from repro.linscale.backends import available_backends

            if self.backend not in available_backends():
                raise ReproError(
                    f"unknown array backend {self.backend!r}; available: "
                    f"{available_backends()}"
                    f"{suggest_key(self.backend, available_backends())}")
        if self.kgrid_reduce is not None:
            if self.kgrid_reduce not in KGRID_REDUCE:
                raise ReproError(
                    f"unknown kgrid_reduce {self.kgrid_reduce!r}; choose "
                    f"from {KGRID_REDUCE}"
                    f"{suggest_key(self.kgrid_reduce, KGRID_REDUCE)}")
            if self.kgrid is None:
                raise ReproError(
                    "kgrid_reduce only applies together with a kgrid")
        if self.solver == "purification" and self.kT != 0.0:
            raise ReproError(
                "purification is a zero-temperature method; drop the "
                "electronic temperature or use the FOE for kT > 0")
        if self.kgrid is not None and self.solver == "purification":
            raise ReproError(
                "kgrid is supported by the 'diag', 'foe' and 'linscale' "
                "solvers only (the dense purification kernel is Γ-point)")
        if self.model in CLASSICAL_MODELS:
            if self.solver != "diag":
                raise ReproError(
                    "--solver applies to tight-binding models only "
                    f"({self.model} is classical)")
            if self.kgrid is not None:
                raise ReproError(
                    "kgrid applies to tight-binding models only")

    # -- dict interoperability (the wire format stays a plain dict) --------
    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The accepted spec keys, derived from the dataclass fields."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_dict(cls, data: Any,
                  context: str | None = None) -> "CalculatorSpec":
        """Build a spec from a plain dict (the service wire format).

        Accepts an existing :class:`CalculatorSpec` unchanged, rejects
        unknown keys with a did-you-mean suggestion, and prefixes every
        validation error with *context* (e.g. ``"op 'load'"``) so a
        failure names the request that carried the bad field.
        """
        if isinstance(data, CalculatorSpec):
            return data
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise with_context(ReproError(
                f"calculator spec must be a mapping or CalculatorSpec, "
                f"got {type(data).__name__}"), context)
        known = cls.field_names()
        unknown = set(data) - set(known)
        if unknown:
            worst = sorted(unknown)[0]
            raise with_context(ReproError(
                f"unknown calculator spec keys {sorted(unknown)}; "
                f"accepted: {sorted(known)}{suggest_key(worst, known)}"),
                context)
        try:
            return cls(**data)
        except ReproError as exc:
            raise with_context(exc, context) from exc.__cause__

    def to_dict(self) -> dict:
        """Plain-JSON dict: defaulted fields omitted, ``kgrid`` a list.

        Round-trips through :meth:`from_dict` to an equal spec, and
        stays byte-compatible with what pre-spec clients sent by hand.
        """
        default = CalculatorSpec()
        out = {}
        for name, value in asdict(self).items():
            if value == getattr(default, name):
                continue
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    def replace(self, **changes: Any) -> "CalculatorSpec":
        """A copy with *changes* applied (re-validated)."""
        merged = asdict(self)
        merged.update(changes)
        return CalculatorSpec(**merged)

    def describe(self) -> str:
        """One-line human summary (CLI/campaign logs)."""
        bits = [self.model, self.solver]
        if self.kT:
            bits.append(f"kT={self.kT:g}")
        if self.kgrid is not None:
            k1, k2, k3 = self.kgrid
            bits.append(f"kgrid={k1}x{k2}x{k3}")
            bits.append(f"reduce={self.kgrid_reduce or 'trs'}")
        if self.solver == "linscale" and self.r_loc is not None:
            bits.append(f"r_loc={self.r_loc:g}")
        if self.backend:
            bits.append(f"backend={self.backend}")
        return " ".join(bits)


def make_calculator(spec: Any, context: str | None = None) -> Any:
    """Build a calculator from a :class:`CalculatorSpec` (or dict shim).

    Spec fields (all optional except ``model``): ``model``, ``solver``
    (one of ``diag`` / ``purification`` / ``foe`` / ``linscale``;
    rejected for classical models), ``kT`` (eV), ``order``, ``r_loc``
    (Å), ``reuse``, ``skin`` (Å), ``kgrid`` (Monkhorst–Pack divisions —
    ``"n1xn2xn3"``, an int, or a 3-sequence; not ``purification``),
    ``kgrid_reduce`` (``"trs"`` default / ``"full"`` / ``"symmetry"`` —
    crystal-point-group irreducible wedge), ``backend`` (array backend
    for the ``foe``/``linscale`` region recursions — one of
    :func:`repro.linscale.backends.available_backends`; defaults to the
    ``REPRO_BACKEND`` environment variable, then the package default).

    *context* (e.g. ``"op 'load'"``) is threaded into every validation
    error raised while interpreting a dict spec.
    """
    spec = CalculatorSpec.from_dict(spec, context)
    if spec.model in CLASSICAL_MODELS:
        from repro.classical import StillingerWeber

        return StillingerWeber(skin=spec.skin)

    from repro.tb import get_model

    model = get_model(spec.model)
    kgrid_reduce = spec.kgrid_reduce or "trs"
    if spec.solver == "diag":
        from repro.tb import TBCalculator

        return TBCalculator(model, kT=spec.kT, skin=spec.skin,
                            kpts=spec.kgrid, kgrid_reduce=kgrid_reduce)
    if spec.solver == "purification":
        from repro.linscale import DensityMatrixCalculator

        return DensityMatrixCalculator(model, skin=spec.skin)
    kT = spec.kT
    if kT <= 0.0:
        # the Fermi-operator solvers smear by construction
        kT = 0.1
        from repro.log import get_logger
        get_logger(__name__).warning(
            "solver %r needs kT > 0; using kT = %s eV", spec.solver, kT)
    from repro.linscale.calculator import (
        LinearScalingCalculator, _OneRegionCalculator,
    )

    # foe is the region engine on one all-core region: the dense FOE
    engine = _OneRegionCalculator if spec.solver == "foe" \
        else LinearScalingCalculator
    return engine(
        model, kT=kT, order=spec.order, r_loc=spec.r_loc,
        reuse=spec.reuse, skin=spec.skin,
        kpts=spec.kgrid, kgrid_reduce=kgrid_reduce, backend=spec.backend)
