"""The batch-service wire protocol: JSON-lines requests and responses.

One request per line, one response per line, matched by a client-chosen
``id`` echoed back verbatim.  The same message dicts flow through the
in-process :class:`~repro.service.client.BatchClient` (no serialization)
and the Unix-socket server (``json.dumps`` + ``\\n``), so every byte of
behaviour exercised by the socket path is also exercised by the tests'
in-process path.  Python's ``json`` round-trips floats through ``repr``,
so positions survive the socket bit-for-bit — the service's state-reuse
parity guarantee holds across the wire, not just in process.

Request envelope::

    {"id": <any>, "op": "<op>", ...op fields...}

Success / error responses are one :class:`Result` envelope::

    {"id": <echoed>, "ok": true,  "value": {...op result fields...},
     "timings": {"seconds": ...}, "metrics": {...}}
    {"id": <echoed>, "ok": false,
     "error": {"type": "...", "message": "...", "op": "<op>"}}

``value`` carries the op-specific payload; ``timings`` the server-side
wall-clock spent on the request; ``metrics`` op-level counters (e.g.
``warm`` for state-reuse ops).  The campaign store
(:mod:`repro.scenarios.store`) ingests every op through this one shape.
:class:`Result` keeps *flat* access working — ``resp["energy"]`` falls
through into ``value`` — which is what the convenience methods on
:class:`~repro.service.client.BatchClient` read.

Ops
---
``ping``
    Liveness probe → ``{"pong": true}``.
``load``
    Register a structure: ``structure_id``, ``structure`` (see
    :func:`encode_atoms`), optional ``calc`` spec dict (see
    :func:`repro.calculators.make_calculator`).
``eval``
    Energy (and with ``forces: true`` forces/stress) of a registered
    structure; optional ``positions`` / ``cell`` update the resident
    structure in place first — consecutive evals with drifting positions
    ride the calculator's state-reuse fast path.
``relax_step``
    One damped steepest-descent step on the resident structure
    (``step_size``, ``max_step`` Å); returns ``energy``, ``fmax`` and the
    new ``positions``.
``sweep``
    Strain-sweep/EOS on the resident structure with its warm calculator
    (``mode``, ``amplitudes`` *or* ``amplitude``/``npoints``, ``axis``,
    ``fit``, ``forces``, ``energy_ref``); returns the
    :meth:`repro.analysis.strain_sweep.StrainSweepResult.as_dict`
    payload.  The resident geometry itself is untouched (every point
    evaluates a strained copy).
``frames``
    Stream a frame range from a stored trajectory: ``traj_ref`` (the
    handle a trajectory-producing op put in its ``value``), optional
    ``start``/``stop``/``stride``.  Served by the service's
    :class:`~repro.trajio.store.TrajStore` directly — no worker and no
    re-materialized run; each frame is one :func:`encode_frame` dict.
``unload`` / ``list`` / ``stats``
    Lifecycle and introspection.
``metrics``
    ``stats`` plus the full :mod:`repro.obs` registry snapshot
    (counters, gauges, histogram summaries) for the server process.
``shutdown``
    Ask the server to drain and stop (socket transport only).
``debug_crash``
    Kill the worker that owns ``structure_id`` (only honoured when the
    service was built with ``debug_ops=True`` — the crash-recovery tests'
    fault injector).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.errors import ProtocolError, ReproError

#: every op the service understands; ``shutdown`` is intercepted by the
#: socket transport, the rest reach :class:`repro.service.service.BatchService`
OPS = ("ping", "load", "eval", "relax_step", "sweep", "frames", "unload",
       "list", "stats", "metrics", "shutdown", "debug_crash")

#: ops that address one structure and therefore route to its sticky worker
STRUCTURE_OPS = ("load", "eval", "relax_step", "sweep", "unload",
                 "debug_crash")


def encode_atoms(atoms: Any) -> dict:
    """Structure → plain-JSON dict (symbols, positions, cell, pbc)."""
    return {
        "symbols": list(atoms.symbols),
        "positions": np.asarray(atoms.positions, dtype=float).tolist(),
        "cell": np.asarray(atoms.cell.matrix, dtype=float).tolist(),
        "pbc": [bool(p) for p in atoms.cell.pbc],
    }


def encode_frame(frame: Any) -> dict:
    """Trajectory frame → plain-JSON dict (the ``frames`` op payload).

    *frame* is anything shaped like
    :class:`~repro.trajio.reader.TrajFrame`: scalar metadata plus
    positions/cell/pbc and optional velocities.
    """
    out = {
        "step": int(frame.step),
        "time_fs": float(frame.time_fs),
        "epot": float(frame.epot),
        "ekin": float(frame.ekin),
        "temperature": float(frame.temperature),
        "positions": np.asarray(frame.positions, dtype=float).tolist(),
        "cell": np.asarray(frame.cell.matrix, dtype=float).tolist(),
        "pbc": [bool(p) for p in frame.cell.pbc],
    }
    if frame.velocities is not None:
        out["velocities"] = np.asarray(frame.velocities,
                                       dtype=float).tolist()
    return out


def decode_atoms(d: dict) -> Any:
    """Plain-JSON dict → :class:`~repro.geometry.atoms.Atoms` (validated)."""
    from repro.geometry.atoms import Atoms
    from repro.geometry.cell import Cell

    if not isinstance(d, dict):
        raise ProtocolError("'structure' must be an object")
    for key in ("symbols", "positions"):
        if key not in d:
            raise ProtocolError(f"structure is missing {key!r}")
    try:
        positions = as_positions(d["positions"])
        cell = d.get("cell")
        if cell is not None:
            cell = Cell(as_cell(cell),
                        pbc=tuple(d.get("pbc", (True, True, True))))
        return Atoms(list(d["symbols"]), positions, cell=cell)
    except ReproError:
        raise
    except Exception as exc:
        raise ProtocolError(f"bad structure payload: {exc}") from exc


def as_positions(obj: Any) -> np.ndarray:
    """Validate an (N, 3) float position payload."""
    try:
        pos = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"positions are not numeric: {exc}") from exc
    if pos.ndim != 2 or pos.shape[1] != 3 or not np.isfinite(pos).all():
        raise ProtocolError(
            f"positions must be a finite (N, 3) array, got shape "
            f"{getattr(pos, 'shape', None)}")
    return pos


def as_cell(obj: Any) -> np.ndarray:
    """Validate a 3×3 float cell-matrix payload."""
    try:
        mat = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"cell is not numeric: {exc}") from exc
    if mat.shape != (3, 3):
        raise ProtocolError(f"cell must be 3x3, got {mat.shape}")
    return mat


def validate_request(req: Any) -> dict:
    """Check the envelope of one decoded request (op known, id JSON-safe)."""
    if not isinstance(req, dict):
        raise ProtocolError(f"request must be an object, got {type(req).__name__}")
    op = req.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; valid ops: {', '.join(OPS)}")
    if op in STRUCTURE_OPS:
        sid = req.get("structure_id")
        if not isinstance(sid, str) or not sid:
            raise ProtocolError(f"op {op!r} needs a non-empty string "
                                f"'structure_id'")
    if op == "frames":
        ref = req.get("traj_ref")
        if not isinstance(ref, str) or not ref:
            raise ProtocolError("op 'frames' needs a non-empty string "
                                "'traj_ref'")
    return req


#: keys that live in the envelope itself; everything else is payload
ENVELOPE_KEYS = ("id", "ok", "value", "error", "timings", "metrics")


class Result(dict):
    """The one response envelope every op and CLI command returns.

    A ``dict`` subclass whose *stored* mapping is the envelope
    (``id`` / ``ok`` / ``value`` / ``error`` / ``timings`` /
    ``metrics``) — so ``json.dumps`` (and :func:`dumps`) emit the
    enveloped wire format — while item access falls through into
    ``value`` for any non-envelope key: ``resp["energy"]`` keeps
    working for every pre-envelope call site.  Writes to non-envelope
    keys land in ``value`` too (the client normalises ``forces`` to an
    array in place).

    Use :meth:`success` / :meth:`failure` to build one,
    :meth:`from_response` to adopt whatever came off the wire.
    """

    # -- typed accessors ---------------------------------------------------
    @property
    def ok(self) -> bool:
        return bool(dict.get(self, "ok"))

    @property
    def value(self) -> dict:
        return dict.get(self, "value") or {}

    @property
    def error(self) -> dict | None:
        return dict.get(self, "error")

    @property
    def timings(self) -> dict:
        return dict.get(self, "timings") or {}

    @property
    def metrics(self) -> dict:
        return dict.get(self, "metrics") or {}

    # -- flat-access compatibility ----------------------------------------
    def __getitem__(self, key: Any) -> Any:
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        value = dict.get(self, "value")
        if isinstance(value, dict) and key in value:
            return value[key]
        # the Mapping contract: __getitem__ signals a missing key with
        # KeyError, which dict.get/`in` and every caller rely on
        raise KeyError(key)  # reprolint: disable=error-discipline

    def __contains__(self, key: object) -> bool:
        if dict.__contains__(self, key):
            return True
        value = dict.get(self, "value")
        return isinstance(value, dict) and key in value

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def __setitem__(self, key: Any, val: Any) -> None:
        if key in ENVELOPE_KEYS:
            dict.__setitem__(self, key, val)
            return
        value = dict.get(self, "value")
        if not isinstance(value, dict):
            value = {}
            dict.__setitem__(self, "value", value)
        value[key] = val

    # -- constructors ------------------------------------------------------
    @classmethod
    def success(cls, value: dict | None = None, *, id: Any = None,
                timings: dict | None = None,
                metrics: dict | None = None) -> "Result":
        resp = cls({"id": id, "ok": True, "value": dict(value or {})})
        if timings:
            dict.__setitem__(resp, "timings", dict(timings))
        if metrics:
            dict.__setitem__(resp, "metrics", dict(metrics))
        return resp

    @classmethod
    def failure(cls, exc: Exception, *, id: Any = None,
                op: str | None = None) -> "Result":
        err = {"type": type(exc).__name__, "message": str(exc)}
        if op is not None:
            err["op"] = op
        return cls({"id": id, "ok": False, "error": err})

    @classmethod
    def from_response(cls, resp: Any) -> "Result":
        """Adopt a decoded response; anything but the envelope is a
        :class:`~repro.errors.ProtocolError`."""
        if isinstance(resp, cls):
            return resp
        if not isinstance(resp, dict):
            raise ProtocolError(
                f"response must be an object, got {type(resp).__name__}")
        stray = sorted(set(resp) - set(ENVELOPE_KEYS))
        if stray or "ok" not in resp:
            raise ProtocolError(
                "response is not a Result envelope: "
                + (f"unexpected keys {stray}" if stray else "no 'ok' field"))
        return cls(resp)

    def merge_timings(self, **fields: Any) -> "Result":
        timings = dict(dict.get(self, "timings") or {})
        timings.update(fields)
        dict.__setitem__(self, "timings", timings)
        return self

    def merge_metrics(self, **fields: Any) -> "Result":
        metrics = dict(dict.get(self, "metrics") or {})
        metrics.update(fields)
        dict.__setitem__(self, "metrics", metrics)
        return self


def ok_response(req: dict, **fields: Any) -> Result:
    """Success :class:`Result` for *req*; ``timings``/``metrics`` kwargs
    land in their envelope slots, everything else is the ``value``."""
    timings = fields.pop("timings", None)
    metrics = fields.pop("metrics", None)
    return Result.success(fields, id=req.get("id"),
                          timings=timings, metrics=metrics)


def error_response(req: Any, exc: Exception) -> Result:
    """Uniform error envelope; the exception class name is the ``type``,
    the request's op (when known) rides along for context."""
    rid = req.get("id") if isinstance(req, dict) else None
    op = req.get("op") if isinstance(req, dict) else None
    return Result.failure(exc, id=rid, op=op)


def _jsonable(obj: Any) -> Any:
    """json.dumps fallback: numpy arrays/scalars → plain Python."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    # json.dumps requires its default hook to raise TypeError
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")  # reprolint: disable=error-discipline


def dumps(message: dict) -> bytes:
    """One protocol line, newline-terminated, ready for ``sendall``."""
    return (json.dumps(message, separators=(",", ":"), allow_nan=False,
                       default=_jsonable) + "\n").encode()


def loads(line: bytes | str) -> dict:
    """Decode one protocol line; raises :class:`ProtocolError` on garbage."""
    try:
        return json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
