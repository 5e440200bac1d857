"""Clients for the batch service: in-process and over the socket.

:class:`BatchClient` wraps a :class:`~repro.service.service.BatchService`
directly — no serialization, no threads — and is what the tests and the
throughput benchmark drive.  :class:`SocketClient` speaks the JSON-lines
protocol over a Unix socket to a running ``repro serve``.  Both expose
the same convenience surface (``load`` / ``evaluate`` / ``evaluate_many``
/ ``sweep`` / ``stats`` / …), built on a single ``request`` /
``request_many`` primitive, so code written against one runs against the
other.  There is no relaxation op: relax (or run MD) client-side on a
:class:`~repro.service.calculator.RemoteCalculator`, one ``eval`` per
trial point.

Responses are returned as :class:`~repro.service.protocol.Result`
envelopes (dict subclasses — flat key access like ``resp["energy"]``
falls through into the ``value`` payload, so pre-envelope call sites
keep working).  By default a ``{"ok": false}`` response is raised as
:class:`~repro.errors.ServiceError` carrying the failing op's name —
pass ``raise_on_error=False`` to inspect error envelopes instead.
"""

from __future__ import annotations

import itertools
import socket

import numpy as np

from repro.errors import ServiceError
from repro.service import protocol


class _ClientBase:
    """Shared convenience surface over ``request`` / ``request_many``."""

    raise_on_error = True

    def request(self, op: str, **fields) -> dict:
        return self.request_many([dict(fields, op=op)])[0]

    def request_many(self, requests: list[dict]) -> list[dict]:
        raise NotImplementedError  # pragma: no cover

    def _check(self, responses: list[dict]) -> list[protocol.Result]:
        out = [protocol.Result.from_response(r) for r in responses]
        if self.raise_on_error:
            for resp in out:
                if not resp.ok:
                    err = resp.error or {}
                    where = (f" during op {err['op']!r}"
                             if err.get("op") else "")
                    raise ServiceError(
                        f"service error [{err.get('type', '?')}]{where}: "
                        f"{err.get('message', 'unknown failure')}")
        return out

    # -- convenience ops ----------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def load(self, structure_id: str, atoms, calc: dict | None = None
             ) -> dict:
        """Register *atoms* under *structure_id* with a calculator spec."""
        return self.request("load", structure_id=structure_id,
                            structure=protocol.encode_atoms(atoms),
                            calc=calc or {})

    def evaluate(self, structure_id: str, positions=None, cell=None,
                 forces: bool = True) -> dict:
        """Energy (+forces) of a resident structure; *positions* / *cell*
        update it in place first (the state-reuse path)."""
        return self.evaluate_many([{
            "structure_id": structure_id, "positions": positions,
            "cell": cell, "forces": forces}])[0]

    def evaluate_many(self, requests: list[dict]) -> list[dict]:
        """Batch of eval requests (dicts of ``evaluate`` keyword args).

        This is the throughput path: the whole list reaches the service
        as one batch and is fanned to the sticky workers together.
        """
        msgs = []
        for r in requests:
            msg = {"op": "eval", "structure_id": r["structure_id"],
                   "forces": r.get("forces", True)}
            if r.get("positions") is not None:
                msg["positions"] = np.asarray(r["positions"], dtype=float)
            if r.get("cell") is not None:
                msg["cell"] = np.asarray(r["cell"], dtype=float)
            msgs.append(msg)
        out = self.request_many(msgs)
        for res in out:
            if "forces" in res:
                res["forces"] = np.asarray(res["forces"], dtype=float)
        return out

    def sweep(self, structure_id: str, amplitudes=None,
              mode: str = "volumetric", axis: int = 2,
              fit: str | None = "birch", forces: bool = False,
              energy_ref: float = 0.0, amplitude: float = 0.04,
              npoints: int = 9, traj: bool = False) -> dict:
        """Server-side strain-sweep/EOS on a resident structure — one
        request for the whole E(ε) curve, evaluated by the calculator
        that already holds the warm state (see
        :func:`repro.analysis.strain_sweep.strain_sweep`).  With
        ``traj=True`` the strained geometries are recorded server-side
        and the response carries a ``traj_ref`` handle instead of frame
        payloads — fetch them lazily with :meth:`frames` /
        :meth:`iter_frames`."""
        req: dict = {"structure_id": structure_id, "mode": mode,
                     "axis": axis, "fit": fit, "forces": forces,
                     "energy_ref": energy_ref}
        if traj:
            req["traj"] = True
        if amplitudes is not None:
            req["amplitudes"] = [float(a) for a in amplitudes]
        else:
            req["amplitude"] = amplitude
            req["npoints"] = npoints
        return self.request("sweep", **req)

    def frames(self, traj_ref: str, start: int = 0,
               stop: int | None = None, stride: int = 1) -> dict:
        """Fetch a frame range from a server-side stored trajectory.

        Returns the ``frames`` op payload with ``positions`` / ``cell``
        / ``velocities`` of each frame normalised to numpy arrays.
        """
        req: dict = {"traj_ref": traj_ref, "start": start,
                     "stride": stride}
        if stop is not None:
            req["stop"] = stop
        res = self.request("frames", **req)
        for fr in res["frames"]:
            for key in ("positions", "cell", "velocities"):
                if key in fr:
                    fr[key] = np.asarray(fr[key], dtype=float)
        return res

    def iter_frames(self, traj_ref: str, batch: int = 64, stride: int = 1):
        """Lazily page through a stored trajectory, *batch* frames per
        ``frames`` request — the client never holds the full run."""
        start = 0
        while True:
            res = self.frames(traj_ref, start=start,
                              stop=start + batch * stride, stride=stride)
            yield from res["frames"]
            start += batch * stride
            if start >= int(res["total"]):
                return

    def unload(self, structure_id: str) -> dict:
        return self.request("unload", structure_id=structure_id)

    def list_structures(self) -> list[str]:
        return list(self.request("list")["structures"])

    def stats(self) -> dict:
        return self.request("stats")["stats"]

    def metrics(self) -> dict:
        """``stats`` plus the service-process :mod:`repro.obs` registry
        snapshot: ``{"stats": ..., "metrics": ...}``."""
        resp = self.request("metrics")
        return {"stats": resp["stats"], "metrics": resp["metrics"]}

    def shutdown(self) -> dict:
        return self.request("shutdown")


class BatchClient(_ClientBase):
    """In-process client: calls the service synchronously, no transport.

    The request dicts are handed to the service as-is (numpy arrays and
    all), which keeps the test/benchmark path free of serialization cost
    while exercising the identical service core as the socket path.
    """

    def __init__(self, service, raise_on_error: bool = True):
        self.service = service
        self.raise_on_error = bool(raise_on_error)
        self._ids = itertools.count(1)

    def request_many(self, requests: list[dict]) -> list[dict]:
        for req in requests:
            req.setdefault("id", next(self._ids))
        return self._check(self.service.submit_many(requests))


class SocketClient(_ClientBase):
    """JSON-lines client for a ``repro serve`` Unix socket.

    Not thread-safe: use one client per thread (each keeps its own
    request-id counter and receive buffer).
    """

    def __init__(self, socket_path: str, timeout: float = 300.0,
                 raise_on_error: bool = True):
        self.socket_path = str(socket_path)
        self.raise_on_error = bool(raise_on_error)
        self._ids = itertools.count(1)
        self._buf = b""
        self._pending: dict = {}
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(self.socket_path)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def request_many(self, requests: list[dict]) -> list[dict]:
        ids = []
        payload = b""
        for req in requests:
            req.setdefault("id", next(self._ids))
            ids.append(req["id"])
            payload += protocol.dumps(req)
        self._sock.sendall(payload)
        return self._check([self._recv_response(rid) for rid in ids])

    def _recv_response(self, rid) -> dict:
        if rid in self._pending:
            return self._pending.pop(rid)
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                if not line.strip():
                    continue
                resp = protocol.loads(line)
                if resp.get("id") == rid:
                    return resp
                self._pending[resp.get("id")] = resp
            try:
                chunk = self._sock.recv(1 << 16)
            except socket.timeout as exc:
                raise ServiceError(
                    f"timed out waiting for response {rid!r} from "
                    f"{self.socket_path}") from exc
            if not chunk:
                raise ServiceError(
                    f"server closed the connection before answering "
                    f"request {rid!r}")
            self._buf += chunk
