"""A resident calculator worker: one owner per structure, state kept hot.

Each :class:`Worker` holds a set of structures as live
:class:`~repro.geometry.atoms.Atoms` objects paired with the calculator
that has been evaluating them (:class:`LinearScalingCalculator`,
:class:`TBCalculator`, …).  Because the service routes every request for
a structure to the *same* worker (sticky routing), consecutive requests
hit the calculator's persistent state — Verlet lists, sparse-H patterns,
localization regions, spectral window, warm μ — through the normal
:class:`repro.state.CalculatorState` contract.  The worker does nothing
special to enable that; it just refrains from throwing the calculator
away between requests, which is exactly what the one-shot CLI cannot do.

Error containment: any :class:`~repro.errors.ReproError` raised while
handling a request (unknown structure, bad model input, non-convergence)
is converted to an error *response* for that request alone.  Anything
else escaping :meth:`Worker.handle` is treated by the service as a
worker **crash**: the worker object is discarded, and its structures are
re-materialized from their snapshots on next touch.
"""

from __future__ import annotations

import time

from repro.calculators import CalculatorSpec, make_calculator
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.log import get_logger, log_context
from repro.service import protocol
from repro.utils.memory import resident_bytes
from repro.utils.timing import tick

log = get_logger(__name__)


class WorkerCrashError(Exception):
    """Deliberately *not* a ReproError: the fault injector behind the
    ``debug_crash`` op, modelling segfault-class failures that must take
    the whole worker down rather than answer politely."""


class StructureSlot:
    """One resident structure: live atoms + calculator + counters."""

    def __init__(self, structure_id: str, atoms, calc_spec):
        self.structure_id = structure_id
        self.atoms = atoms
        # op context rides into every spec validation error, so a typo'd
        # field in a request is reported against the op that carried it
        self.calc_spec = CalculatorSpec.from_dict(calc_spec,
                                                  context="op 'load'")
        self.calc = make_calculator(self.calc_spec)
        self.evals = 0
        self.created = time.monotonic()
        self.last_used = self.created
        self._bytes: int | None = None      # None = stale, walk on read

    def touch(self) -> None:
        """An op used this slot: its byte estimate is out of date."""
        self.last_used = time.monotonic()
        self._bytes = None

    @property
    def bytes_estimate(self) -> int:
        """Resident numpy bytes of calculator + atoms, walked on read
        when the slot was touched since the last walk — nothing per
        request.  Read it under the owning worker's lock: the walk must
        never see a calculator mid-mutation."""
        if self._bytes is None:
            self._bytes = resident_bytes(self.calc) \
                + resident_bytes(self.atoms)
        return self._bytes


class Worker:
    """Handles one batch of requests at a time for its resident structures."""

    def __init__(self, worker_id: int, debug_ops: bool = False,
                 traj_store=None):
        self.worker_id = worker_id
        self.debug_ops = bool(debug_ops)
        # zero-arg callable returning the service's TrajStore (lazy so
        # services that never record a trajectory never create one)
        self._traj_store = traj_store
        self.slots: dict[str, StructureSlot] = {}

    # -- lifecycle (called by the service, not by clients directly) --------
    def load_structure(self, structure_id: str, atoms, calc_spec: dict
                       ) -> StructureSlot:
        slot = StructureSlot(structure_id, atoms, calc_spec)
        self.slots[structure_id] = slot
        return slot

    def evict(self, structure_id: str) -> None:
        self.slots.pop(structure_id, None)

    def resident_ids(self) -> list[str]:
        return list(self.slots)

    # -- request handling ---------------------------------------------------
    def handle(self, req: dict) -> protocol.Result:
        """One request → one :class:`~repro.service.protocol.Result`.
        ReproErrors become error responses; everything else propagates
        as a crash.  Server-side wall-clock lands in the envelope's
        ``timings`` slot and the state-reuse ``warm`` flag is mirrored
        into ``metrics`` — the campaign store reads both without
        knowing any op-specific payload."""
        with log_context(worker=self.worker_id,
                         structure=req.get("structure_id")):
            t0 = tick()
            resp = self._handle(req)
            if isinstance(resp, protocol.Result):
                resp.merge_timings(seconds=tick() - t0)
                if resp.ok and "warm" in resp.value:
                    resp.merge_metrics(warm=bool(resp.value["warm"]))
            return resp

    def _handle(self, req: dict) -> dict:
        try:
            op = req["op"]
            log.debug("handling op %r", op)
            if op == "eval":
                return self._op_eval(req)
            if op == "sweep":
                return self._op_sweep(req)
            if op == "load":
                return self._op_load(req)
            if op == "unload":
                self.evict(req["structure_id"])
                return protocol.ok_response(req, unloaded=True)
            if op == "debug_crash":
                if not self.debug_ops:
                    raise ServiceError(
                        "debug_crash is disabled (start the service with "
                        "debug_ops=True to enable fault injection)")
                raise WorkerCrashError(
                    f"debug_crash requested for worker {self.worker_id}")
            raise ProtocolError(f"op {op!r} is not a worker op")
        except WorkerCrashError:
            raise
        except ReproError as exc:
            # calculator/protocol-level failures answer politely; anything
            # else (programming errors, fault injection) crashes the
            # worker and the service rebuilds it
            return protocol.error_response(req, exc)

    def _slot(self, req: dict) -> StructureSlot:
        sid = req["structure_id"]
        slot = self.slots.get(sid)
        if slot is None:
            raise ServiceError(
                f"structure {sid!r} is not resident on worker "
                f"{self.worker_id} — load it first")
        return slot

    def _op_load(self, req: dict) -> dict:
        sid = req["structure_id"]
        atoms = req.get("_atoms")
        if atoms is None:
            atoms = protocol.decode_atoms(req.get("structure"))
        slot = self.load_structure(sid, atoms, req.get("calc") or {})
        slot.touch()
        return protocol.ok_response(
            req, structure_id=sid, natoms=len(atoms),
            worker=self.worker_id,
            calculator=type(slot.calc).__name__)

    def _apply_geometry(self, slot: StructureSlot, req: dict):
        """Update the resident structure in place from request fields.

        *Every* field is validated before anything is mutated, and the
        pre-request geometry is returned so a failing compute can be
        rolled back — an error response must leave the resident
        structure exactly where the client last saw it succeed.
        """
        pos = cell = None
        if req.get("positions") is not None:
            pos = protocol.as_positions(req["positions"])
            if pos.shape != slot.atoms.positions.shape:
                raise ProtocolError(
                    f"positions shape {pos.shape} does not match resident "
                    f"structure {slot.atoms.positions.shape}")
        if req.get("cell") is not None:
            from repro.geometry.cell import Cell

            cell = Cell(protocol.as_cell(req["cell"]),
                        pbc=slot.atoms.cell.pbc)
        if pos is None and cell is None:
            return None
        undo = (slot.atoms.positions.copy(), slot.atoms.cell)
        if pos is not None:
            slot.atoms.positions[:] = pos
        if cell is not None:
            slot.atoms.cell = cell
        return undo

    @staticmethod
    def _revert_geometry(slot: StructureSlot, undo) -> None:
        if undo is not None:
            slot.atoms.positions[:] = undo[0]
            slot.atoms.cell = undo[1]

    def _op_eval(self, req: dict) -> dict:
        slot = self._slot(req)
        undo = self._apply_geometry(slot, req)
        warm = slot.evals > 0
        want_forces = bool(req.get("forces", True))
        try:
            res = slot.calc.compute(slot.atoms, forces=want_forces)
        except ReproError:
            self._revert_geometry(slot, undo)
            raise
        slot.evals += 1
        slot.touch()
        out = {
            "structure_id": slot.structure_id,
            "natoms": len(slot.atoms),
            "energy": res["energy"],
            "free_energy": res.get("free_energy", res["energy"]),
            "warm": warm,
            "worker": self.worker_id,
        }
        for key in ("fermi_level", "pressure_gpa", "gap"):
            if key in res:
                out[key] = res[key]
        if want_forces:
            # copy: the response must never alias the calculator's
            # cached results array (an in-process client mutating the
            # returned forces would otherwise corrupt the cache)
            out["forces"] = res["forces"].copy()
        return protocol.ok_response(req, **out)

    def _op_sweep(self, req: dict) -> dict:
        """Strain-sweep/EOS the resident structure with its warm
        calculator.  The resident geometry is never mutated — every
        point evaluates a strained copy — but the calculator state ends
        at the last strain point, so the next plain eval recomputes
        (correctly, through the normal state contract)."""
        import numpy as np

        from repro.analysis.strain_sweep import strain_sweep, sweep_amplitudes

        slot = self._slot(req)
        warm = slot.evals > 0
        mode = req.get("mode", "volumetric")
        fit = req.get("fit", "birch")
        if fit in (None, "none"):
            fit = None
        try:
            if req.get("amplitudes") is not None:
                amplitudes = np.asarray(req["amplitudes"], dtype=float)
                if amplitudes.ndim != 1 or len(amplitudes) == 0:
                    raise ProtocolError(
                        "bad sweep parameters: amplitudes must be a "
                        "non-empty list")
            else:
                amplitudes = sweep_amplitudes(req.get("amplitude", 0.04),
                                              req.get("npoints", 9))
            axis = int(req.get("axis", 2))
            energy_ref = float(req.get("energy_ref", 0.0))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad sweep parameters: {exc}") from exc
        traj_ref = None
        traj_writer = None
        if req.get("traj"):
            # record every strained geometry into the service's result
            # store; only the small ref rides back in the envelope
            if self._traj_store is None:
                raise ServiceError(
                    "this service has no trajectory store; "
                    "'traj': true is unavailable")
            store = self._traj_store()
            traj_ref = store.create(f"sweep-{slot.structure_id}")
            traj_writer = store.writer(traj_ref)
        try:
            result = strain_sweep(slot.atoms, slot.calc, amplitudes,
                                  mode=mode, axis=axis,
                                  forces=bool(req.get("forces", False)),
                                  fit=fit, energy_ref=energy_ref,
                                  traj_writer=traj_writer)
        finally:
            if traj_writer is not None:
                traj_writer.close()
        slot.evals += len(result.points)
        slot.touch()
        extra = {"traj_ref": traj_ref} if traj_ref is not None else {}
        return protocol.ok_response(
            req, structure_id=slot.structure_id, worker=self.worker_id,
            warm=warm, **extra, **result.as_dict())
