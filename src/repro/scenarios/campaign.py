"""Campaign matrices: expand (structure × scenario × params), run, record.

A campaign is a declarative TOML (or JSON) matrix::

    name = "si-phases"

    [calc]                        # campaign-default calculator spec
    model = "sw-si"

    [structures.si-diamond]
    kind = "diamond"
    element = "Si"

    [structures.si-compressed]
    kind = "diamond"
    a = 5.1

    [[scenarios]]
    name = "eos"
    [scenarios.params]            # fixed parameters
    npoints = 7

    [[scenarios]]
    name = "vacancy"
    structures = ["si-diamond"]   # restrict to a structure subset
    [scenarios.grid]              # cross-product parameter grid
    relax_steps = [0, 10]

:func:`load_campaign_spec` reads it, :func:`expand_matrix` turns it into
concrete cells (every structure × every scenario entry × every grid
point — validated up front, so a typo'd scenario name or parameter
fails *before* any compute), and :func:`run_campaign` executes the
cells through one :class:`~repro.service.client.BatchClient` (an
in-process :class:`~repro.service.service.BatchService` by default, or
any client you pass — e.g. a :class:`~repro.service.client.SocketClient`
to a running ``repro serve``) with
:func:`repro.parallel.pool.map_tasks` fan-out.

Every cell outcome — success or failure — is normalised into one
:class:`~repro.service.protocol.Result` envelope row (``status``,
``seconds``, ``value``, ``metrics``, ``error``); a diverging or
misconfigured cell is recorded as ``failed`` and the rest of the matrix
keeps running.  :mod:`repro.scenarios.store` writes the rows to
JSONL/SQLite and queries them back.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

from repro import obs
from repro.calculators import CalculatorSpec, suggest_key
from repro.errors import CampaignError, ReproError
from repro.parallel.pool import map_tasks
from repro.scenarios.base import StructureHandle, get_scenario
from repro.service.protocol import Result
from repro.utils.timing import tick, wall_now

#: structure builders a matrix can name in ``kind = "..."``
STRUCTURE_KINDS = ("diamond", "beta-tin", "fcc", "bcc", "sc", "xyz")


def build_structure(sdef: dict, name: str = "?"):
    """One matrix ``[structures.<name>]`` table → an Atoms object."""
    from repro import geometry

    sdef = dict(sdef or {})
    sdef.pop("calc", None)                       # handled by the expander
    kind = sdef.pop("kind", "diamond")
    repeat = sdef.pop("repeat", None)
    if kind not in STRUCTURE_KINDS:
        raise CampaignError(
            f"structure {name!r}: unknown kind {kind!r}; choose from "
            f"{STRUCTURE_KINDS}{suggest_key(kind, STRUCTURE_KINDS)}")
    try:
        if kind == "xyz":
            path = sdef.pop("file", None)
            if not path:
                raise CampaignError(
                    f"structure {name!r}: kind 'xyz' needs a 'file' path")
            atoms = geometry.read_xyz(path)
        elif kind == "diamond":
            element = sdef.pop("element", "Si")
            a = sdef.pop("a", None)
            atoms = (geometry.diamond_cubic(element, a=a) if a is not None
                     else geometry.diamond_cubic(element))
        elif kind == "beta-tin":
            kwargs = {k: sdef.pop(k) for k in ("a", "c_over_a")
                      if k in sdef}
            atoms = geometry.beta_tin_silicon(**kwargs)
        else:
            element = sdef.pop("element", "Si")
            a = sdef.pop("a", None)
            builder = {"fcc": geometry.fcc, "bcc": geometry.bcc,
                       "sc": geometry.simple_cubic}[kind]
            atoms = (builder(element, a) if a is not None
                     else builder(element))
    except CampaignError:
        raise
    except ReproError as exc:
        raise CampaignError(f"structure {name!r}: {exc}") from exc
    except TypeError as exc:
        raise CampaignError(
            f"structure {name!r}: bad fields for kind {kind!r}: {exc}"
        ) from exc
    if sdef:
        raise CampaignError(
            f"structure {name!r}: unknown field(s) {sorted(sdef)} for "
            f"kind {kind!r}")
    if repeat is not None:
        atoms = geometry.supercell(atoms, repeat)
    return atoms


@dataclass(frozen=True)
class CampaignCell:
    """One fully resolved (structure, scenario, params) matrix point."""

    cell_id: str
    structure: str
    scenario: str
    params: dict
    calc_spec: dict


@dataclass
class CampaignSpec:
    """A parsed campaign matrix (see the module docstring for the
    on-disk format)."""

    name: str = "campaign"
    structures: dict = field(default_factory=dict)
    scenarios: list = field(default_factory=list)
    calc: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise CampaignError("campaign matrix must be a table/object")
        known = {"name", "structures", "scenarios", "calc"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise CampaignError(
                f"unknown campaign field(s) {unknown}; accepted: "
                f"{sorted(known)}{suggest_key(unknown[0], known)}")
        structures = data.get("structures") or {}
        scenarios = data.get("scenarios") or []
        if not structures:
            raise CampaignError("campaign has no [structures.*] entries")
        if not scenarios:
            raise CampaignError("campaign has no [[scenarios]] entries")
        return cls(name=str(data.get("name", "campaign")),
                   structures=dict(structures),
                   scenarios=list(scenarios),
                   calc=dict(data.get("calc") or {}))


def load_campaign_spec(path) -> CampaignSpec:
    """Read a ``.toml`` or ``.json`` campaign matrix file."""
    path = str(path)
    try:
        if path.endswith(".toml"):
            import tomllib

            with open(path, "rb") as fh:
                data = tomllib.load(fh)
        elif path.endswith(".json"):
            with open(path) as fh:
                data = json.load(fh)
        else:
            raise CampaignError(
                f"campaign matrix {path!r} must be .toml or .json")
    except CampaignError:
        raise
    except OSError as exc:
        raise CampaignError(f"cannot read campaign matrix: {exc}") from exc
    except ValueError as exc:     # tomllib.TOMLDecodeError subclasses it
        raise CampaignError(
            f"campaign matrix {path!r} does not parse: {exc}") from exc
    return CampaignSpec.from_dict(data)


def _grid_points(grid: dict) -> list[dict]:
    """Cross product of ``{param: [values...]}`` → list of param dicts."""
    points = [{}]
    for key in sorted(grid):
        values = grid[key]
        if not isinstance(values, (list, tuple)) or not values:
            raise CampaignError(
                f"grid entry {key!r} must be a non-empty list, got "
                f"{values!r}")
        points = [{**p, key: v} for p in points for v in values]
    return points


def expand_matrix(spec: CampaignSpec) -> list[CampaignCell]:
    """(structure × scenario × grid) → validated cells.

    Everything that can fail from the matrix alone fails here —
    unknown structures/scenarios/params, bad calc specs — so
    :func:`run_campaign` only ever sees runnable cells.
    """
    cells: list[CampaignCell] = []
    for name, sdef in spec.structures.items():
        build_structure(sdef, name)               # fail-fast validation
    for entry in spec.scenarios:
        if not isinstance(entry, dict) or "name" not in entry:
            raise CampaignError(
                f"each [[scenarios]] entry needs a 'name', got {entry!r}")
        unknown = sorted(set(entry) - {"name", "params", "grid",
                                       "structures"})
        if unknown:
            raise CampaignError(
                f"scenario entry {entry['name']!r}: unknown field(s) "
                f"{unknown}; accepted: ['grid', 'name', 'params', "
                f"'structures']")
        scenario = get_scenario(entry["name"])
        wanted = entry.get("structures")
        if wanted is not None:
            missing = sorted(set(wanted) - set(spec.structures))
            if missing:
                raise CampaignError(
                    f"scenario {scenario.name!r} names unknown "
                    f"structure(s) {missing}; defined: "
                    f"{sorted(spec.structures)}")
        targets = list(wanted) if wanted is not None \
            else list(spec.structures)
        fixed = dict(entry.get("params") or {})
        for point in _grid_points(dict(entry.get("grid") or {})):
            params = scenario.resolve_params({**fixed, **point})
            for sname in targets:
                calc = {**spec.calc,
                        **dict(spec.structures[sname].get("calc") or {})}
                # validate now; the runner re-sends the plain dict
                CalculatorSpec.from_dict(
                    calc, context=f"campaign cell {sname}/{scenario.name}")
                suffix = "" if not point else \
                    "[" + ",".join(f"{k}={point[k]}"
                                   for k in sorted(point)) + "]"
                cells.append(CampaignCell(
                    cell_id=f"{sname}/{scenario.name}{suffix}",
                    structure=sname, scenario=scenario.name,
                    params=params, calc_spec=calc))
    return cells


def _store_trajectory(traj_dir, cell_id: str, trajectory) -> str:
    """Persist a scenario trajectory as ``<traj_dir>/<cell>.ptrj``.

    Returns the file name (the row's ``traj_ref``) — resolve it back to
    a path with :func:`repro.scenarios.store.resolve_traj_ref`.
    """
    import os
    import re

    os.makedirs(traj_dir, exist_ok=True)
    name = re.sub(r"[^\w.=,-]+", "_", cell_id) + ".ptrj"
    trajectory.save(os.path.join(traj_dir, name))
    return name


@dataclass
class CampaignRun:
    """The in-memory outcome of :func:`run_campaign`."""

    name: str
    cells: list[dict]
    seconds: float
    created: float
    metrics: dict = field(default_factory=dict)

    @property
    def counts(self) -> dict:
        ok = sum(1 for c in self.cells if c["status"] == "ok")
        return {"total": len(self.cells), "ok": ok,
                "failed": len(self.cells) - ok}

    def summary(self) -> dict:
        return {"name": self.name, "created": self.created,
                "seconds": self.seconds, **self.counts,
                "metrics": self.metrics}


def run_campaign(spec: CampaignSpec, *, client=None, nworkers: int = 1,
                 service_workers: int = 2, log=None,
                 traj_dir=None) -> CampaignRun:
    """Run every cell of *spec*; never aborts on a failing cell.

    Parameters
    ----------
    client :
        A batch-service client.  ``None`` (the default) builds a
        private in-process :class:`~repro.service.service.BatchService`
        with *service_workers* resident workers and tears it down at
        the end.  A :class:`~repro.service.client.SocketClient` is
        accepted but serialised (it is not thread-safe).
    nworkers :
        Campaign-level fan-out: cells dispatch through
        :func:`repro.parallel.pool.map_tasks` on a thread pool
        (scenario code is numpy-bound and the service core is
        thread-safe; the resident workers do the heavy lifting).
    log :
        Optional ``callable(str)`` for per-cell progress lines.
    traj_dir :
        Directory for trajectory artifacts.  Scenarios that return a
        :attr:`~repro.scenarios.base.ScenarioResult.trajectory` get it
        written there as ``<cell>.ptrj`` and the row's value carries
        the ``traj_ref`` file name (never frame payloads).  ``None``
        (the default) drops scenario trajectories.
    """
    from repro.service.client import BatchClient, SocketClient

    cells = expand_matrix(spec)
    own_service = None
    if client is None:
        from repro.service.service import BatchService

        own_service = BatchService(nworkers=service_workers)
        client = BatchClient(own_service)
    client_lock = threading.Lock() if isinstance(client, SocketClient) \
        else None

    # load every distinct (structure, calc spec) pair once; every cell
    # addresses the resident copy by id, so all cells on one structure
    # share its warm calculator state
    handles: dict[tuple, StructureHandle] = {}
    structure_calcs = sorted({(c.structure,
                               json.dumps(c.calc_spec, sort_keys=True))
                              for c in cells})
    t0 = tick()
    created = wall_now()
    per_name_count: dict[str, int] = {}
    for sname, calc_json in structure_calcs:
        k = per_name_count.get(sname, 0)
        per_name_count[sname] = k + 1
        sid = sname if k == 0 else f"{sname}#{k}"
        atoms = build_structure(spec.structures[sname], sname)
        calc = json.loads(calc_json)
        client.load(sid, atoms, calc=calc)
        handles[(sname, calc_json)] = StructureHandle(
            structure_id=sid, atoms=atoms, calc_spec=calc)

    def run_cell(cell: CampaignCell) -> dict:
        handle = handles[(cell.structure,
                          json.dumps(cell.calc_spec, sort_keys=True))]
        scenario = get_scenario(cell.scenario)
        row = {"cell": cell.cell_id, "structure": cell.structure,
               "scenario": cell.scenario, "params": dict(cell.params)}
        t_cell = tick()
        try:
            with obs.span("campaign.cell") as sp:
                sp.set(cell=cell.cell_id)
                if client_lock is not None:
                    with client_lock:
                        result = scenario.run(client, handle, cell.params)
                else:
                    result = scenario.run(client, handle, cell.params)
            status = "ok"
            # merge_* (not the success() kwargs) so the metrics/timings
            # slots exist on the row even when a scenario returns none
            payload = Result.success(result.value).merge_metrics(
                **result.metrics).merge_timings(
                **{**result.timings, "seconds": tick() - t_cell})
            if traj_dir is not None and result.trajectory is not None:
                payload["traj_ref"] = _store_trajectory(
                    traj_dir, cell.cell_id, result.trajectory)
        except Exception as exc:        # noqa: BLE001 - recorded, not raised
            obs.counter_inc("campaign.cell_failures")
            status = "failed"
            payload = Result.failure(exc, op=cell.scenario).merge_timings(
                seconds=tick() - t_cell)
        # rows persist the envelope fields flat; the per-request id slot
        # is the wire's concern, not the artifact's
        row.update(status=status, **{k: v for k, v in dict.items(payload)
                                     if k != "id"})
        if log is not None:
            mark = "ok    " if status == "ok" else "FAILED"
            log(f"  {mark} {cell.cell_id:40s} "
                f"{row['timings']['seconds']:8.2f}s")
        return row

    try:
        from concurrent.futures import ThreadPoolExecutor

        if nworkers > 1:
            with ThreadPoolExecutor(max_workers=nworkers) as pool:
                rows = map_tasks(run_cell, cells, executor=pool)
        else:
            rows = map_tasks(run_cell, cells)
        metrics = {}
        try:
            metrics = {"service_stats": client.stats()}
        except ReproError:       # pragma: no cover - stats are best-effort
            pass
        snap = obs.get_registry().snapshot()
        if snap.get("counters"):
            metrics["obs"] = snap
        return CampaignRun(name=spec.name, cells=rows,
                           seconds=tick() - t0,
                           created=created, metrics=metrics)
    finally:
        if own_service is not None:
            own_service.close()


QUICK_MATRIX = {
    # the built-in `campaign --quick` smoke: 2 structures × 2 scenarios
    # on the classical baseline — exercises expansion, service fan-out
    # and the artifact store in a couple of seconds
    "name": "quick-smoke",
    "calc": {"model": "sw-si"},
    "structures": {
        "si-diamond": {"kind": "diamond", "element": "Si"},
        "si-compressed": {"kind": "diamond", "element": "Si", "a": 5.2},
    },
    "scenarios": [
        {"name": "eos", "params": {"npoints": 5, "amplitude": 0.03}},
        {"name": "vacancy", "params": {"relax_steps": 2}},
    ],
}
