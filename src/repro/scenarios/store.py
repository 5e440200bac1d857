"""Campaign artifacts: one JSONL file per run, plus a SQLite export.

The JSONL file is the artifact of record — line 1 is the campaign
header, every further line one cell row::

    {"kind": "campaign", "name": ..., "created": ..., "seconds": ...,
     "total": ..., "ok": ..., "failed": ..., "metrics": {...}}
    {"kind": "cell", "cell": "si-diamond/eos", "structure": ...,
     "scenario": ..., "params": {...}, "status": "ok"|"failed",
     "ok": ..., "value": {...}, "metrics": {...},
     "timings": {"seconds": ...}, "error": null | {...}}

:func:`read_artifact` / :func:`query_cells` / :func:`resolve_traj_ref`
read it.  :func:`write_sqlite` exports the same rows normalised into
two tables (``campaigns``, ``cells``) with the nested dicts as JSON
columns, so ``sqlite3 artifact.sqlite "SELECT cell, status, seconds
FROM cells WHERE scenario='eos'"`` works out of the box; the export is
write-only — nothing here reads it back.
"""

from __future__ import annotations

import json
import os
import sqlite3

import numpy as np

from repro.errors import CampaignError


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    # json.dumps requires its default hook to raise TypeError; a custom
    # error class here would break the json module's own fallbacks
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")  # reprolint: disable=error-discipline


def _dump(obj) -> str:
    return json.dumps(obj, default=_jsonable, sort_keys=True)


def _cell_row(row: dict) -> dict:
    # not a wire response: this is the persisted JSONL row *schema* (the
    # docstring above), which stores the envelope fields flat by design
    return {"kind": "cell", "cell": row["cell"],  # reprolint: disable=result-envelope
            "structure": row["structure"], "scenario": row["scenario"],
            "params": row.get("params") or {},
            "status": row["status"], "ok": row["status"] == "ok",
            "value": row.get("value") or {},
            "metrics": row.get("metrics") or {},
            "timings": row.get("timings") or {},
            "error": row.get("error")}


def write_jsonl(path, run) -> str:
    """Write a :class:`~repro.scenarios.campaign.CampaignRun` as JSONL."""
    path = str(path)
    with open(path, "w") as fh:
        fh.write(_dump({"kind": "campaign", **run.summary()}) + "\n")
        for row in run.cells:
            fh.write(_dump(_cell_row(row)) + "\n")
    return path


_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    name     TEXT NOT NULL,
    created  REAL NOT NULL,
    seconds  REAL NOT NULL,
    total    INTEGER NOT NULL,
    ok       INTEGER NOT NULL,
    failed   INTEGER NOT NULL,
    metrics_json TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS cells (
    campaign  TEXT NOT NULL,
    cell      TEXT NOT NULL,
    structure TEXT NOT NULL,
    scenario  TEXT NOT NULL,
    status    TEXT NOT NULL,
    seconds   REAL,
    params_json  TEXT NOT NULL DEFAULT '{}',
    value_json   TEXT NOT NULL DEFAULT '{}',
    metrics_json TEXT NOT NULL DEFAULT '{}',
    timings_json TEXT NOT NULL DEFAULT '{}',
    error_type    TEXT,
    error_message TEXT
);
CREATE INDEX IF NOT EXISTS idx_cells_lookup
    ON cells (campaign, structure, scenario, status);
"""


def write_sqlite(path, run) -> str:
    """Export (append) a campaign run into a SQLite file — the same
    cell rows :func:`write_jsonl` emits, for ``sqlite3`` queries."""
    path = str(path)
    con = sqlite3.connect(path)
    try:
        con.executescript(_SCHEMA)
        s = run.summary()
        con.execute(
            "INSERT INTO campaigns (name, created, seconds, total, ok, "
            "failed, metrics_json) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (s["name"], s["created"], s["seconds"], s["total"], s["ok"],
             s["failed"], _dump(s["metrics"])))
        for row in map(_cell_row, run.cells):
            err = row["error"] or {}
            con.execute(
                "INSERT INTO cells (campaign, cell, structure, scenario, "
                "status, seconds, params_json, value_json, metrics_json, "
                "timings_json, error_type, error_message) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (run.name, row["cell"], row["structure"], row["scenario"],
                 row["status"], row["timings"].get("seconds"),
                 _dump(row["params"]), _dump(row["value"]),
                 _dump(row["metrics"]), _dump(row["timings"]),
                 err.get("type"), err.get("message")))
        con.commit()
    finally:
        con.close()
    return path


def read_artifact(path):
    """``(campaign_header, cell_rows)`` from a JSONL artifact."""
    path = str(path)
    if not path.endswith(".jsonl"):
        raise CampaignError(
            f"unknown artifact format {path!r}: the artifact of record is "
            f"the campaign's .jsonl file (a .sqlite file is a write-only "
            f"export of it; query that with sqlite3)")
    campaign = None
    cells = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("kind") == "campaign":
                campaign = row
            else:
                cells.append(row)
    if campaign is None:
        raise CampaignError(f"{path}: no campaign header line")
    return campaign, cells


def resolve_traj_ref(artifact_path, row, traj_dir=None):
    """Path of the ``.ptrj`` trajectory a cell row references, or None.

    A row's ``value.traj_ref`` is the file name the campaign runner
    wrote; by convention it lives next to the artifact (or in an
    explicit *traj_dir*).  Returns the resolved path when the file
    exists, ``None`` when the row carries no trajectory.
    """
    ref = (row.get("value") or {}).get("traj_ref")
    if not ref:
        return None
    base = os.fspath(traj_dir) if traj_dir is not None \
        else os.path.dirname(os.path.abspath(os.fspath(artifact_path)))
    path = os.path.join(base, ref)
    if not os.path.exists(path):
        raise CampaignError(
            f"cell {row.get('cell')!r} references trajectory {ref!r} "
            f"but {path} does not exist (pass traj_dir=)")
    return path


def query_cells(path, structure: str | None = None,
                scenario: str | None = None,
                status: str | None = None) -> list[dict]:
    """Filter an artifact's cell rows by structure/scenario/status."""
    _, cells = read_artifact(path)
    out = []
    for c in cells:
        if structure is not None and c["structure"] != structure:
            continue
        if scenario is not None and c["scenario"] != scenario:
            continue
        if status is not None and c["status"] != status:
            continue
        out.append(c)
    return out
