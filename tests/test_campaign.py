"""Campaign framework: matrix loading, expansion, execution, artifacts.

The load-bearing guarantees: a matrix fails *entirely* at expansion
time on any typo (structure kind, scenario name, parameter, calc spec),
a failing *cell* at run time is recorded without aborting the rest,
concurrent cells never collide on scratch structure ids, and the JSONL
and SQLite artifacts round-trip the same queryable rows.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CampaignError
from repro.scenarios import (
    CampaignSpec, QUICK_MATRIX, build_structure, expand_matrix,
    load_campaign_spec, query_cells, read_artifact, run_campaign,
    write_jsonl, write_sqlite,
)

SW_MATRIX = {
    "name": "sw-matrix",
    "calc": {"model": "sw-si"},
    "structures": {
        "si-diamond": {"kind": "diamond", "element": "Si"},
        "si-compressed": {"kind": "diamond", "element": "Si", "a": 5.2},
    },
    "scenarios": [
        {"name": "eos", "params": {"npoints": 5, "amplitude": 0.03}},
        {"name": "vacancy", "structures": ["si-diamond"],
         "grid": {"relax_steps": [0, 2]}},
    ],
}


# -- structure building ----------------------------------------------------

def test_build_structure_kinds():
    assert len(build_structure({"kind": "diamond", "element": "Si"})) == 8
    assert len(build_structure({"kind": "beta-tin"})) == 4
    assert len(build_structure({"kind": "fcc", "element": "Si",
                                "a": 3.89})) == 4
    assert len(build_structure({"kind": "diamond", "repeat": 2})) == 64


def test_build_structure_rejects_unknowns():
    with pytest.raises(CampaignError, match="did you mean 'diamond'"):
        build_structure({"kind": "dimond"}, "s")
    with pytest.raises(CampaignError, match="unknown field"):
        build_structure({"kind": "diamond", "lattice": 5.4}, "s")
    with pytest.raises(CampaignError, match="needs a 'file'"):
        build_structure({"kind": "xyz"}, "s")


# -- spec parsing ----------------------------------------------------------

def test_spec_from_dict_validation():
    with pytest.raises(CampaignError, match="no \\[structures"):
        CampaignSpec.from_dict({"scenarios": [{"name": "eos"}]})
    with pytest.raises(CampaignError, match="no \\[\\[scenarios"):
        CampaignSpec.from_dict(
            {"structures": {"s": {"kind": "diamond"}}})
    with pytest.raises(CampaignError, match="did you mean 'structures'"):
        CampaignSpec.from_dict({"structurs": {}, "scenarios": []})


def test_load_campaign_spec_toml_and_json(tmp_path):
    toml = tmp_path / "m.toml"
    toml.write_text(
        'name = "t"\n[calc]\nmodel = "sw-si"\n'
        '[structures.si]\nkind = "diamond"\n'
        '[[scenarios]]\nname = "eos"\n')
    spec = load_campaign_spec(toml)
    assert spec.name == "t" and spec.calc == {"model": "sw-si"}

    jsn = tmp_path / "m.json"
    jsn.write_text(json.dumps(SW_MATRIX))
    spec = load_campaign_spec(jsn)
    assert spec.name == "sw-matrix" and len(spec.scenarios) == 2

    with pytest.raises(CampaignError, match="must be .toml or .json"):
        load_campaign_spec(tmp_path / "m.yaml")
    bad = tmp_path / "bad.toml"
    bad.write_text("name = [unclosed")
    with pytest.raises(CampaignError, match="does not parse"):
        load_campaign_spec(bad)
    with pytest.raises(CampaignError, match="cannot read"):
        load_campaign_spec(tmp_path / "missing.toml")


# -- matrix expansion ------------------------------------------------------

def test_expand_matrix_cells_and_grid():
    cells = expand_matrix(CampaignSpec.from_dict(SW_MATRIX))
    ids = [c.cell_id for c in cells]
    # eos on both structures, vacancy grid only on si-diamond
    assert "si-diamond/eos" in ids and "si-compressed/eos" in ids
    assert "si-diamond/vacancy[relax_steps=0]" in ids
    assert "si-diamond/vacancy[relax_steps=2]" in ids
    assert len(cells) == 4
    vac0 = next(c for c in cells
                if c.cell_id == "si-diamond/vacancy[relax_steps=0]")
    assert vac0.params["relax_steps"] == 0
    assert vac0.params["index"] == 0               # defaults resolved
    assert vac0.calc_spec == {"model": "sw-si"}


def test_expand_matrix_structure_calc_overrides_campaign_calc():
    matrix = json.loads(json.dumps(SW_MATRIX))
    matrix["structures"]["si-compressed"]["calc"] = {"skin": 1.0}
    cells = expand_matrix(CampaignSpec.from_dict(matrix))
    comp = next(c for c in cells if c.cell_id == "si-compressed/eos")
    assert comp.calc_spec == {"model": "sw-si", "skin": 1.0}


def test_expand_matrix_fails_fast():
    def matrix(**edits):
        m = json.loads(json.dumps(SW_MATRIX))
        m.update(edits)
        return CampaignSpec.from_dict(m)

    with pytest.raises(CampaignError, match="unknown scenario"):
        expand_matrix(matrix(scenarios=[{"name": "eoss"}]))
    with pytest.raises(CampaignError, match="did you mean 'npoints'"):
        expand_matrix(matrix(scenarios=[
            {"name": "eos", "params": {"npoint": 5}}]))
    with pytest.raises(CampaignError, match="unknown structure"):
        expand_matrix(matrix(scenarios=[
            {"name": "eos", "structures": ["si-hexagonal"]}]))
    with pytest.raises(CampaignError, match="non-empty list"):
        expand_matrix(matrix(scenarios=[
            {"name": "eos", "grid": {"npoints": 5}}]))
    with pytest.raises(CampaignError, match="unknown field"):
        expand_matrix(matrix(scenarios=[
            {"name": "eos", "parms": {}}]))
    # a bad calc spec fails at expansion, tagged with the cell
    from repro.errors import ReproError

    with pytest.raises(ReproError,
                       match="campaign cell si-diamond/eos.*unknown model"):
        expand_matrix(matrix(calc={"model": "sw-is"}))


# -- running ---------------------------------------------------------------

@pytest.fixture(scope="module")
def quick_run():
    """One shared quick-matrix run (4 cells, classical SW)."""
    return run_campaign(CampaignSpec.from_dict(QUICK_MATRIX))


def test_run_campaign_quick(quick_run):
    assert quick_run.counts == {"total": 4, "ok": 4, "failed": 0}
    assert quick_run.seconds > 0
    by_id = {r["cell"]: r for r in quick_run.cells}
    eos = by_id["si-diamond/eos"]
    assert eos["status"] == "ok" and eos["ok"] is True
    assert eos["metrics"]["b0_gpa"] == pytest.approx(101.5, abs=3.0)
    assert eos["timings"]["seconds"] > 0
    # compressed cell sits on the repulsive wall: stiffer, higher energy
    comp = by_id["si-compressed/eos"]
    assert comp["metrics"]["b0_gpa"] > eos["metrics"]["b0_gpa"]
    vac = by_id["si-diamond/vacancy"]
    assert 0.0 < vac["metrics"]["formation_ev"] < 8.0
    assert "service_stats" in quick_run.metrics


def test_run_campaign_failing_cell_is_recorded_not_raised():
    matrix = json.loads(json.dumps(SW_MATRIX))
    # an E(V) fit on a shear path is rejected by the sweep op — this
    # cell must fail while its siblings keep running
    matrix["scenarios"].append(
        {"name": "eos", "structures": ["si-diamond"],
         "params": {"mode": "shear", "fit": "birch"}})
    run = run_campaign(CampaignSpec.from_dict(matrix))
    assert run.counts["total"] == 5
    assert run.counts["failed"] == 1
    failed = [r for r in run.cells if r["status"] == "failed"]
    assert len(failed) == 1
    err = failed[0]["error"]
    assert err["op"] == "eos" and "shear" in err["message"]
    # the other 4 cells all succeeded
    assert all(r["metrics"] for r in run.cells if r["status"] == "ok")


def test_run_campaign_threaded_matches_serial(quick_run):
    """nworkers=4 runs the same 4 cells with no scratch-id collisions
    and identical physics."""
    run4 = run_campaign(CampaignSpec.from_dict(QUICK_MATRIX), nworkers=4)
    assert run4.counts == {"total": 4, "ok": 4, "failed": 0}
    serial = {r["cell"]: r["metrics"] for r in quick_run.cells}
    threaded = {r["cell"]: r["metrics"] for r in run4.cells}
    for cell, metrics in serial.items():
        for key, val in metrics.items():
            assert threaded[cell][key] == pytest.approx(val, rel=1e-9), \
                (cell, key)


def test_run_campaign_with_caller_client():
    """A caller-owned client survives the run (no teardown) and ends
    with only the caller's structures resident."""
    from repro.service import BatchClient, BatchService

    svc = BatchService(nworkers=1)
    try:
        client = BatchClient(svc)
        spec = CampaignSpec.from_dict({
            "name": "mini", "calc": {"model": "sw-si"},
            "structures": {"si": {"kind": "diamond"}},
            "scenarios": [{"name": "eos",
                           "params": {"npoints": 5}}]})
        run = run_campaign(spec, client=client)
        assert run.counts["ok"] == 1
        # the campaign's resident load is still addressable
        out = client.evaluate("si", forces=False)
        assert out["natoms"] == 8
    finally:
        svc.close()


# -- artifacts -------------------------------------------------------------

def test_artifact_jsonl_round_trip(quick_run, tmp_path):
    path = write_jsonl(tmp_path / "run.jsonl", quick_run)
    header, cells = read_artifact(path)
    assert header["name"] == "quick-smoke"
    assert header["total"] == 4 and header["ok"] == 4
    assert len(cells) == 4
    assert all(c["kind"] == "cell" for c in cells)
    # every line is plain JSON (numpy scalars were coerced)
    for line in open(path):
        json.loads(line)


def test_artifact_sqlite_export_matches_jsonl(quick_run, tmp_path):
    import sqlite3

    path = write_sqlite(tmp_path / "run.sqlite", quick_run)
    jsonl_path = write_jsonl(tmp_path / "run.jsonl", quick_run)
    header, jcells = read_artifact(jsonl_path)
    # queryable by structure/scenario/status through one helper
    eos = query_cells(jsonl_path, scenario="eos")
    assert {c["structure"] for c in eos} == {"si-diamond", "si-compressed"}
    assert query_cells(jsonl_path, status="failed") == []
    assert len(query_cells(jsonl_path, structure="si-diamond")) == 2
    # the export is the same rows: raw SQL against the JSONL of record
    con = sqlite3.connect(path)
    con.row_factory = sqlite3.Row
    try:
        camp = con.execute("SELECT * FROM campaigns").fetchone()
        assert {k: camp[k] for k in ("name", "total", "ok", "failed")} == \
            {k: header[k] for k in ("name", "total", "ok", "failed")}
        rows = con.execute("SELECT * FROM cells").fetchall()
        assert len(rows) == len(jcells) == 4
        for r, c in zip(rows, jcells):
            assert (r["cell"], r["structure"], r["scenario"],
                    r["status"]) == (c["cell"], c["structure"],
                                     c["scenario"], c["status"])
            assert r["seconds"] == c["timings"]["seconds"]
            for key in ("params", "value", "metrics", "timings"):
                assert json.loads(r[f"{key}_json"]) == c[key]
            assert r["error_type"] is None and c["error"] is None
        n = con.execute(
            "SELECT COUNT(*) FROM cells WHERE scenario='eos' "
            "AND status='ok'").fetchone()[0]
        assert n == 2
    finally:
        con.close()
    # SQLite is write-only: reading it back points at the JSONL
    with pytest.raises(CampaignError, match=r"\.jsonl"):
        read_artifact(path)


def test_artifact_sqlite_append(quick_run, tmp_path):
    path = tmp_path / "runs.sqlite"
    write_sqlite(path, quick_run)
    write_sqlite(path, quick_run)
    import sqlite3

    con = sqlite3.connect(path)
    try:
        assert con.execute(
            "SELECT COUNT(*) FROM campaigns").fetchone()[0] == 2
    finally:
        con.close()


def test_read_artifact_errors(tmp_path):
    with pytest.raises(CampaignError, match="unknown artifact format"):
        read_artifact(tmp_path / "run.csv")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(CampaignError, match="no campaign header"):
        read_artifact(empty)


# -- CLI + example matrix --------------------------------------------------

def test_cli_campaign_quick(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "quick.jsonl"
    db = tmp_path / "quick.sqlite"
    assert main(["campaign", "--quick", "-o", str(out),
                 "--sqlite", str(db)]) == 0
    printed = capsys.readouterr().out
    assert "4 cells" in printed and "ok" in printed
    header, cells = read_artifact(out)
    assert header["ok"] == 4
    import sqlite3

    con = sqlite3.connect(db)
    try:
        assert con.execute("SELECT ok FROM campaigns").fetchone()[0] == 4
    finally:
        con.close()


def test_cli_campaign_list_scenarios(capsys):
    from repro.cli import main

    assert main(["campaign", "--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("eos", "vacancy", "elastic", "phonons", "melt-quench"):
        assert name in out
    assert "npoints" in out                       # param schema shown


def test_cli_campaign_needs_matrix(capsys):
    from repro.cli import main

    assert main(["campaign"]) == 1
    assert "matrix file" in capsys.readouterr().err


def test_cli_campaign_strict_flags_failures(tmp_path, capsys):
    from repro.cli import main

    matrix = json.loads(json.dumps(SW_MATRIX))
    matrix["scenarios"] = [
        {"name": "eos", "structures": ["si-diamond"],
         "params": {"mode": "shear", "fit": "birch"}}]
    mfile = tmp_path / "fail.json"
    mfile.write_text(json.dumps(matrix))
    out = tmp_path / "fail.jsonl"
    assert main(["campaign", str(mfile), "-o", str(out)]) == 0
    assert main(["campaign", str(mfile), "-o", str(out),
                 "--strict"]) == 1
    _, cells = read_artifact(out)
    assert cells[0]["status"] == "failed"
    assert "shear" in cells[0]["error"]["message"]


def test_example_matrix_expands():
    """examples/campaign_si.toml stays valid: 3 phases, 9 cells, the
    deliberate shear-fit failure cell included."""
    spec = load_campaign_spec("examples/campaign_si.toml")
    cells = expand_matrix(spec)
    assert len(cells) == 9
    ids = {c.cell_id for c in cells}
    assert {"si-diamond/eos", "si-beta-tin/eos", "si-fcc/eos",
            "si-diamond/vacancy[relax_steps=0]",
            "si-diamond/vacancy[relax_steps=10]",
            "si-diamond/phonons", "si-beta-tin/phonons",
            "si-diamond/elastic"} <= ids
    shear = [c for c in cells if c.structure == "si-fcc"
             and c.params.get("mode") == "shear"]
    assert len(shear) == 1 and shear[0].params["fit"] == "birch"
