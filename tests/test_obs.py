"""The observability plane: spans, metrics, exporters, ``map_tasks``
recording in-process, the calculators' ``calc.*`` phase spans and
``obs.recording``, and the service ``metrics`` op.

Every test that turns telemetry on does so through the ``obs_on``
fixture, which installs *fresh* collectors and restores the module
globals afterwards — the rest of the suite must keep running with
tracing off (and one test asserts that the off path allocates nothing).
"""

from __future__ import annotations

import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

from repro import obs
from repro.geometry import bulk_silicon, rattle
from repro.obs import spans as spans_mod
from repro.obs.export import (
    chrome_trace_events, read_jsonl, write_jsonl, write_metrics_json,
    write_trace,
)
from repro.parallel.pool import map_tasks
from tools.reprolint.catalog import parse_catalog


# ---------------------------------------------------------------- spans
def test_span_nesting_records_parent_ids(obs_on):
    tracer, _ = obs_on
    with obs.span("outer") as outer:
        with obs.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        with obs.span("sibling") as sib:
            assert sib.parent_id == outer.span_id
    recs = {r["name"]: r for r in tracer.finished()}
    assert recs["outer"]["parent"] is None
    assert recs["inner"]["parent"] == recs["outer"]["id"]
    assert recs["sibling"]["parent"] == recs["outer"]["id"]
    assert recs["inner"]["ts"] >= recs["outer"]["ts"]
    assert all(r["status"] == "ok" for r in recs.values())


def test_span_exception_marks_error_and_reraises(obs_on):
    tracer, _ = obs_on
    with pytest.raises(ValueError, match="boom"), obs.span("failing"):
        raise ValueError("boom")
    # the stack must be clean again — a new span is a root
    with obs.span("after"):
        pass
    recs = {r["name"]: r for r in tracer.finished()}
    assert recs["failing"]["status"] == "error"
    assert recs["failing"]["attrs"]["exception"] == "ValueError"
    assert "boom" in recs["failing"]["attrs"]["message"]
    assert recs["after"]["parent"] is None


def test_span_attributes_and_current_span(obs_on):
    tracer, _ = obs_on
    with obs.span("op") as sp:
        sp.set(mode="fused", k=3)
        obs.current_span().set(extra=1)
    (rec,) = tracer.finished()
    assert rec["attrs"] == {"mode": "fused", "k": 3, "extra": 1}
    assert obs.current_span() is obs.NULL_SPAN  # nothing live outside


def test_tracer_bounds_span_buffer(obs_on):
    tracer, _ = obs_on
    tracer.max_spans = 5
    for _ in range(8):
        with obs.span("s"):
            pass
    assert len(tracer.finished()) == 5
    assert tracer.dropped == 3


def test_disabled_span_is_null_singleton_and_allocation_free():
    assert not obs.tracing_enabled()
    assert obs.span("anything") is obs.NULL_SPAN
    # warm up interned constants and the code path itself
    for _ in range(16):
        with obs.span("x") as sp:
            sp.set(a=1)
    tracemalloc.start()
    try:
        for _ in range(2000):
            with obs.span("x"):
                pass
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, spans_mod.__file__)])
    finally:
        tracemalloc.stop()
    # nothing the disabled span path touched may allocate: every call
    # returns the shared NULL_SPAN singleton
    assert sum(s.size for s in snap.statistics("filename")) == 0


def test_disabled_metrics_helpers_are_noops():
    assert not obs.metrics_enabled()
    obs.counter_inc("t.c")
    obs.observe("t.h", 1.0)
    obs.gauge_set("t.g", 2.0)
    snap = obs.get_registry().snapshot()
    assert "t.c" not in snap["counters"]
    assert "t.h" not in snap["histograms"]
    assert "t.g" not in snap["gauges"]


# -------------------------------------------------------------- metrics
def test_histogram_reservoir_is_bounded():
    h = obs.Histogram("h", maxlen=64)
    for i in range(1000):
        h.observe(float(i))
    assert h.count == 1000          # lifetime stats see everything
    assert h.sum == sum(range(1000))
    assert h.min == 0.0 and h.max == 999.0
    assert len(h._samples) == 64    # the window stays bounded
    # percentiles come from the most recent window
    assert h.percentile(0) == 936.0
    assert h.percentile(100) == 999.0
    s = h.summary()
    assert s["count"] == 1000 and s["p50"] == pytest.approx(967.5)


def test_histogram_percentile_interpolates():
    h = obs.Histogram("h")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.percentile(50) == pytest.approx(2.5)
    assert h.percentile(25) == pytest.approx(1.75)
    assert obs.Histogram("empty").percentile(50) == 0.0


def test_registry_snapshot(obs_on):
    _, reg = obs_on
    obs.counter_inc("c.a", 2)
    obs.gauge_set("g.a", 7.0)
    for v in (1.0, 3.0):
        obs.observe("h.a", v)
    snap = reg.snapshot()
    assert snap["counters"]["c.a"] == 2
    assert snap["gauges"]["g.a"] == 7.0
    h = snap["histograms"]["h.a"]
    assert h["count"] == 2 and h["sum"] == pytest.approx(4.0)
    assert h["min"] == 1.0 and h["max"] == 3.0
    assert h["samples"] == [1.0, 3.0]
    compact = reg.snapshot(samples=False)["histograms"]["h.a"]
    assert "samples" not in compact
    assert compact == {k: v for k, v in h.items() if k != "samples"}


# ----------------------------------------------------------- map_tasks
def _pool_task(x):
    obs.counter_inc("pool.tasks")
    obs.observe("pool.task_value", float(x))
    with obs.span("pool.task") as sp:
        sp.set(x=x)
        return x * x


def test_map_tasks_inline_records_directly(obs_on):
    tracer, reg = obs_on
    out = map_tasks(_pool_task, [5])
    assert out == [25]
    assert reg.snapshot()["counters"]["pool.tasks"] == 1
    assert [r["name"] for r in tracer.finished()] == ["pool.task"]


# ------------------------------------------------------------ exporters
def test_trace_roundtrip_jsonl(tmp_path, obs_on):
    tracer, reg = obs_on
    with obs.span("root") as sp:
        sp.set(natoms=8)
        with obs.span("child"):
            pass
    obs.counter_inc("x.count", 3)
    path = tmp_path / "run.jsonl"
    n = write_jsonl(path, tracer, reg)
    assert n == 2
    meta, spans, metrics = read_jsonl(path)
    assert meta["version"] == 1 and meta["dropped_spans"] == 0
    names = {r["name"] for r in spans}
    assert names == {"root", "child"}
    assert metrics["counters"]["x.count"] == 3


def test_chrome_trace_export(tmp_path, obs_on):
    tracer, reg = obs_on
    with obs.span("a"):
        pass
    path = tmp_path / "run.json"
    assert write_trace(path, tracer, reg) == 1  # .json => chrome dispatch
    doc = json.loads(path.read_text())
    (ev,) = doc["traceEvents"]
    assert ev["ph"] == "X" and ev["name"] == "a"
    assert ev["dur"] >= 0.0  # microseconds
    assert doc["otherData"]["format_version"] == 1
    # events derived from records directly match the writer's output
    assert chrome_trace_events(tracer.finished())[0]["name"] == "a"
    jsonl = tmp_path / "run.jsonl"
    assert write_trace(jsonl, tracer, reg) == 1  # .jsonl => line format
    assert read_jsonl(jsonl)[1][0]["name"] == "a"


def test_write_metrics_json(tmp_path, obs_on):
    obs.counter_inc("m.c", 2)
    path = tmp_path / "metrics.json"
    snap = write_metrics_json(path)
    assert json.loads(path.read_text()) == snap
    assert snap["counters"]["m.c"] == 2


def _load_tool(name):
    tools = Path(__file__).resolve().parent.parent / "tools"
    spec = importlib.util.spec_from_file_location(name, tools / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_report_summarizes_trace(tmp_path, obs_on):
    tracer, reg = obs_on
    for _ in range(3):
        with obs.span("calc.compute"), obs.span("calc.foe"):
            pass
    obs.counter_inc("foe.fused", 3)
    obs.counter_inc("foe.cold", 1)
    obs.counter_inc("tb.bonds.pattern_reuse", 3)
    obs.counter_inc("tb.bonds.pattern_build", 1)
    obs.counter_inc("service.batch_close.complete", 19)
    obs.counter_inc("service.batch_close.window", 1)
    path = tmp_path / "run.jsonl"
    write_jsonl(path, tracer, reg)
    report = _load_tool("trace_report")
    summary = report.build_summary(path)
    phases = {p["name"]: p for p in summary["phases"]}
    assert phases["calc.compute"]["calls"] == 3
    assert phases["calc.foe"]["calls"] == 3
    assert summary["hit_rates"]["fused_path"]["rate"] == pytest.approx(0.75)
    assert summary["hit_rates"]["pattern_cache"]["rate"] == pytest.approx(0.75)
    assert summary["hit_rates"]["complete_close"] == {
        "rate": pytest.approx(0.95), "n": 20}
    # a rate with no observations is "no data", not 0 %
    assert summary["hit_rates"]["neighbor_reuse"] == {"rate": None, "n": 0}
    out_json = tmp_path / "summary.json"
    chrome = tmp_path / "run_chrome.json"
    assert report.main([str(path), "--json", str(out_json),
                        "--chrome", str(chrome)]) == 0
    assert json.loads(out_json.read_text())["n_spans"] == 6
    assert len(json.loads(chrome.read_text())["traceEvents"]) == 6


# ------------------------------------------------------- phase spans
def _phase_calculators():
    from repro.calculators import make_calculator
    from repro.classical import StillingerWeber
    from repro.linscale import DensityMatrixCalculator
    from repro.tb import GSPSilicon, TBCalculator

    tb_common = ("calc.neighbors", "calc.hamiltonian", "calc.repulsive",
                 "calc.forces")
    return [
        (TBCalculator(GSPSilicon()),
         tb_common + ("calc.diagonalize", "calc.occupations")),
        (make_calculator({"model": "gsp-si", "solver": "linscale",
                          "kT": 0.2, "r_loc": 5.0}),
         tb_common + ("calc.compute", "calc.regions", "calc.bounds",
                      "calc.foe")),
        (DensityMatrixCalculator(GSPSilicon()),
         tb_common + ("calc.bounds", "calc.density_matrix")),
        (StillingerWeber(), ("calc.neighbors", "calc.pair", "calc.triplet")),
    ]


def test_phase_timer_opens_spans_when_tracing(obs_on):
    """Every calculator's ``compute`` opens one ``calc.<phase>`` span per
    phase it runs, each name in the catalog; a cached call opens none."""
    tracer, _ = obs_on
    catalog = parse_catalog(Path(__file__).resolve().parent.parent)
    at = rattle(bulk_silicon(), 0.05, seed=4)
    for calc, phases in _phase_calculators():
        tracer.reset()
        calc.compute(at, forces=True)
        spans = [r for r in tracer.finished() if r["name"].startswith("calc.")]
        names = [r["name"] for r in spans]
        assert sorted(names) == sorted(phases), type(calc).__name__
        assert {r["name"] for r in tracer.finished()} <= catalog
        # the region engine's phases nest under its whole-evaluation span
        top = [r["id"] for r in spans if r["name"] == "calc.compute"]
        assert {r["parent"] for r in spans
                if r["name"] != "calc.compute"} == set(top or [None])
        tracer.reset()
        calc.compute(at, forces=True)             # cache hit: no phase
        assert [r["name"] for r in tracer.finished()] in (
            [], ["calc.compute"])


def test_phase_timer_no_spans_when_disabled():
    """With tracing off a phase records nothing; ``obs.recording`` records
    one block on a fresh tracer and puts the disabled one back."""
    from repro.tb import GSPSilicon, TBCalculator

    calc = TBCalculator(GSPSilicon())
    at = rattle(bulk_silicon(), 0.05, seed=4)
    off = obs.get_tracer()
    calc.compute(at)
    assert off.finished() == []
    at.positions[0, 0] += 0.01
    with obs.recording() as tracer:
        assert obs.get_tracer() is tracer and tracer is not off
        calc.compute(at)
    assert obs.get_tracer() is off and not off.enabled
    assert off.finished() == []
    assert [r["name"] for r in tracer.finished()].count(
        "calc.diagonalize") == 1


def test_recording_keeps_its_spans_from_the_enclosing_tracer(obs_on):
    outer, _ = obs_on
    with obs.span("md.step"):
        with obs.recording() as inner:
            with obs.span("calc.forces"):
                pass
    assert [r["name"] for r in inner.finished()] == ["calc.forces"]
    assert inner.finished()[0]["parent"] is None
    assert [r["name"] for r in outer.finished()] == ["md.step"]
    assert obs.get_tracer() is outer


# ------------------------------------------------- instrumented callers
def test_verlet_rebuild_cause_taxonomy(obs_on):
    from repro.neighbors import VerletList

    _, reg = obs_on
    at = rattle(bulk_silicon(), 0.02, seed=3)
    vl = VerletList(rcut=2.6, skin=0.4)
    vl.update(at)                      # cause: init
    at.positions[0] += [0.3, 0.0, 0.0]
    vl.update(at)                      # cause: drift (> skin/2)
    vl.update(at)                      # no motion -> reuse
    causes = vl.stats()["causes"]
    assert causes["init"] == 1
    assert causes["drift"] == 1
    counters = reg.snapshot()["counters"]
    assert counters["neighbors.rebuild.init"] == 1
    assert counters["neighbors.rebuild.drift"] == 1
    assert counters["neighbors.reuse"] == 1


def test_verlet_strain_cause(obs_on):
    from repro.geometry.cell import Cell
    from repro.neighbors import VerletList

    _, reg = obs_on
    at = rattle(bulk_silicon(), 0.02, seed=5)
    vl = VerletList(rcut=2.6, skin=0.4)
    vl.update(at)
    # pure cell change, no atomic drift — the cell term must dominate
    at.cell = Cell(at.cell.matrix * 1.10, pbc=at.cell.pbc)
    vl.update(at)
    assert vl.stats()["causes"]["strain"] == 1
    assert reg.snapshot()["counters"]["neighbors.rebuild.strain"] == 1


def test_md_driver_emits_step_records(obs_on):
    from repro.classical import StillingerWeber
    from repro.md import MDDriver, VelocityVerlet

    tracer, reg = obs_on
    seen = []
    at = rattle(bulk_silicon(), 0.03, seed=11)
    md = MDDriver(at, StillingerWeber(), VelocityVerlet(dt=1.0),
                  observers=[lambda step, atoms, data: seen.append(data)])
    md.run(2)
    stepped = [d for d in seen if "step_seconds" in d]
    assert len(stepped) == 2
    assert all(d["step_seconds"] > 0 for d in stepped)
    assert [r["name"] for r in tracer.finished()].count("md.step") == 2
    assert reg.snapshot()["histograms"]["md.step_s"]["count"] == 2


# ------------------------------------------------------ service metrics
def test_service_metrics_op_and_latency_percentiles(obs_on):
    from repro.service import BatchClient, BatchService

    _, reg = obs_on
    svc = BatchService(nworkers=1)
    try:
        client = BatchClient(svc)
        at = rattle(bulk_silicon(), 0.03, seed=9)
        client.load("si", at, calc={"model": "sw-si"})
        for _ in range(3):
            client.evaluate("si", forces=False)
        stats = client.stats()
        # the stats request's own latency lands after the response is
        # built, so the count covers the load + the three evals
        assert stats["latency_ms"]["count"] == 4
        assert stats["latency_ms"]["p50"] is not None
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]
        payload = client.metrics()
        assert payload["stats"]["requests_total"] >= 5
        counters = payload["metrics"]["counters"]
        assert counters["service.requests"] >= 5
        assert counters["service.cold_evals"] == 1
        assert counters["service.warm_evals"] == 2
        assert "service.batch_size" in payload["metrics"]["histograms"]
        # every request is observed through the service's scope
        lat = payload["metrics"]["histograms"]["service.request_ms"]
        assert lat["count"] == 5
    finally:
        svc.close()


def test_service_metrics_op_without_registry_enabled():
    from repro.service import BatchClient, BatchService

    assert not obs.metrics_enabled()
    svc = BatchService(nworkers=1)
    try:
        client = BatchClient(svc)
        payload = client.metrics()
        # stats always work; with the process registry disabled the
        # snapshot is the service's own always-on scope — nothing counted
        # yet, the latency histogram at count 0 (this request's own
        # bookkeeping lands after the response)
        assert "uptime_s" in payload["stats"]
        assert payload["metrics"]["counters"] == {}
        assert payload["metrics"]["histograms"][
            "service.request_ms"]["count"] == 0
    finally:
        svc.close()
