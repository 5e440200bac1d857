"""One bookkeeper per event: reports are projections of ``repro.obs``.

Every object that reports counts owns one ``obs.MetricsScope``; its
``state_report()`` / ``stats()`` read the scope, and the same single
write lands in the process registry when metrics are enabled.  These
tests pin (a) the payloads key-for-key against the values the
pre-scope implementation returned, (b) report == registry delta for
every catalogued counter an object owns, and (c) the two counts a
private store used to keep from the registry (cache hits outside
linscale, ``service.request_ms``).
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import obs
from repro.calculators import make_calculator
from repro.geometry import bulk_silicon, rattle, supercell
from repro.md import MDDriver, VelocityVerlet
from repro.md.velocities import maxwell_boltzmann_velocities
from repro.obs.export import write_metrics_json
from repro.service import BatchClient, BatchService

# ------------------------------------------------------------- workloads
_VERLET_COLD_PLUS_4 = {
    "builds": 1, "updates": 5, "reused": 4,
    "causes": {"init": 1, "resize": 0, "cell-unmappable": 0,
               "drift": 0, "strain": 0}}

#: what the parent commit's hand-assembled ``state_report()`` returned
#: after the MD below (recorded by running this scenario on it); the
#: ``regions`` orbit keys came later (Γ MD: every region solved), and so
#: did ``index_bytes``: 524 808 B of block maps plus 165 888 B of ρ̂
#: positions for the 64 regions — the int32 kept core-row entry and the
#: position of (b, a) for each of H's 16 640 nonzeros (kept in H's own
#: order, so (a, b) needs none), and the nonzero of each of the 8 192
#: entries of 512 bonds' 4×4 blocks
LINSCALE_MD_REPORT = {
    "reuse": True,
    "backend": None,        # filled from the calculator: env-dependent
    "neighbors": _VERLET_COLD_PLUS_4,
    "neighbors_loc": _VERLET_COLD_PLUS_4,
    "hamiltonian": {"pattern_builds": 1, "value_updates": 4},
    "regions": {"rebuilds": 1, "reuses": 4, "orbits": 64,
                "reduced_solves": 0, "index_bytes": 690_696},
    "window": {"refreshes": 1, "reuses": 4, "invalidations": 0},
    "foe": {"cold": 1, "fused": 2, "fallback": 2},
    "cache_hits": 0,
}

#: ``BatchService.stats()`` of the parent after the run below, minus the
#: wall-clock / byte-size fields (``_stable`` strips them); ``closed_by``
#: came later (no socket transport here, so nothing ever closes a batch)
SERVICE_STATS = {
    "n_workers": 2, "draining": False, "queue_depth": 0,
    "requests_total": 14, "errors_total": 2,
    "batches": {"count": 12, "mean_size": 1.083, "max_size": 2,
                "closed_by": {"complete": 0, "window": 0, "cap": 0}},
    "latency_ms": {"count": 14},
    "state_reuse": {"warm_evals": 7, "cold_evals": 3, "hit_rate": 0.7},
    "lifecycle": {"worker_crashes": 1, "evictions": 0,
                  "rematerializations": 1},
    "memory": {"budget_bytes": None},
    "structures": {
        "a": {"worker": 0, "resident": True, "natoms": 8, "evals": 5},
        "b": {"worker": 1, "resident": True, "natoms": 8, "evals": 5}},
}


def run_linscale_md():
    """Cold start + 4 warm steps of 64-atom region-FOE MD."""
    at = rattle(supercell(bulk_silicon(), 2), 0.03, seed=2)
    maxwell_boltzmann_velocities(at, 300.0, seed=5)
    calc = make_calculator({"model": "gsp-si", "solver": "linscale",
                            "kT": 0.2, "order": 30})
    record = MDDriver(at, calc, VelocityVerlet(dt=0.5)).run(4)
    return at, calc, record


def run_two_client_service():
    """Two in-process clients: loads, evals, an unknown structure, a
    coalesced batch, a worker crash and the re-materialization after."""
    si = rattle(bulk_silicon(), 0.03, seed=9)
    svc = BatchService(nworkers=2, debug_ops=True)
    a, b = BatchClient(svc), BatchClient(svc, raise_on_error=False)
    a.load("a", si, calc={"model": "sw-si"})
    b.load("b", si, calc={"model": "gsp-si"})
    for k in range(3):
        pos = si.positions + 0.01 * (k + 1)
        a.evaluate("a", positions=pos, forces=True)
        b.evaluate("b", positions=pos, forces=False)
    b.request("eval", structure_id="ghost")
    a.request_many([{"op": "eval", "structure_id": "a"},
                    {"op": "eval", "structure_id": "a"},
                    {"op": "eval", "structure_id": "b"}])
    b.request("debug_crash", structure_id="b")
    b.evaluate("b", forces=False)
    return svc


def _stable(stats: dict) -> dict:
    """``stats()`` without its wall-clock and byte-size fields."""
    out = json.loads(json.dumps(stats))
    del out["uptime_s"], out["memory"]["resident_bytes"]
    del out["latency_ms"]["p50"], out["latency_ms"]["p99"]
    for rec in out["structures"].values():
        del rec["idle_s"], rec["resident_bytes"]
    return out


# ------------------------------------------------ payloads == the parent's
def test_linscale_state_report_is_key_for_key_the_parent_payload():
    assert not obs.metrics_enabled()
    at, calc, record = run_linscale_md()
    expected = dict(LINSCALE_MD_REPORT, backend=calc.backend.name)
    assert record["calc_report"] == expected
    assert calc.state_report() == expected
    assert list(calc.state_report()) == list(expected)
    # ints, not the registry's floats: the payload is JSON the CLI prints
    assert json.dumps(calc.state_report()["foe"]) == \
        '{"cold": 1, "fused": 2, "fallback": 2}'
    calc.compute(at, forces=True)          # unchanged geometry
    assert calc.state_report() == dict(expected, cache_hits=1)


def test_service_stats_is_key_for_key_the_parent_payload():
    assert not obs.metrics_enabled()
    svc = run_two_client_service()
    try:
        stats = svc.stats()
    finally:
        svc.close()
    assert _stable(stats) == SERVICE_STATS
    assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] > 0
    assert list(stats) == [
        "uptime_s", "n_workers", "draining", "queue_depth",
        "requests_total", "errors_total", "batches", "latency_ms",
        "state_reuse", "lifecycle", "memory", "structures"]


# --------------------------------------- report == process-registry delta
def test_linscale_report_equals_registry_delta(obs_on):
    _, reg = obs_on
    at, calc, _ = run_linscale_md()
    calc.compute(at, forces=True)
    rep = calc.state_report()
    counters = reg.snapshot()["counters"]
    both = ("neighbors", "neighbors_loc")      # two lists, one name space
    view = {
        "regions.rebuild": rep["regions"]["rebuilds"],
        "regions.reuse": rep["regions"]["reuses"],
        "window.refresh": rep["window"]["refreshes"],
        "window.reuse": rep["window"]["reuses"],
        "window.invalidated": rep["window"]["invalidations"],
        "foe.cold": rep["foe"]["cold"],
        "foe.fused": rep["foe"]["fused"],
        "foe.fallback": rep["foe"]["fallback"],
        "calc.cache_hit": rep["cache_hits"],
        "tb.bonds.pattern_build": rep["hamiltonian"]["pattern_builds"],
        "tb.bonds.pattern_reuse": rep["hamiltonian"]["value_updates"],
        "neighbors.reuse": sum(rep[k]["reused"] for k in both),
    }
    for cause in rep["neighbors"]["causes"]:
        view[f"neighbors.rebuild.{cause}"] = sum(
            rep[k]["causes"][cause] for k in both)
    assert {name: counters.get(name, 0) for name in view} == view
    assert rep["cache_hits"] == 1 and rep["foe"]["fused"] == 2
    # the owners' scopes hold nothing the registry does not
    for owner in (calc, calc._vlist, calc._vlist_loc):
        for name, v in owner.counts.snapshot()["counters"].items():
            assert counters[name] >= v > 0


def test_service_stats_equal_registry_delta(obs_on):
    _, reg = obs_on
    svc = run_two_client_service()
    try:
        stats = svc.stats()
    finally:
        svc.close()
    snap = reg.snapshot()
    view = {
        "service.requests": stats["requests_total"],
        "service.errors": stats["errors_total"],
        "service.batches": stats["batches"]["count"],
        "service.warm_evals": stats["state_reuse"]["warm_evals"],
        "service.cold_evals": stats["state_reuse"]["cold_evals"],
        "service.worker_crashes": stats["lifecycle"]["worker_crashes"],
        "service.evictions": stats["lifecycle"]["evictions"],
        "service.rematerializations":
            stats["lifecycle"]["rematerializations"],
    }
    assert {n: snap["counters"].get(n, 0) for n in view} == view
    sizes = snap["histograms"]["service.batch_size"]
    assert sizes["count"] == stats["batches"]["count"]
    assert sizes["max"] == stats["batches"]["max_size"]
    assert round(sizes["mean"], 3) == stats["batches"]["mean_size"]
    latency = snap["histograms"]["service.request_ms"]
    assert latency["count"] == stats["latency_ms"]["count"]
    assert latency["maxlen"] == BatchService.LATENCY_WINDOW


# ------------------------------------- counts every owner must now emit
@pytest.mark.parametrize("spec", [
    {"model": "gsp-si"},
    {"model": "nonortho-si"},
    {"model": "gsp-si", "kT": 0.1, "kgrid": 2},
    {"model": "gsp-si", "solver": "purification"},
    {"model": "gsp-si", "solver": "foe", "kT": 0.2, "order": 40},
    {"model": "gsp-si", "solver": "linscale", "kT": 0.2, "order": 30},
    {"model": "sw-si"},
], ids=lambda s: "-".join(str(v) for v in s.values()))
def test_cache_hit_counted_once_by_every_calculator(obs_on, spec):
    """A repeat ``compute()`` on unchanged atoms is one ``calc.cache_hit``
    whichever calculator ``make_calculator`` built (the count lives on
    the spine, not in one subclass)."""
    _, reg = obs_on
    at = rattle(bulk_silicon(), 0.03, seed=7)
    calc = make_calculator(spec)
    first = calc.compute(at, forces=True)
    assert calc.state_report()["cache_hits"] == 0
    assert calc.compute(at, forces=True) is first
    assert calc.state_report()["cache_hits"] == 1
    assert reg.snapshot()["counters"]["calc.cache_hit"] == 1
    at.positions[0] += 0.01                 # a miss is not a hit
    calc.compute(at, forces=True)
    assert calc.state_report()["cache_hits"] == 1


def test_service_request_ms_reaches_registry_and_metrics_file(obs_on,
                                                              tmp_path):
    """``service.request_ms`` is catalogued, so with metrics on it must be
    in the process registry — hence in the ``serve --metrics`` file."""
    _, reg = obs_on
    svc = BatchService(nworkers=1)
    try:
        client = BatchClient(svc)
        client.load("si", rattle(bulk_silicon(), 0.03, seed=9),
                    calc={"model": "sw-si"})
        for _ in range(3):
            client.evaluate("si", forces=False)
        assert reg.snapshot()["histograms"]["service.request_ms"][
            "count"] == 4
        # what `serve --metrics out.json` writes on exit
        written = write_metrics_json(tmp_path / "serve_metrics.json")
        assert written["histograms"]["service.request_ms"]["count"] == 4
        # the metrics op is that same snapshot, no hand-folded extras
        # (its own bookkeeping lands after the response is built)
        before = reg.snapshot(samples=False)
        assert client.metrics()["metrics"] == before
    finally:
        svc.close()


def test_remote_calculator_report_is_a_projection(obs_on):
    from repro.service import RemoteCalculator

    _, reg = obs_on
    at = rattle(bulk_silicon(), 0.03, seed=4)
    with BatchService(nworkers=1) as svc:
        calc = RemoteCalculator(BatchClient(svc), "si", atoms=at,
                                calc={"model": "sw-si"})
        calc.compute(at)
        at.positions[0] += 0.01
        calc.compute(at)
        assert calc.state_report() == {
            "remote": True, "structure_id": "si",
            "evals": 2, "warm_evals": 1}
        counters = reg.snapshot()["counters"]
        assert counters["remote.evals"] == 2
        assert counters["remote.warm_evals"] == 1


def test_scope_loses_no_update_under_threads(obs_on):
    """Service threads write one scope without the registry lock: the
    per-instrument locks alone must keep scope and registry exact."""
    _, reg = obs_on
    scope = obs.MetricsScope()
    nthreads, per_thread = 8, 2000

    def work():
        for _ in range(per_thread):
            scope.counter_inc("service.requests")
            scope.observe("service.batch_size", 2)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    total = nthreads * per_thread
    assert scope.count("service.requests") == total
    assert scope.histogram("service.batch_size").sum == 2 * total
    snap = reg.snapshot(samples=False)
    assert snap["counters"]["service.requests"] == total
    assert snap["histograms"]["service.batch_size"]["count"] == total
