"""Tests of the ledger's own machinery (not tier-1: run explicitly).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Arithmetic (span self times, the percentile rule, compare verdicts) on
hand-made data, then every workload's plumbing driven *traced* through
its Python entry point at 2 ops on shrunken systems — a broken import or
a renamed public callable fails here in seconds, by name.
"""

from __future__ import annotations

import copy
import json
import os
import threading

import pytest

from benchmarks.ledger import compare, hostclock, runner, spec, stats, trace
from benchmarks.ledger.trace import Span


def _span(name, start, end, parent=None, thread=1, ops=(), phase="timed"):
    return Span(name, name, start, end, parent, thread, ops, phase)


# -- span arithmetic ----------------------------------------------------------

def test_self_time_nested_same_thread():
    root = _span("md.step", 0.0, 10.0, ops=("a",))
    compute = _span("calc.compute", 1.0, 9.0, parent=root, ops=("a",))
    k1 = _span("linscale.backend.fused", 2.0, 5.0, parent=compute, ops=("a",))
    k2 = _span("linscale.backend.fused", 6.0, 8.0, parent=compute, ops=("a",))
    agg = trace.aggregate([root, compute, k1, k2], ("md.step",))
    assert agg["md.step"]["self_s"] == pytest.approx(2.0)
    assert agg["calc.compute"]["self_s"] == pytest.approx(3.0)
    assert agg["linscale.backend.fused"] == {
        "calls": 2, "total_s": pytest.approx(5.0),
        "self_s": pytest.approx(5.0), "value": 0.0}
    # self times of a single-threaded tree add up to the root's duration
    assert sum(r["self_s"] for r in agg.values()) == pytest.approx(10.0)


def test_self_time_cross_thread_adoption_and_batches():
    # two clients (threads 1, 2), one batch serving both (thread 3) whose
    # two worker spans (threads 4, 5) run concurrently
    rtt_a = _span("service.client_rtt", 0.0, 10.0, thread=1, ops=("a",))
    rtt_b = _span("service.client_rtt", 1.0, 11.0, thread=2, ops=("b",))
    wait_a = _span("service.queue_wait", 0.5, 3.0, thread=3, ops=("a",))
    batch = _span("service.submit_many", 3.0, 9.0, thread=3, ops=("a", "b"))
    fan = _span("parallel.map_tasks", 3.5, 8.5, parent=batch, thread=3,
                ops=("a", "b"))
    work_a = _span("service.worker_handle", 4.0, 8.0, thread=4, ops=("a",))
    work_b = _span("service.worker_handle", 4.5, 7.0, thread=5, ops=("b",))
    spans = [rtt_a, rtt_b, wait_a, batch, fan, work_a, work_b]
    parents = trace.resolve_parents(spans, ("service.client_rtt",))
    assert parents[id(rtt_a)] == [] and parents[id(rtt_b)] == []
    assert parents[id(wait_a)] == [rtt_a]
    assert parents[id(batch)] == [rtt_a, rtt_b]        # one parent per op
    assert parents[id(work_a)] == [fan] and parents[id(work_b)] == [fan]
    selfs = trace.self_times(spans, ("service.client_rtt",))
    assert selfs[id(rtt_a)] == pytest.approx(10.0 - 2.5 - 6.0)
    assert selfs[id(rtt_b)] == pytest.approx(10.0 - 6.0)
    assert selfs[id(batch)] == pytest.approx(1.0)
    # concurrent children are counted once: union [4, 8] of [3.5, 8.5]
    assert selfs[id(fan)] == pytest.approx(1.0)


def test_covered_clips_and_merges():
    assert trace.covered([(0, 4), (2, 6), (8, 20)], 1, 10) == pytest.approx(7.0)
    assert trace.covered([], 0, 1) == 0.0


def test_tracer_patches_and_restores():
    import repro.md.driver as driver_mod
    from repro.trajio import format as fmt

    original_run = vars(driver_mod.MDDriver)["run"]
    original_shuffle = fmt.byte_shuffle
    tracer = trace.Tracer()
    tracer.patch_callable("repro.md.driver:MDDriver.run", "md.step")
    tracer.patch_callable("repro.trajio.format:byte_shuffle",
                          "trajio.encode_chunk")
    assert vars(driver_mod.MDDriver)["run"].__wrapped__ is original_run
    tracer.phase = "timed"
    assert fmt.byte_shuffle(b"abcdefgh", 4) == original_shuffle(b"abcdefgh", 4)
    assert [s.name for s in tracer.spans()] == ["trajio.encode_chunk"]
    tracer.uninstall()
    assert vars(driver_mod.MDDriver)["run"] is original_run
    assert fmt.byte_shuffle is original_shuffle


def test_renamed_callable_is_named_in_the_error():
    with pytest.raises(trace.TraceError, match="MDDriver.run_forever"):
        trace.resolve("repro.md.driver:MDDriver.run_forever")
    with pytest.raises(trace.TraceError, match="repro.no_such_layer"):
        trace.resolve("repro.no_such_layer:f")


def test_spans_from_several_threads_are_all_kept():
    tracer = trace.Tracer()
    tracer.phase = "timed"
    traced_fn = tracer.wrap(lambda: None, "calc.compute", starts_op=True)
    threads = [threading.Thread(target=lambda: [traced_fn() for _ in range(200)])
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans()
    assert len(spans) == 800
    assert len({s.ops for s in spans}) == 800       # op ids never collide


# -- host clock ---------------------------------------------------------------

def test_host_clock_divides_the_slowdown_out_and_skips_its_samples():
    ref = 0.05
    clock = hostclock.HostClock(("python",))
    # nominal host, then one running at half speed, then nominal again
    clock.samples = [(0.0, ref, 1.0), (1.0, 1.0 + 2 * ref, 2.0),
                     (3.0, 3.0 + ref, 1.0)]
    first_gap = 1.0 - ref                   # slowdown (1 + 2) / 2 in both gaps
    assert clock.seconds(ref, 1.0) == pytest.approx(first_gap / 1.5)
    assert clock.seconds(ref, 1.0, wall=True) == pytest.approx(first_gap)
    # time inside a sample does not count, by either clock
    assert clock.seconds(0.5, 1.0 + ref) == pytest.approx(0.5 / 1.5)
    assert clock.seconds(0.5, 2.0, wall=True) == pytest.approx(1.5 - 2 * ref)
    # arrays of op starts and ends come back as an array of durations
    assert list(clock.seconds([0.5, 2.0], [1.0, 2.5])) == pytest.approx(
        [0.5 / 1.5, 0.5 / 1.5])
    assert clock.slowdown() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="outside the sampled span"):
        clock.seconds(2.0, 4.0)
    # a real sample: every kind of the workload timed against its nominal
    both = hostclock.HostClock(("gemm", "zlib"))
    both.sample()
    start, end, slowdown = both.samples[0]
    assert 0.5 < slowdown < 20.0 and 0.02 < end - start < 2.0


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n, expected", [(16, None), (39, None), (40, 75),
                                         (100, 90), (200, 95), (999, 95),
                                         (1000, 99), (4800, 99)])
def test_tail_percentile_rule(n, expected):
    assert stats.tail_percentile(n) == expected


# -- compare ------------------------------------------------------------------

def _result(**overrides):
    metrics = {"setup_s": 1.0, "ops_per_s": 100.0, "op_p50_ms": 10.0,
               "op_tail_ms": 20.0, "fail_frac": 0.0, "peak_rss_mb": 100.0,
               "traj_bytes_per_frame": None}
    metrics.update(overrides)
    units = {m.name: m.unit for m in spec.END_TO_END}
    return {"git": {"sha": "abc", "dirty": False}, "seed": 12,
            "host": {"cpu_model": "x", "nproc": 2},
            "workloads": {"service_socket_si8": {
                "checks_ok": True,
                "metrics": {k: {"value": v, "unit": units[k], "n": 1}
                            for k, v in metrics.items()}}}}


def _verdicts(base, new):
    rows, bad = compare.compare(base, new)
    return {r["metric"]: r["verdict"] for r in rows}, bad


def test_compare_within_bounds_is_ok():
    verdicts, bad = _verdicts(_result(), _result(ops_per_s=91.0, op_p50_ms=10.9,
                                                 op_tail_ms=24.0, setup_s=1.14))
    assert not bad and set(verdicts.values()) == {"ok"}
    assert "traj_bytes_per_frame" not in verdicts      # a null cell has no row


def test_compare_flags_each_direction():
    verdicts, bad = _verdicts(_result(), _result(ops_per_s=89.0, op_p50_ms=9.0,
                                                 peak_rss_mb=106.0))
    assert bad
    assert verdicts["ops_per_s"] == "regressed"     # higher is better, 11 % > 10 %
    assert verdicts["op_p50_ms"] == "ok"            # got faster
    assert verdicts["peak_rss_mb"] == "regressed"   # 6 % > 5 %


def test_compare_any_fail_frac_rise_regresses_even_across_hosts():
    new = _result(fail_frac=0.001)
    new["host"]["nproc"] = 64
    verdicts, bad = _verdicts(_result(), new)
    assert bad and verdicts["fail_frac"] == "regressed"
    assert verdicts["ops_per_s"] == "unresolved"


def test_compare_different_hosts_are_unresolved_not_regressed():
    new = _result(ops_per_s=10.0)
    new["host"]["cpu_model"] = "y"
    verdicts, bad = _verdicts(_result(), new)
    assert not bad and verdicts["ops_per_s"] == "unresolved"


def _with_samples(result, metric, samples):
    m = result["workloads"]["service_socket_si8"]["metrics"][metric]
    m["samples"] = samples
    m["value"] = sorted(samples)[len(samples) // 2]
    return result


def test_compare_spread_wider_than_bound_is_unresolved():
    base = _with_samples(_result(), "op_p50_ms", [9.0, 10.0, 11.5])
    worse = _with_samples(_result(), "op_p50_ms", [9.5, 11.4, 12.0])
    assert _verdicts(base, worse) == ({**_verdicts(base, base)[0],
                                       "op_p50_ms": "unresolved"}, False)
    # ... unless every new run is on one side of every base run
    better = _with_samples(_result(), "op_p50_ms", [5.0, 6.0, 7.9])
    assert _verdicts(base, better)[0]["op_p50_ms"] == "ok"
    far_worse = _with_samples(_result(), "op_p50_ms", [12.0, 13.0, 20.0])
    assert _verdicts(base, far_worse) == ({**_verdicts(base, base)[0],
                                           "op_p50_ms": "regressed"}, True)
    # a tight spread is decided by the medians alone
    tight = _with_samples(_result(), "op_p50_ms", [9.9, 10.0, 10.1])
    slow = _with_samples(_result(), "op_p50_ms", [11.1, 11.2, 11.3])
    assert _verdicts(tight, slow)[0]["op_p50_ms"] == "regressed"
    # one failing run out of three is a failure, whatever the median says
    flaky = _with_samples(_result(), "fail_frac", [0.0, 0.0, 0.01])
    assert _verdicts(_result(), flaky)[0]["fail_frac"] == "regressed"


def test_compare_red_check_regresses_and_ratio_has_its_base(capsys, tmp_path):
    new = copy.deepcopy(_result())
    new["workloads"]["service_socket_si8"]["checks_ok"] = False
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result()))
    b.write_text(json.dumps(new))
    assert compare.main(str(a), str(b)) == 1
    out = capsys.readouterr().out
    assert "checks_ok" in out and "(base 100 1/s)" in out
    assert "6 ok, 0 unresolved (not agreement), 1 regressed" in out


# -- vocabulary ---------------------------------------------------------------

def test_benchmark_json_matches_the_spec():
    path = runner.ROOT / "BENCHMARK.json"
    assert json.loads(path.read_text()) == spec.benchmark_json()


def test_vocabulary_fits_the_contract():
    doc = spec.benchmark_json()
    assert len(doc["workloads"]) == 4
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names and "fail_frac" not in names
    assert len(spec.END_TO_END) == 9
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert max(doc["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    assert spec.scaled_ops("md_linscale_si512", spec.RUN_SECONDS) == {"steps": 8}
    assert spec.scaled_ops("traj_io_si512", 0.001) == {"frames": 2, "seeks": 2}


# -- workload plumbing --------------------------------------------------------

@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_workload_plumbing_traced_at_two_ops(name, tmp_path):
    import repro.md.driver as driver_mod

    ops = {k: 2 for k in spec.workload(name).ops}
    if name == "traj_io_si512":
        ops["frames"] = 130         # three chunks, so seeks can alternate
    record = runner.run_workload(name, 5, ops, str(tmp_path), traced=True,
                                 trace_out=str(tmp_path / "trace.json"),
                                 quick=True)
    assert record["checks_ok"], record["checks"]
    assert record["failed"] == 0 and record["attempted"] >= 2
    assert list(record["metrics"]) == [m.name for m in spec.END_TO_END]
    assert all(record["metrics"][m.name]["value"] > 0
               for m in spec.DRIVER_END_TO_END)
    # 2 ops have no tail percentile; the traj rows exist on one workload
    assert record["metrics"]["op_tail_ms"]["value"] is None
    assert (record["metrics"]["traj_bytes_per_frame"]["value"] is None) == (
        name != "traj_io_si512")
    assert list(record["layers"]) == [n for n, _, _ in spec.per_layer_metrics()]
    for root in spec.workload(name).root_span:
        assert record["layers"][f"{root}.calls"]["value"] >= 1
    assert record["layers"]["bench.attributed_frac"]["value"] > 0.5
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert len(events) == record["spans_recorded"]
    # nothing is left patched, no temp file survives
    assert not hasattr(vars(driver_mod.MDDriver)["run"], "__wrapped__")
    assert sorted(os.listdir(tmp_path)) == ["trace.json"]
