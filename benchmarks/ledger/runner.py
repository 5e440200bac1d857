"""Run one workload (in this process) or spawn it as a pinned child.

The parent side (:func:`spawn`) starts ``python -m benchmarks.ledger
child`` with BLAS pinned to one thread and ``REPRO_BACKEND`` unset, and
reads the child's one-line JSON record.  The child side
(:func:`run_workload`) does set-up → timed window → checks and turns the
spans of a traced run into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from benchmarks.ledger import LEDGER_VERSION, spec, stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Host samples are this close together while set-ups repeat: the cheap
#: ones are over in under a second all told.
SETUP_GAP_S = 0.2


class LedgerError(Exception):
    """The ledger could not run (missing source tree, dead child, ...)."""


def require_source_tree() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise LedgerError(
            f"no program to measure: {SRC / 'repro'} is missing (the ledger "
            f"times the pytbmd sources of the checkout it sits in)")


# -- child side -------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, spans, roots: tuple, op_wall: float, timed,
                  metrics: dict, before: dict, after: dict) -> dict:
    """Span aggregate of the timed window (*agg*) + public-report deltas
    → every ``spec.per_layer_metrics()`` value (0 where a layer did no
    work on this workload).  Span times are plain wall-clock seconds."""
    from benchmarks.ledger import trace

    agg_setup = trace.aggregate([s for s in spans if s.phase == "setup"], roots)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0.0}

    out: dict = {}
    for name in spec.SPAN_NAMES:
        row = agg.get(name, zero)
        out[f"{name}.calls"] = row["calls"]
        if name == "service.queue_wait":
            out[f"{name}.wait_s"] = row["total_s"]
        else:
            out[f"{name}.self_s"] = row["self_s"]
    for name in spec.SETUP_SPAN_NAMES:
        out[f"{name}.setup_self_s"] = agg_setup.get(name, zero)["self_s"]

    d = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    out["neighbors.rebuild_frac"] = _ratio(
        d.get("neighbors.builds", 0), d.get("neighbors.updates", 0))
    out["linscale.hbuild.value_update_frac"] = _ratio(
        d.get("hamiltonian.value_updates", 0),
        d.get("hamiltonian.value_updates", 0)
        + d.get("hamiltonian.pattern_builds", 0))
    out["linscale.regions.reuse_frac"] = _ratio(
        d.get("regions.reuses", 0),
        d.get("regions.reuses", 0) + d.get("regions.rebuilds", 0))
    out["linscale.window.reuse_frac"] = _ratio(
        d.get("window.reuses", 0),
        d.get("window.reuses", 0) + d.get("window.refreshes", 0))
    out["linscale.fused_hit_frac"] = _ratio(
        d.get("foe.fused", 0),
        d.get("foe.fused", 0) + d.get("foe.fallback", 0) + d.get("foe.cold", 0))

    backend = [agg[n] for n in agg if n.startswith("linscale.backend.")]
    flop = sum(r["value"] for r in backend)
    out["linscale.backend.flop_computed"] = flop
    out["linscale.backend.gflop_per_s"] = _ratio(
        flop / 1e9, sum(r["total_s"] for r in backend))

    wire = sum(agg.get(n, zero)["value"]
               for n in ("service.proto_encode", "service.proto_decode"))
    # every byte crosses the wire once but is counted at both ends
    out["service.bytes_per_request"] = _ratio(wire / 2.0, d.get("requests", 0))
    out["service.batch_size_mean"] = _ratio(
        d.get("batched_requests", 0), d.get("batches", 0))
    out["service.warm_frac"] = _ratio(
        d.get("warm_evals", 0), d.get("warm_evals", 0) + d.get("cold_evals", 0))

    for short in ("write_mb_per_s", "read_mb_per_s", "bytes_per_frame"):
        out[f"trajio.{short}"] = metrics.get(f"traj_{short}", (0.0, 0))[0]
    io = timed.out if isinstance(timed.out, dict) else {}
    out["trajio.compress_ratio"] = _ratio(
        io.get("payload_bytes", 0.0), io.get("file_bytes", 0))
    seek_decodes = sum(1 for s in spans
                       if s.phase == "timed.seek" and s.fn == "decode_chunk")
    out["trajio.chunk_decodes_per_seek"] = _ratio(seek_decodes,
                                                  timed.attempted)

    # host samples taken inside a root span are the ledger's time, not
    # the op's: *op_wall* comes without them, the roots' self time with
    unattributed = (sum(agg.get(r, zero)["self_s"] for r in roots)
                    - (sum(agg.get(r, zero)["total_s"] for r in roots) - op_wall))
    out["bench.op_wall_s"] = op_wall
    out["bench.unattributed_s"] = unattributed
    out["bench.attributed_frac"] = _ratio(op_wall - unattributed, op_wall)
    out["bench.traced_ops_per_s"] = metrics["ops_per_s"][0]
    out["bench.traced_op_tail_ms"] = metrics["op_tail_ms"][0] or 0.0
    return out


def top_spans(agg: dict, roots: tuple, op_wall: float, nops: int,
              k: int = 3) -> list[dict]:
    """The *k* largest self-time rows of one op (roots excluded)."""
    rows = sorted(((n, r["self_s"]) for n, r in agg.items()
                   if n not in roots), key=lambda x: -x[1])[:k]
    return [{"span": n, "self_ms_per_op": 1e3 * s / max(nops, 1),
             "share_of_op_wall": _ratio(s, op_wall)} for n, s in rows]


def run_workload(name: str, seed: int, ops: dict, workdir: str, *,
                 traced: bool = False, trace_out: str | None = None,
                 quick: bool = False) -> dict:
    """Set up, time and check one workload in this process."""
    from benchmarks.ledger import layers
    from benchmarks.ledger.hostclock import HostClock
    from benchmarks.ledger.workloads import WORKLOAD_CLASSES

    wl_spec = spec.workload(name)
    for mod in layers.CALLER_MODULES:
        importlib.import_module(mod)

    tracer = None
    backend_name = None
    if traced:
        from benchmarks.ledger import trace

        tracer = trace.Tracer()
        backend_name = layers.install(tracer)

    def mark(phase):
        if tracer is not None:
            tracer.phase = phase

    host = HostClock(wl_spec.host_kinds)
    host.sample()
    wl = WORKLOAD_CLASSES[name](seed, ops, workdir, host, quick=quick)
    try:
        setups = []
        for k in range(wl_spec.setup_repeats):
            last = k == wl_spec.setup_repeats - 1
            mark("setup" if last else None)     # trace one set-up, not all
            host.tick(SETUP_GAP_S)
            t0 = perf_counter()
            wl.setup()
            setups.append((t0, perf_counter()))
            mark(None)
            if not last:
                wl.teardown()
        before = wl.report()
        host.sample()
        mark("timed")
        timed = wl.timed(mark)
        mark(None)
        host.sample()
        # before the checks: their cold reference calculators are not
        # the workload's memory
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = wl.report()
        checks = wl.check(timed)
    finally:
        try:
            wl.teardown()
        finally:
            if tracer is not None:
                tracer.uninstall()

    if backend_name is None:
        from repro.linscale.backends import resolve_backend

        backend_name = resolve_backend(None).name

    n = len(timed.ops)
    tail_p = stats.tail_percentile(n)
    op_t0, op_t1 = (list(ts) for ts in zip(*timed.ops))

    def timing_rows(**clock) -> dict:
        latencies = sorted(1e3 * host.seconds(op_t0, op_t1, **clock))
        return {
            "setup_s": (statistics.median(
                host.seconds(*zip(*setups), **clock)), len(setups)),
            "ops_per_s": (timed.attempted
                          / host.seconds(*timed.window, **clock), n),
            "op_p50_ms": (statistics.median(latencies), n),
            "op_tail_ms": (tail_p and stats.percentile(latencies, tail_p), n),
        }

    # the rows of record are in reference-speed seconds (hostclock.py)
    metrics = {
        **timing_rows(),
        "fail_frac": (timed.failed / timed.attempted, timed.attempted),
        "peak_rss_mb": (peak_rss_mb, 1),
        **wl.extra(timed),
    }
    record = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "ops": ops,
        "backend": backend_name,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "checks_ok": all(ok for ok, _ in checks.values()),
        "checks": {k: {"ok": bool(ok), "value": val}
                   for k, (ok, val) in checks.items()},
        "tail_percentile": tail_p and f"p{tail_p}",
        "host_slowdown": host.slowdown(),
        "host_samples": len(host.samples),
        "wall_clock": {k: v for k, (v, _) in timing_rows(wall=True).items()},
        # a cell that does not apply on this workload is null
        "metrics": {m.name: {"value": None, "unit": m.unit, "n": 0}
                    for m in spec.END_TO_END},
    }
    for k, (v, cnt) in metrics.items():
        if v is not None:
            record["metrics"][k].update(value=float(v), n=int(cnt))
    if tracer is not None:
        spans = tracer.spans()
        roots = wl_spec.root_span
        in_window = [s for s in spans if s.phase.startswith("timed")]
        agg = trace.aggregate(in_window, roots)
        root_spans = [s for s in in_window if s.name in roots]
        op_wall = float(sum(host.seconds([s.start for s in root_spans],
                                         [s.end for s in root_spans],
                                         wall=True)))
        layer_units = {n: u for n, u, _ in spec.per_layer_metrics()}
        values = layer_metrics(agg, spans, roots, op_wall, timed, metrics,
                               before, after)
        record["layers"] = {k: {"value": float(values[k]), "unit": u}
                            for k, u in layer_units.items()}
        record["spans_recorded"] = len(spans)
        record["top_spans"] = top_spans(agg, roots, op_wall, timed.attempted)
        if trace_out:
            trace.write_chrome_trace(trace_out, spans)
    return record


# -- parent side ------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(name: str, seed: int, seconds: float, *, traced: bool = False,
          trace_out: str | None = None) -> dict:
    """Run *name* in a fresh pinned child process; returns its record."""
    require_source_tree()
    # scratch (socket, .ptrj file) stays inside the checkout: the driver
    # contract allows no write outside it
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    cmd = [sys.executable, "-m", "benchmarks.ledger", "child",
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0", "--workdir", workdir]
    if trace_out:
        cmd += ["--trace-out", os.path.abspath(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise LedgerError(
            f"workload {name!r} child exited with code {proc.returncode} "
            f"and no result record") from None
    record["child_exit_code"] = proc.returncode
    return record


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, text=True,
                             capture_output=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    """git sha + dirty flag (``None`` outside a git checkout)."""
    status = _git("status", "--porcelain")
    return {"sha": _git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def host_fingerprint() -> dict:
    """What must match for two result files to be comparable."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: "1" for var in THREAD_VARS},
    }


def new_result(seed: int, seconds: float) -> dict:
    return {"ledger_version": LEDGER_VERSION, "git": provenance(),
            "seed": seed, "seconds": seconds, "host": host_fingerprint(),
            "workloads": {}}
