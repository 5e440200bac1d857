"""The ledger's vocabulary: workload, metric and span names.

Later issues quote these names; ``BENCHMARK.json`` is generated from
them (``test_ledger.py`` checks the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass

#: The ``--seconds`` value the base op counts below are sized for (the
#: timed window of the longest workload on the 2-core reference box).
#: Run length is a fixed **op count** — ``--seconds S`` scales every
#: count by ``S / RUN_SECONDS``, it never reads the clock — so a run
#: does the same work on every commit and the cache counts repeat.
RUN_SECONDS = 20


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str                    # one line, copied into BENCHMARK.json
    ops: dict                   # base op counts at RUN_SECONDS
    root_span: tuple            # span names that are one timed op
    #: set-ups per run; ``setup_s`` is their median.  The sub-millisecond
    #: ones repeat until they have filled most of a second, because the
    #: host's speed flickers faster than that
    setup_repeats: int
    #: the kinds of work an op is mostly made of (``hostclock.KINDS``):
    #: what the host-speed samples of this workload time
    host_kinds: tuple


#: ISSUE 12's op counts (16 steps / 17 points / 300 rounds = 4800
#: requests / 10 000 frames + 3000 seeks), every one halved (17 / 2 rounds
#: up to 9), so 23 runs of each workload, set-up and correctness checks
#: included, fit the driver's time cap even when the host runs 40 % slow.
#: natoms, order, k-grid, strain step and client count are the issue's.
WORKLOADS = (
    WorkloadSpec(
        "md_linscale_si512",
        "warm 512-atom region-FOE MD steps: the linscale region recursion "
        "does almost all the work; service and trajio do nothing",
        {"steps": 8}, ("md.step",), 1, ("gemm",)),
    WorkloadSpec(
        "sweep_kfoe_si64",
        "64-atom k-sampled strain sweep: same region-FOE layer on complex "
        "H(k), common-mu solve, symmetry scatter, Verlet rebuilds, fused "
        "fallbacks",
        {"points": 9}, ("analysis.strain_sweep",), 2001, ("gemm",)),
    WorkloadSpec(
        "service_socket_si8",
        "closed loop, 2 socket clients on 16 resident 8-atom structures: "
        "protocol, queue and thread hand-off dominate; only dense diag path",
        {"rounds": 150}, ("service.client_rtt",), 5, ("python", "gemm")),
    WorkloadSpec(
        "traj_io_si512",
        "trajio only: 512-atom frames written, read back in 3 passes, then "
        "random seeks; writes beside reads, MD and service bypassed",
        {"frames": 5000, "seeks": 1500}, ("trajio.write", "trajio.read"), 301,
        ("zlib", "python")),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload(name: str) -> WorkloadSpec:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")


def scaled_ops(name: str, seconds: float) -> dict:
    """Op counts of *name* for a ``--seconds`` request (at least 2 each)."""
    scale = float(seconds) / RUN_SECONDS
    return {k: max(2, round(v * scale)) for k, v in workload(name).ops.items()}


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    bound: float                # share of the base it may worsen by
    driver_bound: float | None  # its BENCHMARK.json bound; None = not there


#: ISSUE 12's nine end-to-end metrics, by its definitions and with its
#: bounds (``compare`` judges by ``bound``), except that every time in
#: them is in reference-speed seconds (``hostclock.py``): the host's own
#: speed drift is measured during the run and divided out.
#:
#: ``driver_bound`` is what BENCHMARK.json carries.  Its contract takes
#: only rows that are defined and non-zero on every workload (so
#: ``fail_frac`` travels there as ``failed`` / ``attempted``, the three
#: ``traj_*`` rows as ``trajio.*`` per-layer metrics, and ``op_tail_ms``,
#: null on the two workloads with < 40 ops, as ``bench.traced_op_tail_ms``)
#: and refuses a benchmark whose ten-seed single-run spread exceeds the
#: bound.  On the reference box that spread still reaches 8-16 % in noisy
#: hours (README, "Noise floor") and the contract asks for three times
#: the spread, so the timing rows carry its ceiling there; ``setup_s`` is
#: given the largest, as the contract asks.
END_TO_END = (
    MetricSpec("setup_s", "s", "lower", 0.15, 0.25),
    MetricSpec("ops_per_s", "1/s", "higher", 0.10, 0.25),
    MetricSpec("op_p50_ms", "ms", "lower", 0.10, 0.25),
    MetricSpec("op_tail_ms", "ms", "lower", 0.25, None),
    MetricSpec("fail_frac", "ratio", "lower", 0.0, None),
    MetricSpec("peak_rss_mb", "MB", "lower", 0.05, 0.05),
    MetricSpec("traj_write_mb_per_s", "MB/s", "higher", 0.10, None),
    MetricSpec("traj_read_mb_per_s", "MB/s", "higher", 0.10, None),
    MetricSpec("traj_bytes_per_frame", "B", "lower", 0.01, None),
)

#: What BENCHMARK.json's ``end_to_end`` lists.
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.driver_bound is not None)

#: Span names, outside in.  Each yields ``<name>.calls`` and
#: ``<name>.self_s`` over the timed window (``service.queue_wait`` yields
#: ``.calls`` and ``.wait_s``: it is a wait, not a layer doing work).
SPAN_NAMES = (
    "md.step",
    "analysis.strain_sweep",
    "calc.compute",
    "neighbors.update",
    "linscale.hbuild",
    "linscale.regions",
    "linscale.gather_maps",
    "tb.lanczos",
    "linscale.solve_fused",
    "linscale.solve_two_pass",
    "linscale.backend.fused",
    "linscale.backend.moments",
    "linscale.backend.density_rows",
    "linscale.densify",
    "tb.mu_solve",
    "tb.cheb_coeffs",
    "linscale.band_forces",
    "tb.symmetrize",
    "tb.repulsive",
    "tb.build_hamiltonian",
    "tb.diagonalize",
    "tb.band_forces",
    "parallel.map_tasks",
    "service.client_rtt",
    "service.proto_encode",
    "service.proto_decode",
    "service.queue_wait",
    "service.submit_many",
    "service.worker_handle",
    "trajio.write",
    "trajio.encode_chunk",
    "trajio.read",
    "trajio.decode_chunk",
)

#: Spans whose self time inside the *set-up* is reported too
#: (``<name>.setup_self_s``): the ones predicted to move ``setup_s``.
SETUP_SPAN_NAMES = (
    "linscale.regions",
    "linscale.gather_maps",
    "tb.lanczos",
    "linscale.solve_two_pass",
)

#: Ratio / count metrics beside the span rows: (name, unit, better).
EXTRA_LAYER_METRICS = (
    ("neighbors.rebuild_frac", "ratio", "lower"),
    ("linscale.hbuild.value_update_frac", "ratio", "higher"),
    ("linscale.regions.reuse_frac", "ratio", "higher"),
    ("linscale.window.reuse_frac", "ratio", "higher"),
    ("linscale.fused_hit_frac", "ratio", "higher"),
    ("linscale.backend.flop_computed", "flop", "lower"),
    ("linscale.backend.gflop_per_s", "Gflop/s", "higher"),
    ("service.bytes_per_request", "B", "lower"),
    ("service.batch_size_mean", "count", "higher"),
    ("service.warm_frac", "ratio", "higher"),
    ("trajio.write_mb_per_s", "MB/s", "higher"),
    ("trajio.read_mb_per_s", "MB/s", "higher"),
    ("trajio.bytes_per_frame", "B", "lower"),
    ("trajio.compress_ratio", "ratio", "higher"),
    ("trajio.chunk_decodes_per_seek", "ratio", "lower"),
    ("bench.op_wall_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.attributed_frac", "ratio", "higher"),
    ("bench.traced_ops_per_s", "1/s", "higher"),
    ("bench.traced_op_tail_ms", "ms", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    rows: list[tuple[str, str, str]] = []
    for span in SPAN_NAMES:
        rows.append((f"{span}.calls", "count", "lower"))
        if span == "service.queue_wait":
            rows.append((f"{span}.wait_s", "s", "lower"))
        else:
            rows.append((f"{span}.self_s", "s", "lower"))
    rows.extend((f"{span}.setup_self_s", "s", "lower")
                for span in SETUP_SPAN_NAMES)
    rows.extend(EXTRA_LAYER_METRICS)
    return rows


def benchmark_json() -> dict:
    """The contents of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.ledger", "bench"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.driver_bound} for m in DRIVER_END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metrics()],
    }
