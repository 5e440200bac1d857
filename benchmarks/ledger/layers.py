"""Which public callables carry which span name.

``install(tracer)`` patches every row; ``tracer.uninstall()`` undoes it.
The table is the README's layer table: change a name here and the
per-layer metric of the same name moves with it.
"""

from __future__ import annotations

from time import perf_counter

from benchmarks.ledger.trace import Tracer, resolve

#: span name -> dotted callables; ``starts_op`` rows open a new op id
#: when no enclosing span has one (one id per MD step / sweep point /
#: frame / seek; a request's id comes from its ``"id"`` field instead).
PLAIN = (
    ("md.step", True, ("repro.md.driver:MDDriver.run",)),
    ("analysis.strain_sweep", False,
     ("repro.analysis.strain_sweep:strain_sweep",)),
    ("calc.compute", True,
     ("repro.linscale.calculator:LinearScalingCalculator.compute",
      "repro.tb.calculator:TBCalculator.compute")),
    ("neighbors.update", False, ("repro.neighbors.verlet:VerletList.update",)),
    ("linscale.hbuild", False,
     ("repro.linscale.sparse_hamiltonian:SparseHamiltonianBuilder.build",
      "repro.linscale.sparse_hamiltonian:SparseHamiltonianBuilder.build_k")),
    ("linscale.regions", False, ("repro.linscale.regions:extract_regions",)),
    ("linscale.gather_maps", False,
     ("repro.linscale.foe_local:build_region_gather_maps",)),
    ("tb.lanczos", False,
     ("repro.tb.purification:lanczos_spectral_bounds",
      "repro.linscale.kfoe:spectral_windows_k")),
    ("linscale.solve_fused", False,
     ("repro.linscale.foe_local:solve_density_regions_fused",
      "repro.linscale.kfoe:solve_density_regions_k_fused")),
    ("linscale.solve_two_pass", False,
     ("repro.linscale.foe_local:solve_density_regions",
      "repro.linscale.kfoe:solve_density_regions_k")),
    ("linscale.densify", False,
     ("repro.linscale.backends.base:RegionBlockSource.get",)),
    ("tb.mu_solve", False,
     ("repro.tb.chebyshev:solve_mu_from_moments",
      "repro.tb.chebyshev:solve_mu_from_moments_multi",
      "repro.linscale.foe_local:chemical_potential_from_moments")),
    ("tb.cheb_coeffs", False,
     ("repro.tb.chebyshev:fermi_coefficients",
      "repro.tb.chebyshev:entropy_coefficients",
      "repro.tb.chebyshev:fermi_mu_derivative_coefficients")),
    ("linscale.band_forces", False,
     ("repro.linscale.foe_local:sparse_band_forces",
      "repro.linscale.kfoe:sparse_band_forces_k")),
    ("tb.symmetrize", False,
     ("repro.tb.symmetry:symmetrize_forces",
      "repro.tb.symmetry:symmetrize_virial",
      "repro.tb.symmetry:symmetrize_atom_scalars")),
    ("tb.repulsive", False, ("repro.tb.forces:repulsive_energy_forces",)),
    ("tb.build_hamiltonian", False,
     ("repro.tb.hamiltonian:build_hamiltonian",)),
    ("tb.band_forces", False,
     ("repro.tb.forces:density_matrices", "repro.tb.forces:band_forces")),
    ("parallel.map_tasks", False, ("repro.parallel.pool:map_tasks",)),
    ("trajio.write", True,
     ("repro.trajio.writer:TrajectoryWriter.write",
      "repro.trajio.writer:TrajectoryWriter.close")),
    ("trajio.encode_chunk", False,
     ("repro.trajio.format:encode_chunk", "repro.trajio.format:byte_shuffle")),
    # iter_frames yields through read(), so wrapping read covers both
    ("trajio.read", True, ("repro.trajio.reader:TrajectoryReader.read",)),
    ("trajio.decode_chunk", False,
     ("repro.trajio.format:decode_chunk",
      "repro.trajio.format:byte_unshuffle")),
)

#: the measured layers; the runner imports them before :func:`install`,
#: so every ``from x import f`` binding exists
CALLER_MODULES = (
    "repro.linscale.calculator", "repro.linscale.foe_local",
    "repro.linscale.kfoe", "repro.tb.calculator", "repro.tb.chebyshev",
    "repro.service.service", "repro.service.server", "repro.service.worker",
    "repro.service.client", "repro.analysis", "repro.md", "repro.trajio",
)


def _id_ops(msg) -> tuple:
    """The op id a protocol message carries (``()`` when it has none)."""
    if isinstance(msg, dict) and msg.get("id") is not None:
        return (msg["id"],)
    return ()


def _first_arg_ops(args, _kwargs) -> tuple:
    return _id_ops(args[0])


def _batch_ops(args, _kwargs) -> tuple:
    """Ids of a ``(self, requests)`` batch call."""
    return tuple(op for req in args[1] for op in _id_ops(req))


def _request_ops(args, _kwargs) -> tuple:
    """Id of a ``(self, request)`` call."""
    return _id_ops(args[1])


def _bytes_out(span, _args, result) -> None:
    span.value = float(len(result))


def _bytes_in(span, args, result) -> None:
    """``loads(line)``: payload size, and the op id once it is decoded."""
    span.value = float(len(args[0]))
    if not span.ops:
        span.ops = _id_ops(result)


def _region_flop(span, args, _result) -> None:
    """Computed (not measured) flop of one backend call, from the region
    shapes: ``order`` recursion GEMMs of (n x n)(n x n_core) plus the
    per-order accumulations, x4 for complex H(k) blocks."""
    blocks, coeffs = args[1], args[4]
    if isinstance(coeffs, int):
        order, stacks = coeffs, 1
    elif coeffs.ndim == 2:
        order, stacks = coeffs.shape[1] - 1, coeffs.shape[0]
    else:
        order, stacks = len(coeffs) - 1, 1
    per_order = sum(2 * n * n * nc + 2 * (stacks + 1) * n * nc
                    for n, nc in blocks.shapes())
    span.value = float(order * per_order * (4 if blocks.dtype.kind == "c" else 1))


def install(tracer: Tracer) -> str:
    """Patch every traced callable; returns the resolved backend name."""
    for name, starts_op, targets in PLAIN:
        for dotted in targets:
            tracer.patch_callable(dotted, name, starts_op=starts_op)

    # the three Backend methods of whatever backend the default resolves to
    from repro.linscale.backends import resolve_backend

    backend = resolve_backend(None)
    cls = type(backend)
    for method in ("fused", "moments", "density_rows"):
        tracer.patch(cls, method, tracer.wrap(
            getattr(cls, method), f"linscale.backend.{method}",
            after=_region_flop))

    # the eigensolver is handed out by get_solver() at calculator
    # construction: wrap what it returns
    get_solver = resolve("repro.tb.eigensolvers:get_solver")[2]
    traced_solvers: dict = {}

    def traced_get_solver(solver_name):
        if solver_name not in traced_solvers:
            traced_solvers[solver_name] = tracer.wrap(
                get_solver(solver_name), "tb.diagonalize")
        return traced_solvers[solver_name]

    for owner, attr in tracer.holders(get_solver):
        tracer.patch(owner, attr, traced_get_solver)

    # -- service: ops come from the request id, not from a stack ----------
    tracer.patch_callable("repro.service.client:SocketClient.request_many",
                          "service.client_rtt", starts_op=True,
                          ops_of=_batch_ops)
    tracer.patch_callable("repro.service.protocol:dumps",
                          "service.proto_encode", ops_of=_first_arg_ops,
                          after=_bytes_out)
    tracer.patch_callable("repro.service.protocol:loads",
                          "service.proto_decode", after=_bytes_in)
    tracer.patch_callable("repro.service.protocol:validate_request",
                          "service.proto_decode", ops_of=_first_arg_ops)
    tracer.patch_callable("repro.service.protocol:as_positions",
                          "service.proto_decode")
    tracer.patch_callable("repro.service.service:BatchService.submit_many",
                          "service.submit_many", ops_of=_batch_ops)
    tracer.patch_callable("repro.service.worker:Worker.handle",
                          "service.worker_handle",
                          ops_of=_request_ops)

    # queue wait: put() on a reader thread -> the get_batch() on the
    # dispatcher thread that returns the item
    queue_cls, _, put = resolve("repro.service.batcher:CoalescingQueue.put")
    get_batch = resolve("repro.service.batcher:CoalescingQueue.get_batch")[2]
    pending: dict = {}

    def traced_put(self, item):
        if tracer.phase is not None:
            pending[id(item)] = (perf_counter(), _id_ops(item[0]), tracer.phase)
        return put(self, item)

    def traced_get_batch(self, *args, **kwargs):
        batch = get_batch(self, *args, **kwargs)
        if batch and pending:
            now = perf_counter()
            for item in batch:
                rec = pending.pop(id(item), None)
                if rec is not None:
                    tracer.record("service.queue_wait", "put..get_batch",
                                  rec[0], now, rec[1], rec[2])
        return batch

    tracer.patch(queue_cls, "put", traced_put)
    tracer.patch(queue_cls, "get_batch", traced_get_batch)
    return backend.name
