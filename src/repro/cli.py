"""Command-line interface: energy, relaxation, MD and the batch service.

A thin operational wrapper so downstream users can drive the engine
without writing Python::

    python -m repro.cli models
    python -m repro.cli energy  structure.xyz --model gsp-si
    python -m repro.cli energy  structure.xyz --solver linscale --r-loc 6 \
                                --kt 0.1 --order 200
    python -m repro.cli energy  metal.xyz --solver linscale --kgrid 4x4x4 \
                                --kt 0.2 --order 300
    python -m repro.cli sweep   si8.xyz --kgrid 4x4x4 --kgrid-reduce symmetry \
                                --amplitude 0.06 --npoints 9 --fit birch
    python -m repro.cli relax   structure.xyz --model xu-c --fmax 0.02 -o out.xyz
    python -m repro.cli md      structure.xyz --steps 500 --temperature 1000 \
                                --thermostat nose-hoover --traj run.xyz
    python -m repro.cli campaign matrix.toml -o results.jsonl --sqlite results.sqlite
    python -m repro.cli campaign --quick
    python -m repro.cli serve   --socket /tmp/pytbmd.sock --workers 2
    python -m repro.cli client  --socket /tmp/pytbmd.sock load si.xyz --id si
    python -m repro.cli client  --socket /tmp/pytbmd.sock eval --id si

``--solver`` picks the electronic engine: ``diag`` (exact, O(N³)),
``purification`` / ``foe`` (dense density-matrix kernels), or
``linscale`` — the O(N) Fermi-operator-in-localization-regions path.
``--kgrid n1xn2xn3`` switches ``diag`` and ``linscale`` to Monkhorst–Pack
k sampling (energies *and* forces, so MD/relax work) — the small-cell
metal mode; ``--kgrid-reduce symmetry`` folds the crystal point group
into an irreducible wedge on top of the time-reversal reduction (see
docs/symmetry.md).  ``sweep`` walks a strain path with one warm
calculator and fits an equation of state (docs/symmetry.md has the
tutorial).

``campaign`` expands a TOML/JSON (structure × scenario × params) matrix
and runs every cell through the batch service into one queryable
JSONL/SQLite artifact (scenario registry, matrix format and artifact
schema: docs/campaigns.md).  ``serve`` starts the long-lived
multi-structure batch service (resident calculator workers, sticky
per-structure routing — see docs/service.md); ``client`` talks to a
running server over its Unix socket.

Observability (docs/observability.md): ``--trace out.jsonl`` records a
hierarchical span trace (``out.json`` → Chrome trace-event format for
Perfetto), ``--metrics out.json`` dumps the counter/histogram registry
at exit, and the global ``-v`` / ``--log-level`` flags route structured
diagnostics to stderr.  ``tools/trace_report.py`` turns a JSONL trace
into the SC'94-style phase/cache-efficiency table.

Models: ``gsp-si``, ``xu-c``, ``harrison``, ``nonortho-si`` (tight
binding) and ``sw-si`` (classical Stillinger–Weber baseline).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import nullcontext

from repro.errors import ReproError


def _obs_begin(args) -> None:
    """Turn on tracing/metrics before a command runs (``--trace`` /
    ``--metrics``)."""
    if getattr(args, "trace", None):
        from repro import obs

        obs.enable_tracing()
        obs.enable_metrics()  # traces embed the metrics snapshot
    elif getattr(args, "metrics_out", None):
        from repro import obs

        obs.enable_metrics()


def _obs_finish(args) -> None:
    """Write trace/metrics files after a command (also on error, so a
    crashed run still leaves its telemetry behind)."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics_out", None)
    if not trace and not metrics:
        return
    from repro.obs.export import write_metrics_json, write_trace

    if trace:
        n = write_trace(trace)
        kind = "trace events" if str(trace).endswith(".json") else "spans"
        print(f"wrote {n} {kind} to {trace}", file=sys.stderr)
    if metrics:
        write_metrics_json(metrics)
        print(f"wrote metrics snapshot to {metrics}", file=sys.stderr)


def _calc_spec(args) -> dict:
    """Calculator spec dict from the flags ``add_calc_flags`` generated.

    Only flags the user gave are included — absent keys fall through to
    :class:`repro.calculators.CalculatorSpec`'s own defaults, which stay
    the single source of truth.
    """
    from repro.calculators import CalculatorSpec

    return {name: getattr(args, name) for name in CalculatorSpec.field_names()
            if getattr(args, name, None) is not None}


def _make_calculator(args):
    from repro.calculators import make_calculator

    return make_calculator(_calc_spec(args))


def cmd_models(_args) -> int:
    from repro.calculators import CLASSICAL_MODELS, TB_MODELS

    print(f"tight-binding models: {', '.join(TB_MODELS)}")
    print(f"classical baselines : {', '.join(CLASSICAL_MODELS)} "
          "(Stillinger-Weber)")
    return 0


def cmd_energy(args) -> int:
    from repro.utils.timing import tick

    from repro.geometry import read_xyz

    atoms = read_xyz(args.structure)
    calc = _make_calculator(args)
    t0 = tick()
    res = calc.compute(atoms, forces=True)
    seconds = tick() - t0
    print(f"atoms            : {len(atoms)}")
    print(f"energy           : {res['energy']:.6f} eV "
          f"({res['energy'] / len(atoms):.6f} eV/atom)")
    if "gap" in res:
        print(f"HOMO-LUMO gap    : {res['gap']:.4f} eV")
    if "n_regions" in res:
        stats = res["region_stats"]
        print(f"O(N) regions     : {res['n_regions']} "
              f"(max {stats['atoms_max']} atoms), order {res['order']}, "
              f"r_loc {res['r_loc']:.2f} Å")
    if "n_kpoints" in res:
        folding = {"trs": "time-reversal reduced", "full": "unreduced",
                   "symmetry": "point-group irreducible wedge"}[
            calc.kgrid_reduce]
        print(f"k-points         : {res['n_kpoints']} "
              f"(Monkhorst-Pack, {folding})")
    import numpy as np

    print(f"max |force|      : {np.abs(res['forces']).max():.6f} eV/Å")
    if "pressure_gpa" in res:
        print(f"pressure         : {res['pressure_gpa']:.4f} GPa")
    if args.json:
        value = {"natoms": len(atoms), "energy": res["energy"],
                 "free_energy": res.get("free_energy", res["energy"]),
                 "max_force": float(np.abs(res["forces"]).max())}
        for key in ("gap", "fermi_level", "pressure_gpa"):
            if key in res:
                value[key] = res[key]
        _result_json(args.json, value, timings={"seconds": seconds})
    return 0


def cmd_relax(args) -> int:
    from repro.geometry import read_xyz, write_xyz
    from repro.relax import RELAXERS

    atoms = read_xyz(args.structure)
    calc = _make_calculator(args)
    res = RELAXERS[args.method](atoms, calc, fmax=args.fmax,
                                max_steps=args.max_steps)
    print(res)
    if args.output:
        write_xyz(args.output, atoms,
                  comment=f"relaxed E={res.energy:.6f} fmax={res.fmax:.2e}")
        print(f"wrote {args.output}")
    return 0 if res.converged else 2


def cmd_md(args) -> int:
    from repro.geometry import read_xyz
    from repro.md import (
        THERMOSTATS, MDDriver, ThermoLog, maxwell_boltzmann_velocities,
    )
    from repro.md.observers import ProgressPrinter, TrajectoryObserver

    atoms = read_xyz(args.structure)
    calc = _make_calculator(args)
    if args.temperature > 0:
        maxwell_boltzmann_velocities(atoms, args.temperature, seed=args.seed)
    integ = THERMOSTATS[args.thermostat](args.dt, args.temperature, args.seed)

    log = ThermoLog()
    observers: list = [log, (ProgressPrinter(), max(1, args.steps // 20))]
    with (TrajectoryObserver(args.traj) if args.traj
          else nullcontext()) as traj_observer:
        if traj_observer is not None:
            observers.append((traj_observer, args.traj_interval))
        md = MDDriver(atoms, calc, integ, observers=observers)
        md.run(args.steps)
    print(f"\nconserved-quantity drift: {log.conserved_drift():.3e}")
    if args.traj:
        print(f"trajectory written to {args.traj}")
    return 0


def cmd_sweep(args) -> int:
    from repro.utils.timing import tick

    from repro.analysis import strain_sweep, sweep_amplitudes
    from repro.geometry import read_xyz
    from repro.trajio import open_writer

    atoms = read_xyz(args.structure)
    calc = _make_calculator(args)
    amplitudes = sweep_amplitudes(args.amplitude, args.npoints)
    fit = None if args.fit == "none" else args.fit
    t0 = tick()
    with (open_writer(args.traj) if args.traj
          else nullcontext()) as traj_writer:
        res = strain_sweep(atoms, calc, amplitudes, mode=args.mode,
                           axis=args.axis, forces=args.forces, fit=fit,
                           energy_ref=args.eref, traj_writer=traj_writer)
    seconds = tick() - t0
    if args.traj:
        print(f"strained geometries written to {args.traj}")
    print(f"{args.mode} strain sweep: {len(res.points)} points, "
          f"{res.natoms} atoms")
    header = f"{'ε':>9} {'V (Å³/at)':>11} {'E (eV/at)':>12}"
    if args.forces:
        header += f" {'max|F|':>10} {'P (GPa)':>10}"
    print(header)
    for p in res.points:
        line = f"{p.amplitude:9.4f} {p.volume:11.4f} {p.energy:12.6f}"
        if args.forces:
            line += (f" {p.max_force:10.4f}"
                     f" {p.pressure_gpa if p.pressure_gpa is not None else float('nan'):10.3f}")
        print(line)
    if res.eos is not None:
        print(f"{res.eos.form} fit  : V0 = {res.eos.v0:.4f} Å³/atom, "
              f"E0 = {res.eos.e0:.6f} eV/atom, "
              f"B0 = {res.eos.b0_gpa:.2f} GPa (B0' = {res.eos.b0_prime:.3f}, "
              f"rms {res.eos.residual:.2e})")
    rep = res.calc_report or {}
    foe = rep.get("foe")
    if foe:
        print(f"state reuse      : {foe['fused']} fused + "
              f"{foe['fallback']} fused-with-fallback / {foe['cold']} "
              f"two-pass solves, "
              f"{rep['hamiltonian']['pattern_builds']} pattern builds")
    if args.json:
        metrics = None
        if foe:
            metrics = {"fused": foe["fused"], "fallback": foe["fallback"],
                       "cold": foe["cold"]}
        _result_json(args.json, res.as_dict(),
                     timings={"seconds": seconds}, metrics=metrics)
    return 0


def _result_json(path, value, *, timings=None, metrics=None,
                 error=None) -> None:
    """Write a CLI command's ``--json`` output as the same
    :class:`~repro.service.protocol.Result` envelope the service
    speaks — one shape for every machine-readable payload (the
    campaign store ingests either source unchanged)."""
    from repro.service import protocol

    if error is not None:
        res = protocol.Result.failure(error)
    else:
        res = protocol.Result.success(value, timings=timings,
                                      metrics=metrics)
    with open(path, "wb") as fh:
        fh.write(protocol.dumps(res))
    print(f"wrote {path}")


def cmd_campaign(args) -> int:
    from repro.utils.timing import tick

    from repro import scenarios
    from repro.scenarios import store

    if args.list_scenarios:
        for name in scenarios.available_scenarios():
            sc = scenarios.get_scenario(name)
            print(f"{name:12s} [{', '.join(sc.tags)}] {sc.description}")
            for p in sc.describe_params():
                extra = (f" one of {p['choices']}" if p["choices"] else "")
                print(f"    {p['name']:18s} {p['type']:6s} "
                      f"default={p['default']!r}{extra}  {p['doc']}")
        return 0
    if args.matrix:
        spec = scenarios.load_campaign_spec(args.matrix)
    elif args.quick:
        spec = scenarios.CampaignSpec.from_dict(scenarios.QUICK_MATRIX)
    else:
        raise ReproError("campaign needs a matrix file (or --quick for "
                         "the built-in smoke matrix)")
    cells = scenarios.expand_matrix(spec)
    print(f"campaign {spec.name!r}: {len(cells)} cells "
          f"({len(spec.structures)} structures x "
          f"{len(spec.scenarios)} scenario entries)")
    t0 = tick()
    if args.socket:
        from repro.service import SocketClient

        with SocketClient(args.socket) as client:
            run = scenarios.run_campaign(spec, client=client,
                                         nworkers=args.nworkers, log=print,
                                         traj_dir=args.traj_dir)
    else:
        run = scenarios.run_campaign(spec, nworkers=args.nworkers,
                                     service_workers=args.service_workers,
                                     log=print, traj_dir=args.traj_dir)
    counts = run.counts
    print(f"{counts['ok']}/{counts['total']} cells ok"
          + (f", {counts['failed']} failed" if counts["failed"] else "")
          + f" in {tick() - t0:.2f}s")
    store.write_jsonl(args.output, run)
    print(f"wrote {args.output}")
    if args.sqlite:
        store.write_sqlite(args.sqlite, run)
        print(f"wrote {args.sqlite}")
    return 1 if (args.strict and counts["failed"]) else 0


def cmd_serve(args) -> int:
    from repro.service import BatchService, UnixSocketServer

    budget = None
    if args.memory_budget_mb is not None:
        budget = int(args.memory_budget_mb * 1024 * 1024)
    service = BatchService(nworkers=args.workers,
                           memory_budget_bytes=budget,
                           debug_ops=args.debug_ops)
    server = UnixSocketServer(service, args.socket,
                              batch_window_s=args.batch_window_ms / 1e3,
                              max_batch=args.max_batch)
    server.start()
    print(f"batch service listening on {args.socket} "
          f"({args.workers} worker{'s' if args.workers != 1 else ''}"
          f"{', debug ops ON' if args.debug_ops else ''})")
    print("stop with Ctrl-C or a client 'shutdown' request")
    server.serve_forever()
    print("drained and stopped")
    return 0


def cmd_client(args) -> int:
    from repro.service import SocketClient

    with SocketClient(args.socket) as client:
        action = args.action
        if action == "ping":
            print("pong" if client.ping() else "no pong")
            return 0
        if action == "load":
            from repro.geometry import read_xyz

            atoms = read_xyz(args.structure)
            resp = client.load(args.id, atoms, calc=_calc_spec(args))
            print(f"loaded {resp['structure_id']} ({resp['natoms']} atoms) "
                  f"on worker {resp['worker']} [{resp['calculator']}]")
            return 0
        if action == "eval":
            positions = None
            if args.positions_from:
                from repro.geometry import read_xyz

                positions = read_xyz(args.positions_from).positions
            resp = client.evaluate(args.id, positions=positions,
                                   forces=args.forces)
            print(f"energy           : {resp['energy']:.6f} eV "
                  f"({resp['energy'] / resp['natoms']:.6f} eV/atom)")
            print(f"state reuse      : {'warm' if resp['warm'] else 'cold'} "
                  f"(worker {resp['worker']})")
            if args.forces:
                import numpy as np

                print(f"max |force|      : "
                      f"{np.abs(resp['forces']).max():.6f} eV/Å")
            return 0
        if action == "unload":
            client.unload(args.id)
            print(f"unloaded {args.id}")
            return 0
        if action == "list":
            for sid in client.list_structures():
                print(sid)
            return 0
        if action == "stats":
            print(json.dumps(client.stats(), indent=2))
            return 0
        if action == "metrics":
            print(json.dumps(client.metrics(), indent=2))
            return 0
        if action == "shutdown":
            client.shutdown()
            print("server draining")
            return 0
    raise ReproError(f"unknown client action {args.action!r}")  # pragma: no cover


def build_parser() -> argparse.ArgumentParser:
    from repro.calculators import CalculatorSpec
    from repro.md import THERMOSTATS
    from repro.relax import RELAXERS

    p = argparse.ArgumentParser(
        prog="repro.cli",
        description="parallel tight-binding molecular dynamics (pytbmd)")
    p.add_argument("--log-level", default=None,
                   choices=["debug", "info", "warning", "error"],
                   help="diagnostic logging threshold (stderr)")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="increase log verbosity (-v info, -vv debug)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list available models")

    def add_calc_flags(sp, skip=()):
        """One flag per :class:`CalculatorSpec` field that declares
        ``cli`` metadata: ``--<field name>``, default absent
        (``_calc_spec`` reads them back)."""
        for f in dataclasses.fields(CalculatorSpec):
            kw = dict(f.metadata.get("cli", {}))
            if not kw or f.name in skip:
                continue
            flag = kw.pop("flag", "--" + f.name.lower().replace("_", "-"))
            sp.add_argument(flag, dest=f.name, default=None, **kw)

    def add_common(sp):
        sp.add_argument("structure", help="input (extended-)XYZ file")
        add_calc_flags(sp)
        sp.add_argument("--trace", metavar="PATH",
                        help="record a span trace of the run: *.jsonl for "
                             "tools/trace_report.py, *.json for the Chrome "
                             "trace-event format (open in Perfetto)")
        sp.add_argument("--metrics", metavar="PATH", dest="metrics_out",
                        help="write the repro.obs metrics snapshot (cache "
                             "hit rates, phase timings, ...) as JSON at "
                             "exit")

    pe = sub.add_parser("energy", help="single-point energy and forces")
    add_common(pe)
    pe.add_argument("--json",
                    help="write the result as a Result-envelope JSON file")

    pr = sub.add_parser("relax", help="structural relaxation")
    add_common(pr)
    pr.add_argument("--method", default="cg", choices=list(RELAXERS))
    pr.add_argument("--fmax", type=float, default=0.05)
    pr.add_argument("--max-steps", type=int, default=500)
    pr.add_argument("-o", "--output", help="write relaxed structure here")

    pm = sub.add_parser("md", help="molecular dynamics")
    add_common(pm)
    pm.add_argument("--steps", type=int, default=100)
    pm.add_argument("--dt", type=float, default=1.0)
    pm.add_argument("--temperature", type=float, default=300.0)
    pm.add_argument("--thermostat", default="none", choices=list(THERMOSTATS))
    pm.add_argument("--seed", type=int, default=42)
    pm.add_argument("--traj",
                    help="write the trajectory here (a .ptrj suffix "
                         "selects the chunked binary format, anything "
                         "else extended-XYZ text)")
    pm.add_argument("--traj-interval", type=int, default=10)

    pw = sub.add_parser(
        "sweep", help="strain sweep / equation-of-state fit")
    add_common(pw)
    pw.add_argument("--mode", default="volumetric",
                    choices=["volumetric", "uniaxial", "shear"],
                    help="strain path (volumetric fits an EOS by default)")
    pw.add_argument("--axis", type=int, default=2, choices=[0, 1, 2],
                    help="strained axis (uniaxial/shear)")
    pw.add_argument("--amplitude", type=float, default=0.04,
                    help="max |strain| of the path (linear, not volume)")
    pw.add_argument("--npoints", type=int, default=9,
                    help="strain points across ±amplitude")
    pw.add_argument("--fit", default="birch",
                    choices=["birch", "murnaghan", "none"],
                    help="EOS form fitted to E(V)")
    pw.add_argument("--eref", type=float, default=0.0,
                    help="per-atom energy reference subtracted before "
                         "the fit (free-atom reference → cohesive energy)")
    pw.add_argument("--forces", action="store_true",
                    help="also compute forces and pressure per point")
    pw.add_argument("--json", help="write points + fit as a "
                                   "Result-envelope JSON file")
    pw.add_argument("--traj", metavar="PATH",
                    help="record every strained geometry here (codec by "
                         "suffix, as for md --traj)")

    pca = sub.add_parser(
        "campaign",
        help="expand and run a (structure x scenario x params) matrix")
    pca.add_argument("matrix", nargs="?",
                     help="TOML or JSON campaign matrix (docs/campaigns.md)")
    pca.add_argument("--quick", action="store_true",
                     help="run the built-in 2-structure x 2-scenario "
                          "smoke matrix (no matrix file needed)")
    pca.add_argument("-o", "--output", default="campaign.jsonl",
                     help="JSONL artifact path (default campaign.jsonl)")
    pca.add_argument("--sqlite", metavar="PATH",
                     help="also write/append a SQLite artifact")
    pca.add_argument("--nworkers", type=int, default=1,
                     help="campaign-level cell fan-out (thread pool over "
                          "the batch service)")
    pca.add_argument("--service-workers", type=int, default=2,
                     dest="service_workers",
                     help="resident workers of the private in-process "
                          "service (ignored with --socket)")
    pca.add_argument("--socket", default=None,
                     help="run against a live 'repro.cli serve' server "
                          "instead of a private in-process service")
    pca.add_argument("--traj-dir", default=None, dest="traj_dir",
                     metavar="DIR",
                     help="persist scenario trajectories as .ptrj files "
                          "here; rows then carry a traj_ref (see "
                          "repro.scenarios.store.resolve_traj_ref)")
    pca.add_argument("--strict", action="store_true",
                     help="exit 1 if any cell failed (default: failures "
                          "are recorded in the artifact, exit 0)")
    pca.add_argument("--list-scenarios", action="store_true",
                     dest="list_scenarios",
                     help="list registered scenarios and their parameter "
                          "schemas, then exit")
    pca.add_argument("--trace", metavar="PATH",
                     help="record a span trace of the campaign (*.jsonl "
                          "or *.json for Perfetto)")
    pca.add_argument("--metrics", metavar="PATH", dest="metrics_out",
                     help="write the repro.obs metrics snapshot as JSON "
                          "at exit")

    ps = sub.add_parser(
        "serve", help="run the multi-structure batch service")
    ps.add_argument("--socket", default="/tmp/pytbmd.sock",
                    help="Unix socket path to listen on")
    ps.add_argument("--workers", type=int, default=1,
                    help="resident calculator workers (structures are "
                         "sticky-routed across them)")
    ps.add_argument("--memory-budget-mb", type=float, default=None,
                    help="evict least-recently-used calculator state "
                         "beyond this budget (MB); default unlimited")
    ps.add_argument("--batch-window-ms", type=float, default=2.0,
                    help="upper bound on the request-coalescing wait "
                         "(a batch closes earlier once every open "
                         "connection has a request in it)")
    ps.add_argument("--max-batch", type=int, default=64,
                    help="cap on one coalesced batch")
    ps.add_argument("--debug-ops", action="store_true",
                    help="honour debug_crash fault injection (tests)")
    ps.add_argument("--trace", metavar="PATH",
                    help="record a span trace of every request handled "
                         "until shutdown: *.jsonl or *.json (Perfetto)")
    ps.add_argument("--metrics", metavar="PATH", dest="metrics_out",
                    help="write the service-process metrics snapshot as "
                         "JSON when the server drains (the live registry "
                         "is available any time via the 'metrics' op)")

    pc = sub.add_parser("client", help="talk to a running batch service")
    pc.add_argument("--socket", default="/tmp/pytbmd.sock")
    ca = pc.add_subparsers(dest="action", required=True)
    cl = ca.add_parser("load", help="register a structure")
    cl.add_argument("structure", help="input (extended-)XYZ file")
    cl.add_argument("--id", required=True, help="structure id")
    # the flag set `client load` has always had
    add_calc_flags(cl, skip=("nworkers", "reuse"))
    ce = ca.add_parser("eval", help="energy/forces of a loaded structure")
    ce.add_argument("--id", required=True)
    ce.add_argument("--forces", action="store_true")
    ce.add_argument("--positions-from",
                    help="XYZ file whose positions update the resident "
                         "structure before evaluating")
    cu = ca.add_parser("unload", help="drop a structure")
    cu.add_argument("--id", required=True)
    ca.add_parser("list", help="list loaded structure ids")
    ca.add_parser("stats", help="service statistics (JSON)")
    ca.add_parser("metrics",
                  help="stats plus the server's obs metrics registry (JSON)")
    ca.add_parser("ping", help="liveness probe")
    ca.add_parser("shutdown", help="drain and stop the server")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None or args.verbose:
        from repro.log import (
            level_from_verbosity, parse_level, setup_logging,
        )

        level = (parse_level(args.log_level) if args.log_level is not None
                 else level_from_verbosity(args.verbose))
        setup_logging(level)
    handler = {
        "models": cmd_models,
        "energy": cmd_energy,
        "relax": cmd_relax,
        "md": cmd_md,
        "sweep": cmd_sweep,
        "campaign": cmd_campaign,
        "serve": cmd_serve,
        "client": cmd_client,
    }[args.command]
    _obs_begin(args)
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _obs_finish(args)


if __name__ == "__main__":
    raise SystemExit(main())
