#!/usr/bin/env python
"""Re-derive ``bucketing.MAX_BUCKET_BYTES`` on this host.

Times the fused region pass (the warm MD step's kernel) on 128 of the
512 regions of the ledger's MD workload — 512-atom rattled diamond Si,
GSP model, kT = 0.35 eV, order 220, the six-row μ-Taylor stack — through
the per-region loop and through the batched backend at each candidate
byte cap, and prints the markdown tables ``docs/backends.md`` commits:
the cap scan, then the time per region per Chebyshev step of the loop
and of the default cap.  ``--complex`` scans one k point's complex
Hermitian blocks instead (the k-sampled sweep's shape), which the batched
backend stacks as their real symmetric embeddings, and times the real
Γ blocks of the same regions beside them, so one run prints real rows,
complex embedded and the loop per region-step.  Rounds are interleaved
and the best round is reported, which is what survives a shared host's
speed drift.  Run from the repo root (the host line is the perf ledger's
fingerprint)::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python -m tools.scan_bucket_cap --caps 0.5,1,1.5,2,4,48 --complex
"""

from __future__ import annotations

import argparse
from time import perf_counter

import numpy as np

from benchmarks.ledger.runner import host_fingerprint
from repro.bench import silicon_supercell
from repro.linscale.backends import (NumpyBatchedBackend, RegionBlockSource,
                                     get_backend)
from repro.linscale.foe_local import TAYLOR_ORDER, build_region_gather_maps
from repro.linscale.regions import extract_regions
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon
from repro.tb.chebyshev import fermi_mu_derivative_coefficients
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.kpoints import frac_to_cartesian
from repro.tb.purification import lanczos_spectral_bounds

MIB = 1024 * 1024
ORDER = 220


def fused_problem(atoms, model, nl, regions, k_cart):
    """``(blocks factory, center, span, deriv)`` for one H(k)."""
    H, _ = build_hamiltonian(atoms, model, nl, sparse=True, k_cart=k_cart)
    specs = [(r.orbitals, r.core_local) for r in regions]
    maps = build_region_gather_maps(H, regions)
    emin, emax = lanczos_spectral_bounds(H)
    center, span = 0.5 * (emax + emin), 0.55 * (emax - emin)
    deriv = fermi_mu_derivative_coefficients(center, span, 0.0, 0.35, ORDER,
                                             nderiv=TAYLOR_ORDER)
    return (lambda: RegionBlockSource(H, specs, gather_maps=maps),
            center, span, deriv)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--caps", default="0.5,1,1.5,2,4,48",
                    help="candidate caps in MiB, comma-separated")
    ap.add_argument("--r-loc", type=float, default=None,
                    help="localization radius (default 1.5 x cutoff)")
    ap.add_argument("--regions", type=int, default=128)
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--complex", action="store_true",
                    help="scan complex H(k) blocks at k = (1/4, 1/4, 1/4)")
    args = ap.parse_args(argv)

    model = GSPSilicon()
    atoms = silicon_supercell(4, rattle_amp=0.03, seed=12)
    nl = neighbor_list(atoms, model.cutoff)
    r_loc = args.r_loc or 1.5 * model.cutoff
    regions = extract_regions(atoms, model, r_loc,
                              neighbor_list(atoms, r_loc))[:args.regions]
    real = fused_problem(atoms, model, nl, regions, None)
    scanned = real
    if args.complex:
        k = frac_to_cartesian(np.full((1, 3), 0.25), atoms.cell)[0]
        scanned = fused_problem(atoms, model, nl, regions, k)
    kind = "complex" if args.complex else "real"

    # name -> (backend, problem); the step table reads the loop and the
    # default cap of each dtype
    loop, default = get_backend("numpy_loop"), NumpyBatchedBackend()
    runs = {"loop": (loop, scanned)}
    for cap in map(float, args.caps.split(",")):
        runs[f"{cap:g} MiB"] = (NumpyBatchedBackend(max_bytes=int(cap * MIB)),
                                scanned)
    steps = {f"loop ({kind})": "loop",
             f"{'embedded' if args.complex else 'rows'} ({kind})": "default"}
    runs["default"] = (default, scanned)
    if args.complex:
        runs["loop (real)"] = (loop, real)
        runs["rows (real)"] = (default, real)
        steps = {"loop (real)": "loop (real)", "rows (real)": "rows (real)",
                 **steps}
    best = dict.fromkeys(runs, np.inf)
    outs = {}
    for rnd in range(args.rounds):
        for name in (list(runs) if rnd % 2 == 0 else reversed(runs)):
            backend, (source, center, span, deriv) = runs[name]
            blocks = source()
            t0 = perf_counter()
            outs[name] = backend.fused(blocks, center, span, deriv)
            best[name] = min(best[name], perf_counter() - t0)

    host = host_fingerprint()
    blocks = scanned[0]()
    shapes = blocks.shapes()
    print(f"host: {host['cpu_model']} x{host['nproc']}, numpy "
          f"{host['numpy']}, {host['blas']}; {len(regions)} regions, "
          f"n <= {max(n for n, _ in shapes)}, {blocks.dtype}, "
          f"r_loc {r_loc:.2f} A, best of {args.rounds}\n")

    def oracle(name):
        return "loop (real)" if name in ("loop (real)", "rows (real)") \
            else "loop"

    def diff(name):
        return max(np.abs(a - b).max() for got, ref in
                   zip(outs[name], outs[oracle(name)])
                   for a, b in zip(got, ref))

    def vs_loop(name):
        return best[oracle(name)] / best[name]

    print("| cap | regions per stack | fused pass (s) | vs loop "
          "| max abs diff vs loop |")
    print("| --- | --- | --- | --- | --- |")
    for name, (backend, problem) in runs.items():
        if name == "default" or problem is not scanned:
            continue
        per = "1 (no stack)"
        if name != "loop":
            per = max(len(b) for b in backend.plan(blocks))
        print(f"| {name} | {per} | {best[name]:.3f} | "
              f"{vs_loop(name):.2f}x | {diff(name):.1e} |")
    nsteps = len(regions) * (ORDER + 1)
    print("\n| iterates | fused pass (s) | µs per region-step | vs loop "
          "| max abs diff vs loop |")
    print("| --- | --- | --- | --- | --- |")
    for label, name in steps.items():
        print(f"| {label} | {best[name]:.3f} | "
              f"{1e6 * best[name] / nsteps:.2f} | "
              f"{vs_loop(name):.2f}x | {diff(name):.1e} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
