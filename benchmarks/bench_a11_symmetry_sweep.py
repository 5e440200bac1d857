"""A11 — symmetry-reduced k wedges and the warm strain-sweep driver.

The acceptance contract of the symmetry subsystem, measured on the
8-atom conventional diamond-Si cell:

1. **wedge reduction** — the crystal-point-group fold of a 4×4×4
   Monkhorst–Pack grid must use ≤ 1/6 the k points of the
   time-reversal-only grid (O_h actually delivers 32 → 4, i.e. 8×, and
   16× against the raw grid);
2. **parity** — energies and forces on the wedge must match the *full*
   grid to ≤ 1e-6 eV/Å on both the exact-diagonalisation and the
   region-FOE solvers (the diag identity holds to round-off; the FOE
   comparison also absorbs its own truncation at matched settings);
3. **warm sweep** — the persistent-state strain-sweep driver
   (:func:`repro.analysis.strain_sweep.strain_sweep`) must be ≥ 1.3×
   faster per steady-state point than cold per-point rebuilds
   (``reuse=False``) on the linscale engine, while agreeing
   point-for-point to 1e-6.  Measured on a 16-atom diamond supercell,
   where the region recursion (what the fused warm solve halves)
   dominates the per-point cost; the warm sweep's first point is its
   one unavoidable cold start and is excluded from the steady state.

``--quick`` shrinks the grid/order and disables the performance
assertions (CI smoke mode).
"""

import time

import numpy as np

from repro.analysis import strain_sweep
from repro.bench import print_table
from repro.geometry import bulk_silicon, supercell
from repro.linscale import LinearScalingCalculator
from repro.tb import GSPSilicon, TBCalculator
from repro.tb.kpoints import monkhorst_pack
from repro.tb.symmetry import crystal_symmetry_ops, irreducible_kpoints

KT = 0.2
KGRID = 4
ORDER = 300
R_LOC = 6.0
SWEEP_KGRID = 2                 # on the 16-atom sweep cell
SWEEP_AMPS = np.linspace(-0.02, 0.02, 9)
FORCE_TOL = 1e-6
SWEEP_SPEEDUP_MIN = 1.3

QUICK_KGRID = 2
QUICK_ORDER = 120
#: five points 1 % apart: the warm walk's extrapolated μ misses by
#: several meV per point on the 16-atom cell, so the smoke run lands on
#: the fused path only while the μ-Taylor radius absorbs that — the
#: count CI gates (tools/check_metrics.py --min-fused-hit)
QUICK_AMPS = np.linspace(-0.02, 0.02, 5)


def _wedge_table(kgrid):
    at = bulk_silicon()
    full, _ = monkhorst_pack(kgrid, reduce_time_reversal=False)
    trs, _ = monkhorst_pack(kgrid, reduce_time_reversal=True)
    ops = crystal_symmetry_ops(at)
    wedge = irreducible_kpoints(kgrid, atoms=at, ops=ops)
    return at, len(full), len(trs), len(wedge), len(ops)


def _parity_rows(at, kgrid, order):
    rows = []
    ref = TBCalculator(GSPSilicon(), kpts=kgrid, kT=KT,
                       kgrid_reduce="full").compute(at, forces=True)
    for solver, make in (
        ("diag", lambda red: TBCalculator(GSPSilicon(), kpts=kgrid, kT=KT,
                                          kgrid_reduce=red)),
        ("linscale", lambda red: LinearScalingCalculator(
            GSPSilicon(), kT=KT, r_loc=R_LOC, order=order, kpts=kgrid,
            kgrid_reduce=red)),
    ):
        res = make("symmetry").compute(at, forces=True)
        rows.append([solver, ref["n_kpoints"], res["n_kpoints"],
                     abs(res["energy"] - ref["energy"]) / len(at),
                     np.abs(res["forces"] - ref["forces"]).max()])
    return rows


def _sweep_cell():
    return supercell(bulk_silicon(), (1, 1, 2))      # 16 atoms


def _timed_sweep(reuse, order, amps):
    calc = LinearScalingCalculator(GSPSilicon(), kT=KT, r_loc=R_LOC,
                                   order=order, kpts=SWEEP_KGRID,
                                   kgrid_reduce="symmetry", reuse=reuse)
    t0 = time.perf_counter()
    res = strain_sweep(_sweep_cell(), calc, amps, fit=None, forces=True)
    dt = time.perf_counter() - t0
    report = calc.state_report()
    calc.close()
    return dt, res, report


def _steady_point_time(result, reuse):
    """Median per-point wall time; the warm sweep's first point is its
    one unavoidable cold start and is excluded from the steady state."""
    times = [p.seconds for p in result.points]
    if reuse and len(times) > 1:
        times = times[1:]
    return float(np.median(times))


def test_a11_symmetry_wedge_and_sweep(benchmark, quick):
    kgrid = QUICK_KGRID if quick else KGRID
    order = QUICK_ORDER if quick else ORDER
    amps = QUICK_AMPS if quick else SWEEP_AMPS

    at, n_full, n_trs, n_wedge, n_ops = _wedge_table(kgrid)
    rows = _parity_rows(at, kgrid, order)
    print_table(
        f"A11a: symmetry parity on 8-atom diamond Si "
        f"({kgrid}³ MP, {n_ops} ops, kT={KT} eV, order={order})",
        ["solver", "n_k full", "n_k wedge", "|ΔE|/atom (eV)",
         "max |ΔF| (eV/Å)"],
        rows, float_fmt="{:.3g}")
    print(f"  grid sizes: full {n_full}, TRS {n_trs}, wedge {n_wedge}")

    # two interleaved rounds per mode (min-of-rounds suppresses the
    # shared-box noise the A8 bench already fights); the speedup is the
    # steady-state per-point ratio — the warm sweep's first point is a
    # cold start by construction
    warm_rounds = []
    cold_rounds = []
    for _ in range(1 if quick else 2):
        warm_rounds.append(_timed_sweep(True, order, amps))
        cold_rounds.append(_timed_sweep(False, order, amps))
    t_warm, r_warm, report = min(warm_rounds, key=lambda r: r[0])
    t_cold, r_cold, _ = min(cold_rounds, key=lambda r: r[0])
    pt_warm = min(_steady_point_time(r, True) for _, r, _ in warm_rounds)
    pt_cold = min(_steady_point_time(r, False) for _, r, _ in cold_rounds)
    speedup = pt_cold / pt_warm
    dmax_e = max(abs(pw.energy - pc.energy)
                 for pw, pc in zip(r_warm.points, r_cold.points))
    dmax_f = max(abs(pw.max_force - pc.max_force)
                 for pw, pc in zip(r_warm.points, r_cold.points))
    print_table(
        f"A11b: warm vs cold strain sweep ({len(amps)} points, linscale, "
        f"16-atom diamond, {SWEEP_KGRID}³ symmetry grid)",
        ["t_warm (s)", "t_cold (s)", "t/point warm (s)", "t/point cold (s)",
         "steady speedup", "max |ΔE/at| (eV)", "max |Δ maxF| (eV/Å)"],
        [[t_warm, t_cold, pt_warm, pt_cold, speedup, dmax_e, dmax_f]],
        float_fmt="{:.3g}")
    print(f"  warm reuse: pattern_builds="
          f"{report['hamiltonian']['pattern_builds']}, foe={report['foe']}")

    # -- acceptance ---------------------------------------------------------
    # quick mode runs at a deliberately unconverged order where the warm
    # (padded) and cold (tight) Chebyshev windows truncate differently;
    # the 1e-6 parity contract is asserted at the converged full order
    assert np.isfinite([p.energy for p in r_warm.points]).all()
    if not quick:
        assert dmax_e < 1e-6 and dmax_f < 1e-6
        # O_h on the 4×4×4 grid: 64 → 32 (TRS) → 4 (wedge), an 8× cut
        assert n_wedge * 6 <= n_trs, \
            f"wedge {n_wedge} must be <= 1/6 of the TRS grid {n_trs}"
        for solver, _, _, de, df in rows:
            assert de < FORCE_TOL, f"{solver} energy parity {de:.2e}"
            assert df < FORCE_TOL, f"{solver} force parity {df:.2e}"
        assert report["hamiltonian"]["pattern_builds"] == 1
        assert speedup >= SWEEP_SPEEDUP_MIN, \
            f"warm sweep speedup {speedup:.2f} < {SWEEP_SPEEDUP_MIN}"

    calc = LinearScalingCalculator(GSPSilicon(), kT=KT, r_loc=R_LOC,
                                   order=order, kpts=SWEEP_KGRID,
                                   kgrid_reduce="symmetry")
    sweep_amps = amps[:3]
    cell = _sweep_cell()

    def warm_sweep():
        strain_sweep(cell, calc, sweep_amps, fit=None, forces=True)

    benchmark.pedantic(warm_sweep, rounds=1, iterations=1)
    calc.close()
