"""A8 — The MD fast path: persistent state reuse on vs off.

PR 1's O(N) engine rebuilt its entire per-step machinery — neighbour
lists, sparse Hamiltonian, localization regions, Lanczos spectral
bounds, the chemical-potential search, and *two* Chebyshev passes — from
scratch every MD step.  The fast path keeps all of that as persistent
calculator state (:mod:`repro.state`) and collapses the electronic solve
to one *fused* Chebyshev pass with a μ-Taylor correction
(:func:`repro.linscale.foe_local.solve_density_regions_fused`).

This benchmark drives the same ≥500-atom NVE trajectory with state reuse
on and off and asserts the PR's acceptance criteria:

1. ≥ 2× per-MD-step speedup with reuse on,
2. max per-atom force discrepancy < 1e-8 between the two paths at
   identical configurations (the fast path must be an optimization, not
   an approximation knob).

Settings note: kT = 0.35 eV / order 220 is the converged regime for the
GSP-Si spectral width — the expansion is then insensitive to the cached
(vs freshly recomputed) spectral window far below the 1e-8 bar.
"""

import copy
import time

import numpy as np

from repro import obs
from repro.bench import print_table, silicon_supercell
from repro.linscale import LinearScalingCalculator
from repro.md import MDDriver, VelocityVerlet, maxwell_boltzmann_velocities
from repro.tb import GSPSilicon

KT = 0.35
ORDER = 220
MULTIPLIER = 4          # 512 atoms
TEMPERATURE = 600.0
WARMUP_STEPS = 1
MEASURE_STEPS = 4


def test_a8_md_fastpath_speedup(benchmark, quick):
    multiplier = 2 if quick else MULTIPLIER     # 64 vs 512 atoms
    order = 120 if quick else ORDER
    measure_steps = 2 if quick else MEASURE_STEPS
    at_fast = silicon_supercell(multiplier, rattle_amp=0.03, seed=13)
    maxwell_boltzmann_velocities(at_fast, TEMPERATURE, seed=7)
    at_cold = copy.deepcopy(at_fast)
    natoms = len(at_fast)
    assert quick or natoms >= 500

    fast = LinearScalingCalculator(GSPSilicon(), kT=KT, order=order,
                                   reuse=True)
    cold = LinearScalingCalculator(GSPSilicon(), kT=KT, order=order,
                                   reuse=False)

    # interleave the two trajectories step by step so container CPU
    # throttling / load drift hits both paths alike, and use best-of-N
    # per path — robust per-step cost on a noisy shared box
    md_fast = MDDriver(at_fast, fast, VelocityVerlet(dt=1.0))
    md_cold = MDDriver(at_cold, cold, VelocityVerlet(dt=1.0))
    md_fast.run(WARMUP_STEPS)
    md_cold.run(WARMUP_STEPS)
    t_fast, t_cold = [], []
    for _ in range(measure_steps):
        t0 = time.perf_counter()
        md_fast.run(1)
        t_fast.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        md_cold.run(1)
        t_cold.append(time.perf_counter() - t0)
    speedup = float(min(t_cold) / min(t_fast))

    # force agreement at the fast path's final configuration: evaluate the
    # same positions through a *fresh* rebuild-everything calculator
    f_fast = fast.compute(at_fast, forces=True)["forces"]
    ref = LinearScalingCalculator(GSPSilicon(), kT=KT, order=order,
                                  reuse=False)
    f_ref = ref.compute(at_fast, forces=True)["forces"]
    fmax_diff = float(np.abs(f_fast - f_ref).max())

    rep = fast.state_report()
    rows = [
        ["reuse on", np.mean(t_fast), min(t_fast),
         rep["foe"]["fused"], rep["neighbors"]["reused"]],
        ["reuse off", np.mean(t_cold), min(t_cold), 0, 0],
    ]
    print_table(
        f"A8: seconds per MD step, {natoms}-atom Si (kT={KT}, K={order})",
        ["path", "mean s/step", "best s/step", "fused solves",
         "NL reuses"], rows, float_fmt="{:.3f}")
    print(f"speedup (cold/fast): {speedup:.2f}x")
    print(f"max |F_fast - F_cold|: {fmax_diff:.3e} eV/Å")
    print(f"fast-path report: {rep}")

    # -- acceptance criteria (perf bar skipped in --quick smoke mode) ------
    if not quick:
        assert speedup >= 2.0, f"fast path only {speedup:.2f}x faster"
        assert fmax_diff < 1e-8, f"force discrepancy {fmax_diff:.2e}"
    else:
        # correctness still holds at smoke sizes, just with slack for the
        # lower expansion order (the μ-Taylor remainder is order-limited)
        assert fmax_diff < 1e-5, f"force discrepancy {fmax_diff:.2e}"
    # the fast path must actually have been exercised
    assert rep["foe"]["fused"] >= measure_steps
    assert rep["hamiltonian"]["value_updates"] >= measure_steps

    # steady-state fused step as the headline per-step number
    state = {"rng": np.random.default_rng(3)}

    def one_step(calc=fast, atoms=at_fast):
        atoms.positions += state["rng"].normal(0.0, 0.003,
                                               atoms.positions.shape)
        calc.compute(atoms, forces=True)

    benchmark.pedantic(one_step, rounds=2, iterations=1)


#: Localization radius for the backend benchmark — the paper's first+
#: second-neighbour-shell regions (17 atoms, 68 orbitals in Si), where
#: the per-region GEMMs are small enough that interpreter dispatch is a
#: real cost and shape bucketing pays most (2.9x on the fused pass).  At
#: the repo's conservative default (6.24 Å, 47-atom regions) an L2-sized
#: stack holds three regions and the pass runs 1.4x the loop; the perf
#: ledger's ``md_linscale_si512`` measures that case end to end.
BACKEND_R_LOC = 4.2


def test_a8_backend_batched_speedup(benchmark, quick):
    """Stacked-GEMM region backend vs the per-region loop, same fast path.

    Both calculators run the identical warm fused MD step (state reuse
    on); only the array backend differs.  Interleaved stepping and
    best-of-N timing for the same container-throttling robustness as the
    reuse benchmark above.  The speedup lands in the metrics snapshot as
    the ``foe.backend_speedup`` gauge so the CI bench-smoke job can gate
    it (``tools/check_metrics.py --min-backend-speedup``).
    """
    multiplier = 2 if quick else MULTIPLIER     # 64 vs 512 atoms
    order = 120 if quick else ORDER
    measure_steps = 2 if quick else MEASURE_STEPS
    at_bat = silicon_supercell(multiplier, rattle_amp=0.03, seed=17)
    maxwell_boltzmann_velocities(at_bat, TEMPERATURE, seed=11)
    at_loop = copy.deepcopy(at_bat)
    natoms = len(at_bat)
    assert quick or natoms >= 500

    batched = LinearScalingCalculator(GSPSilicon(), kT=KT, order=order,
                                      r_loc=BACKEND_R_LOC, reuse=True,
                                      backend="numpy_batched")
    loop = LinearScalingCalculator(GSPSilicon(), kT=KT, order=order,
                                   r_loc=BACKEND_R_LOC, reuse=True,
                                   backend="numpy_loop")

    md_bat = MDDriver(at_bat, batched, VelocityVerlet(dt=1.0))
    md_loop = MDDriver(at_loop, loop, VelocityVerlet(dt=1.0))
    md_bat.run(WARMUP_STEPS)
    md_loop.run(WARMUP_STEPS)
    t_bat, t_loop = [], []
    for _ in range(measure_steps):
        t0 = time.perf_counter()
        md_bat.run(1)
        t_bat.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        md_loop.run(1)
        t_loop.append(time.perf_counter() - t0)
    speedup = float(min(t_loop) / min(t_bat))
    obs.gauge_set("foe.backend_speedup", speedup)

    # backend parity at the batched trajectory's final configuration —
    # the batched path must be an optimization, not an approximation knob
    f_bat = batched.compute(at_bat, forces=True)["forces"]
    f_loop = loop.compute(copy.deepcopy(at_bat), forces=True)["forces"]
    fmax_diff = float(np.abs(f_bat - f_loop).max())

    rows = [
        ["numpy_batched", np.mean(t_bat), min(t_bat)],
        ["numpy_loop", np.mean(t_loop), min(t_loop)],
    ]
    print_table(
        f"A8: seconds per warm MD step by backend, {natoms}-atom Si "
        f"(kT={KT}, K={order})",
        ["backend", "mean s/step", "best s/step"], rows, float_fmt="{:.3f}")
    print(f"speedup (loop/batched): {speedup:.2f}x")
    print(f"max |F_batched - F_loop|: {fmax_diff:.3e} eV/Å")

    assert fmax_diff < 1e-8, f"backend force discrepancy {fmax_diff:.2e}"
    if not quick:
        # whole-step ratio: the solve itself runs ~3x faster batched at
        # these shapes but the step also carries the backend-independent
        # H update + force assembly; 2.4x measured (2-core Xeon 2.1 GHz,
        # BLAS on one thread; 1.8x with the pre-L2 48 MiB stacks),
        # floored with headroom
        assert speedup >= 1.2, f"batched backend only {speedup:.2f}x faster"

    step_rng = np.random.default_rng(5)

    def one_step(calc=batched, atoms=at_bat, rng=step_rng):
        atoms.positions += rng.normal(0.0, 0.003, atoms.positions.shape)
        calc.compute(atoms, forces=True)

    benchmark.pedantic(one_step, rounds=2, iterations=1)
