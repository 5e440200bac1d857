"""T1 — Time per MD step vs system size, with per-phase breakdown.

Reproduces the canonical SC'94 tables from one measurement: wall-clock
seconds per TBMD step on one node for diamond-Si supercells, split into
neighbour search / Hamiltonian build / diagonalisation / force
evaluation, and the same split as fractions of the step.  Expected
shape: the diagonalisation column grows as N³ and its share marches
toward 100 % while the O(N) phases fade — the wall that motivates
parallel TBMD.  The seconds are the calculator's ``calc.*`` spans.
"""


from repro import obs
from repro.bench import print_table, silicon_supercell
from repro.geometry import rattle
from repro.obs.export import aggregate_phases
from repro.tb import GSPSilicon, TBCalculator

PHASES = ("neighbors", "hamiltonian", "diagonalize", "forces", "repulsive")
MULTIPLIERS = (1, 2, 3)          # 8, 64, 216 atoms


def measure_step(natoms_multiplier: int, repeats: int = 2) -> dict:
    at = silicon_supercell(natoms_multiplier, rattle_amp=0.05, seed=1)
    calc = TBCalculator(GSPSilicon())
    calc.compute(at, forces=True)            # warm-up
    with obs.recording() as tracer:
        for rep in range(repeats):
            calc.compute(rattle(at, 0.03, seed=rep + 2), forces=True)
    seconds = {r["name"]: r["seconds"]
               for r in aggregate_phases(tracer.finished())}
    row = {ph: seconds[f"calc.{ph}"] / repeats for ph in PHASES}
    row["natoms"] = len(at)
    row["total"] = sum(row[ph] for ph in PHASES)
    return row


def test_t1_step_timing_table(benchmark):
    rows = [measure_step(m) for m in MULTIPLIERS]

    print_table(
        "T1: seconds per MD step by phase (measured, this host)",
        ["N", *PHASES, "total"],
        [[r["natoms"]] + [r[ph] for ph in PHASES] + [r["total"]]
         for r in rows],
        float_fmt="{:.3e}")
    print_table(
        "T1: fraction of step time by phase",
        ["N", *PHASES],
        [[r["natoms"]] + [r[ph] / r["total"] for ph in PHASES]
         for r in rows],
        float_fmt="{:.3f}")

    # shape assertions: diag grows superlinearly, its share grows with N
    # and dominates at 216 atoms
    t_diag = [r["diagonalize"] for r in rows]
    n = [r["natoms"] for r in rows]
    growth = (t_diag[-1] / max(t_diag[0], 1e-12)) / (n[-1] / n[0])
    assert growth > 5.0, "diagonalisation must scale superlinearly"
    shares = [r["diagonalize"] / r["total"] for r in rows]
    assert shares == sorted(shares), "diag share must grow with N"
    assert shares[-1] > 0.3

    # benchmark a steady-state 64-atom step (the classic per-step number)
    at = silicon_supercell(2, rattle_amp=0.05, seed=3)
    calc = TBCalculator(GSPSilicon())
    calc.compute(at, forces=True)
    state = {"k": 0}

    def one_step():
        state["k"] += 1
        calc.compute(rattle(at, 0.02, seed=state["k"]), forces=True)

    benchmark.pedantic(one_step, rounds=3, iterations=1)


def test_t1_diagonalisation_kernel(benchmark):
    """The kernel behind the wall: one dense eigensolve at 216 atoms."""
    from repro.neighbors import neighbor_list
    from repro.tb.eigensolvers import solve_eigh
    from repro.tb.hamiltonian import build_hamiltonian

    at = silicon_supercell(3, rattle_amp=0.05, seed=2)
    model = GSPSilicon()
    H, _ = build_hamiltonian(at, model, neighbor_list(at, model.cutoff))
    benchmark.pedantic(lambda: solve_eigh(H), rounds=3, iterations=1)
