"""Replicated-data parallel TBMD step: calibrated analytic cost model.

The dominant parallelisation strategy of the era's TBMD codes.  Every rank
holds the full coordinates; atoms (hence Hamiltonian rows, pair loops and
force accumulation) are block-partitioned:

1. neighbour search over the rank's atoms,
2. assemble the H rows of the rank's atoms,
3. **allgather** the row stripes so every rank holds the full H,
4. diagonalise — either *replicated* (every rank runs the full serial
   eigensolver: zero communication, zero speedup — the Amdahl wall) or
   *distributed* (block Jacobi, see :mod:`repro.parallel.jacobi`),
5. build the rank's density-matrix rows and evaluate its pair forces,
6. **allreduce** the force array.

Flop counts per phase are analytic; the host's effective flop rate is
calibrated from the measured ``calc.*`` phase spans of a
:class:`~repro.tb.calculator.TBCalculator` (:func:`calibrate_step`), so
the model reproduces measured serial times by construction and projects
them onto 1994-class machines through a
:class:`~repro.parallel.machine.MachineSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ParallelError
from repro.obs.export import aggregate_phases
from repro.parallel.comm import SimComm
from repro.parallel.machine import MachineSpec
from repro.parallel.jacobi import distributed_jacobi_model


#: Analytic flop-count coefficients (dense real symmetric solver ≈ 10·M³;
#: density matrix ≈ M²·M_occ with M_occ ≈ M/2).
DIAG_FLOPS_COEFF = 10.0
RHO_FLOPS_COEFF = 1.0   # × M³ (2·M·M·(M/2))


@dataclass(frozen=True)
class StepCalibration:
    """Per-phase cost coefficients of one MD step.

    ``flops_*`` values are per-pair / per-atom / per-M³ flop equivalents
    obtained by multiplying measured phase seconds by the calibrated host
    flop rate; they make the model machine-independent.
    """

    host_flops: float          # effective host rate (flop/s) from the diag fit
    flops_neigh_per_atom: float
    flops_build_per_pair: float
    flops_force_per_pair: float
    flops_rep_per_pair: float
    pairs_per_atom: float      # workload geometry (for weak scaling)
    orbitals_per_atom: float

    def system_dims(self, natoms: int) -> tuple[int, float]:
        """(n_orbitals, n_pairs) implied by the calibration workload."""
        return (int(round(self.orbitals_per_atom * natoms)),
                self.pairs_per_atom * natoms)


def calibrate_step(model, sizes=(2, 3), repeats: int = 2,
                   temperature_rattle: float = 0.05) -> StepCalibration:
    """Measure per-phase timings on diamond supercells and fit coefficients.

    Parameters
    ----------
    sizes :
        Supercell multipliers of the 8-atom diamond cell (2 → 64 atoms).
    repeats :
        Timed evaluations per size (first call also pays neighbour-list
        construction; we time steady-state re-evaluations with rattled
        positions, like an MD step would).  The phase seconds are the
        ``calc.*`` spans of exactly these evaluations, divided by
        *repeats*.
    """
    from repro.geometry import diamond_cubic, rattle, supercell
    from repro.tb.calculator import TBCalculator

    if repeats < 1:
        raise ParallelError(f"calibrate_step: repeats must be >= 1, "
                            f"got {repeats}")
    if not sizes:
        raise ParallelError("calibrate_step: sizes must name at least "
                            "one supercell multiplier")
    sym = model.species[0]
    rows = []
    for s in sizes:
        base = diamond_cubic(sym)
        at = supercell(base, s)
        calc = TBCalculator(model)
        calc.compute(at, forces=True)        # warm-up (list build, caches)
        with obs.recording() as tracer:
            for rep in range(repeats):
                res = calc.compute(rattle(at, temperature_rattle, seed=rep),
                                   forces=True)
        seconds = {row["name"]: row["seconds"] / repeats
                   for row in aggregate_phases(tracer.finished())}
        rows.append({
            "natoms": len(at), "m": res["n_orbitals"],
            "npairs": res["n_pairs"],
            "neigh": seconds["calc.neighbors"],
            "build": seconds["calc.hamiltonian"],
            "diag": seconds["calc.diagonalize"],
            "force": seconds["calc.forces"],
            "rep": seconds["calc.repulsive"],
        })

    big = rows[-1]
    host_flops = DIAG_FLOPS_COEFF * big["m"] ** 3 / max(big["diag"], 1e-12)

    def per(quantity, unit_count):
        vals = [r[quantity] / max(r[unit_count], 1) for r in rows]
        return float(np.mean(vals)) * host_flops

    return StepCalibration(
        host_flops=host_flops,
        flops_neigh_per_atom=per("neigh", "natoms"),
        flops_build_per_pair=per("build", "npairs"),
        flops_force_per_pair=per("force", "npairs"),
        flops_rep_per_pair=per("rep", "npairs"),
        pairs_per_atom=float(np.mean([r["npairs"] / r["natoms"] for r in rows])),
        orbitals_per_atom=float(np.mean([r["m"] / r["natoms"] for r in rows])),
    )


class ReplicatedDataModel:
    """Cost model for one replicated-data parallel TBMD step."""

    def __init__(self, calibration: StepCalibration, machine: MachineSpec):
        self.cal = calibration
        self.machine = machine

    def step_time(self, natoms: int, nproc: int,
                  diag: str = "replicated", jacobi_sweeps: int = 8
                  ) -> dict:
        """Model one MD step.

        Returns a dict with ``total`` seconds, a per-phase ``breakdown``,
        ``comm_seconds``, ``bytes`` and the SimComm used.
        """
        if diag not in ("replicated", "distributed"):
            raise ParallelError(f"unknown diag strategy {diag!r}")
        cal = self.cal
        m, npairs = cal.system_dims(natoms)
        p = int(nproc)
        comm = SimComm(self.machine, p)
        breakdown: dict[str, float] = {}

        def phase(name, fn):
            before = comm.elapsed()
            fn()
            breakdown[name] = comm.elapsed() - before

        # per-rank pair counts under the owner-i distribution: take the
        # worst case ceil for the critical path.
        pairs_rank = np.full(p, npairs / p)
        pairs_rank[0] = np.ceil(npairs / p)   # critical-path imbalance
        atoms_rank = np.full(p, natoms / p)
        atoms_rank[0] = np.ceil(natoms / p)

        phase("neighbors",
              lambda: comm.compute_all(cal.flops_neigh_per_atom * atoms_rank))
        phase("build",
              lambda: comm.compute_all(cal.flops_build_per_pair * pairs_rank))
        phase("h_allgather",
              lambda: comm.allgather((m / p) * m * 8.0))
        if diag == "replicated":
            phase("diagonalize",
                  lambda: comm.compute_all(DIAG_FLOPS_COEFF * m**3))
        else:
            jac = distributed_jacobi_model(m, p, self.machine,
                                           sweeps=jacobi_sweeps)
            phase("diagonalize", lambda: _charge(comm, jac))
        phase("density",
              lambda: comm.compute_all(RHO_FLOPS_COEFF * m**3 / p))
        phase("forces",
              lambda: comm.compute_all(
                  (cal.flops_force_per_pair + cal.flops_rep_per_pair)
                  * pairs_rank))
        phase("f_allreduce",
              lambda: comm.allreduce(3.0 * natoms * 8.0))

        return {
            "total": comm.elapsed(),
            "breakdown": breakdown,
            "comm_seconds": comm.comm_seconds,
            "bytes": comm.bytes_moved,
            "comm": comm,
            "natoms": natoms,
            "nproc": p,
            "diag": diag,
        }

    def serial_time(self, natoms: int) -> float:
        """Modelled single-node step time (the speedup denominator)."""
        return self.step_time(natoms, 1)["total"]

    def speedup(self, natoms: int, nproc: int, **kw) -> float:
        return self.serial_time(natoms) / self.step_time(natoms, nproc, **kw)["total"]

    def efficiency(self, natoms: int, nproc: int, **kw) -> float:
        return self.speedup(natoms, nproc, **kw) / nproc


def _charge(comm: SimComm, jac: dict) -> None:
    """Charge a distributed-Jacobi model result onto a SimComm."""
    comm.compute_all(jac["flops_per_rank"])
    for _ in range(jac["n_collectives"]):
        comm.allgather(jac["bytes_per_collective"])
