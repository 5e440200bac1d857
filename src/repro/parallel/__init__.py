"""Parallel TBMD: communicators, machine models, decompositions, scaling.

This package reproduces the *parallelisation* content of the paper.  The
development box has 2 cores — measured parallel efficiency of the region
step on them is ROADMAP item 2 — so multi-node speedups cannot be
*measured*; instead (see docs/architecture.md, substitution table):

* the decomposition algorithms (replicated-data MD step, row-striped
  Hamiltonian assembly, distributed block-Jacobi diagonalisation) are
  implemented against an abstract :class:`~repro.parallel.comm.Communicator`
  and *executed for real* through :class:`~repro.parallel.comm.SerialComm`,
  validating correctness;
* the same algorithms run against :class:`~repro.parallel.comm.SimComm`,
  which charges analytic latency/bandwidth/flop costs from a
  :class:`~repro.parallel.machine.MachineSpec` (Paragon/Delta/CM-5-class
  presets), reproducing the paper-era speedup and efficiency curves with
  compute times calibrated from measured single-process timings.
"""

from repro.parallel.comm import Communicator, SerialComm, SimComm
from repro.parallel.machine import MachineSpec
from repro.parallel.decomposition import (
    block_partition,
    cyclic_partition,
    partition_pairs,
)
from repro.parallel.replicated import (
    ReplicatedDataModel,
    StepCalibration,
    calibrate_step,
)
from repro.parallel.jacobi import distributed_jacobi_model, round_robin_pairs
from repro.parallel.scaling import strong_scaling, weak_scaling, amdahl_speedup
from repro.parallel.pool import map_tasks

__all__ = [
    "Communicator",
    "SerialComm",
    "SimComm",
    "MachineSpec",
    "block_partition",
    "cyclic_partition",
    "partition_pairs",
    "ReplicatedDataModel",
    "StepCalibration",
    "calibrate_step",
    "distributed_jacobi_model",
    "round_robin_pairs",
    "strong_scaling",
    "weak_scaling",
    "amdahl_speedup",
    "map_tasks",
]
