"""Real work-distributed assembly using a process pool.

This is the *executable* counterpart of the cost models: the same
pair-block decomposition run through ``concurrent.futures``.  Workers are
pure functions of picklable inputs (model + pair geometry chunks), the
master accumulates — exactly the replicated-data assembly step with the
allgather replaced by Python IPC.  The test suite asserts bit-level
agreement with the serial builder; on a multi-core host this gives true
parallel H assembly (the eigensolve stays serial, as in the replicated
strategy).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import obs
from repro.errors import ParallelError
from repro.neighbors.base import NeighborList
from repro.parallel.decomposition import block_partition
from repro.tb.bonds import bond_table
from repro.tb.forces import repulsive_energy_forces
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.slater_koster import sk_blocks


def map_tasks(worker, tasks, nworkers: int = 1, executor=None) -> list:
    """Map a *worker* over *tasks*, preserving order.

    The one dispatch policy every pool consumer shares (H assembly,
    repulsion, the localization-region solves of
    :mod:`repro.linscale.foe_local`, and the per-worker batch fan-out of
    :meth:`repro.service.service.BatchService.submit_many`):

    * ``executor`` given — use it (tests inject serial executors; a caller
      can keep one ``ProcessPoolExecutor`` alive across MD steps; the
      batch service passes a ``ThreadPoolExecutor`` because its worker
      objects are not picklable — any ``concurrent.futures`` executor
      works);
    * ``nworkers == 1`` — run inline, no IPC;
    * otherwise — a fresh ``ProcessPoolExecutor(nworkers)`` (*worker* and
      *tasks* must then be picklable).

    When telemetry is enabled (:mod:`repro.obs`) and execution crosses a
    process boundary, the worker is wrapped so spans/metrics recorded in
    the workers ship back with the results and merge into the parent
    trace (see :mod:`repro.obs.remote`).  Same-process paths (inline,
    thread pools) record straight into the parent's collectors.
    """
    if nworkers < 1:
        raise ParallelError("nworkers must be >= 1")
    if executor is not None:
        if isinstance(executor, ProcessPoolExecutor) and obs.telemetry_active():
            worker = obs.TelemetryWorker(worker)
            return obs.absorb_results(executor.map(worker, tasks))
        return list(executor.map(worker, tasks))
    if nworkers == 1:
        return [worker(t) for t in tasks]
    if obs.telemetry_active():
        worker = obs.TelemetryWorker(worker)
    with ProcessPoolExecutor(max_workers=nworkers) as pool:
        return obs.absorb_results(pool.map(worker, tasks))


def _hopping_block_worker(args):
    """Compute SK blocks for one chunk of one species group (pure)."""
    model, sa, sb, r, u, ni, nj = args
    V, _ = model.hopping(sa, sb, r)
    return sk_blocks(u, V)[:, :ni, :nj]


def _repulsion_worker(args):
    """Compute φ, φ' for one chunk of one species group (pure)."""
    model, sa, sb, r = args
    phi, dphi = model.pair_repulsion(sa, sb, r)
    return phi, dphi


def _fan_out(worker, table, args, nworkers: int, executor) -> list:
    """Run *worker* over near-equal chunks of every species group of
    *table* — ``args(bonds, chunk)`` builds one task — and return, per
    group, the chunk results in pair order."""
    tasks, owner = [], []
    for gi, bonds in enumerate(table.groups):
        for chunk in block_partition(len(bonds.r), nworkers):
            if len(chunk):
                tasks.append(args(bonds, chunk))
                owner.append(gi)
    results = map_tasks(worker, tasks, nworkers=nworkers, executor=executor)
    return [[res for o, res in zip(owner, results) if o == gi]
            for gi in range(len(table.groups))]


def parallel_build_hamiltonian(atoms, model, nl: NeighborList,
                               nworkers: int = 2, executor=None
                               ) -> np.ndarray:
    """Assemble the Γ-point Hamiltonian with pair chunks fanned out to a
    process pool.  Orthogonal models only (the overlap fan-out would be
    identical).  Returns H; agrees exactly with :func:`build_hamiltonian`
    — the chunks' blocks become the bond table's, and its one scatter
    assembles them.
    """
    if not model.orthogonal:
        raise ParallelError("pool assembly implemented for orthogonal models")
    if nworkers < 1:
        raise ParallelError("nworkers must be >= 1")
    table = bond_table(atoms, model, nl)
    per_group = _fan_out(
        _hopping_block_worker, table,
        lambda b, c: (model, b.pair.sa, b.pair.sb, b.r[c], b.u[c],
                      b.pair.ni, b.pair.nj),
        nworkers, executor)
    for bonds, chunks in zip(table.groups, per_group):
        bonds.h_blocks = np.concatenate(chunks)
    return build_hamiltonian(atoms, model, table)[0]


def parallel_repulsive(atoms, model, nl: NeighborList, nworkers: int = 2,
                       executor=None) -> tuple[float, np.ndarray, np.ndarray]:
    """Repulsive energy/forces with pair φ-evaluation fanned out.

    Phase 1 (parallel): per-chunk φ(r), φ'(r).  Phase 2 (master): embed
    ``x_i = Σφ``, apply f/f', accumulate forces — the same two-phase
    structure a message-passing implementation uses (partial x sums then
    an allreduce); phase 2 is the serial code's, over the bond table the
    chunks filled.
    """
    if nworkers < 1:
        raise ParallelError("nworkers must be >= 1")
    table = bond_table(atoms, model, nl)
    per_group = _fan_out(
        _repulsion_worker, table,
        lambda b, c: (model, b.pair.sa, b.pair.sb, b.r[c]),
        nworkers, executor)
    for bonds, chunks in zip(table.groups, per_group):
        bonds.repulsion = (np.concatenate([phi for phi, _ in chunks]),
                           np.concatenate([dphi for _, dphi in chunks]))
    return repulsive_energy_forces(atoms, model, table)
