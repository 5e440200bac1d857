"""Parallel layer: communicators, machines, decompositions, cost models."""

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.parallel import (
    MachineSpec, ReplicatedDataModel, SerialComm, SimComm, StepCalibration,
    amdahl_speedup, block_partition, cyclic_partition, partition_pairs,
    strong_scaling, weak_scaling,
)
from repro.parallel.decomposition import (
    partition_imbalance, replicated_h_comm_bytes, row_striped_comm_bytes,
)
from repro.parallel.jacobi import distributed_jacobi_model, round_robin_pairs
from repro.parallel.machine import PRESETS
from repro.parallel.scaling import serial_fraction_estimate


def toy_calibration(host_flops=1e9):
    """Hand-built calibration with simple round numbers."""
    return StepCalibration(
        host_flops=host_flops,
        flops_neigh_per_atom=1e3,
        flops_build_per_pair=2e4,
        flops_force_per_pair=6e4,
        flops_rep_per_pair=1e3,
        pairs_per_atom=8.0,
        orbitals_per_atom=4.0,
    )


# ---------------------------------------------------------------- machines
def test_machine_presets_exist():
    assert set(PRESETS) == {"paragon", "delta", "cm5", "modern"}
    for name, make in PRESETS.items():
        m = getattr(MachineSpec, name)()
        assert m == make()
        assert m.flops > 0 and m.bandwidth > 0


def test_machine_primitive_costs():
    m = MachineSpec("toy", flops=1e6, latency=1e-5, bandwidth=1e8)
    assert m.compute_time(2e6) == pytest.approx(2.0)
    assert m.send_time(1e8) == pytest.approx(1.0 + 1e-5)


def test_machine_unphysical_rejected():
    with pytest.raises(ParallelError):
        MachineSpec("bad", flops=-1, latency=0, bandwidth=1)


# ---------------------------------------------------------------- communicators
def test_serial_comm_free_operations():
    c = SerialComm()
    c.compute(0, 1e9)
    c.broadcast(1e6)
    c.allreduce(1e6)
    c.allgather(1e6)
    c.barrier()
    assert c.size == 1
    assert c.elapsed() == 0.0
    with pytest.raises(ParallelError):
        c.compute(1, 1.0)


def test_sim_comm_compute_charges_single_rank():
    m = MachineSpec("toy", flops=1e6, latency=0.0, bandwidth=1e12)
    c = SimComm(m, 4)
    c.compute(2, 3e6)
    assert c.elapsed() == pytest.approx(3.0)
    assert c.clocks[0] == 0.0


def test_sim_comm_collective_synchronises():
    m = MachineSpec("toy", flops=1e6, latency=1e-3, bandwidth=1e12)
    c = SimComm(m, 4)
    c.compute(0, 5e6)            # rank 0 ahead at t=5
    c.allreduce(8.0)
    # everyone must be past rank 0's clock plus the collective cost
    assert np.all(c.clocks >= 5.0)
    assert np.all(c.clocks == c.clocks[0])
    assert c.comm_seconds > 0
    assert c.messages > 0


def test_sim_comm_p1_collectives_free():
    c = SimComm(MachineSpec.paragon(), 1)
    c.broadcast(1e9)
    c.allgather(1e9)
    c.allreduce(1e9)
    c.barrier()
    assert c.elapsed() == 0.0


def test_sim_comm_send_advances_both_ends():
    m = MachineSpec("toy", flops=1e6, latency=0.5, bandwidth=10.0)
    c = SimComm(m, 2)
    c.send(0, 1, 10.0)           # 0.5 + 1.0
    assert c.clocks[1] == pytest.approx(1.5)
    assert c.clocks[0] == pytest.approx(0.5)
    assert c.bytes_moved == 10.0


def test_sim_comm_rank_bounds():
    c = SimComm(MachineSpec.paragon(), 2)
    with pytest.raises(ParallelError):
        c.compute(2, 1.0)
    with pytest.raises(ParallelError):
        c.send(0, 5, 1.0)


def test_sim_comm_respects_max_nodes():
    with pytest.raises(ParallelError, match="at most"):
        SimComm(MachineSpec.delta(), 4096)


def test_sim_comm_reset():
    c = SimComm(MachineSpec.paragon(), 2)
    c.compute(0, 1e7)
    c.reset()
    assert c.elapsed() == 0.0 and c.messages == 0


# ---------------------------------------------------------------- partitions
def test_block_partition_covers_exactly():
    parts = block_partition(10, 3)
    assert [len(p) for p in parts] == [4, 3, 3]
    np.testing.assert_array_equal(np.concatenate(parts), np.arange(10))


def test_cyclic_partition_covers_exactly():
    parts = cyclic_partition(10, 3)
    assert [len(p) for p in parts] == [4, 3, 3]
    assert sorted(np.concatenate(parts).tolist()) == list(range(10))
    np.testing.assert_array_equal(parts[1], [1, 4, 7])


def test_partition_more_ranks_than_items():
    parts = block_partition(2, 5)
    assert [len(p) for p in parts] == [1, 1, 0, 0, 0]


def test_partition_invalid():
    with pytest.raises(ParallelError):
        block_partition(-1, 2)
    with pytest.raises(ParallelError):
        cyclic_partition(5, 0)


def test_partition_imbalance_metric():
    assert partition_imbalance([np.arange(4), np.arange(4)]) == 1.0
    assert partition_imbalance([np.arange(6), np.arange(2)]) == pytest.approx(1.5)
    assert partition_imbalance([np.arange(0), np.arange(0)]) == 1.0


def test_partition_pairs_owner_i(si64, gsp):
    from repro.neighbors import neighbor_list

    nl = neighbor_list(si64, gsp.cutoff)
    parts = partition_pairs(nl, 4, scheme="owner-i")
    assert sum(len(p) for p in parts) == nl.n_pairs
    # every pair lands with the rank owning atom i
    owners = block_partition(64, 4)
    for r, pidx in enumerate(parts):
        assert np.all(np.isin(nl.i[pidx], owners[r]))


def test_partition_pairs_block_scheme(si64, gsp):
    from repro.neighbors import neighbor_list

    nl = neighbor_list(si64, gsp.cutoff)
    parts = partition_pairs(nl, 3, scheme="block")
    assert sum(len(p) for p in parts) == nl.n_pairs
    with pytest.raises(ParallelError):
        partition_pairs(nl, 3, scheme="random")


def test_comm_volume_row_striped_cheaper():
    m = 864
    for p in (4, 16, 64):
        assert row_striped_comm_bytes(m, p) < replicated_h_comm_bytes(m, p)


# ---------------------------------------------------------------- jacobi model
def test_round_robin_schedule_complete():
    nb = 6
    stages = round_robin_pairs(nb)
    assert len(stages) == nb - 1
    seen = set()
    for stage in stages:
        members = [x for pair in stage for x in pair]
        assert len(members) == len(set(members))   # disjoint within stage
        seen.update(stage)
    assert seen == {(i, j) for i in range(nb) for j in range(i + 1, nb)}


def test_round_robin_odd_blocks_bye():
    stages = round_robin_pairs(5)
    seen = set()
    for st_ in stages:
        seen.update(st_)
    assert seen == {(i, j) for i in range(5) for j in range(i + 1, 5)}


def test_round_robin_invalid():
    with pytest.raises(ParallelError):
        round_robin_pairs(1)


def test_distributed_jacobi_scales_compute():
    m = MachineSpec.paragon()
    t16 = distributed_jacobi_model(512, 16, m)["compute_time"]
    t64 = distributed_jacobi_model(512, 64, m)["compute_time"]
    assert t16 / t64 == pytest.approx(4.0)


def test_distributed_jacobi_comm_grows_with_p():
    m = MachineSpec.paragon()
    c16 = distributed_jacobi_model(512, 16, m)["comm_time"]
    c64 = distributed_jacobi_model(512, 64, m)["comm_time"]
    assert c64 > c16


# ---------------------------------------------------------------- replicated model
def test_step_time_breakdown_sums_to_total():
    model = ReplicatedDataModel(toy_calibration(), MachineSpec.paragon())
    r = model.step_time(216, 16)
    assert sum(r["breakdown"].values()) == pytest.approx(r["total"], rel=1e-9)


def test_replicated_diag_is_amdahl_wall():
    """With replicated diagonalisation the speedup saturates near
    1/serial_fraction."""
    model = ReplicatedDataModel(toy_calibration(), MachineSpec.paragon())
    s_frac = serial_fraction_estimate(model, 216)
    s_inf = amdahl_speedup(s_frac, 10**6)
    s_256 = model.speedup(216, 256)
    assert s_256 < s_inf * 1.05
    assert s_256 > 1.0


def test_distributed_diag_beats_replicated_at_scale():
    model = ReplicatedDataModel(toy_calibration(), MachineSpec.paragon())
    t_rep = model.step_time(216, 64, diag="replicated")["total"]
    t_dist = model.step_time(216, 64, diag="distributed")["total"]
    assert t_dist < t_rep


def test_replicated_beats_distributed_serial():
    """At P=1 the Jacobi flop penalty makes 'distributed' slower."""
    model = ReplicatedDataModel(toy_calibration(), MachineSpec.paragon())
    t_rep = model.step_time(216, 1, diag="replicated")["total"]
    t_dist = model.step_time(216, 1, diag="distributed")["total"]
    assert t_rep < t_dist


def test_step_time_invalid_diag():
    model = ReplicatedDataModel(toy_calibration(), MachineSpec.paragon())
    with pytest.raises(ParallelError):
        model.step_time(64, 4, diag="quantum")


# ---------------------------------------------------------------- scaling harness
def test_strong_scaling_rows():
    model = ReplicatedDataModel(toy_calibration(), MachineSpec.paragon())
    rows = strong_scaling(model, 216, [1, 4, 16])
    assert [r["nproc"] for r in rows] == [1, 4, 16]
    assert rows[0]["speedup"] == pytest.approx(1.0)
    # monotone non-increasing time
    times = [r["time"] for r in rows]
    assert times[0] >= times[1] >= times[2]
    assert all(0 < r["efficiency"] <= 1.0 + 1e-9 for r in rows)


def test_weak_scaling_efficiency_degrades_with_n_cubed():
    model = ReplicatedDataModel(toy_calibration(), MachineSpec.paragon())
    rows = weak_scaling(model, 32, [1, 2, 4, 8])
    effs = [r["efficiency"] for r in rows]
    assert effs[0] == pytest.approx(1.0)
    assert all(b < a for a, b in zip(effs, effs[1:]))


def test_amdahl_limits():
    np.testing.assert_allclose(amdahl_speedup(0.0, [1, 2, 4]), [1, 2, 4])
    assert amdahl_speedup(0.5, 10**9) == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(ParallelError):
        amdahl_speedup(1.5, 4)


# ---------------------------------------------------------------- calibration
def test_calibrate_step_real_measurements(gsp):
    from repro.parallel import calibrate_step

    cal = calibrate_step(gsp, sizes=(1,), repeats=1)
    assert cal.host_flops > 1e6
    assert cal.pairs_per_atom == pytest.approx(8.0, abs=3.0)
    assert cal.orbitals_per_atom == 4.0
    m, npairs = cal.system_dims(64)
    assert m == 256
    assert npairs == pytest.approx(64 * cal.pairs_per_atom)
