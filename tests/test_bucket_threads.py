"""The batched backend's buckets over threads: fork safety, failure
containment and span nesting.

``NumpyBatchedBackend`` drains a solve's buckets on the calling thread
plus helper threads of one process-wide pool.  These tests hold the
three things a thread pool inside a numerical kernel can get wrong: a
forked child inheriting a pool without threads, an error in one
bucket leaving helpers running, and helper spans losing their parent.
Bit parity of serial and threaded drains is contract row 5
(``tests/test_contracts.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.calculators import make_calculator
from repro.errors import ElectronicError
from repro.geometry import bulk_silicon, rattle, supercell
from repro.linscale.backends import numpy_batched
from repro.linscale.backends.base import RegionBlockSource

SRC = str(Path(__file__).resolve().parents[1] / "src")
SPEC = {"model": "gsp-si", "solver": "linscale", "kT": 0.3, "order": 120,
        "backend": "numpy_batched"}


def si64():
    return rattle(supercell(bulk_silicon(), 2), 0.05, seed=4)


def run_script(script: str, *args: str, timeout: float = 120.0) -> None:
    """Run *script* in a fresh interpreter; a hang fails, it never blocks."""
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        subprocess.run([sys.executable, "-c", script, *args], env=env,
                       check=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"script hung for {timeout} s")


FORK_SCRIPT = """
import os, sys, threading
import numpy as np
from repro.calculators import make_calculator
from repro.geometry import bulk_silicon, rattle, supercell

atoms = rattle(supercell(bulk_silicon(), 2), 0.05, seed=4)
spec = {"model": "gsp-si", "solver": "linscale", "kT": 0.3, "order": 120,
        "backend": "numpy_batched"}
forces = make_calculator(spec).compute(atoms)["forces"]
if os.fork() == 0:                 # a child solving on its own pool
    forked = make_calculator(spec).compute(atoms)["forces"]
    np.savez(sys.argv[2], forces=forked, threads=threading.active_count())
    os._exit(0)
os.wait()
np.savez(sys.argv[1], forces=forces, cpus=len(os.sched_getaffinity(0)))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="needs fork and an affinity mask")
def test_forking_after_a_threaded_solve(tmp_path):
    """A solve starts the helper pool; then a plain ``fork`` child
    solves.  The child inherits the pool object but none of its threads:
    it must build its own (a naive pool hangs there), and its forces are
    the parent's."""
    parent, child = tmp_path / "parent.npz", tmp_path / "child.npz"
    run_script(FORK_SCRIPT, str(parent), str(child))
    parent, child = np.load(parent), np.load(child)
    np.testing.assert_array_equal(child["forces"], parent["forces"])
    # the child started helpers of its own (an inherited pool starts none)
    assert (child["threads"] > 1) == (parent["cpus"] > 1)


class FailingGet:
    """``RegionBlockSource.get`` that raises once, for one region, and
    counts calls and the calls in flight."""

    def __init__(self, region: int):
        self.region = region
        self.armed = False
        self.calls = 0
        self.inflight = 0
        self.lock = threading.Lock()
        self.get = RegionBlockSource.get

    def __call__(self, source, i, *args, **kwargs):
        with self.lock:
            self.calls += 1
            fire = self.armed and i == self.region
            if fire:
                self.armed = False
            self.inflight += 1
        try:
            if fire:
                raise ElectronicError("injected bucket failure")
            return self.get(source, i, *args, **kwargs)
        finally:
            with self.lock:
                self.inflight -= 1


def test_a_failing_bucket_stops_the_other_threads(monkeypatch):
    """Once a bucket raises, no thread takes another one: bucket 3 fails
    at once while every other bucket takes 5 ms, so besides buckets
    0–3 only the one the other thread has in hand may start."""
    monkeypatch.setattr(numpy_batched, "_usable_cpus", lambda: 2)
    started = []

    def launch(j):
        started.append(j)
        if j == 3:
            raise ElectronicError("injected bucket failure")
        threading.Event().wait(0.005)
        return j

    with pytest.raises(ElectronicError, match="injected bucket failure"):
        numpy_batched._drain(launch, list(range(40)))
    assert 4 <= len(started) <= 5


@pytest.mark.parametrize("region", [0, 40])
def test_a_failing_bucket_fails_the_step_and_nothing_else(monkeypatch,
                                                          region):
    """A ``ReproError`` in one region's bucket reaches the caller as
    itself once no helper is working, and leaves nothing behind: the
    retry is bit-equal to a calculator that never failed (the
    calculator's rollback of a failed step, now under threads)."""
    monkeypatch.setattr(numpy_batched, "_usable_cpus", lambda: 2)
    atoms = si64()
    moved = atoms.copy()
    moved.positions += 0.01 * np.random.default_rng(1).normal(
        size=atoms.positions.shape)
    reference = make_calculator(SPEC)
    reference.compute(atoms)
    want = reference.compute(moved)

    failing = FailingGet(region)
    monkeypatch.setattr(RegionBlockSource, "get",
                        lambda self, i, *a, **k: failing(self, i, *a, **k))
    calc = make_calculator(SPEC)
    calc.compute(atoms)
    failing.calls, failing.armed = 0, True
    with pytest.raises(ElectronicError, match="injected bucket failure"):
        calc.compute(moved)             # warm: one fused pass, 1 get/region
    calls = failing.calls
    assert failing.inflight == 0
    assert calls < len(atoms)           # not every region was densified
    threading.Event().wait(0.05)
    assert failing.calls == calls       # and nothing ran afterwards
    got = calc.compute(moved)
    for key in ("energy", "free_energy", "forces", "virial"):
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_helper_bucket_spans_nest_under_the_callers_span(monkeypatch,
                                                         obs_on):
    """Every ``foe.bucket`` span, whichever thread ran it, is a child of
    the enclosing ``calc.foe`` span (the solve), and the bucket spans come from
    at most ``width`` threads."""
    monkeypatch.setattr(numpy_batched, "_usable_cpus", lambda: 2)
    tracer, _ = obs_on
    make_calculator(SPEC).compute(si64())
    spans = tracer.finished()
    (solve,) = [s for s in spans if s["name"] == "calc.foe"]
    buckets = [s for s in spans if s["name"] == "foe.bucket"]
    assert len(buckets) > 2
    assert {s["parent"] for s in buckets} == {solve["id"]}
    assert 1 <= len({s["tid"] for s in buckets}) <= 2


def test_drain_under_stress_takes_each_bucket_once(monkeypatch):
    """More helpers than cores and a 1 µs switch interval: every bucket
    is launched exactly once and its result lands in its own slot."""
    numpy_batched._pool().shutdown(wait=True)    # a fresh pool, 7 helpers
    numpy_batched._pool.cache_clear()
    monkeypatch.setattr(numpy_batched, "_usable_cpus", lambda: 8)
    launched = []
    lock = threading.Lock()

    def launch(j):
        with lock:
            launched.append(j)
        return np.full(3, j) @ np.eye(3)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            launched.clear()
            outs = numpy_batched._drain(launch, list(range(200)))
            assert sorted(launched) == list(range(200))
            assert all(np.array_equal(o, np.full(3, j))
                       for j, o in enumerate(outs))
    finally:
        sys.setswitchinterval(switch)
        numpy_batched._pool().shutdown(wait=True)
        numpy_batched._pool.cache_clear()
