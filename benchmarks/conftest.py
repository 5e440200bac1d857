"""Shared benchmark fixtures.

The calibration (measured per-phase flop coefficients) is computed once
per session and shared by every parallel-model benchmark, mirroring how
the paper's model parameters were measured once on the target machine.

``--quick`` switches A7 (the O(N) crossover) into a tiny smoke mode:
small systems, few repeats, and **no performance assertions** — the CI
bench-smoke job runs it on every PR to catch crashes, not regressions.
Timings of record come from the perf ledger (``benchmarks/ledger``).
"""

from __future__ import annotations

import pytest

from repro.parallel import MachineSpec, ReplicatedDataModel, calibrate_step
from repro.tb import GSPSilicon


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="tiny benchmark smoke mode: small systems, no performance "
             "assertions (crash detection only)")


@pytest.fixture(scope="session")
def quick(request) -> bool:
    return bool(request.config.getoption("--quick"))


@pytest.fixture(scope="session")
def calibration():
    """Measured host calibration on 8→64-atom diamond Si."""
    return calibrate_step(GSPSilicon(), sizes=(1, 2), repeats=2)


@pytest.fixture(scope="session")
def paragon_model(calibration):
    return ReplicatedDataModel(calibration, MachineSpec.paragon())


@pytest.fixture(scope="session")
def modern_model(calibration):
    return ReplicatedDataModel(calibration, MachineSpec.modern())
