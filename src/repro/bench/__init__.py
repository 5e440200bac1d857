"""Benchmark support: workload generators and reporting."""

from repro.bench.workloads import silicon_supercell
from repro.bench.reporting import print_table

__all__ = ["silicon_supercell", "print_table"]
