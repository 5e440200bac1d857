"""Perf ledger v1 — the repo's benchmark of record.

Four named workloads, nine end-to-end metrics and an outside-in layer
trace, run by one command::

    PYTHONPATH=src python -m benchmarks.ledger run --seed 12 [--trace]
    python -m benchmarks.ledger compare A.json B.json

``BENCHMARK.json`` at the repo root drives the same workloads one at a
time through ``python3 -m benchmarks.ledger bench``.  The vocabulary
(workload, metric and span names) lives in :mod:`benchmarks.ledger.spec`
and is documented in ``benchmarks/ledger/README.md``.

Importing this package touches nothing outside the standard library:
``repro`` is imported only inside the workload child process, after the
BLAS thread pins are in its environment.
"""

LEDGER_VERSION = 1
