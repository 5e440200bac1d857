"""Repo tooling namespace — makes ``python -m tools.reprolint`` work.

The scripts in this directory (check_docs, trace_report, ...) stay
directly runnable; this marker only exists so the :mod:`tools.reprolint`
package can be invoked as a module from the repository root.
"""
