"""Benchmark output helpers: consistent table/series printing."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.utils.tables import Table


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence[Any]], float_fmt="{:.4g}") -> str:
    """Render and print a benchmark table; returns the rendered string."""
    t = Table(headers, title=f"== {title} ==", float_fmt=float_fmt)
    for row in rows:
        t.add_row(row)
    text = t.render()
    print("\n" + text)
    return text
