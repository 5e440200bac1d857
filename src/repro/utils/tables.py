"""ASCII table / series formatting for the benchmark harness.

The benchmark scripts print the same rows the paper's tables report; this
module keeps the formatting consistent and testable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any


class Table:
    """A simple column-aligned ASCII table.

    >>> t = Table(["N", "t_step (s)"])
    >>> t.add_row([64, 0.0123])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str | None = None,
                 float_fmt: str = "{:.4g}"):
        self.headers = [str(h) for h in headers]
        self.title = title
        self.float_fmt = float_fmt
        self.rows: list[list[str]] = []

    def add_row(self, values: Iterable[Any]) -> None:
        row = [self._fmt(v) for v in values]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} entries, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def _fmt(self, v: Any) -> str:
        if isinstance(v, bool):
            return str(v)
        if isinstance(v, float):
            return self.float_fmt.format(v)
        return str(v)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "  "
        out = []
        if self.title:
            out.append(self.title)
        out.append(sep.join(h.rjust(w) for h, w in zip(self.headers, widths)))
        out.append(sep.join("-" * w for w in widths))
        for row in self.rows:
            out.append(sep.join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a crude unicode sparkline, used by example scripts to give a
    sense of a trace without matplotlib (offline environment)."""
    blocks = "▁▂▃▄▅▆▇█"
    vals = list(values)
    if not vals:
        return ""
    if len(vals) > width:
        # average-pool down to `width` buckets
        stride = len(vals) / width
        pooled = []
        for i in range(width):
            lo = int(i * stride)
            hi = max(lo + 1, int((i + 1) * stride))
            chunk = vals[lo:hi]
            pooled.append(sum(chunk) / len(chunk))
        vals = pooled
    vmin, vmax = min(vals), max(vals)
    span = vmax - vmin or 1.0
    return "".join(blocks[int((v - vmin) / span * (len(blocks) - 1))] for v in vals)
