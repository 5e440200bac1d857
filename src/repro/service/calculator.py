"""A client-side calculator backed by the batch service.

:class:`RemoteCalculator` implements the calculator surface the MD
driver and the relaxers consume (``compute`` / ``get_potential_energy``
/ ``get_forces``) but forwards every evaluation to a service-resident
structure — the structure's sticky worker keeps the real calculator's
state warm between calls, so a client-side MD loop gets the fast path
"for free" across process boundaries.

The positions (and cell, when it changes) are shipped with every
``compute``; results come back as plain floats/arrays.  ``state_report``
returns locally counted client-side statistics — deliberately *not* a
``stats`` round-trip, so the MD driver's per-step ``calc_report``
attachment stays cheap.
"""

from __future__ import annotations

import numpy as np

from repro.state import CalculatorBase


class RemoteCalculator(CalculatorBase):
    """Evaluate a service-resident structure through a client.

    Parameters
    ----------
    client :
        A :class:`~repro.service.client.BatchClient` or
        :class:`~repro.service.client.SocketClient`.
    structure_id :
        The resident structure this calculator drives.
    atoms, calc :
        When given, ``load`` the structure on construction (otherwise it
        must already be resident).
    """

    def __init__(self, client, structure_id: str, atoms=None,
                 calc: dict | None = None):
        super().__init__()
        self.client = client
        self.structure_id = structure_id
        self._last_cell = None
        if atoms is not None:
            self.client.load(structure_id, atoms, calc=calc)
            self._last_cell = np.array(atoms.cell.matrix, dtype=float)

    def compute(self, atoms, forces: bool = True) -> dict:
        cell = np.asarray(atoms.cell.matrix, dtype=float)
        send_cell = (self._last_cell is None
                     or not np.array_equal(cell, self._last_cell))
        res = self.client.evaluate(
            self.structure_id, positions=atoms.positions,
            cell=cell if send_cell else None, forces=forces)
        self._last_cell = cell.copy()
        self.counts.counter_inc("remote.evals")
        if res.get("warm"):
            self.counts.counter_inc("remote.warm_evals")
        return res

    def _reset_persistent(self) -> None:
        """Nothing is cached client-side; the resident state is the
        service's to manage."""

    def state_report(self) -> dict:
        """Client-side counters only (no server round-trip)."""
        return {"remote": True, "structure_id": self.structure_id,
                "evals": self.counts.count("remote.evals"),
                "warm_evals": self.counts.count("remote.warm_evals")}

    def __repr__(self) -> str:
        return (f"RemoteCalculator(structure_id={self.structure_id!r}, "
                f"evals={self.counts.count('remote.evals')})")
