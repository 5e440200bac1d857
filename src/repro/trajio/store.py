"""Result-ref store: named ``.ptrj`` files behind opaque handles.

The service keeps trajectories *out* of response payloads: a worker
writes frames into the store and ships only the small ``traj_ref``
string back in the :class:`~repro.service.protocol.Result` envelope;
clients then fetch frame ranges lazily through the ``frames`` op.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading

from repro.trajio.reader import TrajectoryReader
from repro.trajio.writer import TrajectoryWriter

_SAFE = re.compile(r"[^\w.-]+")


class TrajStore:
    """A directory of ref-addressed trajectory files.

    With ``root=None`` the store owns a temporary directory that is
    deleted on :meth:`close`; with an explicit root the files persist
    (the campaign artifact case).
    """

    def __init__(self, root: str | os.PathLike[str] | None = None) -> None:
        self._tmp: tempfile.TemporaryDirectory[str] | None = None
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="trajstore-")
            self.root = self._tmp.name
        else:
            self.root = os.fspath(root)
            os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._counter = 0
        self._refs: dict[str, str] = {}

    # -- refs ----------------------------------------------------------------
    def create(self, label: str = "traj") -> str:
        """Reserve a new ref (the file appears once a writer writes it)."""
        with self._lock:
            self._counter += 1
            ref = f"{_SAFE.sub('_', label)}-{self._counter:06d}"
            self._refs[ref] = os.path.join(self.root, ref + ".ptrj")
            return ref

    def writer(self, ref: str, **kwargs: object) -> TrajectoryWriter:
        """A :class:`TrajectoryWriter` for *ref* (kwargs pass through)."""
        return TrajectoryWriter(self.path(ref), **kwargs)  # type: ignore[arg-type]

    def path(self, ref: str) -> str:
        with self._lock:
            if ref not in self._refs:
                raise KeyError(f"unknown traj_ref {ref!r}")
            return self._refs[ref]

    def open(self, ref: str) -> TrajectoryReader:
        return TrajectoryReader(self.path(ref))

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
        with self._lock:
            self._refs.clear()
