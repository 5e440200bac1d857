"""Standard MD observers: thermo logging, trajectory capture and files."""

from __future__ import annotations

import sys

from repro.md.trajectory import Trajectory
from repro.trajio.stream import open_writer


class ThermoLog:
    """Accumulates per-step thermodynamic records into plain lists.

    Attributes (`steps`, `times`, `epot`, `ekin`, `etot`, `temperature`,
    `conserved`) are parallel lists; :meth:`asdict` returns numpy arrays.
    """

    def __init__(self):
        self.steps: list[int] = []
        self.times: list[float] = []
        self.epot: list[float] = []
        self.ekin: list[float] = []
        self.etot: list[float] = []
        self.temperature: list[float] = []
        self.conserved: list[float] = []

    def __call__(self, step, atoms, data) -> None:
        self.steps.append(data["step"])
        self.times.append(data["time_fs"])
        self.epot.append(data["epot"])
        self.ekin.append(data["ekin"])
        self.etot.append(data["etot"])
        self.temperature.append(data["temperature"])
        self.conserved.append(data["conserved"])

    def asdict(self) -> dict:
        import numpy as np

        return {k: np.asarray(getattr(self, k))
                for k in ("steps", "times", "epot", "ekin", "etot",
                          "temperature", "conserved")}

    def conserved_drift(self) -> float:
        """Max relative excursion of the conserved quantity, |ΔH'/H'₀|."""
        import numpy as np

        c = np.asarray(self.conserved)
        if len(c) < 2:
            return 0.0
        ref = abs(c[0]) if c[0] != 0 else 1.0
        return float(np.max(np.abs(c - c[0])) / ref)


class TrajectoryRecorder:
    """Stores frames into a :class:`~repro.md.trajectory.Trajectory`."""

    def __init__(self, trajectory: Trajectory | None = None):
        self.trajectory = trajectory if trajectory is not None else Trajectory()

    def __call__(self, step, atoms, data) -> None:
        self.trajectory.append(atoms, step=data["step"],
                               time_fs=data["time_fs"], epot=data["epot"])


class TrajectoryObserver:
    """Streams frames to a trajectory file as the run progresses.

    A path goes through :func:`repro.trajio.open_writer` (codec by
    suffix, keyword arguments reach the writer); an already-open writer
    is used as is.  :meth:`close` it (or use it as a context manager)
    so a ``.ptrj`` file gets its frame index.
    """

    def __init__(self, path_or_writer, **kwargs):
        self.writer = path_or_writer if hasattr(path_or_writer, "write") \
            else open_writer(path_or_writer, **kwargs)

    def __call__(self, step, atoms, data) -> None:
        self.writer.write(atoms, step=data["step"],
                          time_fs=data["time_fs"], epot=data["epot"],
                          ekin=data["ekin"],
                          temperature=data["temperature"])

    def close(self) -> None:
        self.writer.close()

    def __enter__(self) -> "TrajectoryObserver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProgressPrinter:
    """Prints a one-line thermo summary (for example scripts)."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stdout
        self._header_done = False

    def __call__(self, step, atoms, data) -> None:
        if not self._header_done:
            self.stream.write(
                f"{'step':>8} {'t(fs)':>10} {'Epot(eV)':>14} "
                f"{'Ekin(eV)':>12} {'T(K)':>10} {'conserved':>14}\n")
            self._header_done = True
        self.stream.write(
            f"{data['step']:>8d} {data['time_fs']:>10.1f} "
            f"{data['epot']:>14.6f} {data['ekin']:>12.6f} "
            f"{data['temperature']:>10.1f} {data['conserved']:>14.6f}\n")
