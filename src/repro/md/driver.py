"""The MD driver loop: integrator + calculator + observers.

The driver owns no physics — it initialises the integrator, steps it, and
fans out a per-step data record to observers.  Observer signature:
``observer(step, atoms, data)`` with ``data`` containing at least
``epot``, ``ekin``, ``etot``, ``temperature``, ``conserved``, ``time_fs``
(energies in eV, temperature in K, time in fs).

The driver is also where the MD fast path pays off: calculators keep
persistent step-to-step state (Verlet skin lists, Hamiltonian patterns,
localization regions, the chemical potential — see
:mod:`repro.state`), and because the driver evolves ``atoms`` in place
and asks for energy *and* forces in one ``compute`` per step, every
consecutive step is a positions-only change that the calculators absorb
incrementally.  Each data record carries the calculator's
``state_report()`` under ``data["calc_report"]`` so observers and
post-run analysis can audit rebuild-vs-reuse behaviour.
"""

from __future__ import annotations

import numpy as np

from repro import obs as _obs
from repro.errors import MDError
from repro.utils.timing import tick


class MDDriver:
    """Run molecular dynamics.

    Parameters
    ----------
    atoms :
        Structure evolved **in place**.
    calc :
        A :class:`~repro.tb.calculator.TBCalculator` (or any other
        :class:`~repro.state.CalculatorBase`).
    integrator :
        A :class:`~repro.md.verlet.Integrator`.
    observers :
        Iterable of ``(observer, interval)`` pairs or bare observers
        (interval 1).
    blowup_temperature :
        Abort threshold (K): an exploding trajectory (bad dt, overlapping
        atoms) fails fast with a clear message instead of NaN-ing through
        the eigensolver.
    """

    def __init__(self, atoms, calc, integrator, observers=(),
                 blowup_temperature: float = 1.0e6):
        self.atoms = atoms
        self.calc = calc
        self.integrator = integrator
        self.observers: list[tuple] = []
        for obs in observers:
            if isinstance(obs, tuple):
                self.add_observer(*obs)
            else:
                self.add_observer(obs)
        self.blowup_temperature = float(blowup_temperature)
        self.step_count = 0
        self._initialized = False

    def add_observer(self, observer, interval: int = 1) -> None:
        if interval < 1:
            raise MDError("observer interval must be >= 1")
        self.observers.append((observer, int(interval)))

    # -- main loop ---------------------------------------------------------------
    def run(self, nsteps: int) -> dict:
        """Advance the trajectory by *nsteps* integrator steps.

        The first call initialises the integrator (one extra force
        evaluation) and emits a step-0 snapshot to the observers; calls
        compose, so ``run(5); run(5)`` equals ``run(10)``.

        Returns
        -------
        dict — the last step's data record: ``step``, ``time_fs`` (fs),
        ``epot`` / ``ekin`` / ``etot`` / ``conserved`` (eV),
        ``temperature`` (K), ``results`` (the calculator's full results
        dict) and ``calc_report`` (rebuild-vs-reuse diagnostics) when
        the calculator provides one.  Stepped records additionally carry
        ``step_seconds`` (wall time of the step); its per-phase split is
        the calculator's ``calc.*`` spans (:mod:`repro.obs`).
        """
        if nsteps < 0:
            raise MDError("nsteps must be >= 0")
        if not self._initialized:
            res = self.integrator.initialize(self.atoms, self.calc)
            self._initialized = True
            data = self._record(res)
            self._notify(data)   # step 0 snapshot
        data = None
        for _ in range(nsteps):
            t0 = tick()
            with _obs.span("md.step") as sp:
                res = self.integrator.step(self.atoms, self.calc)
                sp.set(step=self.step_count + 1)
            self.step_count += 1
            data = self._record(res)
            data["step_seconds"] = tick() - t0
            _obs.observe("md.step_s", data["step_seconds"])
            if data["temperature"] > self.blowup_temperature or \
                    not np.isfinite(data["etot"]):
                raise MDError(
                    f"trajectory blew up at step {self.step_count}: "
                    f"T = {data['temperature']:.3g} K, "
                    f"E = {data['etot']:.6g} eV — reduce dt or fix overlaps"
                )
            self._notify(data)
        return data if data is not None else self._record(
            self.calc.compute(self.atoms, forces=True))

    def _record(self, res: dict) -> dict:
        epot = res["energy"]
        ekin = self.atoms.kinetic_energy()
        data = {
            "step": self.step_count,
            "time_fs": self.step_count * self.integrator.dt,
            "epot": epot,
            "ekin": ekin,
            "etot": epot + ekin,
            "temperature": self.atoms.temperature(),
            # forces are −∇F at kT > 0, so the trajectory conserves F + K
            "conserved": self.integrator.conserved_quantity(
                self.atoms, res.get("free_energy", epot)),
            "results": res,
        }
        # diagnostics only — a calculator whose stats channel fails
        # independently of compute (e.g. a remote calculator) must not
        # take the trajectory down
        try:
            data["calc_report"] = self.calc.state_report()
        except Exception:
            data["calc_report"] = None
        return data

    def _notify(self, data: dict) -> None:
        for obs, interval in self.observers:
            if self.step_count % interval == 0:
                obs(self.step_count, self.atoms, data)
