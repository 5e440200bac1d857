"""Vacancy-formation scenario.

E_f = E(N−1) − (N−1)/N · E(N) (see
:func:`repro.geometry.defects.vacancy_formation_energy`): the perfect
cell evaluates on its resident calculator, and the vacancy cell is
loaded as a scratch structure with the *same* calculator spec behind a
:class:`~repro.service.calculator.RemoteCalculator`.  With
``relax_steps > 0`` it is relaxed there by ``cli relax``'s default
relaxer (conjugate gradients, one ``eval`` per trial point).  The
scratch structure is unloaded whatever happens: a failing cell must not
leak resident state.
"""

from __future__ import annotations

from repro.geometry.defects import make_vacancy, vacancy_formation_energy
from repro.relax import RELAXERS
from repro.scenarios.base import (
    ParamSpec, Scenario, ScenarioResult, StructureHandle, register_scenario,
)
from repro.service.calculator import RemoteCalculator

#: ``cli relax``'s defaults: its relaxer and force threshold (eV/Å)
RELAXER, FMAX = "cg", 0.05


@register_scenario
class VacancyScenario(Scenario):
    name = "vacancy"
    tags = ("static", "defects")
    description = ("unrelaxed/relaxed vacancy formation energy "
                   "via a scratch service load")
    params = (
        ParamSpec("index", int, 0, "atom removed from the perfect cell"),
        ParamSpec("relax_steps", int, 0,
                  "CG iteration cap on the defect cell (0 = unrelaxed)"),
    )

    def run(self, client, structure: StructureHandle,
            params: dict) -> ScenarioResult:
        perfect = client.evaluate(structure.structure_id, forces=False)
        n_perfect = int(perfect["natoms"])
        defect_atoms = make_vacancy(structure.atoms.copy(),
                                    index=params["index"])
        scratch = structure.scratch_id("vacancy")
        calc = RemoteCalculator(client, scratch, atoms=defect_atoms,
                                calc=structure.calc_spec)
        relaxed = None
        try:
            if params["relax_steps"] > 0:
                relaxed = RELAXERS[RELAXER](defect_atoms, calc, fmax=FMAX,
                                            max_steps=params["relax_steps"])
            defect = calc.compute(defect_atoms, forces=False)
        finally:
            client.unload(scratch)
        e_perfect = float(perfect["energy"])
        e_defect = float(defect["energy"])
        e_f = vacancy_formation_energy(e_defect, e_perfect, n_perfect)
        metrics = {"formation_ev": e_f, "e_perfect_ev": e_perfect,
                   "e_defect_ev": e_defect}
        if relaxed is not None:
            metrics.update(converged=relaxed.converged,
                           iterations=relaxed.iterations,
                           fmax_final=relaxed.fmax)
        return ScenarioResult(
            self.name, metrics=metrics,
            value={"natoms_perfect": n_perfect,
                   "natoms_defect": len(defect_atoms),
                   "removed_index": params["index"],
                   "relax_steps": params["relax_steps"], **metrics})
