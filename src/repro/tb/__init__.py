"""Tight-binding electronic structure: models, Hamiltonians, forces."""

from repro.tb.calculator import TBCalculator
from repro.tb.bonds import orbital_offsets
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.occupations import (
    fermi_dirac_occupations,
    zero_temperature_occupations,
)
from repro.tb.models import (
    GSPSilicon,
    HarrisonModel,
    NonOrthogonalSilicon,
    XuCarbon,
    get_model,
)
from repro.tb.kpoints import monkhorst_pack, reduced_kgrid
from repro.tb.symmetry import (
    crystal_symmetry_ops,
    irreducible_kpoints,
    lattice_point_group,
    symmetrize_forces,
    symmetrize_virial,
)
from repro.tb.purification import purify_density_matrix
from repro.tb.populations import analyze_populations, bond_order_matrix, mulliken_charges

__all__ = [
    "TBCalculator",
    "build_hamiltonian",
    "orbital_offsets",
    "zero_temperature_occupations",
    "fermi_dirac_occupations",
    "GSPSilicon",
    "XuCarbon",
    "HarrisonModel",
    "NonOrthogonalSilicon",
    "get_model",
    "monkhorst_pack",
    "reduced_kgrid",
    "crystal_symmetry_ops",
    "irreducible_kpoints",
    "lattice_point_group",
    "symmetrize_forces",
    "symmetrize_virial",
    "purify_density_matrix",
    "analyze_populations",
    "bond_order_matrix",
    "mulliken_charges",
]
