"""Linear-scaling electronic structure (Goedecker–Colombo O(N) TBMD).

The subsystem that removes the O(N³) eigensolve from the MD step:

* :mod:`~repro.linscale.sparse_hamiltonian` — CSR H and H(k) on the
  step's bond table (the dense builder's entries, summed in CSR);
* :mod:`~repro.linscale.regions` — per-atom localization regions
  (core + halo subgraphs of the neighbour graph within ``r_loc``);
* :mod:`~repro.linscale.foe_local` — the Chebyshev Fermi-operator
  expansion evaluated region-by-region, once, for a weighted list of
  Hamiltonians H(k): moments → one common μ, core density rows → band
  energy, entropy, Mulliken populations, Hellmann–Feynman forces; its
  public names are the Γ-point (one-point grid, real dtype) signatures;
* :mod:`~repro.linscale.kfoe` — the k-sampled signatures of the same
  driver: complex Bloch Hamiltonians H(k), one spectral window per k,
  MP-weighted moments, weighted per-k density matrices and forces
  (small-cell metals, strain sweeps);
* :mod:`~repro.linscale.backends` — the array backends of the region
  operations (``numpy_batched`` shape-bucketed stacked GEMMs, the
  default; ``eigh``, one diagonalisation per region block, the
  reference), selected per calculator/solve or via ``REPRO_BACKEND``;
* :mod:`~repro.linscale.calculator` — :class:`LinearScalingCalculator`
  (drop-in for :class:`~repro.tb.calculator.TBCalculator` in MD,
  relaxation and the CLI, Γ or k-sampled via ``kpts=``; ``solver: foe``
  is it on one all-core region) and :class:`DensityMatrixCalculator`
  (dense purification, behind the same interface).
"""

from repro.linscale.backends import (
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.linscale.calculator import (
    DensityMatrixCalculator,
    LinearScalingCalculator,
)
from repro.linscale.foe_local import (
    RegionFOEResult,
    chemical_potential_from_moments,
    solve_density_regions,
    solve_density_regions_fused,
    sparse_band_forces,
)
from repro.linscale.kfoe import (
    solve_density_regions_k,
    solve_density_regions_k_fused,
    sparse_band_forces_k,
    spectral_windows_k,
)
from repro.linscale.regions import (
    LocalizationRegion,
    all_core_region,
    extract_regions,
    region_statistics,
)
from repro.linscale.sparse_hamiltonian import SparseHamiltonianBuilder

__all__ = [
    "LinearScalingCalculator",
    "DensityMatrixCalculator",
    "RegionFOEResult",
    "solve_density_regions",
    "solve_density_regions_fused",
    "solve_density_regions_k",
    "solve_density_regions_k_fused",
    "sparse_band_forces",
    "sparse_band_forces_k",
    "spectral_windows_k",
    "chemical_potential_from_moments",
    "LocalizationRegion",
    "all_core_region",
    "extract_regions",
    "region_statistics",
    "SparseHamiltonianBuilder",
    "available_backends",
    "get_backend",
    "resolve_backend",
]
