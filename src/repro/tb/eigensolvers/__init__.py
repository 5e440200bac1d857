"""Dense symmetric eigensolvers: LAPACK and cyclic Jacobi.

``scipy.linalg.eigh`` is the production solver (the modern EISPACK the
1994 code would have called), and the only one a calculator runs.  The
from-scratch Jacobi solver stays because the parallel-diagonalisation
story of the era is built on Jacobi rotations: the distributed
algorithm in :mod:`repro.parallel.jacobi` (the F3 model) executes the
same sweeps, and benchmark A2 times it against LAPACK.
"""

from repro.tb.eigensolvers.lapack import solve_eigh
from repro.tb.eigensolvers.jacobi import jacobi_eigh

_SOLVERS = {
    "lapack": solve_eigh,
    "jacobi": jacobi_eigh,
}


def get_solver(name: str):
    """Look up a solver callable ``(H, S=None) -> (eigenvalues, vectors)``."""
    try:
        return _SOLVERS[name]
    except KeyError:
        known = ", ".join(sorted(_SOLVERS))
        raise KeyError(f"unknown eigensolver {name!r}; known: {known}") from None


__all__ = ["solve_eigh", "jacobi_eigh", "get_solver"]
