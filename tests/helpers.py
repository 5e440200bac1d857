"""Shared test helpers (importable, unlike conftest).

One finite-difference force stencil and one force comparator for the
whole suite — ``test_forces``, ``test_kfoe``, ``test_linscale`` and the
symmetry parity tests all used to carry private copies of both — plus
the fault-injecting calculator wrapper the MD and relaxation rollback
tests share.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ElectronicError


def fd_forces(atoms, calc_factory, h: float = 1e-5, atom_indices=None,
              components=None) -> np.ndarray:
    """Central-difference forces ``−ΔF/Δx`` on the *free energy*.

    The free energy is the variational quantity whose gradient the
    Hellmann–Feynman force equals at fixed electronic temperature (and
    equals the plain energy at kT = 0, so the distinction costs
    nothing).  ``calc_factory()`` must return a *fresh* calculator so
    caching never contaminates the stencil.

    Parameters
    ----------
    atom_indices :
        Restrict the stencil to these atoms (all by default) — each
        differentiated component costs two full evaluations.
    components :
        Even finer restriction: an iterable of ``(atom, axis)`` pairs.
        Overrides *atom_indices*.

    Entries not differenced are left at zero.
    """
    n = len(atoms)
    if components is None:
        idx = range(n) if atom_indices is None else atom_indices
        components = [(i, c) for i in idx for c in range(3)]
    f = np.zeros((n, 3))
    for i, c in components:
        ap = atoms.copy(); ap.positions[i, c] += h
        am = atoms.copy(); am.positions[i, c] -= h
        ep = _free_energy(calc_factory(), ap)
        em = _free_energy(calc_factory(), am)
        f[i, c] = -(ep - em) / (2.0 * h)
    return f


def _free_energy(calc, atoms) -> float:
    if hasattr(calc, "get_free_energy"):
        return calc.get_free_energy(atoms)
    return calc.get_potential_energy(atoms)


def assert_forces_match(actual, expected, atol: float = 1e-6,
                        indices=None, label: str = "forces") -> None:
    """Assert two (N, 3) force arrays agree to *atol* (eV/Å).

    With *indices*, only those atoms' rows are compared — the partner of
    a partial :func:`fd_forces` stencil.
    """
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if indices is not None:
        a, e = a[list(indices)], e[list(indices)]
    np.testing.assert_allclose(a, e, rtol=0, atol=atol,
                               err_msg=f"{label} disagree beyond "
                                       f"{atol} eV/Å")


class FailsOnce:
    """Calculator wrapper whose *fail_on*-th ``compute`` raises before
    reaching the wrapped calculator — or, wrapping a plain callable such
    as a calculator's eigensolver, whose *fail_on*-th call does."""

    def __init__(self, calc, fail_on: int):
        self.calc = calc
        self.fail_on = fail_on
        self.calls = 0

    def _count(self) -> None:
        self.calls += 1
        if self.calls == self.fail_on:
            raise ElectronicError("injected failure")

    def compute(self, atoms, forces=True):
        self._count()
        return self.calc.compute(atoms, forces=forces)

    def __call__(self, *args, **kwargs):
        self._count()
        return self.calc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.calc, name)
