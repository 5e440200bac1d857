"""Abstract tight-binding model interface and shared radial machinery.

A :class:`TBModel` supplies everything the Hamiltonian builder and force
evaluator need:

* per-species orbital count, valence electron count, on-site energies;
* hopping (and optionally overlap) radial channel values **and radial
  derivatives** for any species pair at arbitrary distances;
* the repulsive interaction: a pair function φ(r) plus an optional
  embedding function f so that ``E_rep = Σ_i f(Σ_j φ(r_ij))`` (plain
  pairwise repulsion is ``f(x) = x``).

All radial functions must go *smoothly* (C¹) to zero at ``model.cutoff`` —
the shared :func:`quintic_switch` guarantees this and keeps MD forces
continuous.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ModelError


# ---------------------------------------------------------------------------
# Shared radial forms
# ---------------------------------------------------------------------------

def gsp_scaling(r, r0: float, n: float, nc: float, rc: float):
    """Goodwin–Skinner–Pettifor radial scaling and derivative.

    .. math::
        s(r) = (r_0/r)^n \\exp\\{ n [ -(r/r_c)^{n_c} + (r_0/r_c)^{n_c} ] \\}

    Returns ``(s, ds/dr)``.  This is the universal distance dependence of
    the 1990s TB parametrisations (GSP silicon, XWCH carbon).
    """
    r = np.asarray(r, dtype=float)
    ratio = r0 / r
    expo = n * (-((r / rc) ** nc) + (r0 / rc) ** nc)
    s = ratio**n * np.exp(expo)
    # ds/dr = s * [ -n/r − n·nc/r · (r/rc)^nc ]
    ds = s * (-(n / r) - (n * nc / r) * (r / rc) ** nc)
    return s, ds


def quintic_switch(r, r_on: float, r_off: float):
    """C²-smooth switching function S(r): 1 below *r_on*, 0 above *r_off*.

    Uses the quintic smoothstep ``1 − 10t³ + 15t⁴ − 6t⁵`` on the normalised
    coordinate ``t = (r − r_on)/(r_off − r_on)``.  Returns ``(S, dS/dr)``.
    """
    if not r_off > r_on:
        raise ModelError(f"need r_off > r_on, got {r_on} >= {r_off}")
    r = np.asarray(r, dtype=float)
    t = np.clip((r - r_on) / (r_off - r_on), 0.0, 1.0)
    s = 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
    ds = -30.0 * t * t * (1.0 - t) ** 2 / (r_off - r_on)
    return s, ds


def apply_switch(v, dv, r, r_on: float, r_off: float):
    """Multiply a radial function (value+derivative) by the quintic switch."""
    s, ds = quintic_switch(r, r_on, r_off)
    return v * s, dv * s + v * ds


# ---------------------------------------------------------------------------
# Model interface
# ---------------------------------------------------------------------------

class TBModel(ABC):
    """Abstract two-centre Slater–Koster tight-binding model.

    Subclasses set :attr:`name`, :attr:`species` and :attr:`cutoff` and
    implement the radial methods.  ``cutoff`` must bound *both* the hopping
    and repulsive ranges — the calculator builds one neighbour list for
    both.
    """

    #: Human-readable identifier.
    name: str = "abstract"

    #: Chemical symbols the model supports.
    species: tuple[str, ...] = ()

    #: Interaction cutoff in Å (hopping and repulsion both vanish beyond).
    cutoff: float = 0.0

    #: True if the model defines an overlap matrix (generalised eigenproblem).
    orthogonal: bool = True

    # -- species data --------------------------------------------------------
    @abstractmethod
    def norb(self, symbol: str) -> int:
        """Number of orbitals for *symbol* (1 = s, 4 = sp)."""

    @abstractmethod
    def n_electrons(self, symbol: str) -> float:
        """Valence electron count contributed by *symbol*."""

    @abstractmethod
    def onsite(self, symbol: str) -> np.ndarray:
        """On-site orbital energies, shape ``(norb,)`` (eV)."""

    # -- radial matrix elements ----------------------------------------------
    @abstractmethod
    def hopping(self, sym_i: str, sym_j: str, r: np.ndarray
                ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Hopping channel values and radial derivatives at distances *r*.

        Returns ``(V, dV)``, channel dicts per
        :mod:`repro.tb.slater_koster` (``sps`` = s on atom *i*, p on *j*).
        """

    def overlap(self, sym_i: str, sym_j: str, r: np.ndarray
                ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]] | None:
        """Overlap channels, or ``None`` (implicit) for orthogonal
        models — non-orthogonal models override this."""

    # -- repulsion -------------------------------------------------------------
    @abstractmethod
    def pair_repulsion(self, sym_i: str, sym_j: str, r: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Pair repulsion φ(r) and φ'(r)."""

    def embedding(self, symbol: str, x: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Embedding function ``f(x), f'(x)`` for ``E_rep = Σ_i f(x_i)``.

        Default: identity (plain pairwise repulsion).
        """
        x = np.asarray(x, dtype=float)
        return x, np.ones_like(x)

    # -- helpers ----------------------------------------------------------------
    def check_species(self, symbols) -> None:
        """Raise :class:`ModelError` for any unsupported species."""
        bad = sorted({s for s in symbols} - set(self.species))
        if bad:
            raise ModelError(
                f"model {self.name!r} does not support species {bad}; "
                f"supported: {sorted(self.species)}"
            )

    def _require(self, *symbols: str) -> None:
        """The per-call species guard of the species-keyed methods: a
        tuple lookup while every symbol is supported, the
        :meth:`check_species` error as soon as one is not."""
        for s in symbols:
            if s not in self.species:
                self.check_species(symbols)

    def total_orbitals(self, symbols) -> int:
        return int(sum(self.norb(s) for s in symbols))

    def total_electrons(self, symbols) -> float:
        # one lookup (and species check) per distinct species, not per atom
        per_species = {s: self.n_electrons(s) for s in set(symbols)}
        return float(sum(per_species[s] for s in symbols))

    @staticmethod
    def homonuclear_channels(vss, vsp, vpp_s, vpp_p) -> dict[str, np.ndarray]:
        """Assemble a channel dict for a homonuclear bond (pss = sps)."""
        return {"sss": vss, "sps": vsp, "pss": vsp, "pps": vpp_s, "ppp": vpp_p}

    def describe(self) -> str:
        """One-paragraph summary used by example scripts."""
        kind = "orthogonal" if self.orthogonal else "non-orthogonal"
        return (f"{self.name}: {kind} sp tight-binding model for "
                f"{'/'.join(self.species)}, cutoff {self.cutoff:.2f} Å")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
