"""Goodwin–Skinner–Pettifor orthogonal tight-binding model for silicon.

L. Goodwin, A. J. Skinner and D. G. Pettifor, *Europhys. Lett.* **9**, 701
(1989) — *the* silicon TBMD parametrisation of the early 1990s and the
model behind most SC-era parallel TBMD demonstrations.  Minimal sp³ basis,
orthogonal, with the GSP radial scaling for both the hopping integrals and
the pairwise repulsion.

Parameters (eV, Å):

* on-site: E_s = −5.25, E_p = +1.20
* hoppings at r₀ = 2.360352: ssσ = −1.820, spσ = +1.960, ppσ = +3.060,
  ppπ = −0.870; scaling n = 2, n_c = 6.48, r_c = 3.67
* repulsion: GSP pairwise form φ(r) = φ₀ (r₀/r)^m exp{m[−(r/d_c)^{m_c}
  + (r₀/d_c)^{m_c}]} with φ₀ = 2.120477, m = 4.930725, m_c = 16.879864,
  d_c = 3.67.

**Repulsive recalibration (documented substitution).**  The electronic
parameters above are the published GSP/Kwon values; the original repulsive
coefficients were not available offline, so (φ₀, m, m_c) were refit — with
the published functional form — to three exact conditions on the
4×4×4-k-sampled diamond crystal: equilibrium at the experimental lattice
constant a₀ = 5.431 Å, cohesive energy 4.63 eV/atom (against the
free-atom band reference 2E_s + 2E_p = −8.1 eV), and bulk modulus 98 GPa.
These are the same targets GSP fitted to, so the refit preserves the
model's physics; see docs/architecture.md.

Both radial functions are multiplied by a quintic switch between
``r_on = 3.8`` and ``r_off = 4.16`` Å so forces stay continuous; at those
distances the GSP exponential has already suppressed the magnitude to
< 1 % of its first-neighbour value, so bulk properties are unaffected.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.tb.models.base import TBModel, apply_switch, gsp_scaling


class GSPSilicon(TBModel):
    """GSP orthogonal sp³ silicon model."""

    name = "gsp-silicon"
    species = ("Si",)
    orthogonal = True

    # on-site energies (eV)
    E_S = -5.25
    E_P = 1.20

    # hopping parameters
    R0 = 2.360352
    V0 = {"sss": -1.820, "sps": 1.960, "pps": 3.060, "ppp": -0.870}
    N = 2.0
    NC = 6.48
    RC = 3.67

    # repulsive parameters (refit; see module docstring)
    PHI0 = 2.120477
    M = 4.930725
    MC = 16.879864
    DC = 3.67

    def __init__(self, r_on: float = 3.80, r_off: float = 4.16):
        if not r_off > r_on > self.R0:
            raise ModelError("switch window must satisfy r0 < r_on < r_off")
        self.r_on = float(r_on)
        self.r_off = float(r_off)
        self.cutoff = float(r_off)

    # -- species data ---------------------------------------------------------
    def norb(self, symbol: str) -> int:
        self._require(symbol)
        return 4

    def n_electrons(self, symbol: str) -> float:
        self._require(symbol)
        return 4.0

    def onsite(self, symbol: str) -> np.ndarray:
        self._require(symbol)
        return np.array([self.E_S, self.E_P, self.E_P, self.E_P])

    # -- matrix elements --------------------------------------------------------
    def hopping(self, sym_i: str, sym_j: str, r: np.ndarray):
        self._require(sym_i, sym_j)
        r = np.asarray(r, dtype=float)
        s, ds = gsp_scaling(r, self.R0, self.N, self.NC, self.RC)
        s, ds = apply_switch(s, ds, r, self.r_on, self.r_off)
        V, dV = {}, {}
        for ch, v0 in self.V0.items():
            V[ch] = v0 * s
            dV[ch] = v0 * ds
        V["pss"] = V["sps"]
        dV["pss"] = dV["sps"]
        return V, dV

    def pair_repulsion(self, sym_i: str, sym_j: str, r: np.ndarray):
        self._require(sym_i, sym_j)
        r = np.asarray(r, dtype=float)
        s, ds = gsp_scaling(r, self.R0, self.M, self.MC, self.DC)
        phi, dphi = self.PHI0 * s, self.PHI0 * ds
        return apply_switch(phi, dphi, r, self.r_on, self.r_off)
