"""Xu–Wang–Chan–Ho orthogonal tight-binding model for carbon.

C. H. Xu, C. Z. Wang, C. T. Chan and K. M. Ho, *J. Phys.: Condens. Matter*
**4**, 6047 (1992).  The transferable carbon TBMD model of the 1990s —
used for fullerenes, liquid/amorphous carbon, and the nanotube simulations
that this library's application examples emulate.

Minimal sp³ basis; GSP-form distance scaling for the hoppings; pairwise
repulsion φ(r) fed through a 4th-order polynomial **embedding** function:
``E_rep = Σ_i f(Σ_j φ(r_ij))``.

Parameters (eV, Å):

* on-site: E_s = −2.99, E_p = +3.71  (4 valence electrons)
* hoppings at r₀ = 1.536329: ssσ = −5.00, spσ = +4.70, ppσ = +5.50,
  ppπ = −1.55; scaling n = 2.0, n_c = 6.5, r_c = 2.18
* repulsion: φ₀ = 8.18555, d₀ = 1.64, m = 3.30304, m_c = 8.6655,
  d_c = 2.1052
* embedding f(x) = Σ_k c_k x^k with
  c = (−2.5909765118191, 0.5721151498619, −1.7896349903996e−3,
  2.3539221516757e−5, −1.24251169551587e−7)

The published model switches both radial functions off around 2.6 Å
(between the first and second neighbour shells of diamond); we use the
shared quintic switch over [2.45, 2.60] Å.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.tb.models.base import TBModel, apply_switch, gsp_scaling


class XuCarbon(TBModel):
    """XWCH orthogonal sp³ carbon model with embedded repulsion."""

    name = "xu-carbon"
    species = ("C",)
    orthogonal = True

    E_S = -2.99
    E_P = 3.71

    R0 = 1.536329
    V0 = {"sss": -5.00, "sps": 4.70, "pps": 5.50, "ppp": -1.55}
    N = 2.0
    NC = 6.5
    RC = 2.18

    PHI0 = 8.18555
    D0 = 1.64
    M = 3.30304
    MC = 8.6655
    DC = 2.1052

    EMB_COEFF = (
        -2.5909765118191,
        0.5721151498619,
        -1.7896349903996e-3,
        2.3539221516757e-5,
        -1.24251169551587e-7,
    )

    def __init__(self, r_on: float = 2.45, r_off: float = 2.60):
        if not r_off > r_on > self.R0:
            raise ModelError("switch window must satisfy r0 < r_on < r_off")
        self.r_on = float(r_on)
        self.r_off = float(r_off)
        self.cutoff = float(r_off)

    # -- species data -----------------------------------------------------------
    def norb(self, symbol: str) -> int:
        self._require(symbol)
        return 4

    def n_electrons(self, symbol: str) -> float:
        self._require(symbol)
        return 4.0

    def onsite(self, symbol: str) -> np.ndarray:
        self._require(symbol)
        return np.array([self.E_S, self.E_P, self.E_P, self.E_P])

    # -- matrix elements -----------------------------------------------------------
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
        s, ds = gsp_scaling(r, self.D0, self.M, self.MC, self.DC)
        phi, dphi = self.PHI0 * s, self.PHI0 * ds
        return apply_switch(phi, dphi, r, self.r_on, self.r_off)

    def embedding(self, symbol: str, x: np.ndarray):
        self._require(symbol)
        x = np.asarray(x, dtype=float)
        c = self.EMB_COEFF
        # The constant term c0 applies to every atom (including isolated
        # ones, x = 0) — it is a per-atom energy shift, so f stays smooth
        # as neighbours cross the cutoff and cancels in energy differences
        # between equal-composition structures.
        f = c[0] + x * (c[1] + x * (c[2] + x * (c[3] + x * c[4])))
        df = c[1] + x * (2 * c[2] + x * (3 * c[3] + x * 4 * c[4]))
        return f, df
