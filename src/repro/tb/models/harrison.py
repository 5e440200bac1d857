"""Harrison universal tight-binding model (multi-species, incl. hydrogen).

W. A. Harrison, *Electronic Structure and the Properties of Solids* (1980).
Hopping integrals follow the universal ``V_{ll'm} = η_{ll'm} ħ²/(m_e d²)``
law; on-site energies are Harrison's atomic term values.  The model is
deliberately crude — its role in this library is (a) a *hetero-nuclear*
model exercising the asymmetric sps/pss channels and s-only hydrogen,
(b) a quick band-structure demonstrator, and (c) a source of qualitatively
reasonable C–H / Si–H terminations for the nanotube workloads.

The universal law has no repulsion; we pair it with a Born–Mayer
``A·exp(−r/ρ)`` repulsion whose defaults are calibrated to give sensible
bond lengths (not quantitative energetics).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.tb.models.base import TBModel, apply_switch

#: ħ²/m_e in eV·Å².
HBAR2_OVER_ME = 7.62

#: Harrison universal η coefficients.
ETA = {"sss": -1.40, "sps": 1.84, "pps": 3.24, "ppp": -0.81}

#: Harrison atomic term values (eV): (E_s, E_p).  Hydrogen is s-only.
TERM_VALUES = {
    "H": (-13.61, None),
    "C": (-17.52, -8.97),
    "Si": (-13.55, -6.52),
    "Ge": (-14.38, -6.36),
}

#: Valence electrons.
VALENCE = {"H": 1.0, "C": 4.0, "Si": 4.0, "Ge": 4.0}


class HarrisonModel(TBModel):
    """Universal sp model for H/C/Si/Ge with Born–Mayer repulsion."""

    name = "harrison-universal"
    species = tuple(TERM_VALUES)
    orthogonal = True

    def __init__(self, cutoff: float = 3.2, switch_width: float = 0.4,
                 rep_a: float = 180.0, rep_rho: float = 0.40):
        if cutoff <= switch_width:
            raise ModelError("cutoff must exceed switch_width")
        self.cutoff = float(cutoff)
        self.r_on = float(cutoff - switch_width)
        self.rep_a = float(rep_a)
        self.rep_rho = float(rep_rho)

    # -- species data ---------------------------------------------------------
    def norb(self, symbol: str) -> int:
        self._require(symbol)
        return 1 if TERM_VALUES[symbol][1] is None else 4

    def n_electrons(self, symbol: str) -> float:
        self._require(symbol)
        return VALENCE[symbol]

    def onsite(self, symbol: str) -> np.ndarray:
        self._require(symbol)
        es, ep = TERM_VALUES[symbol]
        if ep is None:
            return np.array([es])
        return np.array([es, ep, ep, ep])

    # -- matrix elements ----------------------------------------------------------
    def hopping(self, sym_i: str, sym_j: str, r: np.ndarray):
        self._require(sym_i, sym_j)
        r = np.asarray(r, dtype=float)
        base = HBAR2_OVER_ME / (r * r)
        dbase = -2.0 * HBAR2_OVER_ME / (r * r * r)
        V, dV = {}, {}
        for ch in ("sss", "pps", "ppp"):
            V[ch] = ETA[ch] * base
            dV[ch] = ETA[ch] * dbase
        # sps couples s(i)–p(j): zero if j is s-only; pss if i is s-only.
        sp = ETA["sps"]
        V["sps"] = sp * base if self.norb(sym_j) > 1 else np.zeros_like(r)
        dV["sps"] = sp * dbase if self.norb(sym_j) > 1 else np.zeros_like(r)
        V["pss"] = sp * base if self.norb(sym_i) > 1 else np.zeros_like(r)
        dV["pss"] = sp * dbase if self.norb(sym_i) > 1 else np.zeros_like(r)
        # p-p channels vanish unless both atoms carry p orbitals.
        if self.norb(sym_i) == 1 or self.norb(sym_j) == 1:
            z = np.zeros_like(r)
            V["pps"], dV["pps"], V["ppp"], dV["ppp"] = z, z.copy(), z.copy(), z.copy()
        out = {}
        dout = {}
        for ch in V:
            out[ch], dout[ch] = apply_switch(V[ch], dV[ch], r,
                                             self.r_on, self.cutoff)
        return out, dout

    def pair_repulsion(self, sym_i: str, sym_j: str, r: np.ndarray):
        self._require(sym_i, sym_j)
        r = np.asarray(r, dtype=float)
        phi = self.rep_a * np.exp(-r / self.rep_rho)
        dphi = -phi / self.rep_rho
        return apply_switch(phi, dphi, r, self.r_on, self.cutoff)
