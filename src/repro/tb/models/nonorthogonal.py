"""Non-orthogonal silicon demonstration model.

Takes the GSP silicon hoppings and adds an explicit overlap matrix whose
channels share the hopping's GSP radial decay with small amplitudes,

.. math::  S_{ll'm}(r) = \\kappa_{ll'm}\\, s(r),

so the generalised eigenproblem ``H C = ε S C`` and the full
Hellmann–Feynman force (including the energy-weighted-density ``∂S`` term,
``F = −2 Σ_n f_n C_n^†(∇H − ε_n ∇S)C_n``) are exercised end-to-end — this
is the force expression non-orthogonal schemes such as DFTB use.

Amplitudes are kept small (|κ| ≤ 0.15) so S stays safely positive-definite
for physical geometries; the test suite checks SPD on all benchmark
workloads.  The model is a *demonstrator*: numerically close to GSP for
bulk silicon but not an independently fitted parametrisation.
"""

from __future__ import annotations

import numpy as np

from repro.tb.models.base import apply_switch, gsp_scaling
from repro.tb.models.gsp_silicon import GSPSilicon


class NonOrthogonalSilicon(GSPSilicon):
    """GSP silicon + GSP-decay overlap (generalised eigenproblem demo)."""

    name = "nonorthogonal-silicon"
    orthogonal = False

    #: Overlap amplitudes at r0 (dimensionless).  Signs follow the hopping
    #: sign convention so bonding combinations overlap positively.
    S0 = {"sss": 0.12, "sps": -0.10, "pps": -0.15, "ppp": 0.06}

    def overlap(self, sym_i: str, sym_j: str, r: np.ndarray):
        self._require(sym_i, sym_j)
        r = np.asarray(r, dtype=float)
        s, ds = gsp_scaling(r, self.R0, self.N, self.NC, self.RC)
        s, ds = apply_switch(s, ds, r, self.r_on, self.r_off)
        S, dS = {}, {}
        for ch, s0 in self.S0.items():
            S[ch] = s0 * s
            dS[ch] = s0 * ds
        S["pss"] = S["sps"]
        dS["pss"] = dS["sps"]
        return S, dS
