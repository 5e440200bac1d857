"""FIRE (Fast Inertial Relaxation Engine) structural relaxation.

Bitzek et al., PRL 97, 170201 (2006).  Although published after the
paper's era, FIRE has become the default relaxer of atomistic codes and
is included as the modern comparison point of the relaxer ablation:
MD-like dynamics with velocity mixing, acceleration while the power
``P = F·v`` stays positive, and a hard stop + timestep cut when it turns
negative.
"""

from __future__ import annotations

import numpy as np

from repro.relax.base import RelaxationResult, minimise
from repro.units import FORCE_TO_ACC


def fire_relax(atoms, calc, fmax: float = 0.05, max_steps: int = 2000,
               dt: float = 1.0, dt_max: float = 5.0, n_min: int = 5,
               f_inc: float = 1.1, f_dec: float = 0.5, alpha0: float = 0.1,
               f_alpha: float = 0.99, max_disp: float = 0.2) -> RelaxationResult:
    """Relax *atoms* in place until ``max|F| < fmax`` (eV/Å).

    All the greek knobs are the published FIRE defaults; *max_disp* caps
    the per-step displacement (Å) to keep TB neighbour lists sane.
    """
    v = np.zeros_like(atoms.positions)
    alpha = alpha0
    n_pos = 0

    def rule(energy, f, evaluate):
        nonlocal v, alpha, n_pos, dt
        if float(np.sum(f * v)) > 0:            # power
            fn = np.linalg.norm(f)
            vn = np.linalg.norm(v)
            if fn > 1e-14:
                v = (1.0 - alpha) * v + alpha * (f / fn) * vn
            n_pos += 1
            if n_pos > n_min:
                dt = min(dt * f_inc, dt_max)
                alpha *= f_alpha
        else:
            v[...] = 0.0
            alpha = alpha0
            dt *= f_dec
            n_pos = 0

        v += dt * FORCE_TO_ACC * f / atoms.masses[:, None]
        if atoms.fixed.any():
            v[atoms.fixed] = 0.0
        dr = dt * v
        # cap displacement
        max_dr = float(np.max(np.linalg.norm(dr, axis=1))) if len(dr) else 0.0
        if max_dr > max_disp:
            dr *= max_disp / max_dr
        return evaluate(atoms.positions + dr)   # every trial is accepted

    return minimise(atoms, calc, rule, fmax, max_steps)
