"""Two-centre Slater–Koster sp blocks and their analytic gradients.

Orbital ordering per atom is ``[s, p_x, p_y, p_z]``.  For a bond vector
``rvec = r_j + T − r_i`` with unit vector ``u`` and length ``r``, the
hopping block ``B[μ, ν] = ⟨μ, i | H | ν, j⟩`` is

.. math::

    B_{ss}      &= V_{ss\\sigma}(r) \\\\
    B_{s,p_a}   &= u_a V_{sp\\sigma}(r) \\\\
    B_{p_a,s}   &= -u_a V_{ps\\sigma}(r) \\\\
    B_{p_a,p_b} &= u_a u_b \\, (V_{pp\\sigma} - V_{pp\\pi})
                   + \\delta_{ab} V_{pp\\pi}

(Slater & Koster 1954).  ``V_{ps\\sigma}`` equals ``V_{sp\\sigma}`` of the
reversed species pair — identical for homonuclear bonds, distinct for e.g.
C–H.  The gradient with respect to the bond *vector* follows from the chain
rule with ``∂u_a/∂r_c = (δ_ac − u_a u_c)/r``; it feeds the Hellmann–Feynman
force evaluation, and is validated against finite differences in the test
suite.

All functions are vectorised over a leading pair axis.

Channel dictionary convention
-----------------------------
Radial values are passed as ``{"sss", "sps", "pss", "pps", "ppp"}`` keyed
arrays of shape (P,):

* ``sss`` — ssσ
* ``sps`` — s on the *first* atom, p on the second, σ
* ``pss`` — p on the first atom, s on the second, σ
* ``pps`` — ppσ
* ``ppp`` — ppπ
"""

from __future__ import annotations

import numpy as np

CHANNELS = ("sss", "sps", "pss", "pps", "ppp")

#: Number of orbitals used per angular-momentum configuration.
NORB_SP = 4
NORB_S = 1


def sk_blocks(u: np.ndarray, V: dict[str, np.ndarray]) -> np.ndarray:
    """Hopping (or overlap) blocks for every pair.

    Parameters
    ----------
    u : (P, 3) unit bond vectors (i → j).
    V : channel dict of (P,) radial values.

    Returns
    -------
    (P, 4, 4) array of sp blocks.  Callers with s-only species slice the
    relevant sub-block.
    """
    u = np.asarray(u, dtype=float)
    U = u.T                         # pair-last, as in sk_block_gradients
    B = np.empty((4, 4, len(u)))

    B[0, 0] = V["sss"]
    np.multiply(U, V["sps"], out=B[0, 1:])
    np.multiply(-U, V["pss"], out=B[1:, 0])
    # p-p block: u_a u_b (ppσ − ppπ) + δ_ab ppπ
    np.multiply(U[:, None, :] * U[None, :, :], V["pps"] - V["ppp"],
                out=B[1:, 1:])
    idx = np.arange(3)
    B[1 + idx, 1 + idx] += V["ppp"]
    return np.ascontiguousarray(B.transpose(2, 0, 1))


def sk_block_gradients(u: np.ndarray, r: np.ndarray,
                       V: dict[str, np.ndarray],
                       dV: dict[str, np.ndarray]) -> np.ndarray:
    """Gradients ``∂B[μ,ν]/∂rvec_c`` for every pair.

    Parameters
    ----------
    u : (P, 3) unit bond vectors.
    r : (P,) bond lengths.
    V, dV : channel dicts of radial values and radial derivatives.

    Returns
    -------
    (P, 3, 4, 4) array; axis 1 is the Cartesian derivative component *c*.
    """
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    p = len(u)
    # Built pair-last, [c, μ, ν, pair], so every elementwise step runs
    # over contiguous pair rows, then transposed once; each element sees
    # the same floating-point operations as in a pair-first layout.
    U = u.T                                                  # [a, p]
    G = np.empty((3, 4, 4, p))
    uu = U[:, None, :] * U[None, :, :]                       # u_a u_b
    # ∂u_a/∂r_c = (δ_ac − u_a u_c) / r, stored as [c, a, p]
    proj_ca = ((np.eye(3)[:, :, None] - uu) / r).transpose(1, 0, 2)

    # ss
    np.multiply(dV["sss"], U, out=G[:, 0, 0])

    # s-p : d(u_a V)/dr_c = u_c u_a V' + proj[a,c] V (u_c u_a = u_a u_c);
    # p-s the same with the reversed-pair channel and a sign — one array
    # when the two channels are one (homonuclear bonds)
    np.add(dV["sps"] * uu, V["sps"] * proj_ca, out=G[:, 0, 1:])
    if V["pss"] is V["sps"] and dV["pss"] is dV["sps"]:
        np.negative(G[:, 0, 1:], out=G[:, 1:, 0])
    else:
        np.negative(dV["pss"] * uu + V["pss"] * proj_ca, out=G[:, 1:, 0])

    # p-p : d(u_a u_b (σ−π) + δ_ab π)/dr_c — radial, angular
    # (σ−π)(proj[a,c] u_b + u_a proj[b,c]), then the π diagonal
    dpp = dV["pps"] - dV["ppp"]
    vpp = V["pps"] - V["ppp"]
    ang = proj_ca[:, :, None, :] * U[None, None, :, :]
    ang += U[None, :, None, :] * proj_ca[:, None, :, :]
    ang *= vpp
    pp = G[:, 1:, 1:]
    np.multiply((dpp * U)[:, None, None, :], uu[None, :, :, :], out=pp)
    pp += ang
    diag = np.zeros((3, 3, 3, p))
    idx = np.arange(3)
    diag[:, idx, idx, :] = (dV["ppp"] * U)[:, None, :]
    pp += diag
    return np.ascontiguousarray(G.transpose(3, 0, 1, 2))

