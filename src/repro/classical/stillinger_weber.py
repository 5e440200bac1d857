"""Stillinger–Weber classical potential for silicon.

F. H. Stillinger and T. A. Weber, *Phys. Rev. B* **31**, 5262 (1985) —
*the* classical silicon potential, and the cost baseline every TBMD paper
quotes ("tight binding costs 10²–10³ × classical MD").  Implemented with
analytic forces and the same calculator interface as
:class:`~repro.tb.calculator.TBCalculator`, so the MD driver, relaxers
and benchmarks can swap it in directly (ablation A6).

Energy:

.. math::

    E = \\sum_{i<j} \\varepsilon f_2(r_{ij}/σ)
      + \\sum_{i,\\,j<k} \\varepsilon λ\\,
        e^{γσ/(r_{ij}-aσ)} e^{γσ/(r_{ik}-aσ)}
        (\\cos θ_{jik} + 1/3)^2

with the published parameter set (A, B, p, q, a, λ, γ, σ, ε).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.neighbors.base import check_separations
from repro.neighbors.verlet import VerletList
from repro.state import CalculatorBase


class StillingerWeber(CalculatorBase):
    """SW silicon calculator (energy, analytic forces, virial).

    ``compute(atoms, forces=True)`` returns the same core result keys as
    :class:`~repro.tb.calculator.TBCalculator`.
    """

    # published parameters
    A = 7.049556277
    B = 0.6022245584
    P = 4.0
    Q = 0.0
    a = 1.80
    LAMBDA = 21.0
    GAMMA = 1.20
    SIGMA = 2.0951          # Å
    EPSILON = 2.1683        # eV

    species = ("Si",)
    name = "stillinger-weber"

    def __init__(self, skin: float = 0.5):
        super().__init__()
        self.cutoff = self.a * self.SIGMA            # 3.771 Å
        self._vlist = VerletList(rcut=self.cutoff, skin=skin)
        self.invalidate()

    # -- two-body -------------------------------------------------------------
    def _pair_terms(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ε·f₂(r/σ) and its radial derivative (r strictly inside cutoff)."""
        x = r / self.SIGMA
        expo = np.exp(1.0 / (x - self.a))
        poly = self.A * (self.B * x ** (-self.P) - x ** (-self.Q))
        e2 = self.EPSILON * poly * expo
        dpoly = self.A * (-self.P * self.B * x ** (-self.P - 1)
                          + self.Q * x ** (-self.Q - 1))
        de2 = self.EPSILON * expo * (dpoly - poly / (x - self.a) ** 2) / self.SIGMA
        return e2, de2

    def _g(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Three-body radial factor exp(γσ/(r − aσ)) and derivative."""
        denom = r - self.a * self.SIGMA
        g = np.exp(self.GAMMA * self.SIGMA / denom)
        dg = -self.GAMMA * self.SIGMA / denom**2 * g
        return g, dg

    # -- main evaluation ----------------------------------------------------------
    def compute(self, atoms, forces: bool = True) -> dict:
        for s in set(atoms.symbols):
            if s not in self.species:
                raise ModelError(f"Stillinger-Weber supports Si only, got {s!r}")
        cached = self._cached(self._state.observe(atoms), forces)
        if cached is not None:
            return cached

        with self.timer.phase("neighbors"):
            nl = self._vlist.update(atoms)
        check_separations(nl)

        n = len(atoms)
        f = np.zeros((n, 3))
        virial = np.zeros((3, 3))

        with self.timer.phase("pair"):
            # strictly inside the cutoff (f2 → 0 smoothly at x = a)
            inside = nl.distances < self.cutoff - 1e-9
            r = nl.distances[inside]
            vec = nl.vectors[inside]
            i_idx = nl.i[inside]
            j_idx = nl.j[inside]
            e2, de2 = self._pair_terms(r)
            energy = float(e2.sum())
            u = vec / r[:, None]
            g = de2[:, None] * u               # ∂E/∂(bond vector)
            np.add.at(f, i_idx, g)
            np.add.at(f, j_idx, -g)
            virial += np.einsum("pc,pd->cd", g, vec)

        with self.timer.phase("triplet"):
            e3, f3, v3 = self._three_body(atoms, i_idx, j_idx, vec, r, n)
            energy += e3
            f += f3
            virial += v3

        # forces fall out of the energy evaluation for free — always store
        # them so cached energy-only results can still serve get_forces()
        res = {
            "energy": energy,
            "free_energy": energy,
            "band_energy": 0.0,
            "repulsive_energy": energy,
        }
        self._attach_forces(res, atoms, f, virial)
        return self._store(res)

    def _three_body(self, atoms, i_idx, j_idx, vec, r, n):
        """Σ_i Σ_{j<k} h(r_ij, r_ik, θ_jik) with analytic gradients.

        Bond vectors point centre → neighbour; with ``u = r_j − r_i`` the
        chain rule gives ``F_j = −∂E/∂u`` and the centre collects the
        opposite of both partners.
        """
        # full (directed) bond list grouped by central atom
        ci = np.concatenate([i_idx, j_idx])
        cj = np.concatenate([j_idx, i_idx])
        cvec = np.concatenate([vec, -vec])
        cr = np.concatenate([r, r])
        order = np.argsort(ci, kind="stable")
        ci, cj, cvec, cr = ci[order], cj[order], cvec[order], cr[order]
        starts = np.searchsorted(ci, np.arange(n))
        ends = np.searchsorted(ci, np.arange(n) + 1)

        g_all, dg_all = self._g(cr)
        lam_eps = self.LAMBDA * self.EPSILON

        energy = 0.0
        forces = np.zeros((n, 3))
        virial = np.zeros((3, 3))
        for i in range(n):
            s, e = starts[i], ends[i]
            nb = e - s
            if nb < 2:
                continue
            v = cvec[s:e]                     # (nb, 3), i → neighbour
            rr = cr[s:e]
            gg = g_all[s:e]
            dgg = dg_all[s:e]
            idx = cj[s:e]                     # partner atom indices
            uhat = v / rr[:, None]
            cosm = uhat @ uhat.T              # (nb, nb)
            ju, ku = np.triu_indices(nb, k=1)
            c = cosm[ju, ku]
            w = c + 1.0 / 3.0
            pref = lam_eps * gg[ju] * gg[ku]
            energy += float(np.sum(pref * w * w))

            # dE/du = λε (c+1/3)² g_k g'_j û_j + 2λε g_j g_k (c+1/3) ∂c/∂u
            # with ∂c/∂u = (û_k − c û_j)/|u|
            dc_du = (uhat[ku] - c[:, None] * uhat[ju]) / rr[ju][:, None]
            dc_dv = (uhat[ju] - c[:, None] * uhat[ku]) / rr[ku][:, None]
            du = (lam_eps * (w * w) * gg[ku] * dgg[ju])[:, None] * uhat[ju] \
                + (2.0 * pref * w)[:, None] * dc_du
            dv = (lam_eps * (w * w) * gg[ju] * dgg[ku])[:, None] * uhat[ku] \
                + (2.0 * pref * w)[:, None] * dc_dv

            forces[i] += (du + dv).sum(axis=0)
            np.subtract.at(forces, idx[ju], du)
            np.subtract.at(forces, idx[ku], dv)
            virial += np.einsum("pc,pd->cd", du, v[ju]) \
                + np.einsum("pc,pd->cd", dv, v[ku])
        return energy, forces, virial

    def describe(self) -> str:
        return (f"{self.name}: classical 2+3-body silicon potential, "
                f"cutoff {self.cutoff:.3f} Å")

    def __repr__(self) -> str:
        return "<StillingerWeber>"
