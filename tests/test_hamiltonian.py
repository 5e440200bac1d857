"""Hamiltonian assembly: symmetry, folding, k-points, species mixing."""

import numpy as np

from repro.geometry import Atoms, Cell, bulk_silicon, supercell
from repro.neighbors import neighbor_list
from repro.tb import GSPSilicon
from repro.tb.eigensolvers import solve_eigh
from repro.tb.bonds import orbital_offsets, pair_species_groups
from repro.tb.hamiltonian import build_hamiltonian


def build(atoms, model):
    nl = neighbor_list(atoms, model.cutoff)
    return build_hamiltonian(atoms, model, nl)


def test_orbital_offsets_mixed_species(harrison):
    offsets, m = orbital_offsets(["C", "H", "C", "H"], harrison)
    np.testing.assert_array_equal(offsets, [0, 4, 5, 9])
    assert m == 10


def test_pair_groups_partition_everything(harrison):
    at = Atoms(["C", "H", "C"], [[0, 0, 0], [1.1, 0, 0], [2.3, 0, 0]],
               cell=Cell.cubic(15, pbc=False))
    nl = neighbor_list(at, 3.0)
    groups = pair_species_groups(at.symbols, nl)
    total = sum(len(v) for v in groups.values())
    assert total == nl.n_pairs
    # keys ordered by the half-list (i < j) atom ordering
    for (sa, sb), idx in groups.items():
        for p in idx:
            assert at.symbols[nl.i[p]] == sa
            assert at.symbols[nl.j[p]] == sb


def test_hamiltonian_symmetric(si8_rattled, gsp):
    H, S = build(si8_rattled, gsp)
    assert S is None
    np.testing.assert_allclose(H, H.T, atol=1e-13)
    assert H.shape == (32, 32)


def test_onsite_diagonal(si8, gsp):
    H, _ = build(si8, gsp)
    diag = np.diag(H)
    # s orbitals every 4th entry
    np.testing.assert_allclose(diag[0::4], -5.25)
    np.testing.assert_allclose(diag[1::4], 1.20)


def test_dimer_eigenvalues_analytic():
    """Si2 along z at r0: σ/π blocks decouple; check against 2×2 solutions."""
    model = GSPSilicon()
    r0 = model.R0
    at = Atoms(["Si", "Si"], [[0, 0, 0], [0, 0, r0]],
               cell=Cell.cubic(20, pbc=False))
    H, _ = build(at, model)
    eps, _ = solve_eigh(H)
    es, ep = -5.25, 1.20
    vss, vsp, vpps, vppp = -1.82, 1.96, 3.06, -0.87
    # π levels: ep ± ppπ, doubly degenerate each
    pi_levels = sorted([ep + vppp, ep - vppp])
    for level in pi_levels:
        assert np.min(np.abs(eps - level)) < 1e-10
    # σ block (s1 s2 pz1 pz2) eigenvalues via direct 4×4
    hs = np.array([
        [es, vss, 0, vsp],
        [vss, es, -vsp, 0],
        [0, -vsp, ep, vpps],
        [vsp, 0, vpps, ep],
    ])
    sig = np.linalg.eigvalsh(hs)
    for level in sig:
        assert np.min(np.abs(eps - level)) < 1e-10


def test_gamma_supercell_folding_consistency(gsp):
    """Energy per atom of an n×n×n supercell at Γ equals the k-sampled
    primitive-cell energy on the matching grid — the folding theorem."""
    base = bulk_silicon()
    nl1 = neighbor_list(base, gsp.cutoff)
    sc = supercell(base, 2)
    nl2 = neighbor_list(sc, gsp.cutoff)
    H2, _ = build_hamiltonian(sc, gsp, nl2)
    eps_sc, _ = solve_eigh(H2)

    # 2×2×2 Γ-centred grid on the 8-atom cell
    from repro.tb.kpoints import frac_to_cartesian

    eps_k = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                kf = np.array([i / 2, j / 2, k / 2])
                kc = frac_to_cartesian(kf, base.cell)
                Hk, _ = build_hamiltonian(base, gsp, nl1, k_cart=kc)
                ek, _ = solve_eigh(Hk)
                eps_k.append(ek)
    eps_k = np.sort(np.concatenate(eps_k))
    np.testing.assert_allclose(np.sort(eps_sc), eps_k, atol=1e-9)


def test_k_hamiltonian_hermitian(si8, gsp):
    nl = neighbor_list(si8, gsp.cutoff)
    k = np.array([0.3, -0.2, 0.1])
    Hk, _ = build_hamiltonian(si8, gsp, nl, k_cart=k)
    np.testing.assert_allclose(Hk, Hk.conj().T, atol=1e-13)


def test_k_gamma_equals_real_assembly(si8_rattled, gsp):
    nl = neighbor_list(si8_rattled, gsp.cutoff)
    H, _ = build_hamiltonian(si8_rattled, gsp, nl)
    Hk, _ = build_hamiltonian(si8_rattled, gsp, nl, k_cart=np.zeros(3))
    np.testing.assert_allclose(Hk.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(Hk.real, H, atol=1e-12)


def test_k_eigenvalues_inversion_symmetric(si8, gsp):
    """Time reversal: ε(k) = ε(−k) for a real Hamiltonian."""
    from repro.tb.kpoints import frac_to_cartesian

    nl = neighbor_list(si8, gsp.cutoff)
    kc = frac_to_cartesian(np.array([0.21, 0.37, -0.11]), si8.cell)
    ep, _ = solve_eigh(build_hamiltonian(si8, gsp, nl, k_cart=kc)[0])
    em, _ = solve_eigh(build_hamiltonian(si8, gsp, nl, k_cart=-kc)[0])
    np.testing.assert_allclose(ep, em, atol=1e-10)


def test_overlap_assembly_spd(si8_rattled, nonortho):
    nl = neighbor_list(si8_rattled, nonortho.cutoff)
    H, S = build_hamiltonian(si8_rattled, nonortho, nl)
    np.testing.assert_allclose(S, S.T, atol=1e-13)
    np.testing.assert_allclose(np.diag(S), 1.0)
    evals = np.linalg.eigvalsh(S)
    assert evals.min() > 0.05     # safely positive definite


def test_mixed_species_block_shapes(harrison):
    """CH4-like: H s-orbital couples only through 1×4 blocks."""
    d = 1.09
    t = d / np.sqrt(3)
    pos = [[0, 0, 0], [t, t, t], [-t, -t, t], [-t, t, -t], [t, -t, -t]]
    at = Atoms(["C", "H", "H", "H", "H"], pos, cell=Cell.cubic(14, pbc=False))
    nl = neighbor_list(at, harrison.cutoff)
    H, _ = build_hamiltonian(at, harrison, nl)
    assert H.shape == (8, 8)
    eps, _ = solve_eigh(H)
    # 8 electrons fill 4 levels; methane is a closed-shell gap system
    assert eps[4] - eps[3] > 1.0


def test_isolated_atom_energy_is_onsite(gsp):
    at = Atoms(["Si"], [[0, 0, 0]], cell=Cell.cubic(30, pbc=False))
    nl = neighbor_list(at, gsp.cutoff)
    H, _ = build_hamiltonian(at, gsp, nl)
    np.testing.assert_allclose(H, np.diag([-5.25, 1.2, 1.2, 1.2]), atol=1e-14)
