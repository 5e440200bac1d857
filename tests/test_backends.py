"""Array-backend conformance and shape-bucketing property tests.

Every backend in :mod:`repro.linscale.backends` is held to the same
contract against the ``eigh`` reference oracle (one diagonalisation per
region block, the truncated series summed on its eigenvalues): region
order preserved, real symmetric *and* complex Hermitian blocks, moments
within 1e-12 and end-to-end forces within 1e-10, through both the
two-pass and the fused solve.  The suite is parametrized over
``available_backends()``, so a backend added to the table is picked up
with zero test changes.

The hypothesis section drills the batched backend's one real risk —
shape bucketing and padding: buckets must partition the region list
exactly, and pad rows/columns must never leak into moments or density
rows for any region-size distribution (all-distinct, all-equal, and
everything between).
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.calculators import make_calculator
from repro.errors import ReproError
from repro.linscale import LinearScalingCalculator
from repro.linscale.backends import (
    DEFAULT_BACKEND,
    Backend,
    EighBackend,
    RegionBlockSource,
    available_backends,
    get_backend,
    plan_buckets,
    resolve_backend,
)
from repro.linscale.backends import numpy_batched
from repro.linscale.backends.bucketing import MAX_BUCKET_BYTES, block_bytes
from repro.linscale.backends.numpy_batched import NumpyBatchedBackend
from repro.linscale.foe_local import (
    build_region_gather_maps,
    solve_density_regions,
    solve_density_regions_fused,
    taylor_radius,
)
from repro.linscale.kfoe import (
    solve_density_regions_k,
    solve_density_regions_k_fused,
    spectral_windows_k,
)
from repro.linscale.regions import extract_regions
from repro.neighbors import neighbor_list
from repro.obs import metrics as metrics_mod
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.kpoints import frac_to_cartesian, monkhorst_pack


REFERENCE = "eigh"
ALL_BACKENDS = available_backends()
ORDER = 60


# --------------------------------------------------------- synthetic batches
def random_region_batch(seed: int, complex_h: bool = False,
                        nregions: int = 8, dim: int = 36):
    """A sparse Hermitian H plus heterogeneous random region specs.

    Region sizes, orbital subsets and core positions are all drawn at
    random, so every bucketing path (distinct shapes, repeated shapes,
    cores scattered through the region) gets exercised.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    if complex_h:
        a = a + 1j * rng.normal(size=(dim, dim))
    dense = (a + a.conj().T) / 2
    # thin it out so CSR slicing is a real code path, keep it Hermitian
    keep = rng.random(size=(dim, dim)) < 0.7
    keep = np.triu(keep) | np.triu(keep).T
    np.fill_diagonal(keep, True)
    dense = np.where(keep, dense, 0.0)
    specs = []
    for _ in range(nregions):
        n = int(rng.integers(4, dim + 1))
        orb = np.sort(rng.choice(dim, size=n, replace=False))
        nc = int(rng.integers(1, n + 1))
        core = np.sort(rng.choice(n, size=nc, replace=False))
        specs.append((orb, core))
    # an off-centre window that safely contains every region block's
    # spectrum (submatrix spectra interlace)
    span = 1.1 * float(np.abs(np.linalg.eigvalsh(dense)).max()) + 0.75
    return sp.csr_matrix(dense), specs, 0.25, span


def _assert_region_lists_close(got, want, atol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=atol)


# ------------------------------------------------- kernel-level conformance
@pytest.mark.parametrize("complex_h", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_moments_match_reference(name, complex_h):
    H, specs, center, span = random_region_batch(11 + complex_h, complex_h)
    blocks = RegionBlockSource(H, specs)
    ref = get_backend(REFERENCE).moments(blocks, center, span, ORDER)
    got = get_backend(name).moments(blocks, center, span, ORDER)
    _assert_region_lists_close([m for m, _ in got], [m for m, _ in ref],
                               atol=1e-12)
    _assert_region_lists_close([e for _, e in got], [e for _, e in ref],
                               atol=1e-12)


@pytest.mark.parametrize("complex_h", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_density_rows_match_reference(name, complex_h):
    H, specs, center, span = random_region_batch(23 + complex_h, complex_h)
    blocks = RegionBlockSource(H, specs)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=ORDER + 1) / (1.0 + np.arange(ORDER + 1)) ** 2
    ref = get_backend(REFERENCE).density_rows(blocks, center, span, coeffs)
    got = get_backend(name).density_rows(blocks, center, span, coeffs)
    _assert_region_lists_close(got, ref, atol=1e-12)


@pytest.mark.parametrize("complex_h", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_fused_matches_reference(name, complex_h):
    H, specs, center, span = random_region_batch(37 + complex_h, complex_h)
    blocks = RegionBlockSource(H, specs)
    rng = np.random.default_rng(9)
    deriv = rng.normal(size=(4, ORDER + 1)) / (1.0 + np.arange(ORDER + 1))
    ref = get_backend(REFERENCE).fused(blocks, center, span, deriv)
    got = get_backend(name).fused(blocks, center, span, deriv)
    _assert_region_lists_close([m for m, _, _ in got], [m for m, _, _ in ref],
                               atol=1e-12)
    _assert_region_lists_close([e for _, e, _ in got], [e for _, e, _ in ref],
                               atol=1e-12)
    _assert_region_lists_close([o for _, _, o in got], [o for _, _, o in ref],
                               atol=1e-12)


# -------------------------------------------------- solver-level conformance
@pytest.fixture(scope="module")
def si_problem(gsp):
    from repro.geometry import bulk_silicon, supercell

    atoms = supercell(bulk_silicon(), 2)
    nl = neighbor_list(atoms, gsp.cutoff)
    H, _ = build_hamiltonian(atoms, gsp, nl, sparse=True)
    r_loc = 1.5 * gsp.cutoff
    regions = extract_regions(atoms, gsp, r_loc, neighbor_list(atoms, r_loc))
    nelec = gsp.total_electrons(atoms.symbols)
    return H, regions, nelec


def _si8_rattled(gsp):
    from repro.geometry import bulk_silicon, rattle

    atoms = rattle(bulk_silicon(), 0.06, seed=123)
    r_loc = 1.5 * gsp.cutoff
    regions = extract_regions(atoms, gsp, r_loc, neighbor_list(atoms, r_loc))
    return (atoms, neighbor_list(atoms, gsp.cutoff), regions,
            gsp.total_electrons(atoms.symbols))


@pytest.fixture(scope="module")
def si_problem_k(gsp):
    atoms, nl, regions, nelec = _si8_rattled(gsp)
    kfrac, weights = monkhorst_pack((2, 2, 2))
    kcart = frac_to_cartesian(kfrac, atoms.cell)
    H_list = [build_hamiltonian(atoms, gsp, nl, sparse=True, k_cart=k)[0]
              for k in kcart]
    return H_list, weights, regions, nelec


@pytest.fixture(scope="module")
def si_problem_gamma(gsp):
    """The same cell at Γ: real blocks in the k-list calling form."""
    atoms, nl, regions, nelec = _si8_rattled(gsp)
    return [build_hamiltonian(atoms, gsp, nl, sparse=True)[0]], [1.0], regions, nelec


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_two_pass_solve_parity_real(name, si_problem):
    H, regions, nelec = si_problem
    ref = solve_density_regions(H, regions, nelec, kT=0.2, order=80,
                                backend=REFERENCE)
    got = solve_density_regions(H, regions, nelec, kT=0.2, order=80,
                                backend=name)
    assert got.band_energy == pytest.approx(ref.band_energy, abs=1e-10)
    assert got.mu == pytest.approx(ref.mu, abs=1e-12)
    assert got.entropy == pytest.approx(ref.entropy, abs=1e-12)
    np.testing.assert_allclose(got.populations, ref.populations,
                               rtol=0, atol=1e-12)
    assert abs(got.rho - ref.rho).max() < 1e-12


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_fused_solve_parity_real(name, si_problem):
    H, regions, nelec = si_problem
    cold = solve_density_regions(H, regions, nelec, kT=0.2, order=80,
                                 backend=REFERENCE)
    window = cold.spectral_bounds
    ref = solve_density_regions_fused(H, regions, nelec, kT=0.2, order=80,
                                      window=window, mu_guess=cold.mu,
                                      backend=REFERENCE)
    got = solve_density_regions_fused(H, regions, nelec, kT=0.2, order=80,
                                      window=window, mu_guess=cold.mu,
                                      backend=name)
    assert got.used_fallback == ref.used_fallback
    assert got.band_energy == pytest.approx(ref.band_energy, abs=1e-10)
    assert abs(got.rho - ref.rho).max() < 1e-12


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_two_pass_solve_parity_complex_k(name, si_problem_k):
    H_list, weights, regions, nelec = si_problem_k
    windows = spectral_windows_k(H_list)
    ref = solve_density_regions_k(H_list, weights, regions, nelec, kT=0.2,
                                  order=80, windows=windows,
                                  backend=REFERENCE)
    got = solve_density_regions_k(H_list, weights, regions, nelec, kT=0.2,
                                  order=80, windows=windows, backend=name)
    assert got.band_energy == pytest.approx(ref.band_energy, abs=1e-10)
    assert got.mu == pytest.approx(ref.mu, abs=1e-12)
    for rg, rr in zip(got.rho_k, ref.rho_k):
        assert abs(rg - rr).max() < 1e-12


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_fused_solve_parity_complex_k(name, si_problem_k):
    H_list, weights, regions, nelec = si_problem_k
    windows = spectral_windows_k(H_list)
    cold = solve_density_regions_k(H_list, weights, regions, nelec, kT=0.2,
                                   order=80, windows=windows,
                                   backend=REFERENCE)
    ref = solve_density_regions_k_fused(
        H_list, weights, regions, nelec, kT=0.2, order=80, windows=windows,
        mu_guess=cold.mu, backend=REFERENCE)
    got = solve_density_regions_k_fused(
        H_list, weights, regions, nelec, kT=0.2, order=80, windows=windows,
        mu_guess=cold.mu, backend=name)
    assert not ref.used_fallback and not got.used_fallback
    assert got.band_energy == pytest.approx(ref.band_energy, abs=1e-10)
    assert got.mu == pytest.approx(ref.mu, abs=1e-12)
    for rg, rr, rc in zip(got.rho_k, ref.rho_k, cold.rho_k):
        assert abs(rg - rr).max() < 1e-12
        assert abs(rg - rc).max() < 1e-10     # Taylor step ≡ density pass


@pytest.mark.parametrize("kT", [0.1, 0.2, 0.35])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_fused_contract_at_the_edge_of_the_taylor_radius(
        name, kind, kT, si_problem_gamma, si_problem_k):
    """Just inside the radius the Taylor step keeps ρ within rho_tol of
    the two-pass ρ; just outside, the solve falls back and is exact.
    Scalars come from the moments and never carry Taylor error."""
    rho_tol = 1e-10
    H_list, weights, regions, nelec = \
        si_problem_gamma if kind == "real" else si_problem_k
    windows = spectral_windows_k(H_list)
    # a converged order (∝ 1/kT): a truncated expansion ripples N(μ) and
    # the warm and cold brackets may then settle on different roots
    common = dict(kT=kT, order=round(50 / kT), windows=windows, backend=name)
    ref = solve_density_regions_k(H_list, weights, regions, nelec, **common)
    radius = taylor_radius(kT, rho_tol)
    assert radius == pytest.approx(kT * (720 * rho_tol) ** (1 / 6), rel=1e-12)

    for side in (-1.0, 1.0):
        for frac, falls_back in ((0.98, False), (1.02, True)):
            got = solve_density_regions_k_fused(
                H_list, weights, regions, nelec, rho_tol=rho_tol,
                mu_guess=ref.mu + side * frac * radius, **common)
            assert got.used_fallback is falls_back
            assert got.taylor_radius == radius
            assert abs(got.mu_shift) == pytest.approx(frac * radius, rel=1e-6)
            assert got.mu == pytest.approx(ref.mu, abs=1e-9)
            assert got.band_energy == pytest.approx(ref.band_energy, abs=1e-9)
            assert got.entropy == pytest.approx(ref.entropy, abs=1e-9)
            np.testing.assert_allclose(got.populations, ref.populations,
                                       rtol=0, atol=1e-9)
            worst = max(abs(rg - rr).max()
                        for rg, rr in zip(got.rho_k, ref.rho_k))
            assert worst <= rho_tol     # the fallback is the two-pass ρ


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_calculator_force_parity(name, si64_rattled_local, gsp):
    """End-to-end O(N) forces agree across backends to 1e-10 eV/Å."""
    atoms = si64_rattled_local
    ref_calc = LinearScalingCalculator(gsp, kT=0.2, order=80,
                                       backend=REFERENCE)
    calc = LinearScalingCalculator(gsp, kT=0.2, order=80, backend=name)
    f_ref = ref_calc.get_forces(atoms)
    f = calc.get_forces(atoms)
    e_ref = ref_calc.get_potential_energy(atoms)
    e = calc.get_potential_energy(atoms)
    assert e == pytest.approx(e_ref, abs=1e-9)
    assert np.abs(f - f_ref).max() < 1e-10


@pytest.fixture(scope="module")
def si64_rattled_local():
    from repro.geometry import bulk_silicon, rattle, supercell

    return rattle(supercell(bulk_silicon(), 2), 0.05, seed=7)


# ------------------------------------------------------ bucketing properties
shape_lists = st.lists(
    st.integers(1, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n))),
    min_size=1, max_size=80)


@given(shapes=shape_lists, gran=st.integers(1, 16), maxr=st.integers(1, 32))
@settings(max_examples=120, deadline=None)
def test_plan_buckets_partitions_exactly(shapes, gran, maxr):
    buckets = plan_buckets(shapes, granularity=gran, max_regions=maxr)
    seen = [i for b in buckets for i in b.indices]
    assert sorted(seen) == list(range(len(shapes)))
    assert len(set(seen)) == len(shapes)
    for b in buckets:
        assert 1 <= len(b) <= maxr
        assert b.n_pad % gran == 0
        for i in b.indices:
            n, nc = shapes[i]
            # every member fits, pad never exceeds one granule
            assert 0 <= b.n_pad - n < gran
            assert nc <= b.nc_pad
        assert b.nc_pad == max(shapes[i][1] for i in b.indices)


@given(shapes=shape_lists, cap_kib=st.integers(1, 2048),
       dtype=st.sampled_from([np.float64, np.complex128]))
@settings(max_examples=120, deadline=None)
def test_plan_buckets_stacks_respect_the_byte_cap(shapes, cap_kib, dtype):
    """The cap splits stacks, it never rejects a region: every shared
    stack fits (a complex block charged as its real embedding), an
    over-cap region rides alone, nothing is lost."""
    cap = 1024 * cap_kib
    buckets = plan_buckets(shapes, max_bytes=cap, dtype=dtype)
    seen = sorted(i for b in buckets for i in b.indices)
    assert seen == list(range(len(shapes)))
    for b in buckets:
        if len(b) > 1:
            assert len(b) * block_bytes(b.n_pad, dtype) <= cap
    for i, (n, _) in enumerate(shapes):
        n_pad = -(-n // 8) * 8
        if block_bytes(n_pad, dtype) > cap:
            assert any(list(b.indices) == [i] for b in buckets)


def test_plan_buckets_degenerate_all_equal():
    shapes = [(48, 12)] * 300
    # 18 KiB blocks: the default byte cap closes a stack before the
    # region cap does; lifted, the region cap is what splits
    per_stack = MAX_BUCKET_BYTES // (48 * 48 * 8)
    buckets = plan_buckets(shapes, granularity=8, max_regions=256)
    assert [len(b) for b in buckets] == [per_stack] * 5 + [300 - 5 * per_stack]
    assert all(b.n_pad == 48 and b.nc_pad == 12 for b in buckets)
    buckets = plan_buckets(shapes, granularity=8, max_regions=256,
                           max_bytes=300 * 48 * 48 * 8)
    assert [len(b) for b in buckets] == [256, 44]


def test_plan_buckets_degenerate_all_distinct():
    shapes = [(n, min(n, 1 + n % 5)) for n in range(1, 40)]
    buckets = plan_buckets(shapes, granularity=1, max_regions=256)
    # granularity 1 → one bucket per distinct size
    assert len(buckets) == len(shapes)
    assert all(len(b) == 1 for b in buckets)


def test_plan_buckets_rejects_bad_shapes():
    with pytest.raises(ValueError):
        plan_buckets([(4, 5)])  # nc > n
    with pytest.raises(ValueError):
        plan_buckets([(0, 0)])
    with pytest.raises(ValueError):
        plan_buckets([(4, 2)], granularity=0)


@given(seed=st.integers(0, 10_000), complex_h=st.booleans())
@settings(max_examples=40, deadline=None)
def test_padding_never_leaks(seed, complex_h):
    """Batched moments/ρ-rows/accumulants equal the eigh oracle for random
    region-size distributions, real stacks and complex embeddings alike
    — any pad-row leak would show up as a mismatch."""
    H, specs, center, span = random_region_batch(
        seed, complex_h, nregions=6, dim=24)
    blocks = RegionBlockSource(H, specs)
    order = 24
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=order + 1) / (1.0 + np.arange(order + 1)) ** 2
    ref = get_backend(REFERENCE)
    batched = get_backend("numpy_batched")
    got_m = batched.moments(blocks, center, span, order)
    got_r = batched.density_rows(blocks, center, span, coeffs)
    got_f = batched.fused(blocks, center, span, coeffs[None, :])
    ref_m = ref.moments(blocks, center, span, order)
    _assert_region_lists_close([m for m, _ in got_m], [m for m, _ in ref_m],
                               atol=1e-12)
    ref_r = ref.density_rows(blocks, center, span, coeffs)
    _assert_region_lists_close(got_r, ref_r, atol=1e-12)
    ref_f = ref.fused(blocks, center, span, coeffs[None, :])
    _assert_region_lists_close([o for _, _, o in got_f],
                               [o for _, _, o in ref_f], atol=1e-12)


# ------------------------------------------------- the batched kernel's shape
def padded_batched():
    """A batched backend whose one bucket pads both the region size and
    the core width of most of its regions."""
    return NumpyBatchedBackend(granularity=64)


@pytest.mark.parametrize("order", [2, 3, 40])
@pytest.mark.parametrize("complex_h", [False, True], ids=["real", "complex"])
def test_energy_moments_identity_matches_explicit_trace(order, complex_h):
    """``e_k`` from the three-term identity (batched) against the eigh
    oracle's ``Σ_a T_k(x_a) w_a ε_a`` on the block's own spectrum, on a
    padded bucket of mixed region sizes and core widths, in both the
    moments and the fused pass."""
    H, specs, center, span = random_region_batch(71 + complex_h, complex_h,
                                                 nregions=7, dim=30)
    blocks = RegionBlockSource(H, specs)
    buckets = plan_buckets(blocks.shapes(), granularity=64)
    assert len(buckets) == 1 and len({nc for _, nc in blocks.shapes()}) > 1
    oracle, batched = get_backend(REFERENCE), padded_batched()
    deriv = np.ones((2, order + 1))
    for got, ref in ((batched.moments(blocks, center, span, order),
                      oracle.moments(blocks, center, span, order)),
                     (batched.fused(blocks, center, span, deriv),
                      oracle.fused(blocks, center, span, deriv))):
        assert all(len(g[1]) == order + 1 for g in got)
        _assert_region_lists_close([g[0] for g in got], [r[0] for r in ref],
                                   atol=1e-12)
        _assert_region_lists_close([g[1] for g in got], [r[1] for r in ref],
                                   atol=1e-12 * span)


@pytest.mark.parametrize("complex_h", [False, True], ids=["real", "complex"])
def test_one_gemm_per_bucket_per_chebyshev_step(monkeypatch, complex_h):
    """Each Chebyshev step of a bucket is one batched matmul: T_1 … T_K for
    a density pass, T_1 … T_{K+1} for the fused pass, whose energy
    moments come from the three-term identity, and T_1 … T_⌈(K+1)/2⌉
    for the moment pass, which forms m_2n and m_2n+1 from dots of those
    rows; nothing contracts the iterates with H any more."""
    H, specs, center, span = random_region_batch(5, complex_h)
    blocks = RegionBlockSource(H, specs)
    batched = get_backend("numpy_batched")
    nbuckets = len(batched.plan(blocks))
    order = 30
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    for op, arg, steps in (("moments", order, (order + 2) // 2),
                           ("fused", np.ones((3, order + 1)), order + 1),
                           ("density_rows", np.ones(order + 1), order)):
        calls.clear()
        getattr(batched, op)(blocks, center, span, arg)
        assert len(calls) == nbuckets * steps, op
    assert "einsum" not in inspect.getsource(numpy_batched)


def test_complex_bucket_stacks_its_real_embedding():
    """A complex bucket recurses as ``[[A, −B], [B, A]]`` of its slots'
    ``2H̃ = A + iB``: a float64, symmetric ``(B, 2n_pad, 2n_pad)`` stack
    with every pad exactly zero, charged its embedded bytes against the
    cap — and every op still hands back the oracle's dtypes and shapes."""
    H, specs, center, span = random_region_batch(13, complex_h=True,
                                                 nregions=9, dim=30)
    blocks = RegionBlockSource(H, specs)
    assert block_bytes(40, blocks.dtype) == 80 * 80 * 8
    assert block_bytes(40, np.float64) == 40 * 40 * 8
    for batched in (get_backend("numpy_batched"),
                    NumpyBatchedBackend(max_bytes=3 * 64 * 64 * 8)):
        buckets = batched.plan(blocks)
        assert any(len(b) > 1 for b in buckets)
        for bucket in buckets:
            if len(bucket) > 1:
                assert len(bucket) * (2 * bucket.n_pad) ** 2 * 8 \
                    <= batched.max_bytes
            st_ = numpy_batched._BucketStack(blocks, bucket, center, span)
            n_pad = bucket.n_pad
            assert st_.embedded
            assert st_.ht2.dtype == np.float64
            assert st_.ht2.shape == (len(bucket), 2 * n_pad, 2 * n_pad)
            np.testing.assert_array_equal(st_.ht2,
                                          st_.ht2.swapaxes(1, 2))
            for b, i in enumerate(bucket.indices):
                n = len(specs[i][0])
                z = np.zeros((n_pad, n_pad), dtype=complex)
                blocks.get(i, out=z, shift=center, scale=0.5 * span)
                a, bi = z.real, z.imag
                np.testing.assert_array_equal(
                    st_.ht2[b], np.block([[a, -bi], [bi, a]]))
    oracle, batched = get_backend(REFERENCE), get_backend("numpy_batched")
    coeffs = np.ones((3, 11))
    for op, arg in (("moments", 10), ("density_rows", coeffs[0]),
                    ("fused", coeffs)):
        for got, ref in zip(getattr(batched, op)(blocks, center, span, arg),
                            getattr(oracle, op)(blocks, center, span, arg)):
            got = got if isinstance(got, tuple) else (got,)
            ref = ref if isinstance(ref, tuple) else (ref,)
            assert [(g.dtype, g.shape) for g in got] \
                == [(r.dtype, r.shape) for r in ref], op


def _round_trip_problem(case, gsp):
    """``(H, regions)`` of one map round-trip case."""
    from repro.geometry import Atoms, Cell, bulk_silicon, rattle, supercell
    from repro.tb import HarrisonModel

    if case == "harrison-ch":
        # two CH4 and a C2H2 in a box: s-only H beside sp3 C, and regions
        # that hold a molecule and part of a neighbour
        t = 1.09 / np.sqrt(3)
        ch4 = np.array([[0, 0, 0], [t, t, t], [-t, -t, t], [-t, t, -t],
                        [t, -t, -t]])
        c2h2 = np.array([[0, 0, 0], [1.2, 0, 0], [-1.06, 0, 0],
                         [2.26, 0, 0]])
        pos = np.concatenate([ch4, ch4 + [2.8, 0.2, 0.1],
                              c2h2 + [1.0, 2.7, -0.3]])
        atoms = Atoms(["C", "H", "H", "H", "H"] * 2 + ["C", "C", "H", "H"],
                      pos, cell=Cell.cubic(12.0, pbc=False))
        model = HarrisonModel()
        r_loc = model.cutoff
    else:
        model = gsp
        atoms = {"si8": lambda: rattle(bulk_silicon(), 0.06, seed=123),
                 "si64-k": lambda: rattle(supercell(bulk_silicon(), 2), 0.05,
                                          seed=4)}[case]()
        # Si8: every region is the whole cell, bonds to periodic images
        # (also of the atom itself) summed in H.data; Si64 at r_loc =
        # cutoff: 68-orbital regions, padded in a stack of granularity 8
        r_loc = gsp.cutoff if case == "si64-k" else 1.5 * gsp.cutoff
    k_cart = None
    if case == "si64-k":
        k_cart = frac_to_cartesian(np.array([[0.25, 0.5, 0.125]]),
                                   atoms.cell)[0]
    H, _ = build_hamiltonian(atoms, model, neighbor_list(atoms, model.cutoff),
                             sparse=True, k_cart=k_cart)
    return sp.csr_matrix(H), extract_regions(atoms, model, r_loc,
                                             neighbor_list(atoms, r_loc))


def test_gather_maps_round_trip(si_problem, gsp):
    """A source fed the block maps returns exactly the CSR slice, and
    writes it shifted and scaled into a whole (padded) stack slot; the
    batched backend's stacks hold the same bits, complex embeddings
    included, and a padded view is refused rather than written through
    a copy."""
    _assert_round_trip(*si_problem[:2])
    for case in ("si8", "si64-k", "harrison-ch"):
        _assert_round_trip(*_round_trip_problem(case, gsp), case=case)


def _assert_round_trip(H, regions, case="si64"):
    maps = build_region_gather_maps(H, regions)
    specs = [(r.orbitals, r.core_local) for r in regions]
    mapped = RegionBlockSource(H, specs, gather_maps=maps)
    if case == "harrison-ch":
        assert {p.shape[1:] for p in maps.perm} == \
            {(4, 4), (4, 1), (1, 4), (1, 1)}
    shift, scale = -0.7, 3.1
    wants = []
    for i, (orb, _) in enumerate(specs):
        n = len(orb)
        want = H[orb][:, orb].toarray()
        wants.append(want)
        np.testing.assert_array_equal(mapped.get(i), want)
        d = np.arange(n)
        scaled = want / scale
        scaled[d, d] = (want[d, d] - shift) / scale
        stack = np.zeros((2, n + 3, n + 3), dtype=H.dtype)
        slot = stack[1]
        assert mapped.get(i, out=slot, shift=shift, scale=scale) is slot
        np.testing.assert_array_equal(slot[:n, :n], scaled)
        assert not stack[0].any() and not slot[n:].any() \
            and not slot[:, n:].any()
        with pytest.raises(ValueError, match="C-contiguous"):
            mapped.get(i, out=slot[:n, :n], shift=shift, scale=scale)
    center, span = 0.3, 2 * scale
    for bucket in get_backend("numpy_batched").plan(mapped):
        st_ = numpy_batched._BucketStack(mapped, bucket, center, span)
        n_pad = bucket.n_pad
        for b, i in enumerate(bucket.indices):
            want = wants[i]
            n = len(want)
            d = np.arange(n)
            z = np.zeros((n_pad, n_pad), dtype=H.dtype)
            z[:n, :n] = want / scale
            z[d, d] = (want[d, d] - center) / scale
            if st_.embedded:
                z = np.block([[z.real, -z.imag], [z.imag, z.real]])
            np.testing.assert_array_equal(st_.ht2[b], z)
    if case == "si64-k":
        assert any(len(o) % 8 for o, _ in specs)
    # a subset's share (orbit representatives, a pooled chunk) fills the
    # same bits, and every region in order is the maps themselves
    sub = np.arange(0, len(regions), 2)
    taken = RegionBlockSource(H, [specs[i] for i in sub],
                              gather_maps=maps.take(sub))
    for j, i in enumerate(sub):
        np.testing.assert_array_equal(taken.get(j), wants[i])
    assert maps.take(np.arange(len(regions))) is maps


def test_gather_maps_grow_with_the_stored_blocks(gsp):
    """Si216 at the default r_loc: the block maps take under a tenth of
    the bytes of one (n, n) int32 element map per region."""
    from repro.geometry import bulk_silicon, rattle, supercell

    atoms = rattle(supercell(bulk_silicon(), 3), 0.03, seed=8)
    H, _ = build_hamiltonian(atoms, gsp, neighbor_list(atoms, gsp.cutoff),
                             sparse=True)
    r_loc = 1.5 * gsp.cutoff
    regions = extract_regions(atoms, gsp, r_loc, neighbor_list(atoms, r_loc))
    maps = build_region_gather_maps(H, regions)
    assert len(maps) == len(regions)
    assert maps.nbytes <= 4 * sum(r.n_orbitals ** 2 for r in regions) / 10


# ------------------------------------------------------- densify accounting
@pytest.fixture()
def metrics_on():
    old_registry = metrics_mod._swap_registry(metrics_mod.MetricsRegistry())
    old_enabled = metrics_mod._ENABLED
    metrics_mod._ENABLED = True
    try:
        yield metrics_mod._REGISTRY
    finally:
        metrics_mod._swap_registry(old_registry)
        metrics_mod._ENABLED = old_enabled


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_two_pass_densifies_each_region_once_per_pass(name, si_problem,
                                                      metrics_on):
    """The silent-densify footgun: a two-pass solve densifies every
    region exactly once in each of its two passes (it holds no dense
    block between them), for every backend."""
    H, regions, nelec = si_problem
    solve_density_regions(H, regions, nelec, kT=0.2, order=40, backend=name)
    snap = metrics_on.snapshot()
    assert snap["counters"]["foe.densify"] == 2 * len(regions)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_fused_densifies_each_region_once(name, si_problem, metrics_on):
    H, regions, nelec = si_problem
    cold = solve_density_regions(H, regions, nelec, kT=0.2, order=40,
                                 backend=name)
    before = metrics_on.snapshot()["counters"]["foe.densify"]
    solve_density_regions_fused(H, regions, nelec, kT=0.2, order=40,
                                window=cold.spectral_bounds,
                                mu_guess=cold.mu, backend=name)
    after = metrics_on.snapshot()["counters"]["foe.densify"]
    assert after - before == len(regions)


def test_batched_emits_bucket_metrics(si_problem, si_problem_k, obs_on):
    """Every stack launch is counted and spanned, and its span says
    whether the stack ran as a complex block's real embedding."""
    tracer, registry = obs_on
    H, regions, nelec = si_problem
    solve_density_regions(H, regions, nelec, kT=0.2, order=40,
                          backend="numpy_batched")
    snap = registry.snapshot()
    assert snap["counters"]["foe.bucket.launch"] >= 1
    assert snap["counters"]["foe.bucket.regions"] == 2 * len(regions)
    assert snap["histograms"]["foe.bucket.batch_s"]["count"] >= 1
    fills = snap["histograms"]["foe.bucket.fill"]
    assert 0.0 < fills["min"] <= fills["max"] <= 1.0

    def embedded():
        return {r["attrs"]["embedded"] for r in tracer.finished()
                if r["name"] == "foe.bucket"}

    assert embedded() == {False}
    H_list, weights, regions_k, nelec_k = si_problem_k
    solve_density_regions_k(H_list, weights, regions_k, nelec_k, kT=0.2,
                            order=40, windows=spectral_windows_k(H_list),
                            backend="numpy_batched")
    assert embedded() == {False, True}
    assert registry.snapshot()["counters"]["foe.bucket.regions"] \
        == 2 * len(regions) + 2 * len(H_list) * len(regions_k)


def test_bucket_spans_follow_tracing_alone(si_problem, monkeypatch):
    """A ``foe.bucket`` span per stack launch whenever tracing is on —
    an ``obs.recording()`` block without metrics included — and no span
    asked for when tracing and metrics are both off."""
    from repro import obs
    from repro.obs import metrics as metrics_mod
    from repro.obs import spans as spans_mod

    H, regions, nelec = si_problem
    monkeypatch.setattr(metrics_mod, "_ENABLED", False)
    monkeypatch.setattr(spans_mod, "_TRACER",
                        spans_mod.Tracer(enabled=False))
    with obs.recording() as tracer:
        solve_density_regions(H, regions, nelec, kT=0.2, order=40,
                              backend="numpy_batched")
    buckets = [r for r in tracer.finished() if r["name"] == "foe.bucket"]
    assert buckets and sum(r["attrs"]["n_regions"] for r in buckets) \
        == 2 * len(regions)

    asked = []
    span = obs.span

    def spy(name):
        asked.append(name)
        return span(name)

    monkeypatch.setattr(obs, "span", spy)
    solve_density_regions(H, regions, nelec, kT=0.2, order=40,
                          backend="numpy_batched")
    assert "foe.bucket" not in asked


# ----------------------------------------------------- registry & dispatch
def test_registry_lists_both_numpy_backends():
    assert ALL_BACKENDS == ("eigh", "numpy_batched")
    assert DEFAULT_BACKEND == "numpy_batched"
    assert REFERENCE != DEFAULT_BACKEND     # the oracle stays registered


def test_get_backend_unknown_name_lists_available():
    with pytest.raises(ReproError, match="eigh"):
        get_backend("no_such_backend")


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None).name == DEFAULT_BACKEND
    monkeypatch.setenv("REPRO_BACKEND", "numpy_batched")
    assert resolve_backend(None).name == "numpy_batched"
    # explicit name beats the environment
    assert resolve_backend("eigh").name == "eigh"
    # an instance passes straight through
    inst = EighBackend()
    assert isinstance(inst, Backend)
    assert resolve_backend(inst) is inst


def test_make_calculator_threads_backend(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    calc = make_calculator({"model": "gsp-si", "solver": "linscale",
                            "kT": 0.2, "backend": "numpy_batched"})
    assert calc.backend.name == "numpy_batched"
    assert "numpy_batched" in repr(calc)
    assert calc.state_report()["backend"] == "numpy_batched"


def test_make_calculator_env_var_default(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numpy_batched")
    calc = make_calculator({"model": "gsp-si", "solver": "linscale",
                            "kT": 0.2})
    assert calc.backend.name == "numpy_batched"


def test_make_calculator_rejects_backend_for_diag():
    with pytest.raises(ReproError, match="linscale"):
        make_calculator({"model": "gsp-si", "solver": "diag",
                         "backend": "eigh"})


def test_make_calculator_rejects_unknown_backend():
    with pytest.raises(ReproError, match="available"):
        make_calculator({"model": "gsp-si", "solver": "linscale",
                         "kT": 0.2, "backend": "cuda_dreams"})


def test_cli_backend_flag_reaches_spec():
    from repro.cli import _calc_spec, build_parser

    parser = build_parser()
    args = parser.parse_args(["energy", "x.xyz", "--solver", "linscale",
                              "--kt", "0.2", "--backend", "numpy_batched"])
    assert _calc_spec(args)["backend"] == "numpy_batched"
