"""Reference per-region Chebyshev kernels (pure NumPy, picklable).

These are the original one-region-at-a-time recursions of
:mod:`repro.linscale.foe_local`, factored out so every array backend can
treat them as the *oracle*: the loop backend runs them verbatim, the
batched backend must reproduce them to rounding error, and the
conformance suite (``tests/test_backends.py``) pins that equivalence.

All three kernels share the same contract: a dense region Hamiltonian
block ``h_sub`` (real symmetric at Γ, complex Hermitian at finite k),
the local core-orbital positions, and one global ``(center, span)``
Chebyshev scaling.  They are pure functions of their inputs.
"""

from __future__ import annotations

import numpy as np


def hermitian_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re Σ conj(a)·b — the partial-trace contraction ``Σ [T_k H]_μμ``.

    For real symmetric blocks this is the plain elementwise sum the Γ
    engine always used; for complex Hermitian H(k) blocks the conjugate
    appears because column μ of the Hermitian ``T_k`` is the conjugate
    of row μ.  The imaginary part is pure truncation noise and is
    discarded (exactly zero summed over a time-reversal pair).
    """
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return float(np.real(np.vdot(a, b)))
    return float(np.sum(a * b))


def region_moments(h_sub: np.ndarray, core_local: np.ndarray,
                   center: float, span: float, order: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev moments (m_k, e_k) of one region's core orbitals.

    Works on real symmetric (Γ) and complex Hermitian (finite-k) region
    blocks alike; moments are real either way (diagonal entries of a
    Hermitian polynomial).
    """
    n = h_sub.shape[0]
    nc = len(core_local)
    v = np.zeros((n, nc), dtype=h_sub.dtype)
    v[core_local, np.arange(nc)] = 1.0
    h_cols = h_sub[:, core_local]

    m = np.zeros(order + 1)
    e = np.zeros(order + 1)
    m[0] = float(nc)
    e[0] = hermitian_inner(v, h_cols)

    h_tilde = (h_sub - center * np.eye(n)) / span
    v_prev = v
    v_cur = h_tilde @ v
    if order >= 1:
        m[1] = float(np.real(v_cur[core_local, np.arange(nc)].sum()))
        e[1] = hermitian_inner(v_cur, h_cols)
    for k in range(2, order + 1):
        v_next = 2.0 * (h_tilde @ v_cur) - v_prev
        m[k] = float(np.real(v_next[core_local, np.arange(nc)].sum()))
        e[k] = hermitian_inner(v_next, h_cols)
        v_prev, v_cur = v_cur, v_next
    return m, e


def region_density_rows(h_sub: np.ndarray, core_local: np.ndarray,
                        center: float, span: float, coeffs: np.ndarray
                        ) -> np.ndarray:
    """Core rows of ρ_loc = Σ c_k T_k(H̃_loc), shape (n_core, n_region).

    The recursion produces core *columns*; rows follow by (conjugate)
    transposition — ρ_loc is symmetric for real H, Hermitian for H(k).
    """
    n = h_sub.shape[0]
    nc = len(core_local)
    v = np.zeros((n, nc), dtype=h_sub.dtype)
    v[core_local, np.arange(nc)] = 1.0

    out = coeffs[0] * v
    h_tilde = (h_sub - center * np.eye(n)) / span
    v_prev = v
    v_cur = h_tilde @ v
    if len(coeffs) > 1:
        out = out + coeffs[1] * v_cur
    for k in range(2, len(coeffs)):
        v_next = 2.0 * (h_tilde @ v_cur) - v_prev
        out += coeffs[k] * v_next
        v_prev, v_cur = v_cur, v_next
    return np.conj(out.T) if np.iscomplexobj(out) else out.T


def region_fused(h_sub: np.ndarray, core_local: np.ndarray,
                 center: float, span: float, deriv_coeffs: np.ndarray,
                 block: int = 24
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Chebyshev recursion → moments *and* μ-Taylor density accumulants.

    Parameters
    ----------
    deriv_coeffs :
        (S, K+1) coefficient stack from
        :func:`repro.tb.chebyshev.fermi_mu_derivative_coefficients` — row
        *s* expands ∂ˢf/∂μˢ at the guessed μ.
    block :
        Iterates are buffered in blocks of this many k-steps so moment
        extraction and the S accumulations happen as a handful of BLAS
        calls per block instead of per k (the per-k numpy call overhead
        is comparable to the matvec at typical region sizes).

    Returns
    -------
    ``(m, e, outs)`` — moments (K+1,), energy moments (K+1,), and the
    accumulant stack (S, n_region, n_core) with
    ``outs[s] = Σ_k c^{(s)}_k T_k(H̃) v₀``.
    """
    n = h_sub.shape[0]
    nc = len(core_local)
    s_stack, k1 = deriv_coeffs.shape
    order = k1 - 1
    ar = np.arange(nc)
    is_complex = np.iscomplexobj(h_sub)

    v0 = np.zeros((n, nc), dtype=h_sub.dtype)
    v0[core_local, ar] = 1.0
    h_cols = np.ascontiguousarray(h_sub[:, core_local])
    if is_complex:
        h_cols = np.conj(h_cols)      # e_k = Re Σ conj(T_k)·H = Σ T_k·conj(H)
    h_tilde = (h_sub - center * np.eye(n)) / span

    m = np.empty(k1)
    e = np.empty(k1)
    outs = np.zeros((s_stack, n, nc), dtype=h_sub.dtype)
    block = max(3, min(block, k1))
    buf = np.empty((block, n, nc), dtype=h_sub.dtype)
    v_prev = v0
    v_cur = v0            # placeholder until k = 1 exists

    kpos = 0
    while kpos <= order:
        jmax = min(block, order + 1 - kpos)
        for j in range(jmax):
            k = kpos + j
            if k == 0:
                buf[j] = v0
            elif k == 1:
                np.matmul(h_tilde, v0, out=buf[j])
            else:
                np.matmul(h_tilde, v_cur, out=buf[j])
                buf[j] *= 2.0
                buf[j] -= v_prev
            if k >= 1:
                v_prev, v_cur = v_cur, buf[j]
        chunk = buf[:jmax]
        if is_complex:
            m[kpos:kpos + jmax] = chunk[:, core_local, ar].sum(axis=1).real
            e[kpos:kpos + jmax] = np.tensordot(chunk, h_cols,
                                               axes=([1, 2], [0, 1])).real
        else:
            m[kpos:kpos + jmax] = chunk[:, core_local, ar].sum(axis=1)
            e[kpos:kpos + jmax] = np.tensordot(chunk, h_cols,
                                               axes=([1, 2], [0, 1]))
        outs += np.tensordot(deriv_coeffs[:, kpos:kpos + jmax], chunk,
                             axes=([1], [0]))
        kpos += jmax
    return m, e, outs
