"""Quadratic term of the mode-truncated equations.

The retained harmonics are 0 and kN for k = 1..K.  Each velocity
component ``X_0 + sum_k (X_k cos(kN th) + Y_k sin(kN th))`` is rewritten
with one-sided complex coefficients ``c_0 = X_0`` and
``c_k = (X_k - i Y_k) / 2`` (``c_-k`` is the conjugate), so that

    -(u . grad) u + curvature  =  -(u_r d_r + (u_th / r) d_th + u_z d_z) u
                                  + (u_th**2 / r, -u_r u_th / r, 0)

becomes a convolution over harmonics.  The curvature terms are folded
into the azimuthal gradient row, which reads ``(d_th u_r - u_th) / r``
and ``(d_th u_th + u_r) / r`` with ``d_th = i kN``, so the advecting
factor is u itself.  Each harmonic k <= K is summed directly over the
pairs p + q = k with |p|, |q| <= K, so a harmonic only ever receives its
own products: exact zeros stay zeros and the relative accuracy of a
harmonic does not depend on the size of the others.

Everything here is plain advective form on collocation nodes; no
rotational or skew-symmetrized rewriting is applied.  The global energy
flux of the assembled terms vanishes for exactly divergence-free fields
up to quadrature error, which ``flux_identity_residual`` measures.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .grid import THETA_FULL, THETA_HALF
from .state import ModeState, ModeVelocity


def _two_sided(a: np.ndarray) -> np.ndarray:
    """Complex coefficients of harmonics -K..K (index k + K) from a real
    stack with axes (k, cos/sin, ...) over harmonics 0..K."""
    c = 0.5 * (a[:, 0] - 1j * a[:, 1])
    c[0] = a[0, 0]
    return np.concatenate([c[:0:-1].conj(), c])


def assemble_quadratic_rhs(state: ModeState) -> dict[int, tuple[np.ndarray, ...]]:
    """Complete explicit quadratic right-hand side for every harmonic.

    Returns ``{0: 3 fields, k: 6 fields}`` in the state's field order:
    ``(u_r, u_th, u_z)`` for the mean and ``(ur, vth, uz, vr, uth, vz)``
    for k >= 1.
    """
    g = state.grid
    K, N = state.params.K, state.params.N
    # axes (k, cos/sin, component r/th/z, r, z)
    X = np.array([((m.ur, m.uth, m.uz), (m.vr, m.vth, m.vz))
                  for m in state.modes])
    u = _two_sided(X)
    # gradient rows along r, th, z; the th row is (d_th u + curvature) / r
    grad = np.empty((2 * K + 1, 3) + u.shape[1:], dtype=complex)
    grad[:, 0] = _two_sided(g.D_r @ X)
    grad[:, 2] = _two_sided(g.dz(X))
    th = grad[:, 1]
    np.multiply(1j * N * np.arange(-K, K + 1)[:, None, None, None], u,
                out=th)
    th[:, 0] -= u[:, 1]
    th[:, 1] += u[:, 0]
    th /= g.r[:, None]
    out = np.zeros((K + 1,) + u.shape[1:], dtype=complex)
    for p in range(-K, K + 1):
        n = K + 1 + min(p, 0)  # targets k = 0..n-1, partners q = k - p
        out[:n] -= np.einsum("arz,kairz->kirz", u[K + p],
                             grad[K - p:K - p + n])
    out[1:] *= 2.0
    res = {0: tuple(out[0].real)}
    for k in range(1, K + 1):
        n_r, n_th, n_z = out[k]
        res[k] = (n_r.real, -n_th.imag, n_z.real,
                  -n_r.imag, n_th.real, -n_z.imag)
    return res


def flux_identity_residual(state: ModeState) -> float:
    """Normalized total quadratic energy flux.

    For exactly divergence-free fields the assembled quadratic terms do no
    net work; the return value is ``|sum_k <rhs_k, u_k>|`` over the solid
    cylinder divided by ``||u||^2 ||grad u||``.
    """
    g = state.grid
    rhs = assemble_quadratic_rhs(state)
    r = g.r[:, None]
    total = 0.0
    l2_sq = 0.0
    grad_sq = 0.0
    for k in range(state.params.K + 1):
        m = state.modes[k]
        fields = (m.ur, m.uth, m.uz) if k == 0 else m.fields()
        theta = THETA_FULL if k == 0 else THETA_HALF
        kN = k * state.params.N
        total += theta * sum(g.quad(f * w) for f, w in zip(rhs[k], fields))
        l2_sq += theta * sum(g.quad(f * f) for f in fields)
        grad_sq += theta * sum(
            g.quad(g.dr(f) ** 2) + g.quad(g.dz(f) ** 2)
            + kN**2 * g.quad((f / r) ** 2) for f in fields)
    scale = l2_sq * math.sqrt(grad_sq)
    if scale == 0.0:
        return 0.0
    return abs(total) / scale


def triad_bound_check(state: ModeState, k: int) -> tuple[float, float]:
    """Work of the triad force on harmonic k against its crude majorant.

    lhs is ``|<(triad force), u_k>|`` over the cylinder; rhs sums, over the
    admissible pairs that actually feed harmonic k, the integral of
    ``|u_k1| |u_k2| (|grad u_k| + kN |u_k / r|)`` with pointwise Euclidean
    magnitudes over the six components.  The bilinear estimate asserts
    lhs <= C rhs with an absolute constant; callers record the measured C.
    """
    g = state.grid
    r = g.r[:, None]
    N = state.params.N
    m = state.modes[k]
    # without the mean, the quadratic term is the triad force alone
    mean = ModeVelocity.zeros(0, m.ur.shape)
    tri = assemble_quadratic_rhs(
        replace(state, modes=[mean, *state.modes[1:]]))[k]
    lhs = abs(THETA_HALF * sum(g.quad(f * w)
                               for f, w in zip(tri, m.fields())))
    mag = {}
    pop = {j for j in range(1, state.params.K + 1)
           if any(np.any(f) for f in state.modes[j].fields())}
    for j in pop | {k}:
        mj = state.modes[j]
        mag[j] = np.sqrt(sum(f * f for f in mj.fields()))
    grad_k = np.sqrt(sum(g.dr(f) ** 2 + g.dz(f) ** 2 for f in m.fields()))
    weight = grad_k + k * N * np.sqrt(sum(f * f for f in m.fields())) / r
    pairs = []
    for k1 in range(1, k):
        if k1 in pop and (k - k1) in pop:
            pairs.append((k1, k - k1))
    for k2 in range(1, state.params.K - k + 1):
        if (k2 + k) in pop and k2 in pop:
            pairs.append((k2 + k, k2))
            pairs.append((k2, k2 + k))
    rhs = sum(THETA_FULL * g.quad(mag[k1] * mag[k2] * weight)
              for k1, k2 in pairs)
    return lhs, rhs
