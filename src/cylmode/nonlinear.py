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

import numpy as np

from .diagnostics import (UR, UTH, UZ, VR, VTH, VZ, inner_quad,
                          measure_state)
from .state import ModeState


def _two_sided(a: np.ndarray) -> np.ndarray:
    """Complex coefficients of harmonics -K..K (index k + K) from a real
    stack with axes (k, cos/sin, ...) over harmonics 0..K."""
    c = 0.5 * (a[:, 0] - 1j * a[:, 1])
    c[0] = a[0, 0]
    return np.concatenate([c[:0:-1].conj(), c])


def assemble_quadratic_rhs(state: ModeState) -> np.ndarray:
    """Complete explicit quadratic right-hand side for every harmonic.

    Returns a ``(K+1, 6, n_r, n_z)`` array in the slot layout of
    ``ModeState.u``; the mean's sine slots are zero.
    """
    g = state.grid
    K, N = state.params.K, state.params.N
    # axes (k, cos/sin, component r/th/z, r, z)
    X = state.u[:, [[UR, UTH, UZ], [VR, VTH, VZ]]]
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
    rhs = np.empty_like(state.u)
    rhs[:, [UR, UTH, UZ]] = out.real
    rhs[:, [VR, VTH, VZ]] = -out.imag
    rhs[0, [VR, VTH, VZ]] = 0.0
    return rhs


def flux_identity_residual(state: ModeState) -> float:
    """Normalized total quadratic energy flux.

    For exactly divergence-free fields the assembled quadratic terms do no
    net work; the return value is ``|sum_k <rhs_k, u_k>|`` over the solid
    cylinder divided by ``||u||^2 ||grad u||``.
    """
    rhs = assemble_quadratic_rhs(state)
    ms = measure_state(state, 0)
    total = float(np.sum(ms.theta * inner_quad(state.grid, rhs, state.u)))
    grad_sq = float(np.sum(ms.theta * (
        ms.dr_sq[0] + ms.dz_sq[0] + ms.k_eff**2 * ms.over_r[0].sum(axis=-1))))
    scale = ms.total_l2_sq() * math.sqrt(grad_sq)
    if scale == 0.0:
        return 0.0
    return abs(total) / scale
