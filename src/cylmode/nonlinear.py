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
factor is u itself.  The gradient is stacked direction first, so
``grad[a]`` is the r, th or z row of every harmonic and component.  Each
harmonic k <= K is summed directly over the pairs p + q = k with |p|, |q|
<= K, by one multiply-accumulate of ``u_p``'s a-component with ``grad[a]``
per offset p and direction a, so a harmonic only ever receives its own
products: exact zeros stay zeros and the relative accuracy of a harmonic
does not depend on the size of the others.

Everything here is plain advective form on collocation nodes; no
rotational or skew-symmetrized rewriting is applied.  The global energy
flux of the assembled terms vanishes for exactly divergence-free fields
up to quadrature error, which ``flux_identity_residual`` measures.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import (UR, UTH, UZ, VR, VTH, VZ, StepWorkspace,
                          inner_quad, measure_state)
from .state import ModeState

#: slots of the cosine and sine families, by component r, th, z
_FAMILIES = np.array([[UR, UTH, UZ], [VR, VTH, VZ]])


def _two_sided(a: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` the complex coefficients of harmonics -K..K (index
    k + K) of a real stack with axes (k, cos/sin, ...) over harmonics
    0..K."""
    K = len(a) - 1
    c = out[K:]
    # 0.5 (a_cos - i a_sin), part by part: the same bits up to signed zeros
    np.multiply(a[:, 0], 0.5, out=c.real)
    np.multiply(a[:, 1], -0.5, out=c.imag)
    c[0] = a[0, 0]
    np.conjugate(c[:0:-1], out=out[:K])


def assemble_quadratic_rhs(state: ModeState, dr_u: np.ndarray | None = None,
                           ws: StepWorkspace | None = None) -> np.ndarray:
    """Complete explicit quadratic right-hand side for every harmonic.

    ``dr_u`` is the state's radial derivative stack ``ModeMeasures.dr_u``
    from its diagnostics pass, taken here when not given; the scratch
    arrays live in ``ws`` when given.  Returns a fresh ``(K+1, 6, n_r,
    n_z)`` array in the slot layout of ``ModeState.u``; the mean's sine
    slots are zero.  Each harmonic sums only its own pairs, one
    multiply-accumulate per offset and direction of the direction-major
    gradient stack.
    """
    g = state.grid
    K, N = state.params.K, state.params.N
    fields = (g.n_r, g.n_z)
    # axes (k, cos/sin, component r/th/z, r, z), two-sided (k, component)
    # and, for the gradient, (direction r/th/z, k, component)
    X, dX, u, grad, out, term = (ws or StepWorkspace()).arrays(
        ((K + 1, 2, 3) + fields, float), ((K + 1, 2, 3) + fields, float),
        ((2 * K + 1, 3) + fields, complex),
        ((3, 2 * K + 1, 3) + fields, complex),
        ((K + 1, 3) + fields, complex), ((K + 1, 3) + fields, complex))
    np.take(state.u, _FAMILIES, axis=1, out=X, mode="clip")
    if dr_u is None:
        np.matmul(g.D_r, X, out=dX)
    else:
        np.take(dr_u, _FAMILIES, axis=1, out=dX, mode="clip")
    _two_sided(X, u)
    # gradient rows along r, th, z; the th row is (d_th u + curvature) / r
    _two_sided(dX, grad[0])
    _two_sided(g.dz(X), grad[2])
    th = grad[1]
    np.multiply(1j * N * np.arange(-K, K + 1)[:, None, None, None], u,
                out=th)
    th[:, 0] -= u[:, 1]
    th[:, 1] += u[:, 0]
    # numpy divides a complex by a real r as by r + 0j, which comes to a
    # product with 1 / r; taken on the real and imaginary parts it gives
    # the same bits, up to signed zeros, at a quarter of the cost
    parts = th.view(float)
    np.multiply(parts, (1.0 / g.r)[:, None], out=parts)
    out.fill(0.0)
    for p in range(-K, K + 1):
        n = K + 1 + min(p, 0)  # targets k = 0..n-1, partners q = k - p
        for a in range(3):  # - u_a d_a u, one direction's row at a time
            np.multiply(u[K + p, a], grad[a, K - p:K - p + n], out=term[:n])
            out[:n] -= term[:n]
    out[1:] *= 2.0
    rhs = np.empty_like(state.u)
    rhs[:, _FAMILIES[0]] = out.real
    np.negative(out.imag, out=out.imag)
    rhs[:, _FAMILIES[1]] = out.imag
    rhs[0, _FAMILIES[1]] = 0.0
    return rhs


def flux_identity_residual(state: ModeState) -> float:
    """Normalized total quadratic energy flux.

    For exactly divergence-free fields the assembled quadratic terms do no
    net work; the return value is ``|sum_k <rhs_k, u_k>|`` over the solid
    cylinder divided by ``||u||^2 ||grad u||``.
    """
    ms = measure_state(state, 0)
    rhs = assemble_quadratic_rhs(state, ms.dr_u)
    total = float(np.sum(ms.theta * inner_quad(state.grid, rhs, state.u)))
    grad_sq = float(np.sum(ms.theta * (
        ms.dr_sq[0] + ms.dz_sq[0] + ms.k_eff**2 * ms.over_r[0].sum(axis=-1))))
    scale = ms.total_l2_sq() * math.sqrt(grad_sq)
    if scale == 0.0:
        return 0.0
    return abs(total) / scale
