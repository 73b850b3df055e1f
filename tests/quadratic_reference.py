"""Hand-expanded quadratic couplings: the reference for the kernel tests.

The package evaluates the quadratic term with one convolution over
azimuthal harmonics (``cylmode.nonlinear.assemble_quadratic_rhs``).  This
module keeps the earlier, independent derivation: every velocity
component is written as ``X_0 + sum_k (X_k cos(kN th) + Y_k sin(kN th))``
and the advective nonlinearity is multiplied out by hand into three kinds
of terms:

* a mean source: curvature terms of the mean swirl plus the theta-average
  of products of equal harmonics,
* linear couplings of each harmonic against the mean flow,
* triad convolutions between harmonics k1 and k2 feeding k1 + k2 and
  |k1 - k2|.

The convolution rule is evaluated over ordered pairs (k1, k2) of
populated harmonics: the sum target is kept when k1 + k2 <= K, the
difference target |k1 - k2| always (the diagonal k1 = k2 feeds the mean
source, never a harmonic).  Components whose trigonometric reduction is
antisymmetric in (k1, k2) carry the sign of k1 - k2 on the difference
blocks; the remaining components enter with a plus sign for both orders.
Advection by the mean flow is kept separate in ``mean_transport``.
``reference_quadratic_rhs`` adds the pieces up in the layout of
``assemble_quadratic_rhs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cylmode.grid import CylGrid
from cylmode.state import ModeState, ModeVelocity


@dataclass
class TriadForce:
    """Force fields for one harmonic, slot-aligned with the velocity fields."""

    k: int
    ur: np.ndarray
    vth: np.ndarray
    uz: np.ndarray
    vr: np.ndarray
    uth: np.ndarray
    vz: np.ndarray

    @classmethod
    def zeros(cls, k: int, shape) -> "TriadForce":
        return cls(k, *(np.zeros(shape) for _ in range(6)))

    def fields(self) -> tuple[np.ndarray, ...]:
        return (self.ur, self.vth, self.uz, self.vr, self.uth, self.vz)


class _Gradients:
    """Cached meridional gradients of every populated field."""

    def __init__(self, grid: CylGrid):
        self.grid = grid
        self._dr: dict[int, np.ndarray] = {}
        self._dz: dict[int, np.ndarray] = {}

    def dr(self, f: np.ndarray) -> np.ndarray:
        key = id(f)
        if key not in self._dr:
            self._dr[key] = self.grid.dr(f)
        return self._dr[key]

    def dz(self, f: np.ndarray) -> np.ndarray:
        key = id(f)
        if key not in self._dz:
            self._dz[key] = self.grid.dz(f)
        return self._dz[key]

    def adv_u(self, m: ModeVelocity, f: np.ndarray) -> np.ndarray:
        """Advection of f by the cosine meridional pair (ur, uz) of m."""
        return m.ur * self.dr(f) + m.uz * self.dz(f)

    def adv_v(self, m: ModeVelocity, f: np.ndarray) -> np.ndarray:
        """Advection of f by the sine meridional pair (vr, vz) of m."""
        return m.vr * self.dr(f) + m.vz * self.dz(f)


def _sum_block(g: _Gradients, m1: ModeVelocity, m2: ModeVelocity,
               k2N: int, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """Integrand of the k1 + k2 convolution, slot order (ur..vz)."""
    return (
        g.adv_u(m1, m2.ur) - g.adv_v(m1, m2.vr)
        + (k2N / r) * (m1.uth * m2.vr + m1.vth * m2.ur)
        - (m1.uth * m2.uth - m1.vth * m2.vth) / r,
        g.adv_u(m1, m2.vth) + g.adv_v(m1, m2.uth)
        + (k2N / r) * (m1.vth * m2.vth - m1.uth * m2.uth)
        + (m1.ur * m2.vth + m1.vr * m2.uth) / r,
        g.adv_u(m1, m2.uz) - g.adv_v(m1, m2.vz)
        + (k2N / r) * (m1.uth * m2.vz + m1.vth * m2.uz),
        g.adv_u(m1, m2.vr) + g.adv_v(m1, m2.ur)
        + (k2N / r) * (m1.vth * m2.vr - m1.uth * m2.ur)
        - (m1.uth * m2.vth + m1.vth * m2.uth) / r,
        g.adv_u(m1, m2.uth) - g.adv_v(m1, m2.vth)
        + (k2N / r) * (m1.uth * m2.vth + m1.vth * m2.uth)
        + (m1.ur * m2.uth - m1.vr * m2.vth) / r,
        g.adv_u(m1, m2.vz) + g.adv_v(m1, m2.uz)
        + (k2N / r) * (m1.vth * m2.vz - m1.uth * m2.uz),
    )


def _diff_plain_block(g: _Gradients, m1: ModeVelocity, m2: ModeVelocity,
                      k2N: int, r: np.ndarray) -> dict[str, np.ndarray]:
    """Difference-target integrands entering with + for both pair orders."""
    return {
        "ur": g.adv_u(m1, m2.ur) + g.adv_v(m1, m2.vr)
        + (k2N / r) * (m1.uth * m2.vr - m1.vth * m2.ur)
        - (m1.uth * m2.uth + m1.vth * m2.vth) / r,
        "uz": g.adv_u(m1, m2.uz) + g.adv_v(m1, m2.vz)
        + (k2N / r) * (m1.uth * m2.vz - m1.vth * m2.uz),
        "uth": g.adv_u(m1, m2.uth) + g.adv_v(m1, m2.vth)
        + (k2N / r) * (m1.uth * m2.vth - m1.vth * m2.uth)
        + (m1.ur * m2.uth + m1.vr * m2.vth) / r,
    }


def _diff_antisym_block(g: _Gradients, m1: ModeVelocity, m2: ModeVelocity,
                        k2N: int, r: np.ndarray) -> dict[str, np.ndarray]:
    """Difference-target integrands carrying the sign of k1 - k2."""
    return {
        "vth": g.adv_u(m1, m2.vth) - g.adv_v(m1, m2.uth)
        - (k2N / r) * (m1.uth * m2.uth + m1.vth * m2.vth)
        + (m1.ur * m2.vth - m1.vr * m2.uth) / r,
        "vr": g.adv_u(m1, m2.vr) - g.adv_v(m1, m2.ur)
        - (k2N / r) * (m1.uth * m2.ur + m1.vth * m2.vr)
        - (m1.uth * m2.vth - m1.vth * m2.uth) / r,
        "vz": g.adv_u(m1, m2.vz) - g.adv_v(m1, m2.uz)
        - (k2N / r) * (m1.uth * m2.uz + m1.vth * m2.vz),
    }


_SLOTS = ("ur", "vth", "uz", "vr", "uth", "vz")


def _populated(state: ModeState) -> set[int]:
    out = set()
    for k in range(1, state.params.K + 1):
        m = state.modes[k]
        if any(np.any(f) for f in m.fields()):
            out.add(k)
    return out


def compute_triad_force(state: ModeState, k: int,
                        _grads: _Gradients | None = None) -> TriadForce:
    """Convolution force on harmonic k from pairs of populated harmonics.

    """
    if not 1 <= k <= state.params.K:
        raise ValueError(f"harmonic index {k} outside 1..{state.params.K}")
    g = _grads if _grads is not None else _Gradients(state.grid)
    N = state.params.N
    r = state.grid.r[:, None]
    shape = (state.grid.n_r, state.grid.n_z)
    out = TriadForce.zeros(k, shape)
    acc = {s: getattr(out, s) for s in _SLOTS}
    pop = _populated(state)

    # sum targets: ordered pairs with k1 + k2 = k
    for k1 in range(1, k):
        k2 = k - k1
        if k1 not in pop or k2 not in pop:
            continue
        blk = _sum_block(g, state.modes[k1], state.modes[k2], k2 * N, r)
        for slot, term in zip(_SLOTS, blk):
            acc[slot] -= 0.5 * term

    # difference targets: ordered pairs with |k1 - k2| = k; the antisym
    # components carry the sign of k1 - k2
    for j in range(1, state.params.K - k + 1):
        for k1, k2, sign in ((j + k, j, 1.0), (j, j + k, -1.0)):
            if k1 not in pop or k2 not in pop:
                continue
            m1, m2 = state.modes[k1], state.modes[k2]
            plain = _diff_plain_block(g, m1, m2, k2 * N, r)
            anti = _diff_antisym_block(g, m1, m2, k2 * N, r)
            for slot, term in plain.items():
                acc[slot] -= 0.5 * term
            for slot, term in anti.items():
                acc[slot] += 0.5 * sign * term
    return out


def compute_mean_source(state: ModeState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic source of the mean flow: swirl curvature plus the
    theta-average of equal-harmonic products."""
    gdef = _Gradients(state.grid)
    return _mean_source(state, gdef)


def _mean_source(state: ModeState, g: _Gradients):
    m0 = state.modes[0]
    N = state.params.N
    r = state.grid.r[:, None]
    s_ur = m0.uth**2 / r
    s_uth = -m0.uth * m0.ur / r
    s_uz = np.zeros_like(s_ur)
    for k in range(1, state.params.K + 1):
        m = state.modes[k]
        if not any(np.any(f) for f in m.fields()):
            continue
        kN = k * N
        s_ur = s_ur - 0.5 * (
            g.adv_u(m, m.ur) + g.adv_v(m, m.vr)
            + (kN / r) * (m.uth * m.vr - m.vth * m.ur)
            - (m.uth**2 + m.vth**2) / r)
        s_uth = s_uth - 0.5 * (
            g.adv_u(m, m.uth) + g.adv_v(m, m.vth)
            + (m.ur * m.uth + m.vr * m.vth) / r)
        s_uz = s_uz - 0.5 * (
            g.adv_u(m, m.uz) + g.adv_v(m, m.vz)
            + (kN / r) * (m.uth * m.vz - m.vth * m.uz))
    return s_ur, s_uth, s_uz


def compute_u0_coupling(state: ModeState, k: int,
                        _grads: _Gradients | None = None) -> TriadForce:
    """Linear coupling of harmonic k against the mean flow (advection of
    the mean by the harmonic, swirl rotation and curvature exchange).

    The transport of the harmonic by the mean meridional flow is NOT
    included here; see ``mean_transport``.
    """
    if not 1 <= k <= state.params.K:
        raise ValueError(f"harmonic index {k} outside 1..{state.params.K}")
    g = _grads if _grads is not None else _Gradients(state.grid)
    m0 = state.modes[0]
    m = state.modes[k]
    kN = k * state.params.N
    r = state.grid.r[:, None]
    return TriadForce(
        k,
        -g.adv_u(m, m0.ur) - (kN / r) * m0.uth * m.vr + (2.0 / r) * m0.uth * m.uth,
        -g.adv_v(m, m0.uth) + (kN / r) * m0.uth * m.uth
        - (m0.ur * m.vth + m0.uth * m.vr) / r,
        -g.adv_u(m, m0.uz) - (kN / r) * m0.uth * m.vz,
        -g.adv_v(m, m0.ur) + (kN / r) * m0.uth * m.ur + (2.0 / r) * m0.uth * m.vth,
        -g.adv_u(m, m0.uth) - (kN / r) * m0.uth * m.vth
        - (m0.ur * m.uth + m0.uth * m.ur) / r,
        -g.adv_v(m, m0.uz) + (kN / r) * m0.uth * m.uz,
    )


def mean_transport(state: ModeState, k: int,
                   _grads: _Gradients | None = None):
    """Advection of harmonic k (or of the mean itself for k = 0) by the
    mean meridional flow, with the leading minus sign folded in."""
    g = _grads if _grads is not None else _Gradients(state.grid)
    m0 = state.modes[0]
    if k == 0:
        return tuple(-g.adv_u(m0, f) for f in (m0.ur, m0.uth, m0.uz))
    return tuple(-g.adv_u(m0, f) for f in state.modes[k].fields())


def reference_quadratic_rhs(state: ModeState) -> dict[int, tuple[np.ndarray, ...]]:
    """Complete explicit quadratic right-hand side for every harmonic.

    Returns ``{0: 3 fields, k: 6 fields}`` in the state's field order:
    triad convolutions plus mean couplings plus mean-flow transport.
    """
    g = _Gradients(state.grid)
    out: dict[int, tuple[np.ndarray, ...]] = {}
    s = _mean_source(state, g)
    t0 = mean_transport(state, 0, g)
    out[0] = tuple(a + b for a, b in zip(s, t0))
    for k in range(1, state.params.K + 1):
        tri = compute_triad_force(state, k, g)
        cpl = compute_u0_coupling(state, k, g)
        trans = mean_transport(state, k, g)
        out[k] = tuple(a + b + c for a, b, c in
                       zip(tri.fields(), cpl.fields(), trans))
    return out
