"""Brute-force full-cylinder reference solver on an (r, theta, z) grid.

This module duplicates the physics of the harmonic solver through a
completely different route: velocity and pressure live pointwise on a
tensor grid over the solid cylinder, the quadratic terms are evaluated as
plain pointwise products in primitive variables, and the implicit viscous
solve diagonalizes over Fourier bins in both periodic directions.  None of
the harmonic bookkeeping (coupled cos/sin families, triad convolutions) is
reused here, so agreement between the two paths is evidence against sign
and coefficient errors in either.  Only the grid module is shared.

Resolution is deliberately capped; this solver exists for desk-scale
cross-checks, not production runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .grid import CFLViolationError, CylGrid, THETA_FULL
from .state import ModeState, Params

#: hard cap on the azimuthal grid; the solver is a verification tool only
ORACLE_MAX_NTHETA = 128


class UnresolvedWavenumberError(ValueError):
    """The azimuthal grid cannot represent a requested harmonic."""


class SingularBinError(RuntimeError):
    """A Fourier-bin operator factorization failed its solve probe."""


# -- field container ----------------------------------------------------------

@dataclass
class FullField:
    """Primitive-variable fields on the (n_r, n_theta, n_z) tensor grid."""

    grid: CylGrid
    theta: np.ndarray
    ur: np.ndarray
    uth: np.ndarray
    uz: np.ndarray
    P: np.ndarray
    t: float = 0.0

    @property
    def n_theta(self) -> int:
        return self.theta.size

    def velocity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.ur, self.uth, self.uz)

    def copy(self) -> "FullField":
        return FullField(self.grid, self.theta, self.ur.copy(),
                         self.uth.copy(), self.uz.copy(), self.P.copy(),
                         self.t)


def build_full_field(grid: CylGrid, n_theta: int) -> FullField:
    """Zero field on a uniform azimuthal grid of ``n_theta`` nodes."""
    if n_theta < 4 or n_theta % 2 != 0:
        raise ValueError("n_theta must be an even integer >= 4")
    if n_theta > ORACLE_MAX_NTHETA:
        raise ValueError(
            f"n_theta = {n_theta} exceeds the verification cap "
            f"{ORACLE_MAX_NTHETA}")
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    shape = (grid.n_r, n_theta, grid.n_z)
    return FullField(grid, theta, np.zeros(shape), np.zeros(shape),
                     np.zeros(shape), np.zeros(shape))


# -- azimuthal spectral helpers ------------------------------------------------

def _dth(f: np.ndarray) -> np.ndarray:
    """Azimuthal derivative along axis 1 (Nyquist of the odd derivative
    zeroed, matching the vertical convention of the grid module)."""
    n = f.shape[1]
    c = np.fft.rfft(f, axis=1)
    ik = 1j * np.arange(c.shape[1], dtype=float)
    if n % 2 == 0:
        ik[-1] = 0.0
    return np.fft.irfft(c * ik[None, :, None], n=n, axis=1)


def quad3(full_or_grid, theta_count_or_f, f: np.ndarray | None = None) -> float:
    """``\\int a r dr dtheta dz`` over the solid cylinder.

    Call as ``quad3(full, a)`` or ``quad3(grid, n_theta, a)``.
    """
    if f is None:
        field, a = full_or_grid, theta_count_or_f
        grid, n_theta = field.grid, field.n_theta
    else:
        grid, n_theta, a = full_or_grid, theta_count_or_f, f
    radial = grid.w_r @ a.sum(axis=(1, 2))
    return float(radial) * grid.dz_weight * (THETA_FULL / n_theta)


def full_l2(full: FullField) -> float:
    """L2 norm of the velocity over the solid cylinder."""
    s = sum(quad3(full, f * f) for f in full.velocity())
    return math.sqrt(max(s, 0.0))


def relative_l2(a: FullField, b: FullField) -> float:
    """``||a - b|| / ||b||`` in velocity L2 over the cylinder."""
    diff = sum(quad3(a, (fa - fb) ** 2)
               for fa, fb in zip(a.velocity(), b.velocity()))
    ref = sum(quad3(b, fb * fb) for fb in b.velocity())
    if ref == 0.0:
        return math.sqrt(max(diff, 0.0))
    return math.sqrt(max(diff, 0.0) / ref)


def full_divergence(full: FullField) -> np.ndarray:
    """Pointwise three-dimensional divergence in cylinder coordinates."""
    g = full.grid
    r = g.r[:, None, None]
    return (g.dr(full.ur) + full.ur / r + _dth(full.uth) / r
            + g.dz(full.uz))


# -- transforms between the full grid and harmonic coefficients ---------------

def _check_resolution(n_theta: int, params: Params) -> None:
    if 2 * params.K * params.N >= n_theta:
        raise UnresolvedWavenumberError(
            f"azimuthal grid with {n_theta} nodes cannot resolve harmonic "
            f"{params.K} * {params.N}")


def project_to_modes(full: FullField, params: Params) -> ModeState:
    """Extract the retained cos/sin harmonic coefficients by azimuthal FFT.

    Velocity components map slot-wise onto the coefficient fields: the
    cos part of (u_r, u_theta, u_z) lands in (ur, uth, uz) and the sin
    part in (vr, vth, vz); pressure cos/sin parts land in (P, Q).
    Azimuthal content that is not a multiple of the base wavenumber is
    simply dropped.
    """
    n_theta = full.n_theta
    _check_resolution(n_theta, params)
    st = ModeState.zeros(full.grid, params, t=full.t)
    spectra = {name: np.fft.rfft(getattr(full, name), axis=1)
               for name in ("ur", "uth", "uz", "P")}
    mean = st.modes[0]
    mean.ur = spectra["ur"][:, 0, :].real / n_theta
    mean.uth = spectra["uth"][:, 0, :].real / n_theta
    mean.uz = spectra["uz"][:, 0, :].real / n_theta
    st.pressures[0].P = spectra["P"][:, 0, :].real / n_theta
    two = 2.0 / n_theta
    for k in range(1, params.K + 1):
        m = k * params.N
        mode = st.modes[k]
        mode.ur = two * spectra["ur"][:, m, :].real
        mode.vr = -two * spectra["ur"][:, m, :].imag
        mode.uth = two * spectra["uth"][:, m, :].real
        mode.vth = -two * spectra["uth"][:, m, :].imag
        mode.uz = two * spectra["uz"][:, m, :].real
        mode.vz = -two * spectra["uz"][:, m, :].imag
        st.pressures[k].P = two * spectra["P"][:, m, :].real
        st.pressures[k].Q = -two * spectra["P"][:, m, :].imag
    return st


def reconstruct_to_full(state: ModeState, n_theta: int) -> FullField:
    """Synthesize the physical fields of a harmonic state on a theta grid."""
    _check_resolution(n_theta, state.params)
    full = build_full_field(state.grid, n_theta)
    full.t = state.t
    mean = state.modes[0]
    full.ur += mean.ur[:, None, :]
    full.uth += mean.uth[:, None, :]
    full.uz += mean.uz[:, None, :]
    full.P += state.pressures[0].P[:, None, :]
    for k in range(1, state.params.K + 1):
        ang = k * state.params.N * full.theta
        c = np.cos(ang)[None, :, None]
        s = np.sin(ang)[None, :, None]
        m = state.modes[k]
        pr = state.pressures[k]
        full.ur += m.ur[:, None, :] * c + m.vr[:, None, :] * s
        full.uth += m.uth[:, None, :] * c + m.vth[:, None, :] * s
        full.uz += m.uz[:, None, :] * c + m.vz[:, None, :] * s
        full.P += pr.P[:, None, :] * c + pr.Q[:, None, :] * s
    return full


# -- pointwise quadratic terms -------------------------------------------------

def nonlinear_term(full: FullField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advection and curvature terms of the momentum equations, pointwise.

    Returns the right-hand-side contributions (so the advective transport
    carries a minus sign): for the radial component
    ``-(u.grad) u_r + u_theta**2 / r``, for the azimuthal component
    ``-(u.grad) u_theta - u_r u_theta / r``, and ``-(u.grad) u_z`` for the
    axial one, with ``u.grad = u_r d_r + (u_theta / r) d_th + u_z d_z``.
    """
    g = full.grid
    r = g.r[:, None, None]
    ur, uth, uz = full.velocity()
    uth_over_r = uth / r

    def adv(f: np.ndarray) -> np.ndarray:
        return ur * g.dr(f) + uth_over_r * _dth(f) + uz * g.dz(f)

    n_r = -adv(ur) + uth * uth_over_r
    n_th = -adv(uth) - ur * uth_over_r
    n_z = -adv(uz)
    return n_r, n_th, n_z


def nonlinear_term_projection(full: FullField, params: Params,
                              k: int) -> tuple[np.ndarray, ...]:
    """Quadratic terms projected onto one retained harmonic.

    For ``k = 0`` returns three fields (the azimuthal average of the terms
    driving the mean); for ``k >= 1`` six fields slot-aligned with the
    harmonic solver's right-hand side order (ur, vth, uz, vr, uth, vz).
    This is the audit oracle for the convolution-based assembly.
    """
    _check_resolution(full.n_theta, params)
    n_r, n_th, n_z = nonlinear_term(full)
    c_r = np.fft.rfft(n_r, axis=1)
    c_th = np.fft.rfft(n_th, axis=1)
    c_z = np.fft.rfft(n_z, axis=1)
    n_theta = full.n_theta
    if k == 0:
        return (c_r[:, 0, :].real / n_theta,
                c_th[:, 0, :].real / n_theta,
                c_z[:, 0, :].real / n_theta)
    m = k * params.N
    two = 2.0 / n_theta
    return (two * c_r[:, m, :].real,
            -two * c_th[:, m, :].imag,
            two * c_z[:, m, :].real,
            -two * c_r[:, m, :].imag,
            two * c_th[:, m, :].real,
            -two * c_z[:, m, :].imag)


# -- implicit Fourier-bin solver -----------------------------------------------

def _velocity_columns(n: int) -> np.ndarray:
    """``W``: the 4n x 3n map placing the three velocity right-hand sides in
    the momentum rows of a bin block, with the no-slip wall rows zeroed."""
    W = np.eye(4 * n, 3 * n)
    W[:, n - 1::n] = 0.0
    return W


def _bin_operator(A: np.ndarray, W: np.ndarray, rng, label: str) -> np.ndarray:
    """LU-factor one bin block, probe it and return its map ``A^{-1} W``.

    Two random probes share the map's triangular solves: a solution on all
    4n unknowns must be recovered from its image, and a velocity
    right-hand side ``b`` pushed through the formed map must leave a small
    residual ``A (op b) - W b``.
    """
    lu_piv = lu_factor(A, check_finite=False)
    x = rng.standard_normal(A.shape[0])
    sol = lu_solve(lu_piv, np.column_stack([W, A @ x]), check_finite=False)
    op = sol[:, :-1]
    b = rng.standard_normal(W.shape[1])
    err = max(np.abs(sol[:, -1] - x).max() / np.abs(x).max(),
              np.abs(A @ (op @ b) - W @ b).max() / np.abs(W @ b).max())
    if not err <= 1e-6:
        raise SingularBinError(f"oracle bin operator {label} is singular")
    return op


class OracleOpCache:
    """Real operator stacks of the per-bin implicit solves, reused across steps.

    Bins run over the azimuthal half-spectrum (real transform) crossed with
    the full vertical spectrum; first-order symbols vanish on Nyquist bins
    while the even-order viscous symbols keep their true magnitude, matching
    the derivative conventions of the grid module.

    Every bin block is exactly real under the diagonal similarity
    ``(u_th, u_z) = i (u_th', u_z')`` with the azimuthal and axial momentum
    rows scaled by ``-i``, so the blocks are assembled in that real form.
    Each is LU-factored and probed once, turned into its real ``4n x 3n``
    map from the velocity right-hand sides to ``(u_r, u_th', u_z', p)``,
    and the factorization is dropped: a table is one
    ``(n_theta/2 + 1) n_z x 4n x 3n`` stack per ``(dt, diffusion)``.
    """

    def __init__(self, grid: CylGrid, n_theta: int, nu: float):
        if n_theta > ORACLE_MAX_NTHETA:
            raise ValueError("azimuthal resolution exceeds the oracle cap")
        self.grid = grid
        self.n_theta = n_theta
        self.nu = float(nu)
        self._tables: dict = {}
        n_z = grid.n_z
        self._m = np.arange(n_theta // 2 + 1)
        self._m1 = self._m.astype(float)
        if n_theta % 2 == 0:
            self._m1[-1] = 0.0
        zeta = 2.0 * math.pi / grid.L_z * np.fft.fftfreq(n_z) * n_z
        self._zeta1 = zeta.copy()
        if n_z % 2 == 0:
            self._zeta1[n_z // 2] = 0.0
        self._zeta2 = zeta**2
        self._lap0 = grid.D_r @ grid.D_r + (1.0 / grid.r)[:, None] * grid.D_r

    def factors(self, dt: float, diffusion: bool = True) -> np.ndarray:
        key = (float(dt), bool(diffusion))
        if key not in self._tables:
            self._tables[key] = self._build(float(dt), bool(diffusion))
        return self._tables[key]

    def _helmholtz(self, m2: float, z2: float, s: float,
                   idt: float) -> tuple[np.ndarray, np.ndarray]:
        """Axial and perpendicular Helmholtz blocks ``I/dt - s lap``."""
        g = self.grid
        lap = (self._lap0 - np.diag(m2 / g.r**2)
               - self.nu**2 * z2 * np.eye(g.n_r))
        h_z = idt * np.eye(g.n_r) - s * lap
        return h_z, h_z + np.diag(s / g.r**2)

    def _coupled_block(self, m1: float, m2: float, z1: float, z2: float,
                       s: float, idt: float) -> np.ndarray:
        g = self.grid
        n = g.n_r
        rinv = np.diag(1.0 / g.r)
        couple = -2.0 * m1 * s * np.diag(1.0 / g.r**2)
        h_z, h_perp = self._helmholtz(m2, z2, s, idt)
        A = np.zeros((4 * n, 4 * n))
        A[:n, :n] = h_perp
        A[n:2 * n, n:2 * n] = h_perp
        A[:n, n:2 * n] = couple
        A[n:2 * n, :n] = couple
        A[2 * n:3 * n, 2 * n:3 * n] = h_z
        A[:n, 3 * n:] = g.D_r
        A[n:2 * n, 3 * n:] = m1 * rinv
        A[2 * n:3 * n, 3 * n:] = z1 * np.eye(n)
        A[3 * n:, :n] = g.D_r + rinv
        A[3 * n:, n:2 * n] = -m1 * rinv
        A[3 * n:, 2 * n:3 * n] = -z1 * np.eye(n)
        for blk in range(3):
            i = blk * n + n - 1
            A[i, :] = 0.0
            A[i, i] = 1.0
        return A

    def _decoupled_block(self, m2: float, z2: float, s: float,
                         idt: float) -> np.ndarray:
        """Degenerate bin (no first-order azimuthal or vertical symbol).

        The divergence constraint and the wall condition force the radial
        component to vanish, the pressure balances the radial right-hand
        side through a gauge-fixed primitive, and the other two components
        reduce to well-posed Helmholtz solves.  In the coupled layout the
        radial momentum rows act on the pressure and the divergence rows
        pin the radial component to zero.
        """
        g = self.grid
        n = g.n_r
        h_z, h_th = self._helmholtz(m2, z2, s, idt)
        for h in (h_th, h_z):
            h[-1, :] = 0.0
            h[-1, -1] = 1.0
        # pressure primitive: radial momentum rows except at the wall,
        # where a quadrature-weight gauge row pins the additive constant
        P = g.D_r.copy()
        P[-1, :] = g.w_r
        A = np.zeros((4 * n, 4 * n))
        A[:n, 3 * n:] = P
        A[n:2 * n, n:2 * n] = h_th
        A[2 * n:3 * n, 2 * n:3 * n] = h_z
        A[3 * n:, :n] = np.eye(n)
        return A

    def _build(self, dt: float, diffusion: bool) -> np.ndarray:
        """Operators of the bins with ``zeta >= 0``; the block at ``-zeta``
        is the one at ``zeta`` with the signs of the ``u_z'`` row and column
        flipped, and so is its operator."""
        n = self.grid.n_r
        n_z = self._zeta1.size
        W = _velocity_columns(n)
        rng = np.random.default_rng(1)
        s = 1.0 if diffusion else 0.0
        idt = 1.0 / dt
        ops = np.empty((self._m.size, n_z, 4 * n, 3 * n))
        for mi, m in enumerate(self._m):
            m1 = self._m1[mi]
            m2 = float(m) ** 2
            for zi in range(n_z // 2 + 1):
                z1, z2 = self._zeta1[zi], self._zeta2[zi]
                if m1 == 0.0 and z1 == 0.0:
                    A = self._decoupled_block(m2, z2, s, idt)
                else:
                    A = self._coupled_block(m1, m2, z1, z2, s, idt)
                ops[mi, zi] = _bin_operator(A, W, rng, f"(m={m}, zbin={zi})")
        flip = np.ones(4 * n)
        flip[2 * n:3 * n] = -1.0
        mirror = np.arange(n_z // 2 + 1, n_z)
        ops[:, mirror] = ops[:, n_z - mirror] * np.outer(flip, flip[:3 * n])
        return ops.reshape(-1, 4 * n, 3 * n)


def _solve_all_bins(table: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Implicit solve of every Fourier bin at once.

    ``rhs`` stacks the physical velocity right-hand sides as
    ``(3, n_r, n_theta, n_z)``; the return value stacks the physical
    ``(u_r, u_th, u_z, p)`` as ``(4, n_r, n_theta, n_z)``.
    """
    _, n, n_theta, n_z = rhs.shape
    c = np.fft.fft(np.fft.rfft(rhs, axis=2), axis=3)
    c[1:] *= -1j  # azimuthal and axial momentum rows of the real form
    n_m = c.shape[2]
    cols = np.ascontiguousarray(c.transpose(2, 3, 0, 1)).reshape(-1, 3 * n, 1)
    x = (table @ cols.view(np.float64)).view(complex).reshape(n_m, n_z, 4, n)
    x = np.ascontiguousarray(x.transpose(2, 3, 0, 1))
    x[1:3] *= 1j  # (u_th, u_z) = i (u_th', u_z')
    return np.fft.irfft(np.fft.ifft(x, axis=3), n=n_theta, axis=2)


def check_cfl(full: FullField, dt: float, safety: float = 0.9) -> float:
    """Advective CFL number of one explicit substep; raises on violation."""
    g = full.grid
    dr_min = min(float(g.r[0]), float(np.diff(g.r).min()))
    dz = g.L_z / g.n_z
    dtheta = 2.0 * math.pi / full.n_theta
    r = g.r[:, None, None]
    cfl = dt * max(
        np.abs(full.ur).max() / dr_min,
        np.abs(full.uz).max() / dz,
        float((np.abs(full.uth) / (r * dtheta)).max()),
    )
    if cfl > safety:
        raise CFLViolationError(
            f"advective CFL {cfl:.3f} exceeds safety factor {safety}")
    return cfl


def oracle_step(full: FullField, params: Params, dt: float,
                cache: OracleOpCache | None = None,
                cfl_safety: float = 0.9) -> FullField:
    """One splitting step of the full system.

    Substeps: implicit viscous/pressure solve, explicit advection update,
    then a pressure projection back onto the divergence-free constraint.
    First-order overall, by design on a different path from the harmonic
    stepper so that time-discretization differences shrink linearly in dt.
    """
    g = full.grid
    if cache is None:
        cache = OracleOpCache(g, full.n_theta, params.nu)
    check_cfl(full, dt, cfl_safety)
    step_table = cache.factors(dt, diffusion=True)
    proj_table = cache.factors(1.0, diffusion=False)
    idt = 1.0 / dt

    # implicit viscous solve with pressure
    mid_v = _solve_all_bins(step_table, np.stack(full.velocity()) * idt)
    mid = FullField(g, full.theta, *mid_v[:3], full.P, full.t)

    # explicit advection, then projection back to the divergence-free
    # constraint
    star = mid_v[:3] + dt * np.stack(nonlinear_term(mid))
    proj = _solve_all_bins(proj_table, star)
    out = FullField(g, full.theta, *proj[:3], mid_v[3] + idt * proj[3],
                    full.t + dt)
    return out
