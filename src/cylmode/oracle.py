"""Brute-force full-cylinder reference solver on an (r, theta, z) grid.

This module duplicates the physics of the harmonic solver through a
completely different route: velocity and pressure live pointwise on a
tensor grid over the solid cylinder, the quadratic terms are evaluated as
plain pointwise products in primitive variables, and the implicit viscous
solve diagonalizes over Fourier bins in both periodic directions.  None of
the harmonic bookkeeping (coupled cos/sin families, triad convolutions) is
reused here, so agreement between the two paths is evidence against sign
and coefficient errors in either.  Only the grid and the block's
velocity-column map (``stokes._velocity_columns``) are shared.

At the desk-scale sizes used here a small dense product beats an FFT
round trip, so a step takes every periodic transform and derivative as
one: the bin solve's theta and z transforms are real matrices built from
``np.fft`` on the identity (``BinTransforms``), and the quadratic terms'
theta and z derivatives are ``spectral_symbol`` on the identity.  The bin
solve's intermediate stages live in buffers its cache keeps.  The bin
operators are built by block elimination of each bin's saddle-point
system, from ``n_r x n_r`` blocks only (``OracleOpCache``).

Resolution is deliberately capped; this solver exists for desk-scale
cross-checks, not production runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import P, Q, UR, UTH, UZ, VR, VTH, VZ, StepWorkspace
from .grid import (CFL_SAFETY, CFLViolationError, CylGrid, SolverError,
                   THETA_FULL, raise_problems, spectral_symbol)
from .state import ModeState, Params
from .stokes import _velocity_columns

#: hard cap on the azimuthal grid; the solver is a verification tool only
ORACLE_MAX_NTHETA = 128


class UnresolvedWavenumberError(ValueError):
    """The azimuthal grid cannot represent a requested harmonic."""


class SingularBinError(SolverError):
    """A Fourier-bin block is singular: a zero pivot or a failed probe."""


# -- field container ----------------------------------------------------------

@dataclass
class FullField:
    """Primitive-variable fields on the (n_r, n_theta, n_z) tensor grid:
    the velocity ``u`` as one ``(3, n_r, n_theta, n_z)`` array of
    ``(u_r, u_theta, u_z)`` and the pressure ``P``."""

    grid: CylGrid
    theta: np.ndarray
    u: np.ndarray
    P: np.ndarray
    t: float = 0.0

    @property
    def n_theta(self) -> int:
        return self.theta.size


def n_theta_problems(n_theta: int) -> list[str]:
    """Every violated range of the oracle's azimuthal node count."""
    return [text for ok, text in (
        (n_theta >= 4 and n_theta % 2 == 0, "n_theta must be even and >= 4"),
        (n_theta <= ORACLE_MAX_NTHETA,
         f"n_theta must be <= {ORACLE_MAX_NTHETA}")) if not ok]


def build_full_field(grid: CylGrid, n_theta: int) -> FullField:
    """Zero field on a uniform azimuthal grid of ``n_theta`` nodes."""
    raise_problems(n_theta_problems(n_theta))
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    shape = (grid.n_r, n_theta, grid.n_z)
    return FullField(grid, theta, np.zeros((3,) + shape), np.zeros(shape))


# -- quadrature and norms over the cylinder ------------------------------------

def quad3(full: FullField, a: np.ndarray) -> float:
    """``\\int a r dr dtheta dz`` over the solid cylinder of ``full``."""
    g = full.grid
    radial = g.w_r @ a.sum(axis=(1, 2))
    return float(radial) * g.dz_weight * (THETA_FULL / full.n_theta)


def relative_l2(a: FullField, b: FullField) -> float:
    """``||a - b|| / ||b||`` in velocity L2 over the cylinder."""
    diff = sum(quad3(a, (fa - fb) ** 2) for fa, fb in zip(a.u, b.u))
    ref = sum(quad3(b, fb * fb) for fb in b.u)
    if ref == 0.0:
        return math.sqrt(max(diff, 0.0))
    return math.sqrt(max(diff, 0.0) / ref)


# -- transforms between the full grid and harmonic coefficients ---------------

def _check_resolution(n_theta: int, params: Params) -> None:
    if 2 * params.K * params.N >= n_theta:
        raise UnresolvedWavenumberError(
            f"azimuthal grid with {n_theta} nodes cannot resolve harmonic "
            f"{params.K} * {params.N}")


def _component_rows(state: ModeState) -> list[tuple[np.ndarray, ...]]:
    """The cosine and sine rows in ``state`` of u_r, u_theta, u_z and the
    pressure, in that order, each a writable ``(K+1, n_r, n_z)`` view."""
    u, p = state.u, state.p
    return [(u[:, UR], u[:, VR]), (u[:, UTH], u[:, VTH]),
            (u[:, UZ], u[:, VZ]), (p[:, P], p[:, Q])]


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
    m = params.N * np.arange(1, params.K + 1)
    two = 2.0 / n_theta
    for field, (cos, sin) in zip((*full.u, full.P), _component_rows(st)):
        spec = np.fft.rfft(field, axis=1)
        cos[0] = spec[:, 0, :].real / n_theta
        cos[1:] = np.moveaxis(two * spec[:, m, :].real, 1, 0)
        sin[1:] = np.moveaxis(-two * spec[:, m, :].imag, 1, 0)
    return st


def reconstruct_to_full(state: ModeState, n_theta: int) -> FullField:
    """Synthesize the physical fields of a harmonic state on a theta grid."""
    _check_resolution(n_theta, state.params)
    full = build_full_field(state.grid, n_theta)
    full.t = state.t
    ang = np.outer(state.params.N * np.arange(1, state.params.K + 1),
                   full.theta)[:, None, :, None]
    c, s = np.cos(ang), np.sin(ang)
    terms = np.empty((state.params.K + 1,) + full.P.shape)
    for field, (cos, sin) in zip((*full.u, full.P), _component_rows(state)):
        terms[0] = cos[0, :, None, :]
        terms[1:] = cos[1:, :, None, :] * c + sin[1:, :, None, :] * s
        # summed over the first axis in order: the mean, then k = 1..K
        terms.sum(axis=0, out=field)
    return full


# -- pointwise quadratic terms -------------------------------------------------

@functools.lru_cache(maxsize=8)
def _derivative_matrix(n: int, period: float) -> np.ndarray:
    """The read-only matrix that right-multiplies samples on ``n`` periodic
    nodes to give their first spectral derivative: ``spectral_symbol``
    applied to the identity, so the grid's Nyquist rule holds."""
    op = np.fft.irfft(np.fft.rfft(np.eye(n)) * spectral_symbol(n, period, 1),
                      n=n)
    op.flags.writeable = False
    return op


def nonlinear_term(full: FullField) -> np.ndarray:
    """Advection and curvature terms of the momentum equations, pointwise.

    Returns the right-hand-side contributions (so the advective transport
    carries a minus sign), stacked ``(3, n_r, n_theta, n_z)``: for the
    radial component ``-(u.grad) u_r + u_theta**2 / r``, for the azimuthal
    component ``-(u.grad) u_theta - u_r u_theta / r``, and ``-(u.grad) u_z``
    for the axial one, with ``u.grad = u_r d_r + (u_theta / r) d_th + u_z
    d_z``.  Each derivative of the three components is one product with a
    dense matrix: ``D_r``, and the spectral theta and z derivatives.
    """
    g = full.grid
    u = full.u
    ur, uth, uz = u
    uth_over_r = uth / g.r[:, None, None]
    adv = np.matmul(g.D_r, u.reshape(3, g.n_r, -1)).reshape(u.shape)
    adv *= ur
    d_th = np.matmul(_derivative_matrix(full.n_theta, 2.0 * math.pi).T, u)
    d_th *= uth_over_r
    adv += d_th
    d_z = np.matmul(u, _derivative_matrix(g.n_z, g.L_z), out=d_th)
    d_z *= uz
    adv += d_z
    out = np.negative(adv, out=adv)
    out[0] += uth * uth_over_r
    out[1] -= ur * uth_over_r
    return out


# -- implicit Fourier-bin solver -----------------------------------------------

def lu_factor(a: np.ndarray) -> np.ndarray:
    """Identity: numpy has no public LU, so ``lu_solve`` factors.  The
    benchmark tracer wraps this pair (not the stokes one) by name."""
    return a


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^{-1} b`` by one LAPACK ``gesv`` (LU with partial pivoting)."""
    return np.linalg.solve(a, b)


def _bin_operator(A: np.ndarray, W: np.ndarray, rng, label: str) -> np.ndarray:
    """Solve one dense bin block, probe it and return its map ``A^{-1} W``.

    Two random probes share the map's solve: a solution on all 4n
    unknowns must be recovered from its image, and a velocity right-hand
    side ``b`` pushed through the formed map must leave a small residual
    ``A (op b) - W b``.  An exactly zero pivot fails the solve itself.
    """
    x = rng.standard_normal(A.shape[0])
    try:
        sol = lu_solve(lu_factor(A), np.column_stack([W, A @ x]))
    except np.linalg.LinAlgError as exc:
        raise SingularBinError(f"zero pivot in oracle bin {label}") from exc
    op = sol[:, :-1]
    b = rng.standard_normal(W.shape[1])
    err = max(np.abs(sol[:, -1] - x).max() / np.abs(x).max(),
              np.abs(A @ (op @ b) - W @ b).max() / np.abs(W @ b).max())
    if not err <= 1e-6:
        raise SingularBinError(f"oracle bin operator {label} is singular")
    return op


def _solve_bins(a: np.ndarray, b: np.ndarray, labels: list[str]) -> np.ndarray:
    """``lu_solve`` of blocks stacked one bin per leading index; an
    exactly zero pivot is a ``SingularBinError`` naming its bin."""
    try:
        return lu_solve(a, b)
    except np.linalg.LinAlgError as exc:
        zero = (np.linalg.det(a) == 0.0).reshape(len(labels), -1).any(axis=1)
        raise SingularBinError(
            f"zero pivot in oracle bin {labels[np.argmax(zero)]}") from exc


def _physical(v: np.ndarray) -> np.ndarray:
    """Velocity rows ``(bins, 3, n, ...)`` in the rows ``(a, b, z)`` of
    ``OracleOpCache`` as ``(u_r, u_th', u_z')``, ``(bins, 3n, ...)``."""
    return np.concatenate([0.5 * (v[:, 0] + v[:, 1]),
                           0.5 * (v[:, 0] - v[:, 1]), v[:, 2]], axis=1)


def _apply_blocks(H: np.ndarray, G: np.ndarray, div: np.ndarray,
                  z1: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``A v`` of stacked coupled bins, block by block.

    ``v`` holds ``(u_r, u_th', u_z', p)`` as ``(bins, 4n)``; ``H`` and
    ``G`` are the momentum and gradient blocks of the rows ``(a, b, z)``
    and ``div`` the divergence of ``(a, b)`` (see ``OracleOpCache``)."""
    ur, uth, uz, p = np.split(v[..., None], 4, axis=1)
    abz = np.stack([ur + uth, ur - uth, uz], axis=1)
    y = H @ abz + G @ p[:, None]
    d = 0.5 * (div @ abz[:, :2]).sum(axis=1) - z1[:, None, None] * uz
    return np.concatenate([_physical(y), d], axis=1)[..., 0]


class OracleOpCache:
    """Real operator stacks of the per-bin implicit solves, reused across steps.

    Bins run over the azimuthal half-spectrum (real transform) crossed with
    the full vertical spectrum; the first-order and viscous wavenumbers
    are parts of the grid's spectral symbols, so the Nyquist rule of the
    ``grid`` module docstring holds here too.

    Every bin block is exactly real under the diagonal similarity
    ``(u_th, u_z) = i (u_th', u_z')`` with the azimuthal and axial momentum
    rows scaled by ``-i``; it is the saddle-point system ``[M G; D 0]`` on
    ``(u, p)``, with no-slip rows in ``M`` and ``G``.  The swirl coupling
    of ``u_r`` and ``u_th'`` is symmetric, so ``M`` splits into three
    ``n x n`` Helmholtz blocks on ``a = u_r + u_th'``, ``b = u_r - u_th'``
    and ``u_z'``.  A coupled bin is solved by block elimination: the
    Helmholtz blocks are solved against ``G``, the velocity columns ``W``
    and a probe, and the ``n x n`` Schur complement ``S = D M^-1 G`` gives
    the pressure.  The bins with neither a first-order azimuthal nor a
    vertical symbol have a singular ``S`` and are solved densely in their
    decoupled form.  Both routes probe every bin twice (``_bin_operator``)
    and keep no factorization; the coupled bins are done one azimuthal
    index at a time, so the temporaries stay small.

    The implicit step's table holds each bin's real ``4n x 3n`` map from
    the velocity right-hand sides to ``(u_r, u_th', u_z', p)``.  The
    projection (no diffusion, ``dt = 1``) has ``M = I``, so its table holds
    only the ``n x 3n`` pressure map ``S^-1 D W`` and ``_solve_all_bins``
    recovers the velocity as ``W f - G p``.  The block at ``-zeta`` is the
    one at ``zeta`` with the signs of the ``u_z'`` row and column flipped,
    so only the bins with ``zeta >= 0`` are stored: a table is one
    ``(n_theta/2 + 1)(n_z/2 + 1) x rows x 3n`` stack per ``(dt,
    diffusion)``, and ``_solve_all_bins`` applies each map to its mirror
    bin too.  ``transforms`` holds the transform matrices of those solves
    and their buffers, one set that both tables share.
    """

    def __init__(self, grid: CylGrid, n_theta: int, nu: float):
        raise_problems(n_theta_problems(n_theta))
        self.grid = grid
        self.n_theta = n_theta
        self.nu = float(nu)
        self._tables: dict = {}
        # first-order and squared wavenumbers per stored bin: azimuthal
        # over the rfft half, vertical over zeta >= 0
        self._m1 = spectral_symbol(n_theta, 2.0 * math.pi, 1).imag
        self._m2 = -spectral_symbol(n_theta, 2.0 * math.pi, 2).real
        self._zeta1 = spectral_symbol(grid.n_z, grid.L_z, 1).imag
        self._zeta2 = -spectral_symbol(grid.n_z, grid.L_z, 2).real
        self._lap0 = grid.D_r @ grid.D_r + (1.0 / grid.r)[:, None] * grid.D_r
        # the gradient G with its no-slip rows zeroed: D_r, and per stored
        # bin the diagonals m1 / r and zeta1 of the u_th' and u_z' rows
        self._wall = wall = np.r_[np.ones(grid.n_r - 1), 0.0]
        self._dr_wall = wall[:, None] * grid.D_r
        diag = np.empty((self._m1.size, self._zeta1.size, 2, grid.n_r, 1))
        diag[:, :, 0, :, 0] = self._m1[:, None, None] * (wall / grid.r)
        diag[:, :, 1, :, 0] = self._zeta1[:, None] * wall
        self._grad_diag = diag.reshape(-1, 2, grid.n_r, 1)
        self.transforms = BinTransforms(n_theta, grid.n_z)

    def factors(self, dt: float, diffusion: bool = True) -> np.ndarray:
        """The step table ``(bins, 4n, 3n)``, or with ``diffusion`` off the
        projection's pressure map ``(bins, n, 3n)``, which needs ``dt = 1``."""
        if not diffusion and dt != 1.0:
            raise ValueError("the projection table is built at dt = 1 only")
        key = (float(dt), bool(diffusion))
        if key not in self._tables:
            self._tables[key] = self._build(float(dt), bool(diffusion))
        return self._tables[key]

    def _momentum_blocks(self, m1: float, m2: float, z2: np.ndarray,
                         s: float, idt: float) -> np.ndarray:
        """Helmholtz blocks ``I/dt - s lap`` of the rows ``(a, b, z)``,
        ``(bins, 3, n, n)`` over the squared vertical symbols ``z2``, with
        the swirl coupling folded into ``a`` and ``b`` and each no-slip
        row an identity row."""
        g = self.grid
        n = g.n_r
        idx = np.arange(n)
        H = np.empty((len(z2), 3, n, n))
        H[:, 2] = -s * self._lap0
        H[:, 2, idx, idx] += idt + s * (m2 / g.r**2
                                        + self.nu**2 * z2[:, None])
        H[:, :2] = H[:, 2:]
        H[:, 0, idx, idx] += s * (1.0 - 2.0 * m1) / g.r**2
        H[:, 1, idx, idx] += s * (1.0 + 2.0 * m1) / g.r**2
        H[..., -1, :] = 0.0
        H[..., -1, -1] = 1.0
        return H

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
        h_th, _, h_z = self._momentum_blocks(0.0, m2, np.array([z2]), s,
                                             idt)[0]
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

    def _eliminate(self, m: int, zbins: np.ndarray, s: float, idt: float,
                   rng, rows: int) -> np.ndarray:
        """Probed maps ``(bins, rows, 3n)`` of the coupled bins ``(m,
        zbins)`` by block elimination: all ``4n`` rows, or the ``n``
        pressure rows of a projection (``M = I``).

        One solve of ``M`` takes ``[W, A x]`` in the rows ``(a, b, z)`` and
        one of ``S`` takes ``[I, D M^-1 A x]`` less the probe's divergence
        rows, so the full-row probe shares the maps' solves as in
        ``_bin_operator``.  Both probes apply ``A`` block by block, the map
        probe to the velocity ``W b - G P b`` of a pressure map.  The stages
        live in the transforms' workspace, so the returned maps are
        overwritten by the next call.
        """
        g = self.grid
        n, c = g.n_r, len(zbins)
        idx = np.arange(n)
        labels = [f"(m={m}, zbin={zi})" for zi in zbins]
        m1, z1 = self._m1[m], self._zeta1[zbins]
        G, Y, Z, K, op = self.transforms.workspace.arrays(
            *(((c,) + shape, float) for shape in (
                (3, n, n), (3, n, 2 * n + 1), (2, n, 2 * n + 1), (n, 3 * n),
                (rows, 3 * n))))
        pmap = op[:, -n:]
        H = self._momentum_blocks(m1, self._m2[m], self._zeta2[zbins], s, idt)
        grad = self._grad_diag.reshape(self._m1.size, -1, 2, n)[m, zbins]
        G.fill(0.0)
        G[:, :2] = self._dr_wall
        G[:, 0, idx, idx] += grad[:, 0]
        G[:, 1, idx, idx] -= grad[:, 0]
        G[:, 2, idx, idx] = grad[:, 1]
        div = np.stack([g.D_r + np.diag((1.0 - m1) / g.r),
                        g.D_r + np.diag((1.0 + m1) / g.r)])
        blocks = (H, G, div, z1)
        x = rng.standard_normal((c, 4 * n))
        y = _apply_blocks(*blocks, x)
        # Y = M^-1 [G, W, A x] in the rows (a, b, z); M^-1 G = (M^-1 W) G,
        # as the no-slip rows of G are zero
        rhs = Y[..., n:]
        rhs.fill(0.0)
        rhs[:, :, idx, idx] = self._wall
        ur, uth, uz = np.split(y[:, :3 * n], 3, axis=1)
        rhs[..., -1] = np.stack([ur + uth, ur - uth, uz], axis=1)
        if not (s == 0.0 and idt == 1.0):  # else M = I: a projection
            rhs[...] = _solve_bins(H, rhs, labels)
        np.matmul(Y[..., n:2 * n], G, out=Y[..., :n])
        # D Y from the halves of the a and b rows: S, the W columns of
        # D M^-1 W (of f_r + f_th, f_r - f_th and f_z) and the probe's
        np.matmul(div, Y[:, :2], out=Z)
        Z *= 0.5
        zY = z1[:, None, None] * Y[:, 2]
        rhs = np.zeros((c, n, n + 1))
        rhs[:, idx, idx] = 1.0
        rhs[..., -1] = Z[:, 0, :, -1] + Z[:, 1, :, -1] - zY[..., -1] \
            - y[:, 3 * n:]
        sinv = _solve_bins(Z[:, 0, :, :n] + Z[:, 1, :, :n] - zY[..., :n],
                           rhs, labels)
        za, zb = Z[:, 0, :, n:2 * n], Z[:, 1, :, n:2 * n]
        np.concatenate([za + zb, za - zb, -zY[..., n:2 * n]], axis=-1, out=K)
        np.matmul(sinv[..., :n], K, out=pmap)
        # velocity rows: Y's rows become (u_r, u_th', u_z'), so its W
        # columns hold the blocks rr, rt and M_z^-1 of M^-1 W = [[rr, rt, 0],
        # [rt, rr, 0], [0, 0, M_z^-1]], and u = M^-1 [W, A x] - X [P, p]
        Y[:, :2] = _physical(Y)[:, :2 * n].reshape(c, 2, n, -1)
        X = Y[..., :n].reshape(c, 3 * n, n)
        p_x = sinv[..., -1:]
        got_x = np.concatenate([Y[..., -1].reshape(c, 3 * n, 1) - X @ p_x,
                                p_x], axis=1)[..., 0]
        if rows > n:
            u = np.matmul(X, pmap, out=op[:, :3 * n])
            np.negative(u, out=u)
            u = u.reshape(c, 3, n, 3 * n)
            for (i, j), blk in (((0, 0), 0), ((0, 1), 1), ((1, 0), 1),
                                ((1, 1), 0), ((2, 2), 2)):
                u[:, i, :, j * n:(j + 1) * n] += Y[:, blk, :, n:2 * n]
        b = rng.standard_normal((c, 3 * n, 1))
        wb = np.tile(self._wall, 3)[:, None] * b
        got = op @ b
        if rows == n:  # the velocity W b - G P b of a pressure map
            got = np.concatenate([wb - _physical(G @ got[:, None]), got],
                                 axis=1)
        res = _apply_blocks(*blocks, got[..., 0])
        res[:, :3 * n] -= wb[..., 0]
        row_err = np.abs(got_x - x).max(axis=1) / np.abs(x).max(axis=1)
        map_err = np.abs(res).max(axis=1) / np.abs(wb).max(axis=(1, 2))
        bad = np.flatnonzero(~(np.maximum(row_err, map_err) <= 1e-6))
        if bad.size:
            i = bad[0]
            raise SingularBinError(
                f"oracle bin operator {labels[i]} is singular: full-row "
                f"probe {row_err[i]:.1e}, map probe {map_err[i]:.1e}")
        return op

    def _build(self, dt: float, diffusion: bool) -> np.ndarray:
        """Maps of the bins with ``zeta >= 0``, azimuthal bin major: all
        ``4n`` rows, or the ``n`` pressure rows with diffusion off; the
        bins with ``zeta < 0`` are not stored (see the class docstring)."""
        n = self.grid.n_r
        rows = 4 * n if diffusion else n
        s = 1.0 if diffusion else 0.0
        idt = 1.0 / dt
        W = _velocity_columns(n)
        rng = np.random.default_rng(1)
        ops = np.empty((self._m1.size, self._zeta1.size, rows, 3 * n))
        for m, (m1, m2) in enumerate(zip(self._m1, self._m2)):
            coupled = (m1 != 0.0) | (self._zeta1 != 0.0)
            zbins = np.flatnonzero(coupled)
            ops[m, zbins] = self._eliminate(m, zbins, s, idt, rng, rows)
            for zi in np.flatnonzero(~coupled):
                A = self._decoupled_block(m2, self._zeta2[zi], s, idt)
                ops[m, zi] = _bin_operator(A, W, rng,
                                           f"(m={m}, zbin={zi})")[-rows:]
        return ops.reshape(-1, rows, 3 * n)


def _head(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of the flat buffer ``buf`` as an array of
    ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


class BinTransforms:
    """The bin solve's theta and z transforms as small real matrix products.

    ``columns`` takes the physical velocity right-hand sides to the paired
    columns of the table product and ``fields`` takes the table's solutions
    back to physical ``(u_r, u_th, u_z, p)``.  Each transform is one
    product with a real matrix built from ``np.fft`` applied to the
    identity, so numpy's convention holds:

    - theta: ``theta_fwd`` left-multiplies the ``n_theta`` nodes to the
      rfft half-spectrum as rows ``(m, real or imaginary part)``, and
      ``theta_inv`` maps those rows back, dropping the imaginary parts of
      the DC and Nyquist bins as ``irfft`` does;
    - z: ``z_fwd[c]`` right-multiplies the real and imaginary half-spectrum
      of momentum row c on the ``n_z`` nodes, ``[re; im]``, to its paired
      columns ``(zeta, column, real or imaginary part)`` of the stored
      bins, and ``z_inv[c]`` maps the solution columns of unknown c back.
      Column 0 of stored bin ``zeta`` is that bin and column 1 its mirror
      ``n_z - zeta``, zero for ``zeta = 0`` and Nyquist.  The ``-i`` row
      factors of the real form, the ``i`` of ``(u_th, u_z) = i (u_th',
      u_z')`` and the mirror's ``u_z'`` sign (see ``OracleOpCache``) are
      folded in.

    The stages alternate between the two buffers of ``buffers``, one
    ``StepWorkspace`` block, so after the first solve no stage allocates.
    ``columns`` returns a view of the first buffer, overwritten by the
    next call; ``fields`` returns a fresh array.
    """

    def __init__(self, n_theta: int, n_z: int):
        n_m, half = n_theta // 2 + 1, n_z // 2 + 1
        self.n_theta, self.n_z, self.n_m, self.half = n_theta, n_z, n_m, half
        spec = np.fft.rfft(np.eye(n_theta), axis=0)  # [m, theta]
        self.theta_fwd = np.stack([spec.real, spec.imag], axis=1).reshape(
            2 * n_m, n_theta)
        eye = np.eye(n_m)
        self.theta_inv = np.stack(
            [np.fft.irfft(eye, n=n_theta, axis=0),
             np.fft.irfft(1j * eye, n=n_theta, axis=0)], axis=2).reshape(
                 n_theta, 2 * n_m)
        fft = np.fft.fft(np.eye(n_z), axis=1)  # [z, zeta]
        ifft = np.fft.ifft(np.eye(n_z), axis=1)  # [zeta, z]
        mirror = np.arange(1, half - 1)  # stored bins with a mirror
        z_fwd, z_inv = [], []
        # (row factor, unknown factor, mirror sign) of (u_r, u_th, u_z, p)
        for row, unknown, sign in ((1.0, 1.0, 1.0), (-1j, 1j, 1.0),
                                   (-1j, 1j, -1.0), (None, 1.0, 1.0)):
            if row is not None:
                g = np.zeros((n_z, half, 2), complex)
                g[:, :, 0] = row * fft[:, :half]
                g[:, mirror, 1] = row * sign * fft[:, n_z - mirror]
                g = g.reshape(n_z, 2 * half)
                z_fwd.append(np.concatenate(
                    [g.view(np.float64), (1j * g).view(np.float64)]))
            h = np.zeros((half, 2, n_z), complex)
            h[:, 0] = unknown * ifft[:half]
            h[mirror, 1] = unknown * sign * ifft[n_z - mirror]
            h = np.stack([h, 1j * h], axis=2).reshape(4 * half, n_z)
            z_inv.append(np.concatenate([h.real, h.imag], axis=1))
        self.z_fwd, self.z_inv = np.stack(z_fwd), np.stack(z_inv)
        self.workspace = StepWorkspace()

    def buffers(self, n: int) -> list[np.ndarray]:
        """Two flat buffers, each the size of the largest stage: the table
        product, ``4n x 4`` per stored bin."""
        size = self.n_m * self.half * 16 * n
        return self.workspace.arrays(((size,), float), ((size,), float))

    def columns(self, rhs: np.ndarray) -> np.ndarray:
        """Paired columns ``(bins, 3n, 4)`` of the ``(3, n, n_theta, n_z)``
        right-hand sides, stored bins azimuthal bin major; a view of the
        first buffer."""
        n, n_m, half = rhs.shape[1], self.n_m, self.half
        a, b = self.buffers(n)
        spec = np.matmul(self.theta_fwd, rhs,
                         out=_head(a, 3, n, 2 * n_m, self.n_z))
        pairs = np.matmul(spec.reshape(3, n * n_m, 2 * self.n_z), self.z_fwd,
                          out=_head(b, 3, n * n_m, 4 * half))
        cols = _head(a, n_m, half, 3, n, 4)
        np.copyto(cols, pairs.reshape(3, n, n_m, half, 4)
                  .transpose(2, 3, 0, 1, 4))
        return cols.reshape(n_m * half, 3 * n, 4)

    def fields(self, x: np.ndarray) -> np.ndarray:
        """Physical ``(4, n, n_theta, n_z)`` fields of the ``(bins, 4n, 4)``
        solution columns ``x``, which must not live in the first buffer."""
        n, n_m, half = x.shape[1] // 4, self.n_m, self.half
        a, b = self.buffers(n)
        rows = _head(a, 4, n, n_m, half, 4)
        np.copyto(rows, x.reshape(n_m, half, 4, n, 4)
                  .transpose(2, 3, 0, 1, 4))
        spec = np.matmul(rows.reshape(4, n * n_m, 4 * half), self.z_inv,
                         out=_head(b, 4, n * n_m, 2 * self.n_z))
        out = np.empty((4, n, self.n_theta, self.n_z))
        np.matmul(self.theta_inv, spec.reshape(4 * n, 2 * n_m, self.n_z),
                  out=out.reshape(4 * n, self.n_theta, self.n_z))
        return out


def _solve_all_bins(table: np.ndarray, rhs: np.ndarray,
                    cache: OracleOpCache) -> np.ndarray:
    """Implicit solve of every Fourier bin at once.

    ``rhs`` stacks the physical velocity right-hand sides as
    ``(3, n_r, n_theta, n_z)``; the return value, a fresh array, stacks
    the physical ``(u_r, u_th, u_z, p)`` as ``(4, n_r, n_theta, n_z)``.
    ``table`` is one of ``cache``'s and holds the bins with ``zeta >= 0``
    only.  Each stored bin ``zeta`` takes two complex columns in one
    product: its own right-hand side, and that of its mirror bin ``n_z -
    zeta`` with the ``u_z'`` block negated, whose solution comes back with
    its ``u_z'`` rows negated.  The bins ``zeta = 0`` and Nyquist are their
    own mirrors, so their second column is zero.  A pressure map (``n``
    rows) gives ``p``, and the velocity is ``W f - G p`` from ``cache``'s
    wall-zeroed ``D_r`` and per-bin diagonals ``m1 / r`` and ``zeta1``.
    ``cache.transforms`` maps to and from those columns in its buffers,
    and the product lands in its second buffer.
    """
    transforms = cache.transforms
    bins, n = len(table), rhs.shape[1]
    cols = transforms.columns(rhs)
    first, second = transforms.buffers(n)
    x = _head(second, bins, 4 * n, 4)
    if table.shape[1] == 4 * n:
        np.matmul(table, cols, out=x)
    else:
        x = x.reshape(bins, 4, n, 4)
        x[:, :3] = cols.reshape(bins, 3, n, 4)
        p = np.matmul(table, cols, out=x[:, 3])
        # G p in the first buffer, which the columns no longer need
        x[:, 0] -= np.matmul(cache._dr_wall, p, out=_head(first, bins, n, 4))
        x[:, 1:3] -= np.multiply(cache._grad_diag, p[:, None],
                                 out=_head(first, bins, 2, n, 4))
        x[:, :3, -1] = 0.0
    return transforms.fields(x.reshape(bins, 4 * n, 4))


def check_cfl(full: FullField, dt: float) -> float:
    """Advective CFL number of one explicit substep; raises when it exceeds
    ``grid.CFL_SAFETY``."""
    g = full.grid
    dr_min = min(float(g.r[0]), float(np.diff(g.r).min()))
    dz = g.L_z / g.n_z
    dtheta = 2.0 * math.pi / full.n_theta
    r = g.r[:, None, None]
    ur, uth, uz = full.u
    cfl = dt * max(
        np.abs(ur).max() / dr_min,
        np.abs(uz).max() / dz,
        float((np.abs(uth) / (r * dtheta)).max()),
    )
    if cfl > CFL_SAFETY:
        raise CFLViolationError(
            f"advective CFL {cfl:.3g} exceeds safety factor {CFL_SAFETY}")
    return cfl


def oracle_step(full: FullField, dt: float, cache: OracleOpCache) -> FullField:
    """One splitting step of the full system with ``cache``'s bin tables.

    Substeps: implicit viscous/pressure solve, explicit advection update,
    then a pressure projection back onto the divergence-free constraint.
    First-order overall, by design on a different path from the harmonic
    stepper so that time-discretization differences shrink linearly in dt.
    """
    g = full.grid
    check_cfl(full, dt)
    step_table = cache.factors(dt, diffusion=True)
    proj_table = cache.factors(1.0, diffusion=False)
    idt = 1.0 / dt

    # implicit viscous solve with pressure
    mid_v = _solve_all_bins(step_table, full.u * idt, cache)
    mid = FullField(g, full.theta, mid_v[:3], full.P, full.t)

    # explicit advection, then projection back to the divergence-free
    # constraint
    star = nonlinear_term(mid)
    star *= dt
    star += mid_v[:3]
    proj = _solve_all_bins(proj_table, star, cache)
    return FullField(g, full.theta, proj[:3], mid_v[3] + idt * proj[3],
                     full.t + dt)
