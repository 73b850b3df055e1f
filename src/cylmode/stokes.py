"""Implicit coupled Stokes solver for one azimuthal harmonic.

After a vertical FFT, each harmonic and vertical wavenumber zeta yields a
one-dimensional saddle-point problem in r for the cosine family
``(a, b, c, p) = (u_r, v_th, u_z, P)``:

    a/dt - (a'' + a'/r - (1 + kap^2)/r^2 a - nu^2 zeta^2 a) + (2 kap/r^2) b + p' = f_r
    b/dt - (b'' + b'/r - (1 + kap^2)/r^2 b - nu^2 zeta^2 b) + (2 kap/r^2) a - (kap/r) p = g_th
    c/dt - (c'' + c'/r -      kap^2/r^2 c - nu^2 zeta^2 c) + i zeta p = f_z
    a' + a/r + (kap/r) b + i zeta c = 0,        a = b = c = 0 at r = 1,

with ``kap`` the effective azimuthal wavenumber (``k N`` inside the
nonlinear solver, plain ``k`` for single-wavenumber verification runs).
The sine family ``(v_r, u_th, v_z, Q)`` satisfies the same system under
``(a, b, c, p) = (v_r, -u_th, v_z, Q)`` with forcing ``(g_r, -f_th, g_z)``,
so one operator serves both.  The mean mode is the ``kap = 0`` case of
the same two-family solve: there the azimuthal ``b`` block decouples
exactly from ``(a, c, p)``, so the mean's ``(u_r, u_z, P)`` ride in the
cosine family and its ``u_th`` in the sine family, whose other slots and
``Q`` stay exactly zero.  The per-mode, per-wavenumber decoupling is
that of Lopez, Marques & Shen, J. Comput. Phys. 176 (2002).

Momentum equations are collocated at interior nodes, the wall rows impose
the no-slip condition, and the divergence is collocated at every node.
The mean's bins with no first-order vertical coupling (``zeta = 0`` and
Nyquist) decouple instead, with a zero-mean pressure gauge.  The
``i zeta`` and ``zeta^2`` tables are the parts of the grid's spectral
symbols, under the Nyquist rule the ``grid`` module docstring states, so
the solver and the explicit operators see one and the same
discretization.

Every block is exactly real under the diagonal similarity ``c = i c'``
with the axial momentum row scaled by ``-i``: ``i zeta`` becomes ``zeta``
in that row and ``-zeta`` in the divergence row.  The blocks are built
once, in that real form, into their maps from the three velocity
right-hand sides (wall rows dropped) to ``(a, b, c', p)``.  The coupled
bins of one ``kap`` are built together by block elimination: the
``(a, b)`` momentum block decouples into ``a + b`` and ``a - b``, and the
pressure follows from an ``n x n`` Schur complement (Benzi, Golub &
Liesen, Acta Numerica 14, 2005).  A projection is the same elimination
with the diffusion weight set to zero, so its momentum blocks are
``I/dt``.  Only the mean's decoupled bins are row-equilibrated and
solved densely.  Random probes check every map, so a singular operator
fails loudly instead of being regularized.  The cache keeps only the real ``4n x 3n`` maps, one
``(bins, 4n, 3n)`` stack per ``(kap, dt, diffusion)``, and a solve is one
vertical FFT, one batched ``matmul`` with real and imaginary parts (and
the cosine and sine families) as columns, and one inverse FFT.

``stokes_evolve`` is the one single-harmonic time loop: it measures every
snapshot with its pressure and closes the backward-Euler energy identity
of each step with ``diagnostics.energy_ledger``, the formula the run's
energy budget uses, plus the scheme's damping ``E(u_new - u_old)``.
``linear_flow_uL`` reads its measures.  Harmonic invariance is checked on
the production stepper, by ``stepper.mode_invariance_check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (UTH, ModeMeasures, energy_ledger, measure_modes,
                          mode_energy)
from .grid import CylGrid, SolverError, raise_problems, spectral_symbol
from .state import Params, make_initial_state


class SingularOperatorError(SolverError):
    """A Stokes block is singular: a zero row or pivot, or a failed probe."""


def lu_factor(a: np.ndarray) -> np.ndarray:
    """Identity: numpy has no public LU, so ``lu_solve`` factors.  The
    benchmark tracer wraps this pair by name."""
    return a


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^{-1} b`` by one LAPACK ``gesv`` (LU with partial pivoting)."""
    return np.linalg.solve(a, b)


def _zeta_tables(grid: CylGrid) -> tuple[np.ndarray, np.ndarray]:
    """First-order and squared vertical wavenumbers per rfft bin: the
    parts of the grid's first- and second-order spectral symbols."""
    return (spectral_symbol(grid.n_z, grid.L_z, 1).imag,
            -spectral_symbol(grid.n_z, grid.L_z, 2).real)


def _radial_laplacian(grid: CylGrid) -> np.ndarray:
    """``D^2 + D/r`` on the radial nodes."""
    D = grid.D_r
    return D @ D + (1.0 / grid.r)[:, None] * D


def _potentials(grid: CylGrid, kappa: int, nu: float,
                zeta2: np.ndarray) -> np.ndarray:
    """The potentials of the ``(u_r, v_th)`` and ``u_z`` Helmholtz blocks of
    every bin, ``(bins, 2, n)``."""
    r = grid.r
    nz2 = nu**2 * np.asarray(zeta2, dtype=float)[:, None]
    return np.stack([(1.0 + kappa**2) / r**2 + nz2, kappa**2 / r**2 + nz2],
                    axis=1)


def _momentum_blocks(lap: np.ndarray, pot: np.ndarray, dt: float,
                     s: float) -> np.ndarray:
    """``I/dt - s lap + diag(s pot)``, one block per row of ``pot``
    ``(..., n)``, with the wall row set to no-slip."""
    n = lap.shape[0]
    H = np.broadcast_to(-s * lap, pot.shape + (n,)).copy()
    idx = np.arange(n)
    H[..., idx, idx] = (1.0 / dt - s * np.diag(lap)) + s * pot
    H[..., -1, :] = 0.0
    H[..., -1, -1] = 1.0
    return H


def _mean_dc_block(grid: CylGrid, lap: np.ndarray, nu: float, zeta2: float,
                   dt: float, s: float) -> np.ndarray:
    """Decoupled block of the doubly degenerate bin (kappa = 0 and no
    first-order vertical coupling), in the coupled block's row and column
    layout.

    The coupled collocation block is numerically singular there: with the
    pressure on the full velocity node set, a near-checkerboard pressure
    mode slips through the interior-collocated gradient, so the coupled
    form is abandoned rather than regularized.  In this bin the radial
    divergence rows plus the wall condition force the radial component to
    vanish identically, the pressure follows from the radial momentum
    balance (gauge-fixed to zero quadrature mean), and the remaining two
    components are plain Dirichlet Helmholtz solves.  The radial momentum
    rows therefore act on the pressure and the divergence rows pin the
    radial component to zero.  ``s`` weighs the diffusion, as in
    :func:`_eliminate`.
    """
    n = grid.n_r
    hb, hc = _momentum_blocks(lap, _potentials(grid, 0, nu, [zeta2])[0], dt, s)
    P = grid.D_r.copy()
    P[-1, :] = grid.w_r  # zero-mean pressure gauge
    A = np.zeros((4 * n, 4 * n))
    A[:n, 3 * n:] = P
    A[n:2 * n, n:2 * n] = hb
    A[2 * n:3 * n, 2 * n:3 * n] = hc
    A[3 * n:, :n] = np.eye(n)
    return A


def _velocity_columns(n: int) -> np.ndarray:
    """``W``: the 4n x 3n map placing three velocity right-hand sides in the
    momentum rows of a block, with the no-slip wall rows zeroed."""
    W = np.eye(4 * n, 3 * n)
    W[:, n - 1::n] = 0.0
    return W


class _Probes:
    """Random sign vectors from a splitmix64 stream (Steele, Lea & Flood,
    OOPSLA 2014): well mixed and fixed by the seed, without loading
    ``numpy.random``.  A probe residual is measured against the probe's
    largest entry, and among vectors of a given largest entry a sign
    vector carries the most weight, so it reads a faulty map's residual
    two to three times as large as normal draws do."""

    def __init__(self, seed: int):
        self._state = np.uint64(seed)

    def signs(self, shape) -> np.ndarray:
        """The next entries of the stream as +-1.0, in ``shape``."""
        size = int(np.prod(shape))
        z = self._state + np.arange(1, size + 1, dtype=np.uint64) \
            * np.uint64(0x9E3779B97F4A7C15)
        self._state = z[-1]
        z ^= z >> 30
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        z ^= z >> 31
        return (1.0 - 2.0 * (z >> 63)).reshape(shape)


def _factor_checked(A: np.ndarray, probes: _Probes, label: str) -> np.ndarray:
    """Row-equilibrate, solve and probe one dense block; return its
    velocity-to-solution map ``A^{-1} W`` (4n x 3n).

    Two random probes share the map's solve: a right-hand side on all 4n
    rows, which exposes a singular block whose velocity rows are still
    consistent, and a velocity right-hand side ``b`` pushed through the
    formed map, whose equilibrated residual ``A (op b) - W b`` checks the
    map itself.  An exactly zero pivot fails the solve itself.
    """
    scale = 1.0 / np.abs(A).max(axis=1)
    if not np.all(np.isfinite(scale)):
        raise SingularOperatorError(f"zero row in Stokes block {label}")
    As = scale[:, None] * A
    lu = lu_factor(As)
    W = _velocity_columns(A.shape[0] // 4)
    probe = probes.signs(A.shape[0])
    try:
        sol = lu_solve(lu, np.column_stack([scale[:, None] * W, probe]))
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(f"zero pivot in Stokes block {label}") from exc
    op = sol[:, :-1]
    b = probes.signs(W.shape[1])
    res = max(np.abs(As @ sol[:, -1] - probe).max() / np.abs(probe).max(),
              np.abs(As @ (op @ b) - scale * (W @ b)).max()
              / np.abs(scale * (W @ b)).max())
    if not np.isfinite(res) or res > 1e-6:
        raise SingularOperatorError(
            f"singular Stokes block {label}: probe residual {res:.2e}")
    return op


def _solve_bins(a: np.ndarray, b: np.ndarray, labels: list[str]) -> np.ndarray:
    """``a^{-1} b`` for stacks whose leading axis runs over the bins of
    ``labels``; an exactly singular matrix names its bin."""
    try:
        return lu_solve(a, b)
    except np.linalg.LinAlgError:
        for ai, bi, label in zip(a, b, labels):
            try:
                lu_solve(ai, bi)
            except np.linalg.LinAlgError as exc:
                raise SingularOperatorError(
                    f"zero pivot in Stokes block {label}") from exc
        raise


def _eliminate(grid: CylGrid, lap: np.ndarray, kappa: int, nu: float,
               zeta1: np.ndarray, zeta2: np.ndarray, dt: float, s: float,
               probes: _Probes, out: np.ndarray) -> None:
    """Write the maps ``A^{-1} W`` of the coupled bins ``(zeta1, zeta2)``
    of one ``kappa`` into ``out`` ``(bins, 4n, 3n)`` by block elimination.
    The diffusion weight ``s`` scales the Laplacian, the potentials and
    the swirl coupling: 1 for a step, 0 for a projection.

    A block is ``[[M, G], [Dv, 0]]``: momentum rows ``M``, the pressure
    gradient ``G`` (zero on the wall rows) and the divergence ``Dv``.  The
    ``(a, b)`` part of ``M`` is ``[[H, C], [C, H]]`` with a diagonal ``C``,
    so ``a + b`` and ``a - b`` decouple on ``H + C`` and ``H - C``; those and
    the axial block are inverted in one stacked solve.  With the ``n x n``
    Schur complement ``S = Dv M^-1 G``, solved in a second one, the
    pressure rows are ``P = S^-1 Dv M^-1 W`` and the velocity rows
    ``M^-1 W - (M^-1 G) P``.  The blocks of ``M^-1 W`` wait in the pressure
    rows of ``out``, so the build's temporaries stay within about eleven
    ``n x n`` blocks per bin beside the table.

    Two random probes per bin, as in :func:`_factor_checked`: ``x`` on all
    ``4n`` unknowns is recovered from ``A x``, which rides as one more
    column through both solves, and the map ``op`` must give
    ``A (op b) = W b``.  Both apply ``A`` from its definition, not from
    the inverted blocks.
    """
    n, r = grid.n_r, grid.r
    bins = zeta1.size
    idx = np.arange(n)
    labels = [f"kappa={kappa}, zeta={z}" for z in zeta1]
    pot = _potentials(grid, kappa, nu, zeta2)
    wall = np.ones(n)
    wall[-1] = 0.0  # zero on the no-slip rows
    couple = s * wall * 2.0 * kappa / r**2
    lap_s, pot_s = s * lap, s * pot
    kr = kappa / r
    grad = wall[:, None] * grid.D_r
    grad_pm = (grad - np.diag(wall * kr), grad + np.diag(wall * kr))
    div = grid.D_r + np.diag(1.0 / r)
    div_pm = (div + np.diag(kr), div - np.diag(kr))
    z1 = zeta1[:, None, None]

    def helm(j, f):
        """The momentum Helmholtz block ``j`` of every bin on ``f``."""
        h = f / dt - lap_s @ f + pot_s[:, j, :, None] * f
        h[:, -1] = f[:, -1]
        return h

    def apply(v):
        """``A v`` for ``v`` of shape ``(bins, 4n, columns)``."""
        a, b, c, p = np.split(v, 4, axis=1)
        pw = wall[:, None] * p
        return np.concatenate([
            helm(0, a) + couple[:, None] * b + grad @ p,
            helm(0, b) + couple[:, None] * a - kr[:, None] * pw,
            helm(1, c) + z1 * pw,
            div @ a + kr[:, None] * b - z1 * c], axis=1)

    x = probes.signs((bins, 4 * n, 1))
    ya, yb, yc, yd = np.split(apply(x)[..., 0], 4, axis=1)
    # X = [H + C, H - C, H_c]^-1 [I, A x] on the rows (a + b, a - b, c)
    M = _momentum_blocks(lap, pot[:, [0, 0, 1]], dt, s)
    M[:, 0, idx, idx] += couple
    M[:, 1, idx, idx] -= couple
    rhs = np.zeros((bins, 3, n, n + 1))
    rhs[:, :, idx, idx] = 1.0
    rhs[..., n] = np.stack([ya + yb, ya - yb, yc], axis=1)
    X = _solve_bins(M, rhs, labels)
    del M, rhs
    X[..., n - 1] = 0.0  # the no-slip rows of W: X[..., :n] is M^-1 W
    # M^-1 G on the rows (a, b, c); G's wall rows are zero
    gs, gd = (X[:, i, :, :n] @ grad_pm[i] for i in (0, 1))
    MG = np.empty((bins, 3 * n, n))
    np.add(gs, gd, out=MG[:, :n])
    np.subtract(gs, gd, out=MG[:, n:2 * n])
    MG[:, :2 * n] *= 0.5
    np.multiply(z1, X[:, 2, :, :n], out=MG[:, 2 * n:])
    del gs, gd
    S = div @ MG[:, :n] + kr[:, None] * MG[:, n:2 * n] - z1 * MG[:, 2 * n:]
    # Dv on (a, b) is (D_a + K) (a + b) / 2 + (D_a - K) (a - b) / 2
    U, V = (div_pm[i] @ X[:, i] for i in (0, 1))
    # X's rows to (a, b, c): its W columns are then the blocks rr, rt, H_c^-1
    # of M^-1 W = [[rr, rt, 0], [rt, rr, 0], [0, 0, H_c^-1]], kept in the
    # pressure rows of out until the pressure map is known
    X[:, 1] -= X[:, 0]
    X[:, 1] *= -0.5
    X[:, 0] -= X[:, 1]
    mw = out[:, 3 * n:].reshape(bins, n, 3, n)
    mw[...] = X[..., :n].transpose(0, 2, 1, 3)
    mx = X[..., n].reshape(bins, 3 * n, 1).copy()
    del X
    # S [P, p] = Dv M^-1 [W, A x] - [0, (A x)_div]
    rhs = np.empty((bins, n, 3 * n + 1))
    np.add(U, V, out=rhs[..., :n + 1])
    rhs[..., :n + 1] *= 0.5
    rhs[..., -1] = rhs[..., n] - zeta1[:, None] * mx[:, 2 * n:, 0] - yd
    np.subtract(U[..., :n], V[..., :n], out=rhs[..., n:2 * n])
    rhs[..., n:2 * n] *= 0.5
    np.multiply(-z1, mw[:, :, 2], out=rhs[..., 2 * n:3 * n])
    del U, V
    Y = _solve_bins(S, rhs, labels)
    del S, rhs
    u = np.matmul(MG, Y[..., :3 * n], out=out[:, :3 * n])
    np.negative(u, out=u)
    for rows, cols, blk in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
                            (2, 2, 2)):
        u[:, rows * n:(rows + 1) * n, cols * n:(cols + 1) * n] += mw[:, :, blk]
    out[:, 3 * n:] = Y[..., :3 * n]
    # probes: x from A x, and A (op b) = W b
    p_x = Y[..., 3 * n:]
    got = np.concatenate([mx - MG @ p_x, p_x], axis=1)
    err = np.abs(got - x).max(axis=(1, 2)) / np.abs(x).max(axis=(1, 2))
    b = probes.signs((bins, 3 * n, 1)) * np.tile(wall, 3)[:, None]
    wb = np.concatenate([b, np.zeros((bins, n, 1))], axis=1)
    res = np.abs(apply(out @ b) - wb).max(axis=(1, 2)) \
        / np.abs(wb).max(axis=(1, 2))
    bad = np.flatnonzero(~(np.maximum(err, res) <= 1e-6))
    if bad.size:
        i = bad[0]
        raise SingularOperatorError(
            f"singular Stokes block {labels[i]}: probe residual "
            f"{max(err[i], res[i]):.2e}")


class StokesOpCache:
    """Real bin operator stacks ``(bins, 4n, 3n)``, keyed by
    (kappa, dt, diffusion).

    The coupled bins of a table, a step's or a projection's, are built
    together by :func:`_eliminate`; only the mean's decoupled bins
    (``kappa = 0`` with no first-order vertical coupling) are solved
    densely by :func:`_factor_checked`.
    """

    def __init__(self, grid: CylGrid, nu: float):
        self.grid = grid
        self.nu = float(nu)
        self._table: dict[tuple, np.ndarray] = {}
        self._probes = _Probes(1234)
        self._lap = _radial_laplacian(grid)
        self._zeta1, self._zeta2 = _zeta_tables(grid)

    def factors(self, kappa: int, dt: float, diffusion: bool = True) -> np.ndarray:
        key = (int(kappa), float(dt), bool(diffusion))
        if key in self._table:
            return self._table[key]
        g, zeta1, zeta2 = self.grid, self._zeta1, self._zeta2
        s = 1.0 if diffusion else 0.0
        out = np.empty((zeta1.size, 4 * g.n_r, 3 * g.n_r))
        # zeta1 vanishes only on the first bin and the Nyquist bin (n_z is
        # even), where the mean's bins decouple
        sl = slice(1, -1) if kappa == 0 else slice(None)
        _eliminate(g, self._lap, kappa, self.nu, zeta1[sl], zeta2[sl], dt, s,
                   self._probes, out[sl])
        if kappa == 0:
            for i in (0, -1):
                out[i] = _factor_checked(
                    _mean_dc_block(g, self._lap, self.nu, zeta2[i], dt, s),
                    self._probes, f"mean-dc, zeta^2={zeta2[i]}")
        self._table[key] = out
        return out


def _solve_family(cache: StokesOpCache, kappa: int, dt: float, diffusion: bool,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve F families for all vertical wavenumbers at once.

    ``rhs`` holds the physical-space right-hand sides (already ``w/dt + f``)
    as ``(F, 3, n_r, n_z)`` in the canonical ``(a, b, c)`` order; the
    return value holds the updated ``(a, b, c, p)`` as ``(F, 4, n_r, n_z)``.
    """
    g = cache.grid
    n = g.n_r
    ops = cache.factors(kappa, dt, diffusion)
    fam = rhs.shape[0]
    h = np.fft.rfft(rhs, axis=-1)
    h[:, 2] *= -1j  # axial momentum row of the real form
    nb = h.shape[-1]
    cols = np.ascontiguousarray(h.transpose(3, 1, 2, 0)).reshape(nb, 3 * n, fam)
    x = (ops @ cols.view(np.float64)).view(complex).reshape(nb, 4, n, fam)
    x = np.ascontiguousarray(x.transpose(3, 1, 2, 0))
    x[:, 2] *= 1j  # c = i c'
    return np.fft.irfft(x, n=g.n_z, axis=-1)


def stokes_step(cache: StokesOpCache, u: np.ndarray, forcing, dt: float,
                k_eff: int, diffusion: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """One backward-Euler step of the coupled mode Stokes system.

    ``u`` is one harmonic's ``(6, n_r, n_z)`` slots and ``forcing`` None or
    an array of the same shape, applied explicitly: the solve is
    ``(I/dt + A) w_new + grad p = w/dt + f`` with the mode divergence
    constraint on ``w_new``, each forcing slot forcing that field's own
    momentum equation.  ``k_eff`` is the effective azimuthal wavenumber;
    ``k_eff = 0`` is the mean, whose sine slots ``(vr, vth, vz)`` must be
    zero in ``u`` and ``forcing``, as ``ModeState`` keeps them.  At
    ``kap = 0`` the ``b`` rows and columns of every block decouple
    exactly, so the mean's ``(ur, uz, P)`` come from the cosine family,
    its ``uth`` from the sine family, and its sine slots and ``Q`` stay
    exactly zero.  Returns the new slots and the ``(P, Q)`` pressures.
    """
    w = u / dt + (0.0 if forcing is None else forcing)
    # cosine family (u_r, v_th, u_z, P) and sine family via
    # (v_r, -u_th, v_z, Q) with forcing (g_r, -f_th, g_z): one solve
    w[UTH] *= -1.0
    x = _solve_family(cache, k_eff, dt, diffusion, w.reshape(2, 3, *w.shape[1:]))
    new = x[:, :3].reshape(w.shape)
    new[UTH] *= -1.0
    return new, x[:, 3]


def project_divfree(cache: StokesOpCache, u: np.ndarray,
                    k_eff: int) -> tuple[np.ndarray, np.ndarray]:
    """L2 projection onto discretely divergence-free fields with no-slip."""
    return stokes_step(cache, u, None, 1.0, k_eff, diffusion=False)


def apply_viscous_operator(grid: CylGrid, u: np.ndarray, nu: float,
                           k_eff: int) -> np.ndarray:
    """Explicit application of the implicit solve's viscous operator.

    Returns the slot-ordered operator images of the ``(6, n_r, n_z)``
    harmonic ``u``, so that the momentum system reads
    ``d/dt field + image + (pressure gradient) = rhs``; useful for
    manufactured-solution forcing, where the forcing must be built from
    the discrete operator rather than its continuum counterpart.
    """
    r = grid.r[:, None]
    kap = k_eff

    def lap(f):
        df = grid.dr(f)
        return grid.dr(df) + df / r

    def perp(f):
        return (-lap(f) + ((1.0 + kap**2) / r**2) * f
                - nu**2 * grid.dz_pow(f, 2))

    def axial(f):
        return -lap(f) + (kap**2 / r**2) * f - nu**2 * grid.dz_pow(f, 2)

    ur, vth, uz, vr, uth, vz = u
    swirl = 2.0 * kap / r**2
    return np.array([perp(ur) + swirl * vth,
                     perp(vth) + swirl * ur,
                     axial(uz),
                     perp(vr) - swirl * uth,
                     perp(uth) - swirl * vr,
                     axial(vz)])


# -- single-harmonic evolution ----------------------------------------------

@dataclass
class StokesHistory:
    """Each snapshot's diagnostics pass (the initial one without pressure)
    and each step's backward-Euler energy-identity remainder per unit
    time: the budget's imbalance (``diagnostics.energy_ledger``) plus the
    scheme's damping ``E(u_new - u_old)``, over ``dt``."""

    dt: float
    nu: float
    measures: list[ModeMeasures]
    identity_residual: list[float] = field(default_factory=list)

    @property
    def energy(self) -> np.ndarray:
        return np.array([m.energy()[0] for m in self.measures])

    @property
    def diss_integral(self) -> np.ndarray:
        """``dt * dissipation(w_new)`` summed by the right-endpoint rule,
        under which backward Euler keeps ``E + 2 int D <= E(0)``."""
        diss = [m.quadform_terms(self.nu)["dissipation"][0]
                for m in self.measures[1:]]
        return np.concatenate([[0.0], np.cumsum(self.dt * np.array(diss))])


def stokes_evolve(cache: StokesOpCache, u0: np.ndarray, dt: float,
                  n_steps: int, k_eff: int, j_max: int = 0) -> StokesHistory:
    """Evolve one harmonic ``u0`` (6 slots) under the unforced implicit
    Stokes flow, measuring every snapshot to vertical order ``j_max``."""
    g = cache.grid
    hist = StokesHistory(dt, cache.nu,
                         [measure_modes(g, u0[None], [k_eff], j_max=j_max)])
    u = u0
    for _ in range(n_steps):
        new, press = stokes_step(cache, u, None, dt, k_eff)
        after = measure_modes(g, new[None], [k_eff], press[None], j_max=j_max)
        imbalance = energy_ledger(hist.measures[-1].energy(), after,
                                  cache.nu, dt)[-1][0]
        hist.identity_residual.append(
            float(imbalance + mode_energy(g, new - u, k_eff)) / dt)
        hist.measures.append(after)
        u = new
    return hist


def linear_flow_problems(N: int) -> list[str]:
    """Every violated range of the linear flow's base wavenumber."""
    return [] if N >= 3 else ["linear flow requires N >= 3"]


def linear_flow_uL(profile, params: Params, dt: float, n_steps: int) -> dict:
    """Evolve the purely horizontal single-harmonic linear flow.

    The linear flow damps the base harmonic N with the horizontal operator
    only (no vertical viscosity at any nu), so it is the ``nu = 0`` Stokes
    evolution at ``k_eff = N`` of the mode-1 scaled data; ``N`` is in the
    range of :func:`linear_flow_problems`.  Reports, per vertical
    derivative order j = 0..m, the supremum of ``||dz^j u_L||^2``, the
    dissipation integrals and their ratios to ``N^{2 delta} ||dz^j
    alpha||^2``, plus the worst discrete energy identity residual relative
    to the pre-step energy per unit time.
    """
    raise_problems(linear_flow_problems(params.N))
    N, j_max = params.N, params.m
    hist = stokes_evolve(StokesOpCache(profile.grid, 0.0),
                         make_initial_state(profile, params).u[1], dt,
                         n_steps, N, j_max)
    inst, dr_sq, over_r = (
        np.array([read(m) for m in hist.measures])
        for read in (lambda m: m.inst[:, 0], lambda m: m.dr_sq[:, 0],
                     lambda m: m.over_r[:, 0].sum(axis=-1)))
    theta = hist.measures[0].theta[0]
    sup_sq = theta * inst.max(axis=0)
    # right-endpoint sums over the steps
    int_dr = (dt * theta * dr_sq[1:]).sum(axis=0)
    int_over_r = (dt * theta * over_r[1:]).sum(axis=0)
    ident_max = float(np.max(np.abs(hist.identity_residual) / np.maximum(
        hist.energy[:-1] / dt, 1e-300), initial=0.0))
    prof_sq = profile.norms_dz(j_max) ** 2
    fac = float(N) ** (2.0 * params.delta) * prof_sq
    return {
        "N": N,
        "j": list(range(j_max + 1)),
        "sup_sq": sup_sq.tolist(),
        "int_dr_sq": int_dr.tolist(),
        "weighted_over_r_sq": (N**2 * int_over_r).tolist(),
        "profile_norm_sq": prof_sq.tolist(),
        "ratio_sup": (sup_sq / fac).tolist(),
        "ratio_dr": (int_dr / fac).tolist(),
        "ratio_over_r": (N**2 * int_over_r / fac).tolist(),
        "identity_residual_max": ident_max,
    }
