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
so one operator serves both.  The mean mode is the ``kap = 0`` case, where
the azimuthal block decouples.  The per-mode, per-wavenumber decoupling is
that of Lopez, Marques & Shen, J. Comput. Phys. 176 (2002).

Momentum equations are collocated at interior nodes, the wall rows impose
the no-slip condition, and the divergence is collocated at every node; at
``kap = zeta = 0`` the wall divergence row is replaced by a zero-mean
pressure gauge.  First-order ``i zeta`` terms use the same zeroed-Nyquist
convention as the grid's spectral derivative, so the solver and the
explicit operators see one and the same discretization.

Every block is exactly real under the diagonal similarity ``c = i c'``
with the axial momentum row scaled by ``-i``: ``i zeta`` becomes ``zeta``
in that row and ``-zeta`` in the divergence row.  The blocks are assembled
in that real form, row-equilibrated, LU-factored and probed with a random
solve at build time, so a singular operator fails loudly instead of being
regularized.  The factorization then forms the bin's real ``4n x 3n`` map
from the three velocity right-hand sides (wall rows dropped) to
``(a, b, c', p)`` and is discarded: the cache keeps one
``(bins, 4n, 3n)`` stack per ``(kap, dt, diffusion)``, and a solve is one
vertical FFT, one batched ``matmul`` with real and imaginary parts (and
the cosine and sine families) as columns, and one inverse FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .grid import CylGrid, THETA_FULL, THETA_HALF
from .state import ModeVelocity, ModePressure, ModeState, Params


class SingularOperatorError(RuntimeError):
    pass


def _zeta_tables(grid: CylGrid) -> tuple[np.ndarray, np.ndarray]:
    """First-order and squared vertical wavenumbers per rfft bin.

    The Nyquist bin carries zero in first-order terms (matching ``dz``)
    but its true square in the viscous term (matching ``dz_pow(.., 2)``).
    """
    m = np.arange(grid.n_z // 2 + 1)
    zeta = (2.0 * np.pi / grid.L_z) * m
    zeta1 = zeta.copy()
    if grid.n_z % 2 == 0:
        zeta1[-1] = 0.0
    return zeta1, zeta**2


def _helmholtz(grid: CylGrid, pot: np.ndarray, dt: float, s: float) -> np.ndarray:
    """``I/dt - s (D^2 + D/r) + diag(s pot)`` on the radial nodes."""
    D = grid.D_r
    lap = D @ D + (1.0 / grid.r)[:, None] * D
    return np.eye(grid.n_r) / dt - s * lap + np.diag(s * pot)


def _real_block(grid: CylGrid, kappa: int, nu: float, zeta1: float,
                zeta2: float, dt: float, diffusion: bool) -> np.ndarray:
    """One (harmonic, vertical wavenumber) block in its real form."""
    n = grid.n_r
    r = grid.r
    D = grid.D_r
    ib = n - 1  # wall node r = 1
    A = np.zeros((4 * n, 4 * n))
    eye = np.eye(n)
    s = 1.0 if diffusion else 0.0
    blk_a = _helmholtz(grid, (1.0 + kappa**2) / r**2 + nu**2 * zeta2, dt, s)
    couple = np.diag(s * 2.0 * kappa / r**2)

    sl_a, sl_b, sl_c, sl_p = (slice(0, n), slice(n, 2 * n),
                              slice(2 * n, 3 * n), slice(3 * n, 4 * n))
    A[sl_a, sl_a] = blk_a
    A[sl_a, sl_b] = couple
    A[sl_a, sl_p] = D
    A[sl_b, sl_b] = blk_a
    A[sl_b, sl_a] = couple
    A[sl_b, sl_p] = -np.diag(kappa / r)
    A[sl_c, sl_c] = _helmholtz(grid, kappa**2 / r**2 + nu**2 * zeta2, dt, s)
    A[sl_c, sl_p] = zeta1 * eye
    # wall rows: no-slip
    for sl in (sl_a, sl_b, sl_c):
        A[sl, :][ib, :] = 0.0
        A[sl, sl][ib, ib] = 1.0
    # divergence rows
    A[sl_p, sl_a] = D + np.diag(1.0 / r)
    A[sl_p, sl_b] = np.diag(kappa / r)
    A[sl_p, sl_c] = -zeta1 * eye
    if kappa == 0 and zeta1 == 0.0:
        # pressure defined up to a constant: zero-mean gauge at the wall row
        A[sl_p, :][ib, :] = 0.0
        A[sl_p, sl_p][ib, :] = grid.w_r
    return A


def assemble_block(grid: CylGrid, kappa: int, nu: float, zeta1: float,
                   zeta2: float, dt: float, diffusion: bool = True) -> np.ndarray:
    """Dense complex matrix of one (harmonic, vertical wavenumber) block.

    The physical form of the real block the solver factors: the axial
    momentum row is scaled back by ``i`` and the axial column by ``-i``.
    """
    n = grid.n_r
    A = _real_block(grid, kappa, nu, zeta1, zeta2, dt, diffusion).astype(complex)
    A[2 * n:3 * n, :] *= 1j
    A[:, 2 * n:3 * n] *= -1j
    return A


def _mean_dc_block(grid: CylGrid, nu: float, zeta2: float, dt: float,
                   diffusion: bool) -> np.ndarray:
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
    radial component to zero.
    """
    n = grid.n_r
    ib = n - 1
    r = grid.r
    s = 1.0 if diffusion else 0.0
    hb = _helmholtz(grid, 1.0 / r**2 + nu**2 * zeta2, dt, s)
    hc = _helmholtz(grid, np.full(n, nu**2 * zeta2), dt, s)
    for H in (hb, hc):
        H[ib, :] = 0.0
        H[ib, ib] = 1.0
    P = grid.D_r.copy()
    P[ib, :] = grid.w_r  # zero-mean pressure gauge
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


def _factor_checked(A: np.ndarray, rng, label: str) -> np.ndarray:
    """Row-equilibrate, LU-factor and probe one dense block; return its
    velocity-to-solution map ``A^{-1} W`` (4n x 3n).

    Two random probes share the map's triangular solves: a right-hand
    side on all 4n rows, which exposes a singular block whose velocity
    rows are still consistent, and a velocity right-hand side ``b`` pushed
    through the formed map, whose equilibrated residual ``A (op b) - W b``
    checks the map itself.
    """
    scale = 1.0 / np.abs(A).max(axis=1)
    if not np.all(np.isfinite(scale)):
        raise SingularOperatorError(f"zero row in Stokes block {label}")
    As = scale[:, None] * A
    lu = lu_factor(As, check_finite=False)
    W = _velocity_columns(A.shape[0] // 4)
    probe = rng.standard_normal(A.shape[0])
    sol = lu_solve(lu, np.column_stack([scale[:, None] * W, probe]),
                   check_finite=False)
    op = sol[:, :-1]
    b = rng.standard_normal(W.shape[1])
    res = max(np.abs(As @ sol[:, -1] - probe).max() / np.abs(probe).max(),
              np.abs(As @ (op @ b) - scale * (W @ b)).max()
              / np.abs(scale * (W @ b)).max())
    if not np.isfinite(res) or res > 1e-6:
        raise SingularOperatorError(
            f"singular Stokes block {label}: probe residual {res:.2e}")
    return op


class StokesOpCache:
    """Real bin operator stacks ``(bins, 4n, 3n)``, keyed by
    (kappa, dt, diffusion)."""

    def __init__(self, grid: CylGrid, nu: float):
        self.grid = grid
        self.nu = float(nu)
        self._table: dict[tuple, np.ndarray] = {}
        self._rng = np.random.default_rng(1234)

    def factors(self, kappa: int, dt: float, diffusion: bool = True) -> np.ndarray:
        key = (int(kappa), float(dt), bool(diffusion))
        if key in self._table:
            return self._table[key]
        zeta1, zeta2 = _zeta_tables(self.grid)
        ops = []
        for z1, z2 in zip(zeta1, zeta2):
            if kappa == 0 and z1 == 0.0:
                A = _mean_dc_block(self.grid, self.nu, z2, dt, diffusion)
                label = f"mean-dc, zeta^2={z2}"
            else:
                A = _real_block(self.grid, kappa, self.nu, z1, z2, dt, diffusion)
                label = f"kappa={kappa}, zeta={z1}"
            ops.append(_factor_checked(A, self._rng, label))
        self._table[key] = out = np.stack(ops)
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


def _normalize_forcing(mode_k: int, forcing, shape) -> tuple[np.ndarray, ...]:
    if forcing is None:
        z = np.zeros(shape)
        return (z,) * 6
    forcing = tuple(forcing)
    if mode_k == 0 and len(forcing) == 3:
        # mean forcing arrives as (radial, swirl, axial); the swirl slot is
        # the one the k = 0 solve reads from position 4
        z = np.zeros(shape)
        return (forcing[0], z, forcing[2], z, forcing[1], z)
    if len(forcing) != 6:
        raise ValueError("forcing must have 6 components (or 3 for the mean mode)")
    return forcing


def stokes_step(cache: StokesOpCache, mode: ModeVelocity, forcing, dt: float,
                k_eff: int, diffusion: bool = True) -> tuple[ModeVelocity, ModePressure]:
    """One backward-Euler step of the coupled mode Stokes system.

    ``forcing`` is applied explicitly: the solve is
    ``(I/dt + A) w_new + grad p = w/dt + f`` with the mode divergence
    constraint on ``w_new``.  Forcing components follow the field order
    ``(ur, vth, uz, vr, uth, vz)``, each forcing that field's own momentum
    equation; the mean mode accepts a 3-tuple.  ``k_eff`` is the effective
    azimuthal wavenumber.
    """
    shape = mode.ur.shape
    f = _normalize_forcing(mode.k, forcing, shape)
    if mode.k == 0:
        # one family (u_r, u_th, u_z, P): for k = 0 the slot b = u_th
        rhs = np.array([[mode.ur / dt + f[0], mode.uth / dt + f[4],
                         mode.uz / dt + f[2]]])
        (a, b, c, p), = _solve_family(cache, k_eff, dt, diffusion, rhs)
        new = ModeVelocity.zeros(0, shape)
        new.ur, new.uth, new.uz = a, b, c
        return new, ModePressure(0, p, np.zeros(shape))
    # cosine family (u_r, v_th, u_z, P) and sine family via
    # (v_r, -u_th, v_z, Q) with forcing (g_r, -f_th, g_z): one solve
    rhs = np.array([[mode.ur / dt + f[0], mode.vth / dt + f[1], mode.uz / dt + f[2]],
                    [mode.vr / dt + f[3], -(mode.uth / dt + f[4]), mode.vz / dt + f[5]]])
    (a, b, c, p), (a2, b2, c2, q) = _solve_family(cache, k_eff, dt, diffusion, rhs)
    return ModeVelocity(mode.k, a, b, c, a2, -b2, c2), ModePressure(mode.k, p, q)


def project_divfree(cache: StokesOpCache, mode: ModeVelocity,
                    k_eff: int) -> tuple[ModeVelocity, ModePressure]:
    """L2 projection onto discretely divergence-free fields with no-slip."""
    return stokes_step(cache, mode, None, 1.0, k_eff, diffusion=False)


def apply_viscous_operator(grid: CylGrid, mode: ModeVelocity, nu: float,
                           k_eff: int) -> tuple[np.ndarray, ...]:
    """Explicit application of the implicit solve's viscous operator.

    Returns the slot-ordered operator images so that the momentum system
    reads ``d/dt field + image + (pressure gradient) = rhs``; useful for
    manufactured-solution forcing, where the forcing must be built from
    the discrete operator rather than its continuum counterpart.  The mean
    mode returns three fields (ur, uth, uz).
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

    if mode.k == 0:
        return (perp(mode.ur), perp(mode.uth), axial(mode.uz))
    swirl = 2.0 * kap / r**2
    return (perp(mode.ur) + swirl * mode.vth,
            perp(mode.vth) + swirl * mode.ur,
            axial(mode.uz),
            perp(mode.vr) - swirl * mode.uth,
            perp(mode.uth) - swirl * mode.vr,
            axial(mode.vz))


# -- energy monitors ---------------------------------------------------------

def mode_energy(grid: CylGrid, mode: ModeVelocity) -> float:
    """Squared L2 norm over the solid cylinder of one harmonic."""
    if mode.k == 0:
        return THETA_FULL * sum(grid.quad(f * f) for f in (mode.ur, mode.uth, mode.uz))
    return THETA_HALF * sum(grid.quad(f * f) for f in mode.fields())


def mode_dissipation(grid: CylGrid, mode: ModeVelocity, nu: float, k_eff: int) -> float:
    """Weighted dissipation rate with the ``(k_eff - 1)**2`` radial weight.

    Matches the coercive part of the mode energy identity: the meridional
    gradient plus, for ``k_eff >= 1``, ``(k_eff - 1)^2 ||w/r||^2`` over all
    six fields, and for the mean the ``(u_r, u_th)/r`` terms.
    """
    r = grid.r[:, None]
    if mode.k == 0:
        fields = (mode.ur, mode.uth, mode.uz)
        theta = THETA_FULL
    else:
        fields = mode.fields()
        theta = THETA_HALF
    s = sum(grid.quad(grid.dr(f) ** 2) + nu**2 * grid.quad(grid.dz(f) ** 2)
            for f in fields)
    if mode.k == 0:
        s += grid.quad((mode.ur / r) ** 2) + grid.quad((mode.uth / r) ** 2)
    else:
        s += (k_eff - 1) ** 2 * sum(grid.quad((f / r) ** 2) for f in fields)
    return theta * s


def mode_quadform_terms(grid: CylGrid, mode: ModeVelocity, nu: float,
                        k_eff: int) -> dict[str, float]:
    """Exact pieces of the discrete energy identity for one harmonic.

    Returns the gradient term, the full weighted ``1/r`` potential terms and
    the cross coupling ``4 kap (<v_r/r, u_th/r> - <u_r/r, v_th/r>)``, all
    with the harmonic's theta measure folded in.
    """
    r = grid.r[:, None]
    k = mode.k
    theta = THETA_FULL if k == 0 else THETA_HALF
    fields = (mode.ur, mode.uth, mode.uz) if k == 0 else mode.fields()
    grad = sum(grid.quad(grid.dr(f) ** 2) + nu**2 * grid.quad(grid.dz(f) ** 2)
               for f in fields)
    if k == 0:
        pot = grid.quad((mode.ur / r) ** 2) + grid.quad((mode.uth / r) ** 2)
        cross = 0.0
    else:
        pot = k_eff**2 * sum(grid.quad((f / r) ** 2) for f in fields)
        pot += sum(grid.quad((f / r) ** 2)
                   for f in (mode.ur, mode.vth, mode.vr, mode.uth))
        cross = 4.0 * k_eff * (grid.quad((mode.vr / r) * (mode.uth / r))
                               - grid.quad((mode.ur / r) * (mode.vth / r)))
    return {"grad": theta * grad, "pot": theta * pot, "cross": theta * cross}


def pressure_work(grid: CylGrid, mode: ModeVelocity, press: ModePressure,
                  k_eff: int) -> float:
    """Discrete work of the pressure terms against the velocity."""
    theta = THETA_FULL if mode.k == 0 else THETA_HALF
    r = grid.r[:, None]
    w = grid.quad(grid.dr(press.P) * mode.ur) + grid.quad(grid.dz(press.P) * mode.uz)
    if mode.k == 0:
        return theta * w
    w += -k_eff * grid.quad(press.P * mode.vth / r)
    w += (grid.quad(grid.dr(press.Q) * mode.vr) + grid.quad(grid.dz(press.Q) * mode.vz)
          + k_eff * grid.quad(press.Q * mode.uth / r))
    return theta * w


# -- evolution drivers -------------------------------------------------------

@dataclass
class StokesHistory:
    """Running monitors of a single-harmonic Stokes evolution.

    ``diss_integral`` accumulates ``dt * dissipation(w_new)`` with the
    right-endpoint rule, the one consistent with the backward-Euler energy
    identity, so the reported inequality is structural rather than a
    quadrature accident.
    """

    times: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    diss_integral: list[float] = field(default_factory=list)
    identity_residual: list[float] = field(default_factory=list)

    @property
    def sup_energy(self) -> float:
        return max(self.energy)


def stokes_evolve(cache: StokesOpCache, mode0: ModeVelocity, dt: float,
                  n_steps: int, k_eff: int, forcing=None,
                  with_identity: bool = False) -> tuple[ModeVelocity, StokesHistory]:
    """Evolve one harmonic under the implicit Stokes flow.

    ``forcing`` may be None, a constant tuple of component fields, or a
    callable ``t -> tuple`` evaluated at the start of each step.
    """
    g = cache.grid
    hist = StokesHistory()
    mode = mode0.copy()
    run_diss = 0.0
    hist.times.append(0.0)
    hist.energy.append(mode_energy(g, mode))
    hist.diss_integral.append(0.0)
    t = 0.0
    for _ in range(n_steps):
        f = forcing(t) if callable(forcing) else forcing
        new, press = stokes_step(cache, mode, f, dt, k_eff)
        if with_identity:
            e_new = mode_energy(g, new)
            e_old = hist.energy[-1]
            delta = ModeVelocity(mode.k, *[fn - fo for fn, fo in
                                           zip(new.fields(), mode.fields())])
            terms = mode_quadform_terms(g, new, cache.nu, k_eff)
            fwork = 0.0
            if f is not None:
                fn = _normalize_forcing(mode.k, f, mode.ur.shape)
                theta = THETA_FULL if mode.k == 0 else THETA_HALF
                fwork = theta * sum(g.quad(fi * wi) for fi, wi in
                                    zip(fn, new.fields()))
            resid = ((e_new - e_old) / dt + mode_energy(g, delta) / dt
                     + 2.0 * (terms["grad"] + terms["pot"])
                     - 2.0 * terms["cross"]
                     + 2.0 * pressure_work(g, new, press, k_eff)
                     - 2.0 * fwork)
            hist.identity_residual.append(resid)
        mode = new
        t += dt
        run_diss += dt * mode_dissipation(g, mode, cache.nu, k_eff)
        hist.times.append(t)
        hist.energy.append(mode_energy(g, mode))
        hist.diss_integral.append(run_diss)
    return mode, hist


def mode_invariance_check(grid: CylGrid, params: Params, k0: int, dt: float,
                          n_steps: int, seed: int = 0) -> float:
    """Leakage of a state populated only at harmonic k0 under Stokes flow.

    Every harmonic is stepped with its own effective wavenumber ``k N``;
    the return value is the worst ratio ``||mode k|| / ||mode k0||`` over
    the run for k != k0.
    """
    rng = np.random.default_rng(seed)
    state = ModeState.zeros(grid, params)
    env = grid.r[:, None] * (1.0 - grid.r[:, None] ** 2) ** 2
    mode = state.modes[k0]
    nf = 3 if k0 == 0 else 6
    arrs = []
    for _ in range(nf):
        coef = rng.standard_normal(3)
        zpart = (coef[0] + coef[1] * np.cos(2 * np.pi * grid.z / grid.L_z)
                 + coef[2] * np.sin(2 * np.pi * grid.z / grid.L_z))
        arrs.append(env * zpart[None, :])
    if k0 == 0:
        mode.ur, mode.uth, mode.uz = arrs
    else:
        mode.set_fields(arrs)
    cache = StokesOpCache(grid, params.nu)
    leak = 0.0
    for _ in range(n_steps):
        for k in range(params.K + 1):
            k_eff = k * params.N if k > 0 else 0
            state.modes[k], state.pressures[k] = stokes_step(
                cache, state.modes[k], None, dt, k_eff)
        e0 = mode_energy(grid, state.modes[k0])
        for k in range(params.K + 1):
            if k == k0:
                continue
            ek = mode_energy(grid, state.modes[k])
            if e0 > 0.0:
                leak = max(leak, math.sqrt(ek / e0))
            elif ek > 0.0:
                leak = math.inf
    return leak


def linear_flow_uL(profile, params: Params, dt: float, n_steps: int,
                   j_max: int | None = None) -> dict:
    """Evolve the purely horizontal single-harmonic linear flow.

    The linear flow damps the base harmonic N with the horizontal operator
    only (no vertical viscosity at any nu), so it is the ``nu = 0`` Stokes
    evolution at ``k_eff = N`` of the mode-1 scaled data.  Requires
    ``N >= 3``.  Reports, per vertical derivative order j, the supremum of
    ``||dz^j u_L||^2``, the dissipation integrals and their ratios to
    ``N^{2 delta} ||dz^j alpha||^2``, plus the worst discrete energy
    identity residual.
    """
    from .state import make_initial_state

    if params.N < 3:
        raise ValueError("linear flow requires N >= 3")
    if j_max is None:
        j_max = params.m
    g = profile.grid
    state = make_initial_state(profile, params)
    m1 = state.modes[1]
    cache = StokesOpCache(g, 0.0)
    r = g.r[:, None]
    N = params.N
    sup_sq = np.zeros(j_max + 1)
    int_dr = np.zeros(j_max + 1)
    int_over_r = np.zeros(j_max + 1)

    def measure(mode, into_sup, accumulate):
        for j in range(j_max + 1):
            djf = [g.dz_pow(f, j) for f in mode.fields()]
            e = THETA_HALF * sum(g.quad(f * f) for f in djf)
            into_sup[j] = max(into_sup[j], e)
            if accumulate:
                int_dr[j] += dt * THETA_HALF * sum(g.quad(g.dr(f) ** 2) for f in djf)
                int_over_r[j] += dt * THETA_HALF * sum(g.quad((f / r) ** 2) for f in djf)

    measure(m1, sup_sq, accumulate=False)
    mode = m1
    ident_max = 0.0
    e_prev = mode_energy(g, mode)
    for _ in range(n_steps):
        new, press = stokes_step(cache, mode, None, dt, N)
        e_new = mode_energy(g, new)
        delta = ModeVelocity(1, *[fn - fo for fn, fo in
                                  zip(new.fields(), mode.fields())])
        terms = mode_quadform_terms(g, new, 0.0, N)
        resid = ((e_new - e_prev) / dt + mode_energy(g, delta) / dt
                 + 2.0 * (terms["grad"] + terms["pot"]) - 2.0 * terms["cross"]
                 + 2.0 * pressure_work(g, new, press, N))
        scale = max(e_prev / dt, 1e-300)
        ident_max = max(ident_max, abs(resid) / scale)
        mode = new
        e_prev = e_new
        measure(mode, sup_sq, accumulate=True)
    prof_sq = np.array([profile.norm_dz(j) ** 2 for j in range(j_max + 1)])
    fac = float(N) ** (2.0 * params.delta) * prof_sq
    report = {
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
    return report
