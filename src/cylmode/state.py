"""Physical parameters, initial profiles, mode states and checkpoints.

A mode state holds the azimuthal coefficient fields of

    u = u_0 + sum_k ( u_k cos(k N theta) + v_k sin(k N theta) ),   1 <= k <= K,

for each cylindrical velocity component, as one table indexed by harmonic
and slot.  ``ModeState.u`` is a float64 array of shape
``(K+1, 6, n_r, n_z)``: row k holds harmonic k in the slot order
``(ur, vth, uz, vr, uth, vz)`` (indices ``UR, VTH, UZ, VR, UTH, VZ``).
The cosine family ``(u_r, v_th, u_z)`` couples with the pressure
coefficient ``P_k`` and the sine family ``(v_r, u_th, v_z)`` with ``Q_k``.
Row 0 is the mean ``(u_r0, u_th0, u_z0)`` in slots ``UR, UTH, UZ``; its
sine slots ``VTH, VR, VZ`` are held at zero.  ``ModeState.p`` is a
``(K+1, 2, n_r, n_z)`` array with slots ``(P, Q)`` and ``Q_0 = 0``.  The
slot constants are defined in :mod:`cylmode.diagnostics`.  A single
harmonic is a ``(6, n_r, n_z)`` row ``u[k]`` together with its effective
azimuthal wavenumber; the mean is the ``k_eff = 0`` case.

Initial data lives on harmonic k = 1 only and is built from a
six-component divergence-free profile
``alpha = (a_r, a_th, a_z, b_r, b_th, b_z)`` via the anisotropic scaling

    (u_r1, v_th1, u_z1) = N**delta * (a_r, b_th / N, a_z)
    (v_r1, u_th1, v_z1) = N**delta * (b_r, a_th / N, b_z).

Checkpoint layout (all little-endian): the 8-byte magic ``CYLMODE1``;
``n_r, n_z, K, N`` as uint32; ``L_z, t, nu, delta, eta`` as float64; then
velocity fields in k-ascending order, row-major float64 — three fields
``(u_r, u_th, u_z)`` for k = 0 and six fields
``(u_r, v_th, u_z, v_r, u_th, v_z)`` for each k >= 1 — then pressure
fields in k-ascending order (``P_0`` for k = 0, ``P_k, Q_k`` for k >= 1).
Round trips are bit exact.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .diagnostics import (P, UR, UTH, UZ, VR, VTH, VZ, measure_modes,
                          measure_state, mode_energy)
from .grid import CylGrid, build_grid, raise_problems

CHECKPOINT_MAGIC = b"CYLMODE1"

# names of the six velocity slots, in slot order
FIELD_ORDER = ("ur", "vth", "uz", "vr", "uth", "vz")
# the mean's slots, in checkpoint order
MEAN_SLOTS = [UR, UTH, UZ]


def param_problems(nu: float, N: int, delta: float, eta: float, K: int,
                   m: int = 3, sigma: float = 0.4,
                   small_eps: float = 0.1) -> list[str]:
    """Every violated range of the physical and truncation parameters."""
    errs = []
    if not 0.0 <= nu <= 1.0:
        errs.append(f"nu must lie in [0, 1], got {nu}")
    if int(N) != N or N < 2:
        errs.append(f"N must be an integer >= 2, got {N}")
    if not 0.0 <= delta < 0.25:
        errs.append(f"delta must lie in [0, 1/4), got {delta}")
    if not 0.0 <= eta < 0.5 - delta:
        errs.append(f"eta must lie in [0, 1/2 - delta), got {eta}")
    if int(K) != K or K < 2:
        errs.append(f"K must be an integer >= 2, got {K}")
    if int(m) != m or m < 3:
        errs.append(f"m must be an integer >= 3, got {m}")
    elif not 1.0 / (2 * m - 3) < sigma < 0.5:
        errs.append(f"sigma must lie in (1/(2m-3), 1/2) = "
                    f"({1.0 / (2 * m - 3):.4f}, 0.5), got {sigma}")
    if not small_eps > 0:
        errs.append(f"small_eps must be positive, got {small_eps}")
    return errs


@dataclass(frozen=True)
class Params:
    """Physical and truncation parameters.

    ``nu`` scales the vertical viscosity (1 -> isotropic Navier-Stokes,
    0 -> horizontal viscosity only, (ANS)); ``N`` is the base azimuthal
    wavenumber; ``K`` the number of retained harmonics; ``delta``/``eta``
    the initial amplitude and decay-rate exponents; ``m``/``sigma`` the
    vertical regularity order and harmonic decay exponent used by the
    anisotropic functionals; ``small_eps`` the smallness threshold for
    data checks.  The ranges are those of :func:`param_problems`.
    """

    nu: float
    N: int
    delta: float
    eta: float
    K: int
    m: int = 3
    sigma: float = 0.4
    small_eps: float = 0.1

    def __post_init__(self):
        raise_problems(param_problems(self.nu, self.N, self.delta, self.eta,
                                      self.K, self.m, self.sigma,
                                      self.small_eps))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "m", int(self.m))


@dataclass
class InitProfile:
    """Six-component meridional profile ``alpha`` on a shared grid."""

    grid: CylGrid
    a_r: np.ndarray
    a_th: np.ndarray
    a_z: np.ndarray
    b_r: np.ndarray
    b_th: np.ndarray
    b_z: np.ndarray

    def fields(self) -> tuple[np.ndarray, ...]:
        return (self.a_r, self.a_th, self.a_z, self.b_r, self.b_th, self.b_z)

    def norms_dz(self, j_max: int) -> np.ndarray:
        """L2 norms over the solid cylinder of the vertical derivatives of
        order j = 0..j_max, from one diagnostics pass over the six
        components taken as a mean row (``theta = 2 pi``)."""
        ms = measure_modes(self.grid, np.stack(self.fields())[None], [0.0],
                           j_max=j_max)
        return np.sqrt(ms.theta * ms.inst[:, 0])

    def scaled(self, factor: float) -> "InitProfile":
        return InitProfile(self.grid, *(factor * f for f in self.fields()))


def make_profile_divfree(grid: CylGrid, a_r: np.ndarray, a_z: np.ndarray,
                         b_r: np.ndarray, b_z: np.ndarray) -> InitProfile:
    """Complete four free components to a divergence-free profile.

    The azimuthal components are solved from the two profile divergence
    constraints:

        b_th = -r (dr a_r + a_r / r + dz a_z)
        a_th = +r (dr b_r + b_r / r + dz b_z)

    so both constraints hold exactly at the collocation nodes.  The four
    inputs must vanish at r = 1.  Note that the derived azimuthal
    components vanish at r = 1 only when ``dr a_r`` and ``dr b_r`` do;
    profiles intended as solver initial data need a double zero of the
    radial components at the wall (see :func:`make_initial_state`).
    """
    for name, f in (("a_r", a_r), ("a_z", a_z), ("b_r", b_r), ("b_z", b_z)):
        scale = np.abs(f).max()
        if scale > 0 and np.abs(f[-1]).max() > 1e-12 * scale:
            raise ValueError(f"profile component {name} does not vanish at r = 1")
    r = grid.r[:, None]
    b_th = -r * (grid.dr(a_r) + a_r / r + grid.dz(a_z))
    a_th = r * (grid.dr(b_r) + b_r / r + grid.dz(b_z))
    return InitProfile(grid, a_r=a_r, a_th=a_th, a_z=a_z,
                       b_r=b_r, b_th=b_th, b_z=b_z)


def poloidal_profile(grid: CylGrid, amplitude: float,
                     z_waves: int = 1) -> InitProfile:
    """The poloidal start profile: ``a_r = A r (1 - r^2)^2 sin(q z)`` and
    ``a_z = A r (1 - r^2)^2 cos(q z)`` with ``q = 2 pi z_waves / L_z``, no
    ``b`` components, completed by :func:`make_profile_divfree`.

    The ``r`` factor keeps every component zero on the axis, as data on a
    nonzero azimuthal harmonic must be, and the radial component has the
    double zero at the wall that :func:`make_initial_state` asks for.
    """
    r = grid.r
    env = amplitude * r * (1.0 - r**2) ** 2
    q = 2.0 * math.pi * z_waves / grid.L_z
    a_r = env[:, None] * np.sin(q * grid.z)[None, :]
    a_z = env[:, None] * np.cos(q * grid.z)[None, :]
    zero = np.zeros_like(a_r)
    return make_profile_divfree(grid, a_r, a_z, zero, zero)


@dataclass
class ModeState:
    """All retained coefficient fields at one time: ``u`` is
    ``(K+1, 6, n_r, n_z)`` and ``p`` is ``(K+1, 2, n_r, n_z)``."""

    grid: CylGrid
    params: Params
    t: float
    u: np.ndarray
    p: np.ndarray

    @classmethod
    def zeros(cls, grid: CylGrid, params: Params, t: float = 0.0) -> "ModeState":
        n = params.K + 1
        return cls(grid, params, t, np.zeros((n, 6, grid.n_r, grid.n_z)),
                   np.zeros((n, 2, grid.n_r, grid.n_z)))

    def copy(self) -> "ModeState":
        return ModeState(self.grid, self.params, self.t, self.u.copy(),
                         self.p.copy())

    def mode_l2_sq(self, k: int, j: int = 0) -> float:
        """Squared L2 norm over the solid cylinder of ``dz^j`` of harmonic k."""
        return mode_energy(self.grid, self.u[k], k * self.params.N, j)

    def total_l2_sq(self) -> float:
        return measure_state(self, 0).total_l2_sq()


def make_initial_state(profile: InitProfile, params: Params) -> ModeState:
    """Mode-1 initial data from a divergence-free profile.

    All six resulting mode-1 fields must vanish at r = 1 (the azimuthal
    ones inherit this only from profiles whose radial components have a
    double zero at the wall); violations raise.
    """
    g = profile.grid
    state = ModeState.zeros(g, params, t=0.0)
    N = params.N
    amp = float(N) ** params.delta
    m1 = state.u[1]
    m1[UR] = amp * profile.a_r
    m1[VTH] = amp * (profile.b_th / N)
    m1[UZ] = amp * profile.a_z
    m1[VR] = amp * profile.b_r
    m1[UTH] = amp * (profile.a_th / N)
    m1[VZ] = amp * profile.b_z
    scale = np.abs(m1).max() or 1.0
    for name, f in zip(FIELD_ORDER, m1):
        if np.abs(f[-1]).max() > 1e-10 * scale:
            raise ValueError(
                f"mode-1 field {name} does not vanish at r = 1; radial "
                "profile components need a double zero at the wall"
            )
    return state


def make_random_divfree_state(grid: CylGrid, params: Params, seed: int = 0,
                              amplitude: float = 1.0, n_z_harmonics: int = 2,
                              roughness: float | None = 4.5) -> ModeState:
    """Random mode state whose discrete divergence vanishes node-wise.

    Each z-harmonic of each family is assembled from random radial profiles
    for the radial and azimuthal components; the axial component is then
    built from the discrete radial derivative of those profiles, so the
    divergence of every family cancels exactly at the nodes (up to rounding)
    instead of relying on a projection solve.  All fields vanish at the wall
    through a double-zero envelope.

    ``roughness`` blends in a factor ``|r - r0|**roughness`` with a random
    interior kink point r0.  That caps the radial regularity of the state,
    which keeps quadrature-based identity residuals above the rounding floor
    on coarse grids and makes them decrease under radial refinement; pass
    None for fully smooth profiles.
    """
    rng = np.random.default_rng(seed)
    g = grid
    r = g.r
    D = g.D_r
    zeta = 2.0 * math.pi / g.L_z
    n_h = min(max(n_z_harmonics, 0), g.n_z // 2 - 1)
    env = (1.0 - r**2) ** 2

    def prof(with_r: bool = True) -> np.ndarray:
        c = rng.uniform(-1.0, 1.0, 5)
        base = env * (c[0] + c[1] * r + c[2] * r * r)
        if roughness is not None:
            r0 = rng.uniform(0.3, 0.7)
            base = base * (1.0 + c[3] * np.abs(r - r0) ** roughness)
        else:
            base = base * np.exp(0.5 * c[3] * r)
        return r * base if with_r else base

    def harm(n: int) -> tuple[np.ndarray, np.ndarray]:
        # returns (f, F) with dF/dz = -f, both resolved z-harmonics
        a, b = rng.uniform(-1.0, 1.0, 2)
        f = a * np.cos(n * zeta * g.z) + b * np.sin(n * zeta * g.z)
        F = (b * np.cos(n * zeta * g.z) - a * np.sin(n * zeta * g.z)) / (n * zeta)
        return f, F

    state = ModeState.zeros(grid, params)
    col = np.newaxis
    families = ((UR, VTH, UZ, 1.0), (VR, UTH, VZ, -1.0))
    for k in range(params.K + 1):
        m = state.u[k]
        if k == 0:
            for n in range(1, n_h + 1):
                f, F = harm(n)
                psi = prof()
                m[UR] += psi[:, col] * f[col, :]
                xi = D @ psi + psi / r
                m[UZ] += xi[:, col] * F[col, :]
                m[UTH] += prof()[:, col] * harm(n)[0][col, :]
            m[UZ] += prof()[:, col]
            m[UTH] += prof()[:, col]
            continue
        kN = k * params.N
        # the cosine and sine families differ only in the swirl sign
        for n in range(1, n_h + 1):
            for rad, th, ax, sign in families:
                f, F = harm(n)
                psi, chi = prof(), prof(with_r=False)
                m[rad] += psi[:, col] * f[col, :]
                m[th] += (r * chi)[:, col] * f[col, :]
                xi = D @ psi + psi / r + sign * kN * chi
                m[ax] += xi[:, col] * F[col, :]
        # z-independent content: the azimuthal component absorbs the
        # radial divergence, the axial component is free
        for rad, th, ax, sign in families:
            psi = prof()
            m[rad] += psi[:, col]
            m[th] += (-sign * r * (D @ psi + psi / r) / kN)[:, col]
            m[ax] += prof()[:, col]
    peak = np.abs(state.u).max()
    if peak > 0.0:
        state.u *= amplitude / peak
    return state


# -- divergence diagnostics --------------------------------------------------

def divergence_residual(state: ModeState) -> np.ndarray:
    """Per-harmonic divergence residual, normalized by the mode H1 scale.

    The scale is ``||u|| + ||grad u|| + k_eff ||u / r||`` in plain meridional
    L2 norms; a zero harmonic reports zero residual.
    """
    return measure_state(state, 0).divergence_residual()


# -- checkpoints -------------------------------------------------------------

def _checkpoint_body(state: ModeState) -> list[np.ndarray]:
    """The documented field order as four blocks: the mean's three
    velocity fields, every harmonic's six, ``P_0``, every ``(P_k, Q_k)``."""
    return [state.u[0, MEAN_SLOTS], state.u[1:], state.p[0, P], state.p[1:]]


def save_checkpoint(state: ModeState, path: str) -> None:
    """Write a checkpoint atomically.

    The bytes go to ``path + ".tmp"`` in the same directory, which then
    replaces ``path``; a write that fails partway leaves the previous
    checkpoint as it was.
    """
    g = state.grid
    p = state.params
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<4I", g.n_r, g.n_z, p.K, p.N))
            fh.write(struct.pack("<5d", g.L_z, state.t, p.nu, p.delta, p.eta))
            for block in _checkpoint_body(state):
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str, params: Params | None = None) -> ModeState:
    """Read a checkpoint.

    The header carries the grid size and the dynamical parameters
    ``(N, K, nu, delta, eta)``; the remaining functional parameters come
    from ``params`` when given (after a consistency check) and default
    otherwise.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = raw[:8]
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    n_r, n_z, K, N = struct.unpack_from("<4I", raw, 8)
    L_z, t, nu, delta, eta = struct.unpack_from("<5d", raw, 24)
    if params is None:
        params = Params(nu=nu, N=N, delta=delta, eta=eta, K=K)
    else:
        hdr = dict(nu=nu, N=N, delta=delta, eta=eta, K=K)
        got = dict(nu=params.nu, N=params.N, delta=params.delta,
                   eta=params.eta, K=params.K)
        if hdr != got:
            raise ValueError(f"checkpoint header {hdr} conflicts with params {got}")
    grid = build_grid(n_r, n_z, L_z)
    state = ModeState.zeros(grid, params, t=t)
    n = n_r * n_z
    end = 64 + 8 * n * (8 * K + 4)  # header: magic, 4 uint32, 5 float64
    if len(raw) != end:
        raise ValueError("trailing bytes in checkpoint" if len(raw) > end
                         else "truncated checkpoint")
    body = np.frombuffer(raw, dtype="<f8", offset=64)
    mean, harmonics, p0, pq = np.split(body, np.cumsum([3 * n, 6 * K * n, n]))
    state.u[0, MEAN_SLOTS] = mean.reshape(3, n_r, n_z)
    state.u[1:] = harmonics.reshape(state.u[1:].shape)
    state.p[0, P] = p0.reshape(n_r, n_z)
    state.p[1:] = pq.reshape(state.p[1:].shape)
    return state
