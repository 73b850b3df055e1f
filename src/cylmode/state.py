"""Physical parameters, initial profiles, mode states and checkpoints.

A mode state holds the azimuthal coefficient fields of

    u = u_0 + sum_k ( u_k cos(k N theta) + v_k sin(k N theta) ),   1 <= k <= K,

for each cylindrical velocity component.  The cosine family of harmonic k
couples ``(u_r, v_th, u_z)`` with pressure coefficient ``P_k`` and the sine
family couples ``(v_r, u_th, v_z)`` with ``Q_k``; the mean mode carries
``(u_r0, u_th0, u_z0)`` and ``P_0``.  Initial data lives on harmonic k = 1
only and is built from a six-component divergence-free profile
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

import io
import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import CylGrid, build_grid, SCHEME_CHEBYSHEV, THETA_FULL, THETA_HALF

CHECKPOINT_MAGIC = b"CYLMODE1"

# order of the six per-harmonic velocity fields everywhere in the package
FIELD_ORDER = ("ur", "vth", "uz", "vr", "uth", "vz")
MEAN_FIELD_ORDER = ("ur", "uth", "uz")


@dataclass(frozen=True)
class Params:
    """Physical and truncation parameters.

    ``nu`` switches horizontal viscosity (1 -> isotropic Navier-Stokes,
    0 -> vertical viscosity only); ``N`` is the base azimuthal wavenumber;
    ``K`` the number of retained harmonics; ``delta``/``eta`` the initial
    amplitude and decay-rate exponents; ``m``/``sigma`` the vertical
    regularity order and harmonic decay exponent used by the anisotropic
    functionals; ``small_eps`` the smallness threshold for data checks.
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
        errs = []
        if self.nu not in (0.0, 1.0) and not (0.0 <= self.nu <= 1.0):
            errs.append(f"nu must lie in [0, 1], got {self.nu}")
        if int(self.N) != self.N or self.N < 2:
            errs.append(f"N must be an integer >= 2, got {self.N}")
        if not (0.0 <= self.delta < 0.25):
            errs.append(f"delta must lie in [0, 1/4), got {self.delta}")
        if not (0.0 <= self.eta < 0.5 - self.delta):
            errs.append(f"eta must lie in [0, 1/2 - delta), got {self.eta}")
        if int(self.K) != self.K or self.K < 2:
            errs.append(f"K must be an integer >= 2, got {self.K}")
        if int(self.m) != self.m or self.m < 3:
            errs.append(f"m must be an integer >= 3, got {self.m}")
        if not (1.0 / (2 * self.m - 3) < self.sigma < 0.5):
            errs.append(
                f"sigma must lie in (1/(2m-3), 1/2) = "
                f"({1.0 / (2 * self.m - 3):.4f}, 0.5), got {self.sigma}"
            )
        if not self.small_eps > 0:
            errs.append(f"small_eps must be positive, got {self.small_eps}")
        if errs:
            raise ValueError("; ".join(errs))
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

    def norm_dz(self, j: int) -> float:
        """L2 norm over the solid cylinder of the j-th vertical derivative."""
        g = self.grid
        s = sum(g.quad(g.dz_pow(f, j) ** 2) for f in self.fields())
        return math.sqrt(THETA_FULL * s)

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


@dataclass
class ModeVelocity:
    """Velocity coefficient fields of one azimuthal harmonic.

    For k = 0 the sine-family fields (vr, vth, vz) are identically zero and
    are kept only so that every harmonic exposes the same six attributes.
    """

    k: int
    ur: np.ndarray
    vth: np.ndarray
    uz: np.ndarray
    vr: np.ndarray
    uth: np.ndarray
    vz: np.ndarray

    @classmethod
    def zeros(cls, k: int, shape: tuple[int, int]) -> "ModeVelocity":
        return cls(k, *(np.zeros(shape) for _ in range(6)))

    def fields(self) -> tuple[np.ndarray, ...]:
        return (self.ur, self.vth, self.uz, self.vr, self.uth, self.vz)

    def set_fields(self, arrays) -> None:
        self.ur, self.vth, self.uz, self.vr, self.uth, self.vz = arrays

    def copy(self) -> "ModeVelocity":
        return ModeVelocity(self.k, *(f.copy() for f in self.fields()))


@dataclass
class ModePressure:
    """Pressure coefficients of one harmonic (Q is zero for k = 0)."""

    k: int
    P: np.ndarray
    Q: np.ndarray

    @classmethod
    def zeros(cls, k: int, shape: tuple[int, int]) -> "ModePressure":
        return cls(k, np.zeros(shape), np.zeros(shape))

    def copy(self) -> "ModePressure":
        return ModePressure(self.k, self.P.copy(), self.Q.copy())


@dataclass
class ModeState:
    """All retained coefficient fields at one time."""

    grid: CylGrid
    params: Params
    t: float
    modes: list[ModeVelocity]
    pressures: list[ModePressure]

    @classmethod
    def zeros(cls, grid: CylGrid, params: Params, t: float = 0.0) -> "ModeState":
        shape = (grid.n_r, grid.n_z)
        return cls(grid, params, t,
                   [ModeVelocity.zeros(k, shape) for k in range(params.K + 1)],
                   [ModePressure.zeros(k, shape) for k in range(params.K + 1)])

    def copy(self) -> "ModeState":
        return ModeState(self.grid, self.params, self.t,
                         [m.copy() for m in self.modes],
                         [p.copy() for p in self.pressures])

    def mode(self, k: int) -> ModeVelocity:
        return self.modes[k]

    def mode_l2_sq(self, k: int, j: int = 0) -> float:
        """Squared L2 norm over the solid cylinder of ``dz^j`` of harmonic k.

        Integrating the reconstruction over theta turns ``cos**2``/``sin**2``
        into the factor pi for k >= 1 and 2 pi for the mean.
        """
        g = self.grid
        m = self.modes[k]
        fields = m.fields() if k > 0 else (m.ur, m.uth, m.uz)
        s = sum(g.quad(g.dz_pow(f, j) ** 2) for f in fields)
        return (THETA_HALF if k > 0 else THETA_FULL) * s

    def total_l2_sq(self) -> float:
        return sum(self.mode_l2_sq(k) for k in range(self.params.K + 1))


def make_initial_state(profile: InitProfile, params: Params,
                       check_boundary: bool = True) -> ModeState:
    """Mode-1 initial data from a divergence-free profile.

    All six resulting mode-1 fields must vanish at r = 1 (the azimuthal
    ones inherit this only from profiles whose radial components have a
    double zero at the wall); violations raise unless ``check_boundary``
    is disabled for diagnostic states.
    """
    g = profile.grid
    state = ModeState.zeros(g, params, t=0.0)
    N = params.N
    amp = float(N) ** params.delta
    m1 = state.modes[1]
    m1.ur = amp * profile.a_r.copy()
    m1.vth = amp * (profile.b_th / N)
    m1.uz = amp * profile.a_z.copy()
    m1.vr = amp * profile.b_r.copy()
    m1.uth = amp * (profile.a_th / N)
    m1.vz = amp * profile.b_z.copy()
    if check_boundary:
        scale = max(np.abs(f).max() for f in m1.fields()) or 1.0
        for name, f in zip(FIELD_ORDER, m1.fields()):
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
    for k in range(params.K + 1):
        m = state.modes[k]
        if k == 0:
            for n in range(1, n_h + 1):
                f, F = harm(n)
                psi = prof()
                m.ur = m.ur + psi[:, col] * f[col, :]
                xi = D @ psi + psi / r
                m.uz = m.uz + xi[:, col] * F[col, :]
                m.uth = m.uth + prof()[:, col] * harm(n)[0][col, :]
            m.uz = m.uz + prof()[:, col]
            m.uth = m.uth + prof()[:, col]
            continue
        kN = k * params.N
        for n in range(1, n_h + 1):
            f, F = harm(n)
            psi, chi = prof(), prof(with_r=False)
            m.ur = m.ur + psi[:, col] * f[col, :]
            m.vth = m.vth + (r * chi)[:, col] * f[col, :]
            xi = D @ psi + psi / r + kN * chi
            m.uz = m.uz + xi[:, col] * F[col, :]
            f2, F2 = harm(n)
            psi2, chi2 = prof(), prof(with_r=False)
            m.vr = m.vr + psi2[:, col] * f2[col, :]
            m.uth = m.uth + (r * chi2)[:, col] * f2[col, :]
            xi2 = D @ psi2 + psi2 / r - kN * chi2
            m.vz = m.vz + xi2[:, col] * F2[col, :]
        # z-independent content: the azimuthal component absorbs the
        # radial divergence, the axial component is free
        psi = prof()
        m.ur = m.ur + psi[:, col]
        m.vth = m.vth + (-r * (D @ psi + psi / r) / kN)[:, col]
        m.uz = m.uz + prof()[:, col]
        psi2 = prof()
        m.vr = m.vr + psi2[:, col]
        m.uth = m.uth + (r * (D @ psi2 + psi2 / r) / kN)[:, col]
        m.vz = m.vz + prof()[:, col]
    peak = max(np.abs(f).max() for k in range(params.K + 1)
               for f in state.modes[k].fields())
    if peak > 0.0:
        scale = amplitude / peak
        for k in range(params.K + 1):
            m = state.modes[k]
            m.set_fields(tuple(scale * f for f in m.fields()))
    return state


# -- divergence diagnostics --------------------------------------------------

def mode_divergence(grid: CylGrid, mode: ModeVelocity, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise divergence residuals of the two families of a harmonic."""
    r = grid.r[:, None]
    k = mode.k
    if k == 0:
        div_a = grid.dr(mode.ur) + mode.ur / r + grid.dz(mode.uz)
        return div_a, np.zeros_like(div_a)
    kN = k * N
    div_a = grid.dr(mode.ur) + mode.ur / r + grid.dz(mode.uz) + kN * mode.vth / r
    div_b = grid.dr(mode.vr) + mode.vr / r + grid.dz(mode.vz) - kN * mode.uth / r
    return div_a, div_b


def divergence_residual(state: ModeState) -> np.ndarray:
    """Per-harmonic divergence residual, normalized by the mode H1 scale.

    The scale is ``||u|| + ||grad u|| + k_eff ||u / r||`` in plain meridional
    L2 norms; a zero harmonic reports zero residual.
    """
    g = state.grid
    r = g.r[:, None]
    out = np.zeros(state.params.K + 1)
    for k in range(state.params.K + 1):
        m = state.modes[k]
        div_a, div_b = mode_divergence(g, m, state.params.N)
        res = math.sqrt(max(g.quad(div_a**2) + g.quad(div_b**2), 0.0))
        fields = m.fields() if k > 0 else (m.ur, m.uth, m.uz)
        l2 = math.sqrt(sum(g.quad(f**2) for f in fields))
        if l2 == 0.0:
            out[k] = 0.0
            continue
        h1 = math.sqrt(sum(g.quad(g.dr(f) ** 2) + g.quad(g.dz(f) ** 2) for f in fields))
        over_r = math.sqrt(sum(g.quad((f / r) ** 2) for f in fields))
        k_eff = max(k * state.params.N, 1)
        out[k] = res / (l2 + h1 + k_eff * over_r)
    return out


def reconstruct_point(state: ModeState, r_pt: float, theta: float, z_pt: float) -> np.ndarray:
    """Velocity vector ``(u_r, u_th, u_z)`` at one physical point."""
    g = state.grid
    N = state.params.N
    m0 = state.modes[0]
    vals = np.array([g.interp(m0.ur, r_pt, z_pt),
                     g.interp(m0.uth, r_pt, z_pt),
                     g.interp(m0.uz, r_pt, z_pt)])
    for k in range(1, state.params.K + 1):
        m = state.modes[k]
        c, s = math.cos(k * N * theta), math.sin(k * N * theta)
        vals[0] += c * g.interp(m.ur, r_pt, z_pt) + s * g.interp(m.vr, r_pt, z_pt)
        vals[1] += c * g.interp(m.uth, r_pt, z_pt) + s * g.interp(m.vth, r_pt, z_pt)
        vals[2] += c * g.interp(m.uz, r_pt, z_pt) + s * g.interp(m.vz, r_pt, z_pt)
    return vals


# -- checkpoints -------------------------------------------------------------

def _state_field_sequence(state: ModeState):
    for k in range(state.params.K + 1):
        m = state.modes[k]
        if k == 0:
            yield from (m.ur, m.uth, m.uz)
        else:
            yield from m.fields()
    for k in range(state.params.K + 1):
        p = state.pressures[k]
        if k == 0:
            yield p.P
        else:
            yield p.P
            yield p.Q


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
            for arr in _state_field_sequence(state):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str, params: Params | None = None,
                    scheme: str = SCHEME_CHEBYSHEV) -> ModeState:
    """Read a checkpoint.

    The header carries the grid size and the dynamical parameters
    ``(N, K, nu, delta, eta)``; the remaining functional parameters come
    from ``params`` when given (after a consistency check) and default
    otherwise.  The radial scheme is not part of the format and must be
    supplied for non-default grids.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    buf = io.BytesIO(raw)
    magic = buf.read(8)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    n_r, n_z, K, N = struct.unpack("<4I", buf.read(16))
    L_z, t, nu, delta, eta = struct.unpack("<5d", buf.read(40))
    if params is None:
        params = Params(nu=nu, N=N, delta=delta, eta=eta, K=K)
    else:
        hdr = dict(nu=nu, N=N, delta=delta, eta=eta, K=K)
        got = dict(nu=params.nu, N=params.N, delta=params.delta,
                   eta=params.eta, K=params.K)
        if hdr != got:
            raise ValueError(f"checkpoint header {hdr} conflicts with params {got}")
    grid = build_grid(n_r, n_z, L_z, scheme)
    state = ModeState.zeros(grid, params, t=t)
    count = (n_r * n_z) * 8

    def read_field():
        arr = np.frombuffer(buf.read(count), dtype="<f8").reshape(n_r, n_z)
        return arr.copy()

    for k in range(K + 1):
        m = state.modes[k]
        if k == 0:
            m.ur, m.uth, m.uz = read_field(), read_field(), read_field()
        else:
            m.set_fields([read_field() for _ in range(6)])
    for k in range(K + 1):
        p = state.pressures[k]
        p.P = read_field()
        if k > 0:
            p.Q = read_field()
    if buf.read(1):
        raise ValueError("trailing bytes in checkpoint")
    return state
