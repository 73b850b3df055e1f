"""One derivative-and-quadrature pass over the harmonics of a mode state.

Every run diagnostic is a per-harmonic sum of quadratic forms of the
coefficient fields and their first derivatives: energies and vertical
Sobolev norms, the dissipation channels, the ``1/r`` potential and swirl
cross terms, the divergence residual and the pressure work.  The pass
reads the harmonics as one ``(M, 6, n_r, n_z)`` velocity array in the slot
order ``(ur, vth, uz, vr, uth, vz)``, with an ``(M, 2, n_r, n_z)``
pressure array ``(P, Q)`` appended when given; the mean mode's sine slots
and its ``Q`` are zero, so one formula serves every harmonic.  All
vertical derivatives come from one broadcast product with the grid's
spectral differentiation matrices, all radial ones from one broadcast
``D_r`` product, and each form is one weighted contraction over ``r`` and
``z``.  No reduction sums across harmonics, so a harmonic far below the
leading one keeps its own relative accuracy.

The vertical matrices are ``CylGrid.dz_pow`` and ``CylGrid.dz`` applied to
the identity, so they follow the grid's Nyquist rule (``grid`` module
docstring); the ``dz`` of an order-j field carries the first-order symbol
on top of order j's.  Order 0 is the field itself, ``dz dz^j`` is built
only for the orders ``j <= 1`` whose vertical gradient a reader reads, and
``dz^1`` is the same matrix as ``dz dz^0``, so only the distinct matrices
are applied: ``j_max + 1`` products.  At the grid sizes used here a
product with a dense ``n_z x n_z`` matrix is several times faster than an
rfft / irfft round trip over the stack.

A pass over a whole state can fill its stacks in a ``StepWorkspace``, the
scratch memory that one trajectory's steps share with the quadratic
kernel.  Nothing a pass returns lives there: ``ModeMeasures.dr_u``, the
radial derivatives of the velocity slots that the next step's quadratic
term reads, is a fresh array per pass.

``ModeMeasures`` stores the forms as plain meridional quadratures; its
readers that report norms over the solid cylinder fold in the azimuthal
measure ``theta`` (``2 pi`` for the mean, ``pi`` for a harmonic).
``energy_ledger`` is the one formula of the discrete energy identity over
a step, for the run's energy budget and the single-harmonic Stokes check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import CylGrid, THETA_FULL, THETA_HALF, spectral_symbol

#: slot indices of the six velocity fields in ``ModeState.u``
UR, VTH, UZ, VR, UTH, VZ = range(6)
#: slot indices of the two pressures in ``ModeState.p``
P, Q = range(2)


def inner_quad(grid: CylGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_s quad(a_s b_s)`` per harmonic of two ``(M, S, n_r, n_z)``
    stacks."""
    return np.einsum("msrz,msrz->mr", a, b) @ grid.w_r * grid.dz_weight


class StepWorkspace:
    """Scratch memory of one trajectory's quadratic kernel and diagnostics
    pass.

    The two never run at the same time, so every call lays its arrays end
    to end from the start of one block.  The block grows to the largest
    call and then stays: its size follows from the ``(K, n_r, n_z)`` of the
    states it serves, so after a trajectory's first step no call allocates
    scratch.  A call overwrites the arrays of the call before it, so
    nothing a caller keeps may live here.
    """

    def __init__(self):
        self._block = np.empty(0)
        self._views: dict = {}

    def arrays(self, *specs) -> list[np.ndarray]:
        """Uninitialised arrays of the given ``(shape, dtype)`` pairs."""
        views = self._views.get(specs)
        if views is None:
            sizes = [math.prod(shape) * np.dtype(dtype).itemsize
                     for shape, dtype in specs]
            # each array starts on a 64-byte boundary of the block
            starts = np.cumsum([0] + [-(-size // 64) * 64 for size in sizes])
            if starts[-1] > self._block.nbytes:
                self._block = np.empty(int(starts[-1]) // 8)
                self._views.clear()
            raw = self._block.view(np.uint8)
            views = self._views[specs] = [
                raw[start:start + size].view(dtype).reshape(shape)
                for (shape, dtype), size, start in zip(specs, sizes, starts)]
        return views


def _rows(rows: list[int]):
    """A slice for a run of consecutive rows, else the row list."""
    consecutive = list(range(rows[0], rows[-1] + 1))
    return slice(rows[0], rows[-1] + 1) if rows == consecutive else rows


@functools.lru_cache(maxsize=8)
def _vertical_operators(n: int, L_z: float, j_max: int):
    """The distinct matrices that right-multiply a field on ``n`` vertical
    nodes to give ``dz^j`` for j = 0..j_max and ``dz dz^j`` for
    j <= min(j_max, 1), the only orders whose vertical gradient is read,
    and where each of those lands in the product stack ``[f, f @ ops[0],
    f @ ops[1], ...]``: ``dz^j f`` is row ``val_rows[j]`` and ``dz dz^j f``
    row ``dz_rows[j]``.

    The matrices are the grid's spectral symbols applied to the identity
    (read-only): ``dz^j`` multiplies by ``spectral_symbol(.., j)`` and
    ``dz dz^j`` by that times the first-order symbol.  Order 0 is row 0,
    the field itself, and equal multipliers share a row: ``dz dz^0`` is
    ``dz^1``.  So ``j_max = 0, 1, 2, 3, 4`` take 1, 2, 3, 4, 5 products.
    The rows are a slice when consecutive, as for ``j_max <= 1``.
    """
    vals = [spectral_symbol(n, L_z, j) for j in range(j_max + 1)]
    dz = spectral_symbol(n, L_z, 1)
    mults = [vals[0]]  # order 0: row 0 is the field itself

    def row(mult):
        for i, known in enumerate(mults):
            if np.array_equal(known, mult):
                return i
        mults.append(mult)
        return len(mults) - 1

    val_rows = [row(mult) for mult in vals]
    dz_rows = [row(dz * mult) for mult in vals[:2]]
    ops = np.fft.irfft(np.fft.rfft(np.eye(n)) * np.array(mults[1:])[:, None],
                       n=n)
    ops.flags.writeable = False
    return ops, _rows(val_rows), _rows(dz_rows)


@dataclass(frozen=True)
class ModeMeasures:
    """Quadratic forms of M harmonics from one derivative pass.

    Arrays indexed ``[j, i]`` hold vertical derivative order
    ``j = 0..j_max`` of harmonic row i, except ``dz_sq``, which holds only
    ``j <= min(j_max, 1)``; the others are order 0.  With ``f_j = dz^j f``
    and sums over the velocity slots of a row:

    - ``inst``: ``sum quad(f_j^2)``; ``dr_sq``/``dz_sq``: the same of
      ``dr f_j``/``dz f_j``; ``over_r``: ``quad((f_j / r)^2)`` per slot;
    - ``cross``: ``quad((vr uth - ur vth) / r^2)``; ``div_sq``: ``quad`` of
      the squared divergence of both families; ``press``: the pressure
      work ``quad(dr P ur + dz P uz - kap P vth / r + dr Q vr + dz Q vz
      + kap Q uth / r)``, zero when the pass had no pressures;
    - ``dr_u``: the ``(M, 6, n_r, n_z)`` radial derivatives of the velocity
      slots, order 0, in a fresh array of this pass.
    """

    j_max: int
    mean: np.ndarray
    k_eff: np.ndarray
    inst: np.ndarray
    dr_sq: np.ndarray
    dz_sq: np.ndarray
    over_r: np.ndarray
    cross: np.ndarray
    div_sq: np.ndarray
    press: np.ndarray
    dr_u: np.ndarray

    @property
    def theta(self) -> np.ndarray:
        return np.where(self.mean, THETA_FULL, THETA_HALF)

    def energy(self, j: int = 0) -> np.ndarray:
        """Squared L2 norms over the solid cylinder of ``dz^j`` per row."""
        return self.theta * self.inst[j]

    def total_l2_sq(self) -> float:
        return float(sum(self.energy()))

    def pressure_work(self) -> np.ndarray:
        return self.theta * self.press

    def divergence_residual(self) -> np.ndarray:
        """Divergence norm over ``||u|| + ||grad u|| + max(kap, 1) ||u/r||``
        per row, in plain meridional norms; a zero harmonic reports 0."""
        scale = (np.sqrt(self.inst[0]) + np.sqrt(self.dr_sq[0] + self.dz_sq[0])
                 + np.maximum(self.k_eff, 1)
                 * np.sqrt(self.over_r[0].sum(axis=-1)))
        res = np.sqrt(np.maximum(self.div_sq, 0.0))
        nonzero = self.inst[0] != 0.0
        return np.divide(res, scale, out=np.zeros_like(res), where=nonzero)

    def quadform_terms(self, nu: float) -> dict[str, np.ndarray]:
        """Pieces of the discrete mode energy identity, theta folded in.

        ``grad`` is ``||dr u||^2 + nu^2 ||dz u||^2``; ``pot`` the weighted
        ``1/r`` terms ``kap^2 ||u/r||^2`` plus the four swirl-coupled slots;
        ``cross`` is ``4 kap (<vr/r, uth/r> - <ur/r, vth/r>)``; at
        ``kap = 0`` the mean's zero sine slots leave ``pot`` its
        ``(ur, uth) / r`` pair and ``cross`` zero.  ``dissipation`` is the
        coercive part ``grad`` plus the mean's ``pot`` or
        ``(kap - 1)^2 ||u/r||^2``, which differ at ``kap = 0`` by
        ``||uz/r||^2``.  The identity reads ``grad + pot - cross``.
        """
        over = self.over_r[0]
        total = over.sum(axis=-1)
        pair = over[:, UR] + over[:, UTH]
        kap = self.k_eff
        grad = self.dr_sq[0] + nu**2 * self.dz_sq[0]
        pot = kap**2 * total + pair + over[:, VTH] + over[:, VR]
        cross = 4.0 * kap * self.cross
        diss = grad + np.where(self.mean, pair, (kap - 1.0) ** 2 * total)
        theta = self.theta
        return {"grad": theta * grad, "pot": theta * pot,
                "cross": theta * cross, "dissipation": theta * diss}


def energy_ledger(e_old, after: ModeMeasures, nu: float, dt: float,
                  transfer=0.0) -> tuple[np.ndarray, ...]:
    """Per-row budget columns ``energy, dissipation_r, dissipation_z,
    weighted_r, transfer, pressure_work, imbalance`` of one step, from the
    pre-step energies, the post-step pass with pressure and the explicit
    forcing work.  The imbalance ``E_new - E_old + 2 dt (dissipation +
    pressure work - transfer)`` of an unforced backward-Euler step is
    minus the scheme's damping ``E(u_new - u_old)``, up to round-off."""
    theta = after.theta
    terms = after.quadform_terms(nu)
    diss_r = theta * after.dr_sq[0]
    diss_z = theta * nu**2 * after.dz_sq[0]
    weighted = terms["pot"] - terms["cross"]
    pw = after.pressure_work()
    e_new = after.energy()
    imbalance = (e_new - e_old
                 + 2.0 * dt * (diss_r + diss_z + weighted + pw - transfer))
    return e_new, diss_r, diss_z, weighted, transfer, pw, imbalance


def measure_modes(grid: CylGrid, u: np.ndarray, k_eff, p=None,
                  j_max: int = 1, ws: StepWorkspace | None = None
                  ) -> ModeMeasures:
    """One pass over the ``(M, 6, n_r, n_z)`` velocity array ``u`` with
    effective azimuthal wavenumbers ``k_eff`` (0 marks a mean row) and,
    optionally, the ``(M, 2, n_r, n_z)`` pressures ``p``; the derivative
    stacks live in ``ws`` when given."""
    kap = np.asarray(k_eff, dtype=float)
    inv_r = 1.0 / grid.r[:, None]
    wq = grid.w_r * grid.dz_weight
    wq_r, wq_r2 = wq / grid.r, wq / grid.r**2

    ops, val_rows, dz_rows = _vertical_operators(grid.n_z, grid.L_z, j_max)
    shape = (len(u), 6 if p is None else 8, grid.n_r, grid.n_z)
    zd, drs = (ws or StepWorkspace()).arrays(
        ((1 + len(ops),) + shape, float), ((j_max + 1,) + shape, float))
    zd[0, :, :6] = u
    if p is not None:
        zd[0, :, 6:] = p
    np.matmul(zd[0], ops[:, None, None], out=zd[1:])
    vals, dzs = zd[val_rows], zd[dz_rows]
    np.matmul(grid.D_r, vals, out=drs)
    u, du_r, du_z = vals[:, :, :6], drs[:, :, :6], dzs[:, :, :6]
    slot_sq = np.einsum("jmsrz,jmsrz->jmsr", u, u)

    u0, r0, z0 = u[0], du_r[0], du_z[0]
    kv = kap[:, None, None] * inv_r
    div_a = r0[:, UR] + u0[:, UR] * inv_r + z0[:, UZ] + kv * u0[:, VTH]
    div_b = r0[:, VR] + u0[:, VR] * inv_r + z0[:, VZ] - kv * u0[:, UTH]

    def dot(x, y):
        return np.einsum("mrz,mrz->mr", x, y)

    press = np.zeros(len(kap))
    if p is not None:
        pv, pr, pz = vals[0, :, 6:], drs[0, :, 6:], dzs[0, :, 6:]
        press = ((dot(pr[:, P], u0[:, UR]) + dot(pz[:, P], u0[:, UZ])
                  + dot(pr[:, Q], u0[:, VR]) + dot(pz[:, Q], u0[:, VZ])) @ wq
                 + kap * ((dot(pv[:, Q], u0[:, UTH]) - dot(pv[:, P], u0[:, VTH]))
                          @ wq_r))
    return ModeMeasures(
        j_max=j_max,
        mean=kap == 0.0,
        k_eff=kap,
        inst=(slot_sq.sum(axis=2) * grid.dz_weight) @ grid.w_r,
        dr_sq=np.einsum("jmsrz,jmsrz->jmr", du_r, du_r) @ wq,
        dz_sq=np.einsum("jmsrz,jmsrz->jmr", du_z, du_z) @ wq,
        over_r=slot_sq @ wq_r2,
        cross=(dot(u0[:, VR], u0[:, UTH]) - dot(u0[:, UR], u0[:, VTH])) @ wq_r2,
        div_sq=(dot(div_a, div_a) + dot(div_b, div_b)) @ wq,
        press=press,
        dr_u=drs[0, :, :6].copy(),
    )


def measure_state(state, j_max: int = 1,
                  ws: StepWorkspace | None = None) -> ModeMeasures:
    """The pass over every harmonic of a ``ModeState``, pressures included;
    row k is harmonic k with ``kap = k N``."""
    return measure_modes(state.grid, state.u,
                         state.params.N * np.arange(len(state.u)), state.p,
                         j_max, ws)


def mode_energy(grid: CylGrid, u: np.ndarray, k_eff: float, j: int = 0) -> float:
    """Squared L2 norm over the solid cylinder of ``dz^j`` of one harmonic
    ``u`` (6 slots); ``k_eff = 0`` marks the mean."""
    return float(measure_modes(grid, u[None], [k_eff], j_max=j).energy(j)[0])
