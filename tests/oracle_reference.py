"""Dense reference builder of the oracle's bin operator tables.

Assembles every stored bin of ``OracleOpCache`` as one real ``4n x 4n``
block and solves it with ``oracle._bin_operator`` against the velocity
columns, the route the oracle took before its coupled bins were built by
block elimination.  The tests compare the solves of both tables against
these dense maps.
"""

import numpy as np

from cylmode.oracle import OracleOpCache, _bin_operator, _velocity_columns


def helmholtz(cache: OracleOpCache, m2: float, z2: float, s: float,
              idt: float) -> tuple[np.ndarray, np.ndarray]:
    """Axial and perpendicular Helmholtz blocks ``I/dt - s lap``."""
    g = cache.grid
    lap = (cache._lap0 - np.diag(m2 / g.r**2)
           - cache.nu**2 * z2 * np.eye(g.n_r))
    h_z = idt * np.eye(g.n_r) - s * lap
    return h_z, h_z + np.diag(s / g.r**2)


def coupled_block(cache: OracleOpCache, m1: float, m2: float, z1: float,
                  z2: float, s: float, idt: float) -> np.ndarray:
    """The real ``4n x 4n`` block of a coupled bin on ``(u_r, u_th', u_z',
    p)``, no-slip rows as identity rows."""
    g = cache.grid
    n = g.n_r
    rinv = np.diag(1.0 / g.r)
    couple = -2.0 * m1 * s * np.diag(1.0 / g.r**2)
    h_z, h_perp = helmholtz(cache, m2, z2, s, idt)
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


def dense_table(cache: OracleOpCache, dt: float,
                diffusion: bool) -> np.ndarray:
    """Full ``(bins, 4n, 3n)`` maps of the bins with ``zeta >= 0``,
    azimuthal bin major, one dense solve per bin."""
    n = cache.grid.n_r
    W = _velocity_columns(n)
    rng = np.random.default_rng(1)
    s = 1.0 if diffusion else 0.0
    idt = 1.0 / dt
    ops = np.empty((cache._m1.size, cache._zeta1.size, 4 * n, 3 * n))
    for m, (m1, m2) in enumerate(zip(cache._m1, cache._m2)):
        for zi, (z1, z2) in enumerate(zip(cache._zeta1, cache._zeta2)):
            if m1 == 0.0 and z1 == 0.0:
                A = cache._decoupled_block(m2, z2, s, idt)
            else:
                A = coupled_block(cache, m1, m2, z1, z2, s, idt)
            ops[m, zi] = _bin_operator(A, W, rng, f"(m={m}, zbin={zi})")
    return ops.reshape(-1, 4 * n, 3 * n)
