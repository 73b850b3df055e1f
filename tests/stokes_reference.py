"""Dense reference builder of the mode solver's coupled blocks.

Assembles one (harmonic, vertical wavenumber) bin of ``StokesOpCache`` as
the real ``4n x 4n`` block that ``stokes._factor_checked`` solves, the
route every coupled bin took before the cache built them by block
elimination.  The tests compare the cache's tables against these dense
maps, and the mean's ``zeta = 0`` bin in this coupled form carries the
spurious pressure mode that makes the cache decouple it.
"""

import numpy as np

from cylmode.grid import CylGrid
from cylmode.stokes import _momentum_blocks, _potentials, _radial_laplacian


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
    h_ab, h_c = _momentum_blocks(_radial_laplacian(grid),
                                 _potentials(grid, kappa, nu, [zeta2]), dt,
                                 s)[0]
    couple = np.diag(s * 2.0 * kappa / r**2)

    sl_a, sl_b, sl_c, sl_p = (slice(0, n), slice(n, 2 * n),
                              slice(2 * n, 3 * n), slice(3 * n, 4 * n))
    A[sl_a, sl_a] = h_ab
    A[sl_a, sl_b] = couple
    A[sl_a, sl_p] = D
    A[sl_b, sl_b] = h_ab
    A[sl_b, sl_a] = couple
    A[sl_b, sl_p] = -np.diag(kappa / r)
    A[sl_c, sl_c] = h_c
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
