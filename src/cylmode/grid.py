"""Meridional (r, z) collocation grid for the cylinder.

Conventions used throughout the package:

- The meridional domain is ``(0, 1] x [0, L_z)``.  Radial nodes are sorted
  increasing, strictly positive, with the last node exactly at ``r = 1``;
  the axis point ``r = 0`` is never a node, so ``1/r`` and ``1/r**2``
  factors are always finite on the grid.
- The vertical direction is treated as ``L_z``-periodic.  Nodes are
  ``z_j = j * L_z / n_z`` and vertical derivatives are spectral (FFT).
  Every report produced from data on this grid is implicitly about the
  periodic-in-z surrogate of the infinite cylinder.
- Scalar coefficient fields are arrays of shape ``(n_r, n_z)`` with axis 0
  radial and axis 1 vertical.
- ``CylGrid.quad`` is the plain meridional measure ``\\int\\int f r dr dz``.
  Norms over the solid cylinder add the azimuthal measure explicitly: an
  axisymmetric field integrated over theta picks up ``2*pi``
  (``THETA_FULL``) while a single ``cos``/``sin`` harmonic picks up ``pi``
  (``THETA_HALF``) from ``cos**2``/``sin**2``.

The radial nodes are Chebyshev-Gauss-Lobatto points mapped to ``[0, 1]``
with the axis endpoint dropped.  Differentiation is the barycentric
collocation derivative on the kept nodes (exact for polynomials of degree
``n_r - 1``) and quadrature is Clenshaw-Curtis on the full node set with
the ``r`` weight folded in (the dropped axis node carries zero weight in
the ``r dr`` measure).  ``radial_nodes`` builds that node set once for
this grid and for the disk grid of ``inequalities``.

Every spectral derivative in the package follows one rule, the Nyquist
rule of ``spectral_symbol``: on ``n`` periodic nodes over a period ``P``,
rfft bin m is multiplied by ``(i 2 pi m / P)^order``, except that an odd
order is zero at the Nyquist bin of an even ``n``, which has no
consistent real representative of an odd derivative; an even order keeps
its true value there.  The vertical derivatives here, the azimuthal ones
of the oracle and the disk grid, the implicit solvers' wavenumber tables
and the diagnostics pass's vertical matrices all read that symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: azimuthal measure of an axisymmetric field over the full circle
THETA_FULL = 2.0 * math.pi
#: azimuthal measure of a single cos/sin harmonic (integral of cos**2)
THETA_HALF = math.pi


def spectral_symbol(n: int, period: float, order: int) -> np.ndarray:
    """Multipliers ``(i 2 pi m / period)^order`` of the rfft bins m of
    ``n`` periodic nodes, with the Nyquist bin zeroed for an odd order
    (see the module docstring)."""
    ik = (1j * (2.0 * np.pi / period) * np.arange(n // 2 + 1)) ** order
    if n % 2 == 0 and order % 2 == 1:
        ik[-1] = 0.0
    return ik


def spectral_derivative(a: np.ndarray, period: float, order: int,
                        axis: int = -1) -> np.ndarray:
    """``order``-th derivative of periodic samples along ``axis`` by one
    rfft round trip with :func:`spectral_symbol`; order 0 returns ``a``."""
    if order == 0:
        return a
    n = a.shape[axis]
    ahat = np.fft.rfft(a, axis=axis)
    shape = [1] * ahat.ndim
    shape[axis] = -1
    ahat *= spectral_symbol(n, period, order).reshape(shape)
    return np.fft.irfft(ahat, n=n, axis=axis)


def median(values) -> float:
    """``np.median`` of ``values``, bitwise: the middle entry of the sorted
    values, or the mean of the two middle ones; NaN when any entry is NaN.
    ``np.median`` imports ``numpy.ma`` on its first call, which costs a
    command about 15 ms."""
    a = np.sort(np.asarray(values, dtype=float), axis=None)
    if a.size == 0 or np.isnan(a[-1]):
        return math.nan
    h = a.size // 2
    return float(a[h] if a.size % 2 else (a[h - 1] + a[h]) / 2.0)


def radial_nodes(n_r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial nodes ``r``, their ``r dr`` quadrature weights ``w_r`` and the
    collocation derivative matrix ``D_r``.

    Builds the ``n_r + 1`` Gauss-Lobatto points on ``[0, 1]``, forms the
    Clenshaw-Curtis weights there, folds in the measure factor ``r`` and
    drops the axis node (whose weighted contribution is identically zero).
    ``D_r`` comes from the barycentric weights of the kept nodes, computed
    in log space so that a few hundred clustered nodes do not underflow.
    """
    n = n_r  # polynomial degree of the full node set
    j = np.arange(n + 1)
    r_full = 0.5 * (1.0 - np.cos(np.pi * j / n))  # increasing, r_0 = 0
    # Clenshaw-Curtis weights on [-1, 1] via exact Chebyshev moments.
    k = np.arange(0, n + 1, 2)
    moments = 2.0 / (1.0 - k.astype(float) ** 2)
    gamma = np.ones(k.size)
    gamma[0] = 0.5
    if n % 2 == 0 and k[-1] == n:
        gamma[-1] = 0.5
    delta = np.ones(n + 1)
    delta[0] = delta[-1] = 0.5
    # w_j = sum_k gamma_k * (2/n) * delta_j * cos(k j pi / n) * mom_k
    cosmat = np.cos(np.outer(k, j * np.pi / n))
    w_cc = (2.0 / n) * delta * ((gamma * moments) @ cosmat)
    w_cc *= 0.5  # map [-1, 1] -> [0, 1]
    r, w_r = r_full[1:], (w_cc * r_full)[1:]

    diff = r[:, None] - r[None, :]
    np.fill_diagonal(diff, 1.0)
    # barycentric weights, scaled to unit maximum magnitude
    logw = -np.sum(np.log(np.abs(diff)), axis=1)
    sign = np.where((np.sum(diff < 0.0, axis=1) % 2) == 0, 1.0, -1.0)
    logw -= logw.max()
    bw = sign * np.exp(logw)
    D = (bw[None, :] / bw[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return r, w_r, D


#: share of the advective stability limit a step may use, in both solvers
CFL_SAFETY = 0.9


class SolverError(RuntimeError):
    """A solver stopped a run, so the command reports it and exits 1; here
    because the grid is the only module both solver routes import."""


class CFLViolationError(SolverError):
    """Explicit advection would outrun the grid at the current dt."""


@dataclass(frozen=True)
class CylGrid:
    """Meridional collocation grid (see module docstring for conventions)."""

    n_r: int
    n_z: int
    L_z: float
    r: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    D_r: np.ndarray = field(repr=False)
    w_r: np.ndarray = field(repr=False)  # weights for int f r dr

    # -- derivatives -------------------------------------------------------

    def dr(self, a: np.ndarray) -> np.ndarray:
        """Radial derivative along axis 0."""
        return np.einsum("ij,j...->i...", self.D_r, a)

    def dz(self, a: np.ndarray) -> np.ndarray:
        """Spectral vertical derivative along the last axis."""
        return spectral_derivative(a, self.L_z, 1)

    def dz_pow(self, a: np.ndarray, j: int) -> np.ndarray:
        """j-th vertical derivative (single FFT round trip)."""
        return spectral_derivative(a, self.L_z, j)

    # -- quadrature ---------------------------------------------------------

    @property
    def dz_weight(self) -> float:
        return self.L_z / self.n_z

    def quad(self, a: np.ndarray) -> float:
        """``\\int\\int a r dr dz`` by tensor quadrature."""
        return float(self.w_r @ a.sum(axis=1)) * self.dz_weight


#: schema tag of every JSON report the package writes
REPORT_SCHEMA = "cylmode-report-v1"


def raise_problems(problems: list[str]) -> None:
    """Raise the problems a rule function found as one ``ValueError``; the
    CLI prints the same texts, one a line, under their section."""
    if problems:
        raise ValueError("; ".join(problems))


def grid_problems(n_r: int, n_z: int, L_z: float) -> list[str]:
    """Every violated range of the meridional grid sizes."""
    return [text for ok, text in (
        (n_r >= 4, "n_r must be >= 4"),
        (n_z >= 4 and n_z % 2 == 0, "n_z must be even and >= 4"),
        (0.0 < L_z < math.inf, "L_z must be positive and finite")) if not ok]


def build_grid(n_r: int, n_z: int, L_z: float) -> CylGrid:
    """Construct a :class:`CylGrid`.

    Parameters
    ----------
    n_r : int
        Number of radial nodes, at least 4.  Nodes lie in ``(0, 1]`` with
        the last node exactly 1.
    n_z : int
        Number of vertical nodes, even and at least 4.
    L_z : float
        Vertical period, positive and finite.

    The ranges are those of :func:`grid_problems`.
    """
    raise_problems(grid_problems(n_r, n_z, L_z))
    r, w, D = radial_nodes(n_r)
    z = (L_z / n_z) * np.arange(n_z)
    return CylGrid(n_r=n_r, n_z=n_z, L_z=float(L_z), r=r, z=z, D_r=D, w_r=w)
