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

Two radial schemes are provided.  ``chebyshev_gauss_lobatto_mapped`` places
Chebyshev-Gauss-Lobatto points mapped to ``[0, 1]`` and drops the axis
endpoint; differentiation is the barycentric collocation derivative on the
kept nodes (exact for polynomials of degree ``n_r - 1``) and quadrature is
Clenshaw-Curtis on the full node set with the ``r`` weight folded in (the
dropped axis node carries zero weight in the ``r dr`` measure).
``uniform_fd2`` uses uniformly spaced nodes with second-order differences
and piecewise-linear product quadrature, with the cell ``[0, h]`` handled
by linear extrapolation so that ``f = 1`` and ``f = r`` integrate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SCHEME_CHEBYSHEV = "chebyshev_gauss_lobatto_mapped"
SCHEME_FD2 = "uniform_fd2"

#: azimuthal measure of an axisymmetric field over the full circle
THETA_FULL = 2.0 * math.pi
#: azimuthal measure of a single cos/sin harmonic (integral of cos**2)
THETA_HALF = math.pi


def _barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric interpolation weights for arbitrary distinct nodes.

    Computed in log space so that clustered Chebyshev-type node sets with a
    few hundred points do not underflow; the returned weights are scaled to
    unit maximum magnitude (any common factor cancels in the barycentric
    formulas).
    """
    n = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.sum(np.log(np.abs(diff)), axis=1)
    sign = np.where((np.sum(diff < 0.0, axis=1) % 2) == 0, 1.0, -1.0)
    logw -= logw.max()
    return sign * np.exp(logw)


def _diff_matrix_barycentric(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Collocation differentiation matrix from barycentric weights."""
    n = x.size
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _chebyshev_nodes_weights(n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Radial nodes and ``r dr`` quadrature weights for the mapped scheme.

    Builds the ``n_r + 1`` Gauss-Lobatto points on ``[0, 1]``, forms the
    Clenshaw-Curtis weights there, folds in the measure factor ``r`` and
    drops the axis node (whose weighted contribution is identically zero).
    """
    n = n_r  # polynomial degree of the full node set
    j = np.arange(n + 1)
    r_full = 0.5 * (1.0 - np.cos(np.pi * j / n))  # increasing, r_0 = 0
    # Clenshaw-Curtis weights on [-1, 1] via exact Chebyshev moments.
    k = np.arange(0, n + 1, 2)
    moments = 2.0 / (1.0 - k.astype(float) ** 2)
    moments[k == 1] = 0.0  # unreachable (k even), kept for clarity
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
    w_r = w_cc * r_full
    return r_full[1:], w_r[1:]


def _fd2_nodes_weights(n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform nodes ``i*h`` and piecewise-linear ``r dr`` weights."""
    h = 1.0 / n_r
    r = h * np.arange(1, n_r + 1)
    v = np.zeros(n_r)
    v[1:-1] = h * r[1:-1]
    v[0] = 0.5 * h * r[0] + h * h / 6.0  # right half-hat at r = h
    v[-1] = 0.5 * h * r[-1] - h * h / 6.0  # left half-hat at r = 1
    if n_r >= 2:
        # cell [0, h]: integrate r times the linear extrapolant of f
        v[0] += (2.0 / 3.0) * h * h
        v[1] += -(1.0 / 6.0) * h * h
    return r, v


def _fd2_diff_matrix(r: np.ndarray) -> np.ndarray:
    n = r.size
    h = r[1] - r[0]
    D = np.zeros((n, n))
    for i in range(1, n - 1):
        D[i, i - 1] = -0.5 / h
        D[i, i + 1] = 0.5 / h
    D[0, 0], D[0, 1], D[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    D[-1, -1], D[-1, -2], D[-1, -3] = 1.5 / h, -2.0 / h, 0.5 / h
    return D


class CFLViolationError(RuntimeError):
    """Explicit advection would outrun the grid at the current dt.

    Raised by the harmonic stepper and the full-grid oracle alike; defined
    here because the grid is the only module both routes import.
    """


@dataclass(frozen=True)
class CylGrid:
    """Meridional collocation grid (see module docstring for conventions)."""

    n_r: int
    n_z: int
    L_z: float
    scheme: str
    r: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    D_r: np.ndarray = field(repr=False)
    w_r: np.ndarray = field(repr=False)  # weights for int f r dr
    bary_w: np.ndarray = field(repr=False)

    # -- derivatives -------------------------------------------------------

    def dr(self, a: np.ndarray) -> np.ndarray:
        """Radial derivative along axis 0."""
        return np.einsum("ij,j...->i...", self.D_r, a)

    def dz(self, a: np.ndarray) -> np.ndarray:
        """Spectral vertical derivative along the last axis.

        The Nyquist mode of an odd-order derivative has no consistent real
        representative and is set to zero.
        """
        ahat = np.fft.rfft(a, axis=-1)
        m = np.arange(ahat.shape[-1])
        ik = 1j * (2.0 * np.pi / self.L_z) * m
        if self.n_z % 2 == 0:
            ik[-1] = 0.0
        ahat *= ik
        return np.fft.irfft(ahat, n=self.n_z, axis=-1)

    def dz_pow(self, a: np.ndarray, j: int) -> np.ndarray:
        """j-th vertical derivative (single FFT round trip)."""
        if j == 0:
            return a
        ahat = np.fft.rfft(a, axis=-1)
        m = np.arange(ahat.shape[-1])
        ik = (1j * (2.0 * np.pi / self.L_z) * m) ** j
        if self.n_z % 2 == 0 and j % 2 == 1:
            ik[-1] = 0.0
        ahat *= ik
        return np.fft.irfft(ahat, n=self.n_z, axis=-1)

    # -- quadrature and norms ----------------------------------------------

    @property
    def dz_weight(self) -> float:
        return self.L_z / self.n_z

    def quad(self, a: np.ndarray) -> float:
        """``\\int\\int a r dr dz`` by tensor quadrature."""
        return float(self.w_r @ a.sum(axis=1)) * self.dz_weight

    def quad_r(self, g: np.ndarray) -> float:
        """``\\int g r dr`` for a radial profile."""
        return float(self.w_r @ g)

    def norm_mixed(self, a: np.ndarray, p: float, q: float) -> float:
        """``L^p`` over the horizontal ball of the ``L^q`` vertical norm.

        Finite ``p`` carries the axisymmetric theta factor ``(2 pi)^(1/p)``;
        ``p = inf`` and ``q = inf`` are supremum norms on the nodes.
        """
        mag = np.abs(a)
        if math.isinf(q):
            g = mag.max(axis=1)
        else:
            g = (np.sum(mag**q, axis=1) * self.dz_weight) ** (1.0 / q)
        if math.isinf(p):
            return float(g.max())
        return float((THETA_FULL * (self.w_r @ g**p)) ** (1.0 / p))

    def l2(self, a: np.ndarray) -> float:
        """Full-cylinder L2 norm of a theta-independent field."""
        return math.sqrt(max(THETA_FULL * self.quad(a * a), 0.0))

    # -- interpolation ------------------------------------------------------

    def interp_r(self, a: np.ndarray, r_pt: float) -> np.ndarray:
        """Barycentric radial interpolation of (possibly stacked) values."""
        hit = np.nonzero(np.abs(self.r - r_pt) < 1e-14)[0]
        if hit.size:
            return np.asarray(a)[hit[0]]
        c = self.bary_w / (r_pt - self.r)
        return np.einsum("i,i...->...", c, np.asarray(a)) / c.sum()

    def interp_z(self, g: np.ndarray, z_pt: float) -> float:
        """Trigonometric interpolation of a vertical profile."""
        ghat = np.fft.rfft(g) / self.n_z
        m = np.arange(ghat.shape[-1])
        phase = np.exp(1j * (2.0 * np.pi / self.L_z) * m * z_pt)
        val = ghat[0].real + 2.0 * np.sum(ghat[1:] * phase[1:]).real
        if self.n_z % 2 == 0:
            # the doubled Nyquist term counted it twice; correct to cos form
            val -= (ghat[-1] * phase[-1]).real
        return float(val)

    def interp(self, a: np.ndarray, r_pt: float, z_pt: float) -> float:
        return self.interp_z(self.interp_r(a, r_pt), z_pt)


def build_grid(n_r: int, n_z: int, L_z: float, scheme: str = SCHEME_CHEBYSHEV) -> CylGrid:
    """Construct a :class:`CylGrid`.

    Parameters
    ----------
    n_r : int
        Number of radial nodes, at least 4.  Nodes lie in ``(0, 1]`` with
        the last node exactly 1.
    n_z : int
        Number of vertical nodes, even and at least 4.
    L_z : float
        Vertical period, positive.
    scheme : str
        ``"chebyshev_gauss_lobatto_mapped"`` or ``"uniform_fd2"``.
    """
    if n_r < 4:
        raise ValueError("n_r must be >= 4")
    if n_z < 4 or n_z % 2 != 0:
        raise ValueError("n_z must be even and >= 4")
    if not L_z > 0.0:
        raise ValueError("L_z must be positive")
    if scheme == SCHEME_CHEBYSHEV:
        r, w = _chebyshev_nodes_weights(n_r)
        bw = _barycentric_weights(r)
        D = _diff_matrix_barycentric(r, bw)
    elif scheme == SCHEME_FD2:
        r, w = _fd2_nodes_weights(n_r)
        D = _fd2_diff_matrix(r)
        bw = _barycentric_weights(r)  # used only for point interpolation
    else:
        raise ValueError(f"unknown radial scheme {scheme!r}")
    z = (L_z / n_z) * np.arange(n_z)
    return CylGrid(n_r=n_r, n_z=n_z, L_z=float(L_z), scheme=scheme,
                   r=r, z=z, D_r=D, w_r=w, bary_w=bw)

