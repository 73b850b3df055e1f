"""Anisotropic functional-inequality checkers on the unit disk.

The solver works with azimuthal harmonics and never needs an angle grid;
the functional estimates behind the per-mode decay predictions are
genuinely two dimensional.  This module therefore carries its own
(r, theta) tensor grid: the meridional grid's radial nodes (axis node
dropped, wall node exactly at r = 1) and a uniform periodic angle grid
differentiated through the FFT.  Angular and vertical derivatives are
``grid.spectral_derivative``, under the Nyquist rule the ``grid`` module
docstring states.

Each checker returns the dimensionless quotient

    left-hand norm / right-hand norm combination

of one inequality, so a quotient that stays bounded over a family of trial
functions is direct numerical evidence for the estimate with that constant.
All planar norms use the disk area measure r dr dtheta.  Both sides of
every quotient share the same homogeneity degree, so the quotients are
exact scale invariants, and every operation maps identically zero input
to 0.

Each quotient's norm combination is written once (``_quotient`` and
``_vertical_quotient``) and acts on arrays of norms.  The single-function
checkers feed it norms taken from point values; ``constant_scan`` feeds it
a whole chunk of trials at a time.  The scan stores each chunk's draws as
a coefficient tensor over the basis (1 - r^2) r^d x cos/sin(m theta) and
takes point values by two table products.  They serve only the sup, the
wall trace and the L^p norm: the node-wise weight check reads the sup, the
per-radius angular means are the radial rows times the trig table's node
means, and every L2-type factor is a Gram quadratic form of the
coefficients, which is the same quadrature without the point values.

The vertical checker replaces the whole-line interpolation estimate by its
zero-mean periodic analogue, consistent with the periodic vertical cell
used everywhere else in the package; scan reports carry that label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import median, radial_nodes, raise_problems, spectral_derivative

__all__ = [
    "DiskGrid",
    "TestFunction2D",
    "build_disk_grid",
    "disk_function",
    "separable_disk_function",
    "radial_disk_function",
    "isotropic_ratio",
    "anisotropic_ratio",
    "radial_quartic_ratio",
    "radial_ratio",
    "angular_poincare_ratio",
    "pointwise_weight_ok",
    "vertical_sup_ratio",
    "constant_scan",
    "scan_problems",
    "SCAN_SCHEMA",
    "SCAN_CHECKS",
    "POINCARE_BOUND",
    "VERTICAL_DOMAIN_LABEL",
]

BOUNDARY_TOL = 1e-12
ANGULAR_MEAN_TOL = 1e-12
Z_MEAN_TOL = 1e-12

# crude angular Poincare constant for zero-mean functions; the true
# zero-mean constant is 1, the checks only ever rely on this bound
POINCARE_BOUND = 2.0 * math.pi

SCAN_SCHEMA = "cylmode-ineq-scan-v1"
VERTICAL_DOMAIN_LABEL = "zero-mean periodic surrogate"


def _abs_pow(values: np.ndarray, p: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """|values| ** p, into ``out`` if given; at p = 4 two squarings, which
    are several times faster than a general power."""
    if p == 4.0:
        sq = np.multiply(values, values, out=out)
        return np.multiply(sq, sq, out=sq)
    mag = np.abs(values, out=out)
    return np.power(mag, p, out=mag)


# -- disk grid ----------------------------------------------------------------

@dataclass(frozen=True)
class DiskGrid:
    """Tensor grid on the unit disk for the inequality checkers.

    Radial nodes are mapped Chebyshev points on (0, 1]: the axis node is
    dropped (its r-weighted quadrature weight vanishes identically) and the
    wall node sits exactly at 1; nodes, weights and ``D_r`` are
    ``grid.radial_nodes``.  Angle nodes are uniform on [0, 2*pi); the
    implied rectangle rule is exact for trigonometric polynomials of degree
    below the node count, and angular derivatives are the grid's spectral
    derivative (``grid`` module docstring for its Nyquist rule).
    """

    n_r: int
    n_theta: int
    r: np.ndarray        # (n_r,) radial nodes, increasing, r[-1] == 1
    w_r: np.ndarray      # (n_r,) radial weights, r dr measure folded in
    D_r: np.ndarray      # (n_r, n_r) radial differentiation matrix
    theta: np.ndarray    # (n_theta,) angle nodes

    @property
    def d_theta(self) -> float:
        return 2.0 * math.pi / self.n_theta

    def quad(self, values: np.ndarray) -> float:
        """Integral over the disk with measure r dr dtheta."""
        v = np.asarray(values, dtype=float)
        return float((self.w_r @ v.sum(axis=1)) * self.d_theta)

    def lp_norm(self, values: np.ndarray, p: float) -> float:
        return self.quad(_abs_pow(np.asarray(values, dtype=float), p)) \
            ** (1.0 / p)

    def dr(self, values: np.ndarray) -> np.ndarray:
        return self.D_r @ np.asarray(values, dtype=float)

    def dtheta(self, values: np.ndarray) -> np.ndarray:
        return spectral_derivative(np.asarray(values, dtype=float),
                                   2.0 * math.pi, 1, axis=1)


def _disk_grid_problems(n_r: int, n_theta: int) -> list[str]:
    return [text for ok, text in (
        (n_r >= 4, "n_r must be >= 4"),
        (n_theta >= 8 and n_theta % 2 == 0, "n_theta must be even and >= 8"))
        if not ok]


def build_disk_grid(n_r: int = 48, n_theta: int = 64) -> DiskGrid:
    raise_problems(_disk_grid_problems(n_r, n_theta))
    r, w, D = radial_nodes(n_r)
    theta = (2.0 * math.pi / n_theta) * np.arange(n_theta)
    return DiskGrid(n_r=n_r, n_theta=n_theta, r=r, w_r=w, D_r=D, theta=theta)


# -- preconditions --------------------------------------------------------------
#
# Sample arrays carry radius and angle on their last two axes, optionally
# behind a leading trial axis; ``peak`` is max |f| per function.

def _relative(x: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """x / peak, and 0 for identically zero functions."""
    return np.divide(x, peak, out=np.zeros(np.shape(x)), where=peak > 0.0)


def _angular_mean(means: np.ndarray) -> np.ndarray:
    """Largest per-radius angular mean magnitude, from the row means."""
    return np.abs(means).max(axis=-1)


def _angular_variation(values: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Largest deviation from the per-radius angular means ``means``."""
    # rounding is monotone, so the largest deviations sit at the row extremes
    return np.maximum(values.max(axis=-1) - means,
                      means - values.min(axis=-1)).max(axis=-1)


def _require_zero_trace(values: np.ndarray, peak: np.ndarray) -> None:
    wall = np.abs(values[..., -1, :]).max(axis=-1)
    if np.any(wall > BOUNDARY_TOL * np.maximum(1.0, peak)):
        raise ValueError("trial function must vanish at the wall r = 1")


def _weight_ok(peak: np.ndarray) -> bool:
    """Node-wise |f| <= |f / r| from each function's peak max |f|.

    Every node has 0 < r <= 1, so the bound holds at each finite value and
    fails only where a value is NaN or infinite.  The max and min behind a
    peak carry every NaN and infinity, so a finite peak is exactly the
    node-wise check.
    """
    return bool(np.isfinite(peak).all())


# checks whose hypotheses need a zero angular mean, or radial input
_ZERO_MEAN_CHECKS = ("anisotropic", "angular_poincare")
_RADIAL_CHECKS = ("radial_quartic", "radial")


def _require_hypotheses(check: str, values: np.ndarray, means: np.ndarray,
                        peak: np.ndarray) -> None:
    """Raise unless the check's angular hypothesis holds; ``means`` are the
    per-radius angular means of ``values``, however the caller took them."""
    if check in _ZERO_MEAN_CHECKS and np.any(
            _relative(_angular_mean(means), peak) > ANGULAR_MEAN_TOL):
        raise ValueError("zero angular mean required for this checker")
    if check in _RADIAL_CHECKS and np.any(_relative(
            _angular_variation(values, means), peak) > ANGULAR_MEAN_TOL):
        raise ValueError("radial input required: values vary with the angle")


def _exponent_problems(check: str, p: float) -> list[str]:
    if check == "anisotropic":
        ok, text = 2.0 <= p <= 6.0, "exponent p must satisfy 2 <= p <= 6"
    else:
        ok, text = 2.0 <= p < math.inf, "exponent p must satisfy 2 <= p < inf"
    return [] if ok else [text]


# -- trial functions ----------------------------------------------------------

@dataclass(frozen=True)
class TestFunction2D:
    """Scalar trial function on a disk grid, vanishing at the wall.

    ``values`` has shape (n_r, n_theta).  Construction goes through
    :func:`disk_function`, which rejects samples whose wall row exceeds
    1e-12 relative to max(1, peak magnitude): the inequalities under test
    are stated for functions with zero boundary trace.
    """

    grid: DiskGrid
    values: np.ndarray

    @property
    def peak(self) -> float:
        return float(np.max(np.abs(self.values)))


def disk_function(grid: DiskGrid, values: np.ndarray) -> TestFunction2D:
    """Wrap full (r, theta) samples, enforcing the zero boundary trace."""
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_r, grid.n_theta):
        raise ValueError(
            f"values must have shape {(grid.n_r, grid.n_theta)}, got {v.shape}"
        )
    _require_zero_trace(v, float(np.max(np.abs(v))))
    return TestFunction2D(grid=grid, values=v)


def separable_disk_function(grid: DiskGrid, radial: np.ndarray,
                            mode: int = 0, kind: str = "cos") -> TestFunction2D:
    """One g(r) * trig(mode * theta) pair as a trial function."""
    g = np.asarray(radial, dtype=float)
    if g.shape != (grid.n_r,):
        raise ValueError(f"radial profile must have shape ({grid.n_r},)")
    if mode < 0:
        raise ValueError("mode must be >= 0")
    if kind == "cos":
        trig = np.cos(mode * grid.theta)
    elif kind == "sin":
        trig = np.sin(mode * grid.theta)
    else:
        raise ValueError("kind must be 'cos' or 'sin'")
    return disk_function(grid, g[:, None] * trig[None, :])


def radial_disk_function(grid: DiskGrid, radial: np.ndarray) -> TestFunction2D:
    """Angle-independent trial function from a radial profile."""
    return separable_disk_function(grid, radial, mode=0, kind="cos")


# -- inequality quotients ------------------------------------------------------

class _Norms(NamedTuple):
    """Disk norms of one function (0-d arrays) or of a stack, per entry."""

    peak: np.ndarray       # max |f| over the nodes
    lp: np.ndarray         # ||f||_p
    l2_sq: np.ndarray      # ||f||_2^2
    dr_sq: np.ndarray      # ||d_r f||_2^2
    dt_sq: np.ndarray      # ||d_theta f / r||_2^2
    over_r_sq: np.ndarray  # ||f / r||_2^2


def _quotient(check: str, n: _Norms, p: float | None) -> np.ndarray:
    """The quotient of one disk check from its norms, entry by entry.

    Zero input maps to 0, and so does a vanishing right-hand side (for the
    Poincare quotient: zero-mean input without angular content).  At p = 2
    every derivative exponent vanishes and nonzero input maps to exactly 1.
    """
    nonzero = n.peak > 0.0
    if check == "angular_poincare":
        num, den = np.sqrt(n.over_r_sq), np.sqrt(n.dt_sq)
    elif p == 2.0:
        return np.where(nonzero, 1.0, 0.0)
    else:
        num = n.lp
        l2_part = np.sqrt(n.l2_sq) ** (2.0 / p)
        if check == "isotropic":
            den = l2_part * np.sqrt(n.dr_sq + n.dt_sq) ** (1.0 - 2.0 / p)
        else:
            # split-derivative form; the radial checks put the weight f / r
            # where the anisotropic one has the angular derivative
            e = 0.5 - 1.0 / p
            a = np.sqrt(n.dr_sq)
            b = np.sqrt(n.dt_sq if check == "anisotropic" else n.over_r_sq)
            den = l2_part * (a ** e + b ** e) * b ** e
    return np.divide(num, den, out=np.zeros(np.shape(num)),
                     where=nonzero & (den > 0.0))


def _point_quotient(f: TestFunction2D, check: str, p: float | None) -> float:
    """One check on one function, every norm taken from point values."""
    g, v = f.grid, f.values
    _require_hypotheses(check, v, v.mean(axis=-1), f.peak)
    fields = (v, g.dr(v), g.dtheta(v) / g.r[:, None], v / g.r[:, None])
    sq = [np.asarray(g.quad(x * x)) for x in fields]
    lp = g.lp_norm(v, p) if p is not None else 0.0
    return float(_quotient(check, _Norms(np.asarray(f.peak), np.asarray(lp),
                                         *sq), p))


def isotropic_ratio(f: TestFunction2D, p: float) -> float:
    """Planar interpolation quotient with the full gradient on the right.

    Returns ||f||_p / (||f||_2^(2/p) * ||grad f||_2^(1 - 2/p)) for
    2 <= p < inf; the gradient squares to (d_r f)^2 + (d_theta f / r)^2.
    """
    raise_problems(_exponent_problems("isotropic", p))
    return _point_quotient(f, "isotropic", p)


def anisotropic_ratio(f: TestFunction2D, p: float) -> float:
    """Split-derivative disk quotient for zero-angular-mean functions.

    Returns lhs / rhs with lhs = ||f||_p and

        rhs = ||f||_2^(2/p) * (||d_r f||_2^e + ||d_theta f / r||_2^e)
                            * ||d_theta f / r||_2^e,    e = 1/2 - 1/p,

    for 2 <= p <= 6.  The angular-derivative factor is what lets the
    right-hand side avoid the vertical direction entirely, which is why a
    zero angular mean is a hard precondition.
    """
    raise_problems(_exponent_problems("anisotropic", p))
    return _point_quotient(f, "anisotropic", p)


def radial_quartic_ratio(f: TestFunction2D) -> float:
    """Quartic-norm quotient for radial profiles vanishing at the wall.

    Returns ||g||_4 / (||g||_2^(1/2) * (||d_r g||_2^(1/4) + ||g/r||_2^(1/4))
    * ||g/r||_2^(1/4)).  The hardy-type weight g/r replaces the angular
    derivative available to non-radial functions.
    """
    return _point_quotient(f, "radial_quartic", 4.0)


def radial_ratio(f: TestFunction2D, p: float) -> float:
    """Any-exponent version of the radial quotient, 2 <= p < inf.

    Same structure as :func:`radial_quartic_ratio` with exponents
    e = 1/2 - 1/p on both weighted factors and 2/p on the plain norm; the
    quartic restriction of the split-derivative bound does not apply here.
    """
    raise_problems(_exponent_problems("radial", p))
    return _point_quotient(f, "radial", p)


def angular_poincare_ratio(f: TestFunction2D) -> float:
    """||f / r||_2 over ||d_theta f / r||_2 for zero-angular-mean input.

    Bounded by ``POINCARE_BOUND`` (the crude constant 2*pi; the sharp
    zero-mean constant is 1, reached by pure mode-1 content).
    """
    return _point_quotient(f, "angular_poincare", None)


def pointwise_weight_ok(f: TestFunction2D) -> bool:
    """Node-wise check that |f| <= |f / r|; exact on the disk since r <= 1."""
    return _weight_ok(np.asarray(f.peak))


def _z_grid_problems(n_z: int, period: float) -> list[str]:
    return [text for ok, text in (
        (n_z >= 4 and n_z % 2 == 0, "n_z must be even and >= 4"),
        (0.0 < period < math.inf, "period must be positive and finite"))
        if not ok]


def _require_zero_z_mean(values: np.ndarray,
                         peak: np.ndarray | float) -> None:
    if np.any(np.abs(values.mean(axis=-1)) > Z_MEAN_TOL * peak):
        raise ValueError("zero z-mean required by the periodic analogue")


def _vertical_quotient(sup: np.ndarray, l2_sq: np.ndarray,
                       l2d_sq: np.ndarray) -> np.ndarray:
    """max_z |f| / (||f||_2 ||d_z f||_2)^(1/2) per row; 0 where rhs is 0."""
    rhs = np.sqrt(np.sqrt(l2_sq) * np.sqrt(l2d_sq))
    return np.divide(sup, rhs, out=np.zeros_like(sup), where=rhs > 0.0)


def vertical_sup_ratio(values: np.ndarray, period: float) -> float:
    """Sup-over-z interpolation quotient, per radius row, then the largest.

    For each row f_i the quotient is

        max_z |f_i| / (||f_i||_2^(1/2) * ||d_z f_i||_2^(1/2))

    with L2 norms over one period.  This is the zero-mean periodic analogue
    of the whole-line sup estimate (the package models the unbounded
    direction by a long periodic cell); a row whose z-mean exceeds 1e-12 of
    the peak raises ``ValueError``.  Input may be a single row (n_z,) or a
    stack (n_rows, n_z).
    """
    v = np.atleast_2d(np.asarray(values, dtype=float))
    n_z = v.shape[1]
    raise_problems(_z_grid_problems(n_z, period))
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return 0.0
    _require_zero_z_mean(v, peak)
    dz = spectral_derivative(v, period, 1)
    dw = period / n_z
    ratios = _vertical_quotient(np.max(np.abs(v), axis=1),
                                np.sum(v * v, axis=1) * dw,
                                np.sum(dz * dz, axis=1) * dw)
    return float(np.max(ratios))


# -- randomized constant scans -------------------------------------------------

SCAN_CHECKS = (
    "isotropic",
    "anisotropic",
    "radial_quartic",
    "radial",
    "angular_poincare",
    "vertical",
)

# first entry is the default family for the check
_FAMILIES_FOR_CHECK = {
    "isotropic": ("poly_trig", "radial_poly", "zero"),
    "anisotropic": ("poly_trig", "zero"),
    "angular_poincare": ("poly_trig", "zero"),
    "radial_quartic": ("radial_poly", "zero"),
    "radial": ("radial_poly", "zero"),
    "vertical": ("z_trig", "zero"),
}


def scan_problems(check: str, family: str | None, trials: int,
                  p: float | None, n_r: int, n_theta: int, n_z: int,
                  period: float) -> list[str]:
    """Every violated range of a :func:`constant_scan` request.

    ``family`` None is the check's default family and ``p`` None is 4.
    Every grid size is checked whichever check is named, and ``p`` is held
    to the exponent range of the check's own checker (2 <= p <= 6 for
    ``anisotropic``, 2 <= p < inf otherwise) even where the check fixes it.
    """
    problems = []
    if check not in SCAN_CHECKS:
        problems.append(f"check must be one of {SCAN_CHECKS}, got {check!r}")
    elif family is not None and family not in _FAMILIES_FOR_CHECK[check]:
        problems.append(f"family {family!r} incompatible with check "
                        f"{check!r} (expected one of "
                        f"{_FAMILIES_FOR_CHECK[check]})")
    if trials < 1:
        problems.append("trials must be >= 1")
    problems += _exponent_problems(check, 4.0 if p is None else p)
    return (problems + _disk_grid_problems(n_r, n_theta)
            + _z_grid_problems(n_z, period))


# generated radial parts are (1 - r^2) * poly(deg <= 10), total degree <= 12;
# trig modes stay <= 8 so the base grids integrate all even powers exactly
_MAX_POLY_DEG = 10
_MAX_TRIG_MODE = 8

# cap on one chunk's point-value array on the finer scan grid: about ten
# trials at 96 x 128, which keeps a scan's memory independent of its length
_CHUNK_BYTES = 1 << 20


def _chunk_trials(trials: int, fine_values: int) -> int:
    """Trials per chunk, for ``fine_values`` samples a trial on the finer grid."""
    return min(trials, max(1, _CHUNK_BYTES // (8 * fine_values)))


def _draw_disk_terms(rng: np.random.Generator, min_mode: int,
                     max_mode: int) -> list[tuple[np.ndarray, int, str]]:
    """Random separable terms; coefficients only, grid-independent."""
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        deg = int(rng.integers(0, _MAX_POLY_DEG + 1))
        coeffs = rng.normal(size=deg + 1)
        amp = 10.0 ** rng.uniform(-2.0, 2.0)
        # the draw of rng.choice([-1.0, 1.0]) at a sixth of its cost
        amp *= (-1.0, 1.0)[rng.integers(0, 2)]
        mode = int(rng.integers(min_mode, max_mode + 1))
        kind = "cos" if mode == 0 or rng.integers(0, 2) == 0 else "sin"
        terms.append((amp * coeffs, mode, kind))
    return terms


def _draw_z_coeffs(rng: np.random.Generator) -> np.ndarray:
    """Random zero-mean trig coefficients, rows (a_m, b_m) for m = 1..M."""
    n_modes = int(rng.integers(1, _MAX_TRIG_MODE + 1))
    amp = 10.0 ** rng.uniform(-2.0, 2.0)
    return amp * rng.normal(size=(n_modes, 2))


def _draw_disk_chunk(seed: int, trials: range, family: str,
                     min_mode: int) -> np.ndarray:
    """Coefficients (trial, degree 0..10, mode 0..8 x cos/sin) of a chunk.

    Trial ``i`` draws from its own stream ``default_rng([seed, i])``; terms
    that land on the same basis function add up.
    """
    c = np.zeros((len(trials), _MAX_POLY_DEG + 1, _MAX_TRIG_MODE + 1, 2))
    if family != "zero":
        modes = (0, 0) if family == "radial_poly" \
            else (min_mode, _MAX_TRIG_MODE)
        for t, index in enumerate(trials):
            rng = np.random.default_rng([int(seed), index])
            for coeffs, mode, kind in _draw_disk_terms(rng, *modes):
                # np.polyval order: highest degree first
                c[t, :coeffs.size, mode, int(kind == "sin")] += coeffs[::-1]
    return c.reshape(len(trials), _MAX_POLY_DEG + 1, -1)


def _draw_z_chunk(seed: int, trials: range, family: str) -> np.ndarray:
    """Coefficients (trial, mode 1..8 x cos/sin) of a chunk of z trials."""
    c = np.zeros((len(trials), _MAX_TRIG_MODE, 2))
    if family != "zero":
        for t, index in enumerate(trials):
            coeffs = _draw_z_coeffs(np.random.default_rng([int(seed), index]))
            c[t, :len(coeffs)] = coeffs
    return c.reshape(len(trials), -1)


class _DiskBasis(NamedTuple):
    """Basis tables and Gram matrices of one scan grid.

    ``radial`` holds (1 - r^2) r^d, d = 0..10, on the nodes and ``trig``
    the rows cos/sin(m theta), m = 0..8; ``trig_mean`` is each row's mean
    over the angle nodes, aliasing included, so that ``radial @ c`` times
    it is the per-radius node mean of the point values.  ``forms`` pairs
    radial and angular Gram matrices, G = T W T^T in the grid's own
    quadrature, for ||f||_2^2, ||d_r f||_2^2, ||d_theta f / r||_2^2 and
    ||f / r||_2^2 in that order.  ``work`` is the point-value buffer of a
    full chunk, reused by every chunk: fresh megabyte-sized temporaries per
    chunk cost more in page faults than the arithmetic on them.
    """

    grid: DiskGrid
    radial: np.ndarray     # (n_r, 11)
    trig: np.ndarray       # (18, n_theta)
    trig_mean: np.ndarray  # (18,)
    forms: tuple[tuple[np.ndarray, np.ndarray], ...]
    work: np.ndarray       # (chunk, n_r, n_theta)


def _disk_basis(grid: DiskGrid, chunk: int) -> _DiskBasis:
    r = grid.r
    radial = (1.0 - r ** 2)[:, None] * r[:, None] ** np.arange(_MAX_POLY_DEG + 1)
    m = np.arange(_MAX_TRIG_MODE + 1)[:, None]
    trig = np.stack([np.cos(m * grid.theta), np.sin(m * grid.theta)],
                    axis=1).reshape(-1, grid.n_theta)

    def gram(table, weights):
        return (table.T * weights) @ table

    g_r = gram(radial, grid.w_r)
    g_dr = gram(grid.dr(radial), grid.w_r)
    g_over_r = gram(radial, grid.w_r / r ** 2)
    g_t = gram(trig.T, grid.d_theta)
    # the grid's own spectral derivative, exact below the Nyquist mode
    g_dt = gram(grid.dtheta(trig).T, grid.d_theta)
    return _DiskBasis(grid=grid, radial=radial, trig=trig,
                      trig_mean=trig.mean(axis=1),
                      forms=((g_r, g_t), (g_dr, g_t), (g_over_r, g_dt),
                             (g_over_r, g_t)),
                      work=np.empty((chunk, grid.n_r, grid.n_theta)))


def _gram_form(c: np.ndarray, g_left: np.ndarray,
               g_right: np.ndarray) -> np.ndarray:
    """c^T (g_left x g_right) c for each trial of a coefficient stack."""
    return np.einsum("tij,tij->t", c, g_left @ c @ g_right)


def _disk_chunk(basis: _DiskBasis, c: np.ndarray, check: str,
                p: float | None) -> tuple[np.ndarray, bool]:
    """Quotients and the node-wise weight check for a chunk on one grid.

    The point values serve only the sup, the wall trace and the L^p norm,
    so after the product that writes them they are read by max/min and, for
    p other than 2, once more for |v|^p in place and its angular sums.
    """
    g = basis.grid
    v = basis.work[:len(c)]
    rows = basis.radial @ c                          # (trials, n_r, 18)
    np.matmul(rows, basis.trig, out=v)               # (trials, n_r, n_theta)
    peak = np.maximum(v.max(axis=(1, 2)), -v.min(axis=(1, 2)))
    _require_zero_trace(v, peak)
    _require_hypotheses(check, v, rows @ basis.trig_mean, peak)
    lp = np.zeros(len(c))
    if p is not None and p != 2.0:
        if p == 4.0:
            np.multiply(v, v, out=v)
            lp = np.einsum("tij,tij->ti", v, v) @ g.w_r
        else:
            lp = _abs_pow(v, p, out=v).sum(axis=2) @ g.w_r
        lp = (lp * g.d_theta) ** (1.0 / p)
    sq = [_gram_form(c, *pair) for pair in basis.forms]
    return _quotient(check, _Norms(peak, lp, *sq), p), _weight_ok(peak)


class _ZBasis(NamedTuple):
    """z-trig table cos/sin(2 pi m z / period), m = 1..8, and its Gram pair."""

    trig: np.ndarray     # (16, n_z)
    forms: tuple[np.ndarray, np.ndarray]   # ||f||_2^2, ||d_z f||_2^2


def _z_basis(n_z: int, period: float) -> _ZBasis:
    z = (period / n_z) * np.arange(n_z)
    m = np.arange(1, _MAX_TRIG_MODE + 1)[:, None]
    arg = (2.0 * math.pi / period) * m * z
    trig = np.stack([np.cos(arg), np.sin(arg)], axis=1).reshape(-1, n_z)
    dw = period / n_z
    dz = spectral_derivative(trig, period, 1)
    return _ZBasis(trig=trig, forms=tuple(dw * (t @ t.T) for t in (trig, dz)))


def _vertical_chunk(basis: _ZBasis, c: np.ndarray) -> np.ndarray:
    v = c @ basis.trig                       # (trials, n_z)
    sup = np.maximum(v.max(axis=1), -v.min(axis=1))
    _require_zero_z_mean(v, sup)
    l2_sq, l2d_sq = (np.einsum("ti,ti->t", c, c @ g) for g in basis.forms)
    return _vertical_quotient(sup, l2_sq, l2d_sq)


def constant_scan(family: str | None, check: str, trials: int, seed: int, *,
                  p: float | None = None, n_r: int = 48, n_theta: int = 64,
                  n_z: int = 128, period: float = 2.0 * math.pi) -> dict:
    """Randomized empirical-constant scan for one inequality checker.

    Draws ``trials`` trial functions from per-trial RNG streams derived
    from ``seed``, evaluates the checker on a base grid and on a refinement
    with both resolutions doubled, and reports the max and median quotients
    together with the relative drift of the max under refinement.  Trial
    families are boundary-respecting polynomials (total degree <= 12) times
    single trig modes (<= 8) with log-uniform amplitudes, smooth enough for
    the quadrature error to be negligible against the 10 percent stability
    budget.  On every generated disk function the node-wise weight bound
    |f| <= |f / r| is verified exactly.  The accepted inputs are those
    of :func:`scan_problems`.

    Trials are drawn and evaluated in chunks: each chunk's coefficient
    tensor gives point values on both grids by basis-table products, its
    L2-type factors as Gram forms, and its quotients from the same norm
    combinations as the single-function checkers, whose preconditions
    (zero wall trace, zero angular or z-mean, radial input) it enforces
    with the same errors.  A chunk's point-value array on the finer grid
    stays near ``_CHUNK_BYTES``, so memory does not grow with ``trials``;
    only the two quotient vectors span all trials.
    """
    raise_problems(scan_problems(check, family, trials, p, n_r, n_theta,
                                 n_z, period))
    family_name = _FAMILIES_FOR_CHECK[check][0] if family is None else family
    if check == "radial_quartic":
        p_eff: float | None = 4.0
    elif check in ("angular_poincare", "vertical"):
        p_eff = None
    else:
        p_eff = 4.0 if p is None else float(p)

    vertical = check == "vertical"
    if vertical:
        chunk = _chunk_trials(trials, 2 * n_z)
        levels = (_z_basis(n_z, period), _z_basis(2 * n_z, period))
    else:
        grids = (build_disk_grid(n_r, n_theta),
                 build_disk_grid(2 * n_r, 2 * n_theta))
        chunk = _chunk_trials(trials, grids[1].n_r * grids[1].n_theta)
        levels = tuple(_disk_basis(g, chunk) for g in grids)
    min_mode = 1 if check in _ZERO_MEAN_CHECKS else 0

    ratios = np.empty((2, trials))  # coarse, fine
    weight_ok = True
    for start in range(0, trials, chunk):
        block = range(start, min(start + chunk, trials))
        if vertical:
            c = _draw_z_chunk(seed, block, family_name)
            for level, out in zip(levels, ratios):
                out[block.start:block.stop] = _vertical_chunk(level, c)
        else:
            c = _draw_disk_chunk(seed, block, family_name, min_mode)
            for level, out in zip(levels, ratios):
                out[block.start:block.stop], ok = \
                    _disk_chunk(level, c, check, p_eff)
                weight_ok = weight_ok and ok

    coarse, fine = ratios
    max_c = float(np.max(coarse))
    max_f = float(np.max(fine))
    if max_c > 0.0:
        delta = abs(max_f - max_c) / max_c
    else:
        delta = 0.0 if max_f == 0.0 else math.inf

    report = {
        "schema": SCAN_SCHEMA,
        "check": check,
        "family": family_name,
        "p": p_eff,
        "trials": int(trials),
        "seed": int(seed),
        "max_ratio": max_c,
        "median_ratio": median(coarse),
        "refinement_delta": float(delta),
    }
    if vertical:
        report["grid"] = {"n_z": int(n_z), "period": float(period)}
        report["vertical_domain"] = VERTICAL_DOMAIN_LABEL
    else:
        report["grid"] = {"n_r": int(n_r), "n_theta": int(n_theta)}
        report["pointwise_weight_ok"] = weight_ok
    return report
