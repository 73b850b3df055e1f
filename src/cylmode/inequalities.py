"""Anisotropic functional-inequality checkers on the unit disk.

The solver works with azimuthal harmonics and never needs an angle grid;
the functional estimates behind the per-mode decay predictions are
genuinely two dimensional.  This module therefore carries its own
(r, theta) tensor grid: mapped Chebyshev nodes in radius (axis node
dropped, wall node exactly at r = 1) and a uniform periodic angle grid
differentiated through the FFT.

Each checker returns the dimensionless quotient

    left-hand norm / right-hand norm combination

of one inequality, so a quotient that stays bounded over a family of trial
functions is direct numerical evidence for the estimate with that constant.
All planar norms use the disk area measure r dr dtheta.  Both sides of
every quotient share the same homogeneity degree, so the quotients are
exact scale invariants, and every operation maps identically zero input
to 0.

The vertical checker replaces the whole-line interpolation estimate by its
zero-mean periodic analogue, consistent with the periodic vertical cell
used everywhere else in the package; scan reports carry that label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    _barycentric_weights,
    _chebyshev_nodes_weights,
    _diff_matrix_barycentric,
)

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
    "write_scan_report",
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


# -- disk grid ----------------------------------------------------------------

@dataclass(frozen=True)
class DiskGrid:
    """Tensor grid on the unit disk for the inequality checkers.

    Radial nodes are mapped Chebyshev points on (0, 1]: the axis node is
    dropped (its r-weighted quadrature weight vanishes identically) and the
    wall node sits exactly at 1.  Angle nodes are uniform on [0, 2*pi); the
    implied rectangle rule is exact for trigonometric polynomials of degree
    below the node count, and angular derivatives go through the FFT with
    the Nyquist column dropped.
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
        v = np.abs(np.asarray(values, dtype=float))
        return self.quad(v ** p) ** (1.0 / p)

    def dr(self, values: np.ndarray) -> np.ndarray:
        return self.D_r @ np.asarray(values, dtype=float)

    def dtheta(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        spec = np.fft.rfft(v, axis=1)
        m = np.arange(spec.shape[1], dtype=float)
        if self.n_theta % 2 == 0:
            m[-1] = 0.0  # Nyquist mode carries no odd-derivative information
        return np.fft.irfft(spec * (1j * m), n=self.n_theta, axis=1)


def build_disk_grid(n_r: int = 48, n_theta: int = 64) -> DiskGrid:
    if n_r < 4:
        raise ValueError("n_r must be >= 4")
    if n_theta < 8 or n_theta % 2 != 0:
        raise ValueError("n_theta must be even and >= 8")
    r, w = _chebyshev_nodes_weights(n_r)
    D = _diff_matrix_barycentric(r, _barycentric_weights(r))
    theta = (2.0 * math.pi / n_theta) * np.arange(n_theta)
    return DiskGrid(n_r=n_r, n_theta=n_theta, r=r, w_r=w, D_r=D, theta=theta)


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

    def is_zero(self) -> bool:
        return self.peak == 0.0

    def angular_mean_relative(self) -> float:
        """Largest per-radius angular mean, relative to the peak."""
        if self.is_zero():
            return 0.0
        return float(np.max(np.abs(self.values.mean(axis=1)))) / self.peak

    def angular_variation_relative(self) -> float:
        """Largest deviation from the per-radius angular mean, relative."""
        if self.is_zero():
            return 0.0
        spread = self.values - self.values.mean(axis=1, keepdims=True)
        return float(np.max(np.abs(spread))) / self.peak


def disk_function(grid: DiskGrid, values: np.ndarray) -> TestFunction2D:
    """Wrap full (r, theta) samples, enforcing the zero boundary trace."""
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_r, grid.n_theta):
        raise ValueError(
            f"values must have shape {(grid.n_r, grid.n_theta)}, got {v.shape}"
        )
    peak = float(np.max(np.abs(v)))
    wall = float(np.max(np.abs(v[-1, :])))
    if wall > BOUNDARY_TOL * max(1.0, peak):
        raise ValueError("trial function must vanish at the wall r = 1")
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


def _require_zero_angular_mean(f: TestFunction2D) -> None:
    if f.angular_mean_relative() > ANGULAR_MEAN_TOL:
        raise ValueError("zero angular mean required for this checker")


def _require_radial(f: TestFunction2D) -> None:
    if f.angular_variation_relative() > ANGULAR_MEAN_TOL:
        raise ValueError("radial input required: values vary with the angle")


# -- inequality quotients ------------------------------------------------------

def isotropic_ratio(f: TestFunction2D, p: float) -> float:
    """Planar interpolation quotient with the full gradient on the right.

    Returns ||f||_p / (||f||_2^(2/p) * ||grad f||_2^(1 - 2/p)) for
    2 <= p < inf; the gradient squares to (d_r f)^2 + (d_theta f / r)^2.
    """
    if not 2.0 <= p < math.inf:
        raise ValueError("exponent p must satisfy 2 <= p < inf")
    if f.is_zero():
        return 0.0
    if p == 2:
        return 1.0  # both sides reduce to the plain L2 norm
    g, v = f.grid, f.values
    lhs = g.lp_norm(v, p)
    l2 = g.lp_norm(v, 2.0)
    fr = g.dr(v)
    ft = g.dtheta(v) / g.r[:, None]
    grad = math.sqrt(g.quad(fr * fr + ft * ft))
    return lhs / (l2 ** (2.0 / p) * grad ** (1.0 - 2.0 / p))


def anisotropic_ratio(f: TestFunction2D, p: float) -> float:
    """Split-derivative disk quotient for zero-angular-mean functions.

    Returns lhs / rhs with lhs = ||f||_p and

        rhs = ||f||_2^(2/p) * (||d_r f||_2^e + ||d_theta f / r||_2^e)
                            * ||d_theta f / r||_2^e,    e = 1/2 - 1/p,

    for 2 <= p <= 6.  The angular-derivative factor is what lets the
    right-hand side avoid the vertical direction entirely, which is why a
    zero angular mean is a hard precondition.
    """
    if not 2.0 <= p <= 6.0:
        raise ValueError("exponent p must satisfy 2 <= p <= 6")
    if f.is_zero():
        return 0.0
    _require_zero_angular_mean(f)
    if p == 2:
        return 1.0  # every derivative exponent vanishes
    g, v = f.grid, f.values
    e = 0.5 - 1.0 / p
    lhs = g.lp_norm(v, p)
    l2 = g.lp_norm(v, 2.0)
    fr = g.dr(v)
    ft = g.dtheta(v) / g.r[:, None]
    a = math.sqrt(g.quad(fr * fr))
    b = math.sqrt(g.quad(ft * ft))
    return lhs / (l2 ** (2.0 / p) * (a ** e + b ** e) * b ** e)


def radial_quartic_ratio(f: TestFunction2D) -> float:
    """Quartic-norm quotient for radial profiles vanishing at the wall.

    Returns ||g||_4 / (||g||_2^(1/2) * (||d_r g||_2^(1/4) + ||g/r||_2^(1/4))
    * ||g/r||_2^(1/4)).  The hardy-type weight g/r replaces the angular
    derivative available to non-radial functions.
    """
    _require_radial(f)
    if f.is_zero():
        return 0.0
    g, v = f.grid, f.values
    lhs = g.lp_norm(v, 4.0)
    l2 = g.lp_norm(v, 2.0)
    a = math.sqrt(g.quad(g.dr(v) ** 2))
    c = math.sqrt(g.quad((v / g.r[:, None]) ** 2))
    return lhs / (l2 ** 0.5 * (a ** 0.25 + c ** 0.25) * c ** 0.25)


def radial_ratio(f: TestFunction2D, p: float) -> float:
    """Any-exponent version of the radial quotient, 2 <= p < inf.

    Same structure as :func:`radial_quartic_ratio` with exponents
    e = 1/2 - 1/p on both weighted factors and 2/p on the plain norm; the
    quartic restriction of the split-derivative bound does not apply here.
    """
    if not 2.0 <= p < math.inf:
        raise ValueError("exponent p must satisfy 2 <= p < inf")
    _require_radial(f)
    if f.is_zero():
        return 0.0
    if p == 2:
        return 1.0  # every derivative exponent vanishes
    g, v = f.grid, f.values
    e = 0.5 - 1.0 / p
    lhs = g.lp_norm(v, p)
    l2 = g.lp_norm(v, 2.0)
    a = math.sqrt(g.quad(g.dr(v) ** 2))
    c = math.sqrt(g.quad((v / g.r[:, None]) ** 2))
    return lhs / (l2 ** (2.0 / p) * (a ** e + c ** e) * c ** e)


def angular_poincare_ratio(f: TestFunction2D) -> float:
    """||f / r||_2 over ||d_theta f / r||_2 for zero-angular-mean input.

    Bounded by ``POINCARE_BOUND`` (the crude constant 2*pi; the sharp
    zero-mean constant is 1, reached by pure mode-1 content).
    """
    if f.is_zero():
        return 0.0
    _require_zero_angular_mean(f)
    g = f.grid
    w = f.values / g.r[:, None]
    num = math.sqrt(g.quad(w * w))
    dt = g.dtheta(f.values) / g.r[:, None]
    den = math.sqrt(g.quad(dt * dt))
    if den == 0.0:
        return 0.0  # zero-mean with no angular content means f == 0
    return num / den


def pointwise_weight_ok(f: TestFunction2D) -> bool:
    """Node-wise check that |f| <= |f / r|; exact on the disk since r <= 1."""
    v = np.abs(f.values)
    return bool(np.all(v <= v / f.grid.r[:, None]))


def vertical_sup_ratio(values: np.ndarray, period: float,
                       enforce_zero_mean: bool = True) -> float:
    """Sup-over-z interpolation quotient, per radius row, then the largest.

    For each row f_i the quotient is

        max_z |f_i| / (||f_i||_2^(1/2) * ||d_z f_i||_2^(1/2))

    with L2 norms over one period.  This is the zero-mean periodic analogue
    of the whole-line sup estimate (the package models the unbounded
    direction by a long periodic cell); rows whose z-mean exceeds 1e-12 of
    the peak are rejected while enforcement is on.  Input may be a single
    row (n_z,) or a stack (n_rows, n_z).
    """
    v = np.atleast_2d(np.asarray(values, dtype=float))
    n_z = v.shape[1]
    if n_z < 4 or n_z % 2 != 0:
        raise ValueError("need an even number of z samples, at least 4")
    if not period > 0.0:
        raise ValueError("period must be positive")
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return 0.0
    if enforce_zero_mean:
        worst = float(np.max(np.abs(v.mean(axis=1))))
        if worst > Z_MEAN_TOL * peak:
            raise ValueError("zero z-mean required by the periodic analogue")
    spec = np.fft.rfft(v, axis=1)
    k = (2.0 * math.pi / period) * np.arange(spec.shape[1], dtype=float)
    k[-1] = 0.0  # Nyquist mode carries no odd-derivative information
    dz = np.fft.irfft(spec * (1j * k), n=n_z, axis=1)
    dw = period / n_z
    l2 = np.sqrt(np.sum(v * v, axis=1) * dw)
    l2d = np.sqrt(np.sum(dz * dz, axis=1) * dw)
    sup = np.max(np.abs(v), axis=1)
    rhs = np.sqrt(l2 * l2d)
    ratios = np.divide(sup, rhs, out=np.zeros_like(sup), where=rhs > 0.0)
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

# generated radial parts are (1 - r^2) * poly(deg <= 10), total degree <= 12;
# trig modes stay <= 8 so the base grids integrate all even powers exactly
_MAX_POLY_DEG = 10
_MAX_TRIG_MODE = 8


def _draw_disk_terms(rng: np.random.Generator, min_mode: int,
                     max_mode: int) -> list[tuple[np.ndarray, int, str]]:
    """Random separable terms; coefficients only, grid-independent."""
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        deg = int(rng.integers(0, _MAX_POLY_DEG + 1))
        coeffs = rng.normal(size=deg + 1)
        amp = 10.0 ** rng.uniform(-2.0, 2.0) * rng.choice([-1.0, 1.0])
        mode = int(rng.integers(min_mode, max_mode + 1))
        kind = "cos" if mode == 0 or rng.integers(0, 2) == 0 else "sin"
        terms.append((amp * coeffs, mode, kind))
    return terms


def _eval_disk_terms(grid: DiskGrid,
                     terms: list[tuple[np.ndarray, int, str]]) -> np.ndarray:
    vals = np.zeros((grid.n_r, grid.n_theta))
    boundary = 1.0 - grid.r ** 2  # exact zero at the wall node
    for coeffs, mode, kind in terms:
        radial = boundary * np.polyval(coeffs, grid.r)
        trig = np.cos(mode * grid.theta) if kind == "cos" \
            else np.sin(mode * grid.theta)
        vals += radial[:, None] * trig[None, :]
    return vals


def _draw_z_coeffs(rng: np.random.Generator) -> np.ndarray:
    """Random zero-mean trig coefficients, rows (a_m, b_m) for m = 1..M."""
    n_modes = int(rng.integers(1, _MAX_TRIG_MODE + 1))
    amp = 10.0 ** rng.uniform(-2.0, 2.0)
    return amp * rng.normal(size=(n_modes, 2))


def _eval_z_coeffs(coeffs: np.ndarray, n_z: int, period: float) -> np.ndarray:
    z = (period / n_z) * np.arange(n_z)
    vals = np.zeros(n_z)
    for m, (a, b) in enumerate(coeffs, start=1):
        arg = (2.0 * math.pi / period) * m * z
        vals += a * np.cos(arg) + b * np.sin(arg)
    return vals


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
    |f| <= |f / r| is verified exactly.
    """
    if check not in SCAN_CHECKS:
        raise ValueError(f"unknown check {check!r}; expected one of {SCAN_CHECKS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    allowed = _FAMILIES_FOR_CHECK[check]
    family_name = family if family is not None else allowed[0]
    if family_name not in allowed:
        raise ValueError(
            f"family {family_name!r} incompatible with check {check!r}; "
            f"expected one of {allowed}"
        )

    if check == "radial_quartic":
        p_eff: float | None = 4.0
    elif check in ("angular_poincare", "vertical"):
        p_eff = None
    else:
        p_eff = 4.0 if p is None else float(p)

    vertical = check == "vertical"
    if vertical:
        levels = ((n_z,), (2 * n_z,))
    else:
        grids = (build_disk_grid(n_r, n_theta),
                 build_disk_grid(2 * n_r, 2 * n_theta))

    min_mode = 1 if check in ("anisotropic", "angular_poincare") else 0

    def run_trial(index: int) -> tuple[float, float, bool]:
        rng = np.random.default_rng([int(seed), index])
        weight_ok = True
        ratios = []
        if vertical:
            coeffs = None if family_name == "zero" else _draw_z_coeffs(rng)
            for (nz,) in levels:
                vals = np.zeros(nz) if coeffs is None \
                    else _eval_z_coeffs(coeffs, nz, period)
                ratios.append(vertical_sup_ratio(vals, period))
        else:
            if family_name == "zero":
                terms: list = []
            elif family_name == "radial_poly":
                terms = _draw_disk_terms(rng, 0, 0)
            else:
                terms = _draw_disk_terms(rng, min_mode, _MAX_TRIG_MODE)
            for g in grids:
                fn = disk_function(g, _eval_disk_terms(g, terms))
                weight_ok = weight_ok and pointwise_weight_ok(fn)
                if check == "isotropic":
                    ratios.append(isotropic_ratio(fn, p_eff))
                elif check == "anisotropic":
                    ratios.append(anisotropic_ratio(fn, p_eff))
                elif check == "radial_quartic":
                    ratios.append(radial_quartic_ratio(fn))
                elif check == "radial":
                    ratios.append(radial_ratio(fn, p_eff))
                else:
                    ratios.append(angular_poincare_ratio(fn))
        return ratios[0], ratios[1], weight_ok

    results = [run_trial(i) for i in range(trials)]

    coarse = np.array([r[0] for r in results])
    fine = np.array([r[1] for r in results])
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
        "median_ratio": float(np.median(coarse)),
        "refinement_delta": float(delta),
    }
    if vertical:
        report["grid"] = {"n_z": int(n_z), "period": float(period)}
        report["vertical_domain"] = VERTICAL_DOMAIN_LABEL
    else:
        report["grid"] = {"n_r": int(n_r), "n_theta": int(n_theta)}
        report["pointwise_weight_ok"] = bool(all(r[2] for r in results))
    return report


def write_scan_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
