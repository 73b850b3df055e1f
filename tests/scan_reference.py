"""Per-trial constant scan: the reference for the batched scan tests.

``cylmode.inequalities.constant_scan`` evaluates its trials in chunks, with
the L2-type factors taken as Gram quadratic forms of the coefficient
tensor.  This module keeps the earlier evaluation: one trial at a time,
each trial's terms summed into point values on each grid, wrapped with
``disk_function`` and handed to the single-function checkers, which take
every norm from point values and the angular derivative through the FFT.

The draws come from the package's own ``_draw_disk_terms`` and
``_draw_z_coeffs``, looked up on the module at call time so that a test
that replaces one of them affects both scans alike.
"""

from __future__ import annotations

import math

import numpy as np

from cylmode import inequalities as ineq
from cylmode.inequalities import (
    SCAN_CHECKS,
    SCAN_SCHEMA,
    VERTICAL_DOMAIN_LABEL,
    _FAMILIES_FOR_CHECK,
    _MAX_TRIG_MODE,
    angular_poincare_ratio,
    anisotropic_ratio,
    build_disk_grid,
    disk_function,
    isotropic_ratio,
    pointwise_weight_ok,
    radial_quartic_ratio,
    radial_ratio,
    vertical_sup_ratio,
)


def draw_disk_terms(rng: np.random.Generator, min_mode: int,
                    max_mode: int) -> list[tuple[np.ndarray, int, str]]:
    """The package's ``_draw_disk_terms`` as it was written first, with the
    sign drawn by ``rng.choice``; the draws must stay the same."""
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        deg = int(rng.integers(0, ineq._MAX_POLY_DEG + 1))
        coeffs = rng.normal(size=deg + 1)
        amp = 10.0 ** rng.uniform(-2.0, 2.0) * rng.choice([-1.0, 1.0])
        mode = int(rng.integers(min_mode, max_mode + 1))
        kind = "cos" if mode == 0 or rng.integers(0, 2) == 0 else "sin"
        terms.append((amp * coeffs, mode, kind))
    return terms


def _eval_disk_terms(grid, terms) -> np.ndarray:
    vals = np.zeros((grid.n_r, grid.n_theta))
    boundary = 1.0 - grid.r ** 2  # exact zero at the wall node
    for coeffs, mode, kind in terms:
        radial = boundary * np.polyval(coeffs, grid.r)
        trig = np.cos(mode * grid.theta) if kind == "cos" \
            else np.sin(mode * grid.theta)
        vals += radial[:, None] * trig[None, :]
    return vals


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
    """Per-trial version of ``cylmode.inequalities.constant_scan``."""
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
            coeffs = None if family_name == "zero" else ineq._draw_z_coeffs(rng)
            for (nz,) in levels:
                vals = np.zeros(nz) if coeffs is None \
                    else _eval_z_coeffs(coeffs, nz, period)
                ratios.append(vertical_sup_ratio(vals, period))
        else:
            if family_name == "zero":
                terms: list = []
            elif family_name == "radial_poly":
                terms = ineq._draw_disk_terms(rng, 0, 0)
            else:
                terms = ineq._draw_disk_terms(rng, min_mode, _MAX_TRIG_MODE)
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
