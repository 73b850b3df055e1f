"""Disk inequality checkers: quotients, preconditions, and constant scans."""

import json
import math

import numpy as np
import pytest

from cylmode import inequalities as ineq

PI = math.pi


@pytest.fixture(scope="module")
def disk():
    return ineq.build_disk_grid(48, 64)


@pytest.fixture(scope="module")
def disk_fine():
    return ineq.build_disk_grid(96, 128)


def _rand_fn(grid, rng, min_mode=1, n_terms=3):
    """Boundary-respecting random poly x trig trial function."""
    vals = np.zeros((grid.n_r, grid.n_theta))
    bnd = 1.0 - grid.r**2
    for _ in range(n_terms):
        coeffs = rng.normal(size=int(rng.integers(1, 6)))
        mode = int(rng.integers(min_mode, 6))
        kind = "cos" if rng.integers(0, 2) == 0 else "sin"
        radial = bnd * np.polyval(coeffs, grid.r)
        trig = np.cos(mode * grid.theta) if kind == "cos" \
            else np.sin(mode * grid.theta)
        vals += radial[:, None] * trig[None, :]
    return ineq.disk_function(grid, vals)


class TestDiskGrid:
    def test_quad_gives_disk_area(self, disk):
        ones = np.ones((disk.n_r, disk.n_theta))
        assert disk.quad(ones) == pytest.approx(PI, rel=1e-13)

    def test_quad_exact_on_polynomial(self, disk):
        vals = (disk.r**4)[:, None] * np.ones(disk.n_theta)[None, :]
        assert disk.quad(vals) == pytest.approx(PI / 3.0, rel=1e-13)

    def test_radial_derivative_exact_on_polynomial(self, disk):
        f = (disk.r**3 - disk.r)[:, None] * np.ones(disk.n_theta)[None, :]
        want = (3.0 * disk.r**2 - 1.0)[:, None]
        assert np.max(np.abs(disk.dr(f) - want)) < 1e-10

    def test_angular_derivative_exact_on_mode(self, disk):
        f = np.ones(disk.n_r)[:, None] * np.cos(3.0 * disk.theta)[None, :]
        want = -3.0 * np.sin(3.0 * disk.theta)[None, :]
        assert np.max(np.abs(disk.dtheta(f) - want)) < 1e-12

    def test_build_validation(self):
        with pytest.raises(ValueError):
            ineq.build_disk_grid(3, 64)
        with pytest.raises(ValueError):
            ineq.build_disk_grid(48, 63)


class TestTrialFunctions:
    def test_nonvanishing_boundary_rejected(self, disk):
        # a nonzero constant cannot satisfy the zero boundary trace
        with pytest.raises(ValueError, match="wall"):
            ineq.disk_function(disk, np.ones((disk.n_r, disk.n_theta)))

    def test_shape_checked(self, disk):
        with pytest.raises(ValueError, match="shape"):
            ineq.disk_function(disk, np.zeros((3, 4)))

    def test_separable_builders(self, disk):
        g = disk.r * (1.0 - disk.r**2)
        radial = ineq.radial_disk_function(disk, g)
        # columns are bit-identical but the mean reduction still rounds
        assert radial.angular_variation_relative() < 1e-15
        wavy = ineq.separable_disk_function(disk, g, mode=2, kind="sin")
        assert wavy.angular_mean_relative() < 1e-15
        assert wavy.angular_variation_relative() > 0.5
        with pytest.raises(ValueError, match="kind"):
            ineq.separable_disk_function(disk, g, mode=1, kind="tan")

    def test_zero_function_properties(self, disk):
        f = ineq.disk_function(disk, np.zeros((disk.n_r, disk.n_theta)))
        assert f.is_zero()
        assert f.angular_mean_relative() == 0.0


class TestIsotropicRatio:
    def test_p2_is_exactly_one(self, disk):
        f = _rand_fn(disk, np.random.default_rng(1), min_mode=0)
        assert ineq.isotropic_ratio(f, 2.0) == 1.0

    def test_zero_input_maps_to_zero(self, disk):
        f = ineq.disk_function(disk, np.zeros((disk.n_r, disk.n_theta)))
        assert ineq.isotropic_ratio(f, 4.0) == 0.0

    def test_quartic_value_matches_hand_integrals(self, disk):
        # f = 1 - r^2: ||f||_4^4 = pi/5, ||f||_2^2 = pi/3, ||grad f||^2 = 2 pi,
        # so the quotient is (3 / (10 pi))^(1/4)
        f = ineq.radial_disk_function(disk, 1.0 - disk.r**2)
        want = (3.0 / (10.0 * PI)) ** 0.25
        assert ineq.isotropic_ratio(f, 4.0) == pytest.approx(want, rel=1e-10)

    def test_scale_invariance(self, disk):
        f = _rand_fn(disk, np.random.default_rng(2), min_mode=0)
        base = ineq.isotropic_ratio(f, 4.0)
        for lam in (1e-3, 1.0, 1e3):
            g = ineq.disk_function(disk, lam * f.values)
            assert ineq.isotropic_ratio(g, 4.0) == pytest.approx(base, rel=1e-12)

    def test_exponent_range(self, disk):
        f = ineq.radial_disk_function(disk, 1.0 - disk.r**2)
        with pytest.raises(ValueError, match="exponent"):
            ineq.isotropic_ratio(f, 1.5)
        with pytest.raises(ValueError, match="exponent"):
            ineq.isotropic_ratio(f, math.inf)

    def test_refinement_agreement(self, disk, disk_fine):
        def build(g):
            radial = (1.0 - g.r**2) * g.r**2
            return ineq.separable_disk_function(g, radial, mode=2, kind="cos")

        a = ineq.isotropic_ratio(build(disk), 4.0)
        b = ineq.isotropic_ratio(build(disk_fine), 4.0)
        assert a == pytest.approx(b, rel=1e-12)


class TestAnisotropicRatio:
    def test_p2_is_exactly_one(self, disk):
        f = _rand_fn(disk, np.random.default_rng(3))
        assert ineq.anisotropic_ratio(f, 2.0) == 1.0

    def test_quartic_value_matches_hand_integrals(self, disk):
        # f = r (1 - r^2) cos(theta): ||f||_4^4 = pi/280, ||f||_2^2 = pi/24,
        # ||d_r f||^2 = pi/2, ||d_theta f / r||^2 = pi/6
        g = disk.r * (1.0 - disk.r**2)
        f = ineq.separable_disk_function(disk, g, mode=1, kind="cos")
        lhs = (PI / 280.0) ** 0.25
        rhs = (PI / 24.0) ** 0.25 \
            * ((PI / 2.0) ** 0.125 + (PI / 6.0) ** 0.125) * (PI / 6.0) ** 0.125
        assert ineq.anisotropic_ratio(f, 4.0) == pytest.approx(lhs / rhs, rel=1e-10)

    def test_nonzero_angular_mean_rejected(self, disk):
        f = ineq.radial_disk_function(disk, 1.0 - disk.r**2)
        with pytest.raises(ValueError, match="angular mean"):
            ineq.anisotropic_ratio(f, 4.0)

    def test_exponent_range(self, disk):
        f = _rand_fn(disk, np.random.default_rng(4))
        with pytest.raises(ValueError, match="exponent"):
            ineq.anisotropic_ratio(f, 6.5)
        with pytest.raises(ValueError, match="exponent"):
            ineq.anisotropic_ratio(f, 1.9)
        assert ineq.anisotropic_ratio(f, 6.0) > 0.0

    def test_scale_invariance(self, disk):
        f = _rand_fn(disk, np.random.default_rng(5))
        base = ineq.anisotropic_ratio(f, 4.0)
        for lam in (1e-3, 1.0, 1e3):
            g = ineq.disk_function(disk, lam * f.values)
            assert ineq.anisotropic_ratio(g, 4.0) == pytest.approx(base, rel=1e-12)

    def test_single_mode_reduction_to_radial_quartic(self, disk):
        # for f = g(r) cos(theta) at p = 4 the two code paths differ only by
        # the angular integrals: ratio_aniso = (3/2)^(1/4) * ratio_radial
        g = disk.r * (1.0 - disk.r**2) ** 2
        f = ineq.separable_disk_function(disk, g, mode=1, kind="cos")
        left = ineq.anisotropic_ratio(f, 4.0)
        right = ineq.radial_quartic_ratio(ineq.radial_disk_function(disk, g))
        assert left == pytest.approx(1.5**0.25 * right, rel=1e-12)


class TestRadialRatios:
    def test_quartic_value_matches_hand_integrals(self, disk):
        # g = r (1 - r^2): ||g||_4^4 = pi/105, ||g||_2^2 = pi/12,
        # ||d_r g||^2 = pi, ||g/r||^2 = pi/3
        g = ineq.radial_disk_function(disk, disk.r * (1.0 - disk.r**2))
        lhs = (PI / 105.0) ** 0.25
        rhs = (PI / 12.0) ** 0.25 \
            * (PI ** 0.125 + (PI / 3.0) ** 0.125) * (PI / 3.0) ** 0.125
        assert ineq.radial_quartic_ratio(g) == pytest.approx(lhs / rhs, rel=1e-10)

    def test_zero_input_maps_to_zero(self, disk):
        g = ineq.disk_function(disk, np.zeros((disk.n_r, disk.n_theta)))
        assert ineq.radial_quartic_ratio(g) == 0.0
        assert ineq.radial_ratio(g, 5.0) == 0.0

    def test_nonradial_rejected(self, disk):
        f = ineq.separable_disk_function(
            disk, 1.0 - disk.r**2, mode=3, kind="cos")
        with pytest.raises(ValueError, match="radial"):
            ineq.radial_quartic_ratio(f)
        with pytest.raises(ValueError, match="radial"):
            ineq.radial_ratio(f, 4.0)

    def test_p2_is_exactly_one(self, disk):
        g = ineq.radial_disk_function(disk, 1.0 - disk.r**2)
        assert ineq.radial_ratio(g, 2.0) == 1.0

    def test_p8_beyond_quartic_range_is_finite(self, disk):
        g = ineq.radial_disk_function(disk, 1.0 - disk.r**2)
        val = ineq.radial_ratio(g, 8.0)
        assert 0.0 < val < 10.0
        scaled = ineq.radial_disk_function(disk, 1e3 * (1.0 - disk.r**2))
        assert ineq.radial_ratio(scaled, 8.0) == pytest.approx(val, rel=1e-12)

    def test_general_matches_quartic_at_p4(self, disk):
        for profile in ((1.0 - disk.r) ** 2, disk.r * (1.0 - disk.r**2)):
            g = ineq.radial_disk_function(disk, profile)
            assert ineq.radial_ratio(g, 4.0) == pytest.approx(
                ineq.radial_quartic_ratio(g), rel=1e-14)

    def test_exponent_range(self, disk):
        g = ineq.radial_disk_function(disk, 1.0 - disk.r**2)
        with pytest.raises(ValueError, match="exponent"):
            ineq.radial_ratio(g, 1.9)


class TestAngularPoincare:
    def test_pure_mode_gives_inverse_mode_number(self, disk):
        g = disk.r * (1.0 - disk.r**2)
        for mode, kind in ((1, "cos"), (4, "sin")):
            f = ineq.separable_disk_function(disk, g, mode=mode, kind=kind)
            assert ineq.angular_poincare_ratio(f) == pytest.approx(
                1.0 / mode, rel=1e-12)

    def test_bound_over_random_family(self, disk):
        for seed in range(20):
            f = _rand_fn(disk, np.random.default_rng(100 + seed))
            val = ineq.angular_poincare_ratio(f)
            assert val <= ineq.POINCARE_BOUND
            # sharp zero-mean constant is 1; the contract bound is loose
            assert val <= 1.0 + 1e-10

    def test_mean_violation_rejected(self, disk):
        f = ineq.radial_disk_function(disk, 1.0 - disk.r**2)
        with pytest.raises(ValueError, match="angular mean"):
            ineq.angular_poincare_ratio(f)

    def test_zero_input_maps_to_zero(self, disk):
        f = ineq.disk_function(disk, np.zeros((disk.n_r, disk.n_theta)))
        assert ineq.angular_poincare_ratio(f) == 0.0


class TestPointwiseWeight:
    def test_random_functions_satisfy_weight_bound(self, disk):
        for seed in range(10):
            f = _rand_fn(disk, np.random.default_rng(200 + seed), min_mode=0)
            assert ineq.pointwise_weight_ok(f)

    def test_zero_function(self, disk):
        f = ineq.disk_function(disk, np.zeros((disk.n_r, disk.n_theta)))
        assert ineq.pointwise_weight_ok(f)


class TestVerticalInterpolation:
    def test_single_mode_value(self):
        z = (2.0 * PI / 128) * np.arange(128)
        # max |sin| = 1 lands on the grid; both L2 norms equal sqrt(pi)
        val = ineq.vertical_sup_ratio(np.sin(z), 2.0 * PI)
        assert val == pytest.approx(1.0 / math.sqrt(PI), rel=1e-12)

    def test_amplitude_invariance(self):
        z = (2.0 * PI / 128) * np.arange(128)
        base = ineq.vertical_sup_ratio(np.sin(z), 2.0 * PI)
        for amp in (1e-3, 1e3):
            val = ineq.vertical_sup_ratio(amp * np.sin(z), 2.0 * PI)
            assert val == pytest.approx(base, rel=1e-12)

    def test_two_mode_value(self):
        # h = sin z + 0.3 cos 2z peaks at z = 3 pi/2 (on the grid) with
        # |h| = 1.3; ||h||^2 = 1.09 pi and ||h'||^2 = 1.36 pi
        z = (2.0 * PI / 256) * np.arange(256)
        h = np.sin(z) + 0.3 * np.cos(2.0 * z)
        want = 1.3 / (math.sqrt(PI) * (1.09 * 1.36) ** 0.25)
        assert ineq.vertical_sup_ratio(h, 2.0 * PI) == pytest.approx(
            want, rel=1e-12)

    def test_rows_reduce_to_profile_ratio(self):
        z = (2.0 * PI / 128) * np.arange(128)
        h = np.sin(z) + 0.25 * np.sin(3.0 * z)
        stacked = np.outer(np.array([2.0, 0.5, 7.0]), h)
        assert ineq.vertical_sup_ratio(stacked, 2.0 * PI) == pytest.approx(
            ineq.vertical_sup_ratio(h, 2.0 * PI), rel=1e-14)

    def test_zero_mean_enforcement(self):
        z = (2.0 * PI / 128) * np.arange(128)
        biased = 1.0 + np.sin(z)
        with pytest.raises(ValueError, match="z-mean"):
            ineq.vertical_sup_ratio(biased, 2.0 * PI)
        relaxed = ineq.vertical_sup_ratio(biased, 2.0 * PI,
                                          enforce_zero_mean=False)
        assert 0.0 < relaxed < 10.0

    def test_zero_input_maps_to_zero(self):
        assert ineq.vertical_sup_ratio(np.zeros(64), 2.0 * PI) == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="even"):
            ineq.vertical_sup_ratio(np.zeros(65), 2.0 * PI)
        with pytest.raises(ValueError, match="period"):
            ineq.vertical_sup_ratio(np.zeros(64), 0.0)

    def test_refinement_consistency(self):
        def ratio(n_z):
            z = (2.0 * PI / n_z) * np.arange(n_z)
            h = np.sin(z) - 0.4 * np.cos(3.0 * z) + 0.1 * np.sin(7.0 * z)
            return ineq.vertical_sup_ratio(h, 2.0 * PI)

        a, b = ratio(128), ratio(256)
        assert abs(a - b) <= 0.02 * b


class TestConstantScan:
    REQUIRED_KEYS = {"check", "p", "trials", "seed",
                     "max_ratio", "median_ratio", "refinement_delta"}

    def test_zero_family(self):
        rep = ineq.constant_scan("zero", "anisotropic", 1, 7)
        assert rep["max_ratio"] == 0.0
        assert rep["median_ratio"] == 0.0
        assert rep["refinement_delta"] == 0.0
        assert rep["pointwise_weight_ok"] is True

    def test_anisotropic_scan_is_stable_under_refinement(self):
        rep = ineq.constant_scan(None, "anisotropic", 100, 42, p=4.0)
        assert self.REQUIRED_KEYS <= set(rep)
        assert 0.0 < rep["max_ratio"] < 100.0
        assert rep["refinement_delta"] <= 0.10
        assert rep["pointwise_weight_ok"] is True
        assert rep["family"] == "poly_trig"

    def test_report_json_roundtrip(self, tmp_path):
        rep = ineq.constant_scan(None, "isotropic", 10, 3, p=4.0)
        path = tmp_path / "scan.json"
        ineq.write_scan_report(rep, path)
        loaded = json.loads(path.read_text())
        assert loaded == rep
        assert loaded["schema"] == ineq.SCAN_SCHEMA

    def test_deterministic_and_seed_sensitive(self):
        a = ineq.constant_scan(None, "radial", 10, 11, p=4.0)
        b = ineq.constant_scan(None, "radial", 10, 11, p=4.0)
        c = ineq.constant_scan(None, "radial", 10, 12, p=4.0)
        assert a == b
        assert a["max_ratio"] != c["max_ratio"]

    def test_vertical_scan_carries_surrogate_label(self):
        rep = ineq.constant_scan(None, "vertical", 20, 9)
        assert rep["vertical_domain"] == ineq.VERTICAL_DOMAIN_LABEL
        assert rep["p"] is None
        assert rep["refinement_delta"] <= 0.10
        assert rep["grid"] == {"n_z": 128, "period": 2.0 * PI}

    def test_radial_scan_beyond_quartic_exponent(self):
        rep = ineq.constant_scan(None, "radial", 30, 21, p=8.0)
        assert 0.0 < rep["max_ratio"] < 100.0
        assert rep["refinement_delta"] <= 0.10
        assert rep["p"] == 8.0

    def test_isotropic_scan(self):
        rep = ineq.constant_scan(None, "isotropic", 30, 31, p=4.0)
        assert 0.0 < rep["max_ratio"] < 100.0
        assert rep["refinement_delta"] <= 0.10

    def test_poincare_scan_respects_bound(self):
        rep = ineq.constant_scan(None, "angular_poincare", 30, 17)
        assert rep["max_ratio"] <= ineq.POINCARE_BOUND
        assert rep["max_ratio"] <= 1.0 + 1e-10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="check"):
            ineq.constant_scan(None, "no_such_check", 1, 0)
        with pytest.raises(ValueError, match="trials"):
            ineq.constant_scan(None, "isotropic", 0, 0)
        with pytest.raises(ValueError, match="family"):
            ineq.constant_scan("poly_trig", "radial_quartic", 1, 0)

    def test_quartic_radial_scan(self):
        rep = ineq.constant_scan(None, "radial_quartic", 30, 13)
        assert rep["p"] == 4.0
        assert 0.0 < rep["max_ratio"] < 100.0
        assert rep["refinement_delta"] <= 0.10
