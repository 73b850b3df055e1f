"""Grid construction, derivatives and quadrature.

The reference constant below was computed independently with 30-digit
arithmetic (mpmath): the solid-cylinder integral of
``(1 - r^2)^2 exp(cos z)`` on ``L_z = 2 pi``.  It pins the quadrature
weights and the measure convention ``r dr dz``.
"""

import numpy as np
import pytest

from cylmode import build_grid
from cylmode.grid import (median, radial_nodes, spectral_derivative,
                           spectral_symbol)
from cylmode.inequalities import build_disk_grid
from cylmode.oracle import OracleOpCache
from cylmode.stokes import _zeta_tables

INT_WEIGHTED_EXP = 1.3258210868354742124


def _fields(g):
    r = g.r[:, None]
    z = g.z[None, :]
    return r, z


class TestQuadrature:
    def test_unit_and_linear_moments_exact(self, grid_cheb):
        g = grid_cheb
        one = np.ones((g.n_r, g.n_z))
        r = g.r[:, None] * np.ones_like(one)
        assert g.quad(one) == pytest.approx(g.L_z / 2.0, abs=1e-14)
        assert g.quad(r) == pytest.approx(g.L_z / 3.0, abs=1e-14)

    def test_weighted_exponential_integral_frozen(self, grid_cheb):
        r, z = _fields(grid_cheb)
        f = (1.0 - r**2) ** 2 * np.exp(np.cos(z))
        assert grid_cheb.quad(f) == pytest.approx(INT_WEIGHTED_EXP, rel=1e-14)

    def test_high_degree_radial_moments(self, grid_cheb):
        # Clenshaw-Curtis with the r weight stays exact well past degree n
        r, _ = _fields(grid_cheb)
        for a in (5, 12, 24):
            val = grid_cheb.quad(r**a * np.ones((1, grid_cheb.n_z)))
            exact = grid_cheb.L_z / (a + 2.0)
            assert val == pytest.approx(exact, rel=1e-13)


class TestDerivatives:
    def test_radial_derivative_polynomial_exact(self, grid_cheb):
        r, _ = _fields(grid_cheb)
        f = r**7 - 3.0 * r**3 + r
        want = 7.0 * r**6 - 9.0 * r**2 + 1.0
        assert np.abs(grid_cheb.dr(f * np.ones((1, grid_cheb.n_z))) -
                      want * np.ones((1, grid_cheb.n_z))).max() < 1e-11

    def test_radial_second_derivative(self, grid_cheb):
        r, _ = _fields(grid_cheb)
        f = (r**4 * np.ones((1, grid_cheb.n_z)))
        assert np.abs(grid_cheb.dr(grid_cheb.dr(f)) - 12.0 * r**2).max() < 1e-9

    def test_vertical_derivative_spectral(self, grid_cheb):
        r, z = _fields(grid_cheb)
        f = (1.0 - r**2) * np.sin(3.0 * z) * np.exp(np.cos(z))
        want = (1.0 - r**2) * np.exp(np.cos(z)) * (3.0 * np.cos(3.0 * z)
                                                   - np.sin(z) * np.sin(3.0 * z))
        assert np.abs(grid_cheb.dz(f) - want).max() < 1e-12

    def test_nyquist_odd_derivative_vanishes(self, grid_cheb):
        g = grid_cheb
        _, z = _fields(g)
        f = np.cos((g.n_z // 2) * 2.0 * np.pi * z / g.L_z) * np.ones((g.n_r, 1))
        assert np.abs(g.dz(f)).max() == 0.0
        # even order keeps the true symbol
        zeta = (g.n_z // 2) * 2.0 * np.pi / g.L_z
        assert np.abs(g.dz_pow(f, 2) + zeta**2 * f).max() < 1e-9

    def test_mixed_derivatives_commute(self, grid_cheb, rng):
        g = grid_cheb
        r, z = _fields(g)
        f = (1.0 - r**2) * r * np.cos(2.0 * z) + r**3 * np.sin(z)
        a = g.dr(g.dz(f))
        b = g.dz(g.dr(f))
        assert np.abs(a - b).max() < 1e-10


class TestNyquistRule:
    """The one spectral-derivative rule every module reads."""

    @pytest.mark.parametrize("n", [8, 9, 16, 17])
    def test_symbol_drops_nyquist_for_odd_orders_only(self, n):
        period = 3.7
        zeta = 2.0 * np.pi / period * np.arange(n // 2 + 1)
        for order in range(5):
            sym = spectral_symbol(n, period, order)
            assert sym.shape == (n // 2 + 1,)
            want = (1j * zeta) ** order
            np.testing.assert_allclose(sym[:-1], want[:-1], rtol=1e-14)
            if n % 2 == 0 and order % 2 == 1:
                assert sym[-1] == 0.0
            else:
                # an odd n has no Nyquist bin; an even order keeps it
                assert sym[-1] != 0.0
                assert sym[-1] == pytest.approx(want[-1], rel=1e-14)

    def test_dz_pow_is_spectral_derivative_bit_for_bit(self, grid_cheb, rng):
        g = grid_cheb
        f = rng.standard_normal((g.n_r, g.n_z))
        for j in range(4):
            got, want = g.dz_pow(f, j), spectral_derivative(f, g.L_z, j)
            assert got.tobytes() == want.tobytes()
        assert g.dz(f).tobytes() == spectral_derivative(f, g.L_z, 1).tobytes()

    def test_derivative_along_any_axis(self, rng):
        f = rng.standard_normal((5, 12, 3))
        moved = spectral_derivative(np.moveaxis(f, 1, -1), 2.0, 3)
        np.testing.assert_array_equal(
            spectral_derivative(f, 2.0, 3, axis=1), np.moveaxis(moved, -1, 1))

    def test_solver_tables_are_the_symbol_parts(self, grid_cheb):
        g = grid_cheb
        parts = (spectral_symbol(g.n_z, g.L_z, 1).imag,
                 -spectral_symbol(g.n_z, g.L_z, 2).real)
        for got, want in zip(_zeta_tables(g), parts):
            np.testing.assert_array_equal(got, want)
        n_theta = 12
        cache = OracleOpCache(g, n_theta, 1.0)
        np.testing.assert_array_equal(cache._zeta1, parts[0])
        np.testing.assert_array_equal(cache._zeta2, parts[1])
        np.testing.assert_array_equal(
            cache._m1, spectral_symbol(n_theta, 2.0 * np.pi, 1).imag)
        np.testing.assert_array_equal(
            cache._m2, -spectral_symbol(n_theta, 2.0 * np.pi, 2).real)
        # the azimuthal period is 2 pi: the tables are the plain bin index,
        # with the first-order Nyquist bin dropped
        np.testing.assert_array_equal(cache._m2, np.arange(7.0) ** 2)
        np.testing.assert_array_equal(cache._m1, [0, 1, 2, 3, 4, 5, 0])


class TestRadialNodes:
    def test_meridional_and_disk_grids_share_the_node_set(self, grid_cheb):
        r, w_r, D_r = radial_nodes(grid_cheb.n_r)
        disk = build_disk_grid(grid_cheb.n_r, 16)
        for grid in (grid_cheb, disk):
            np.testing.assert_array_equal(grid.r, r)
            np.testing.assert_array_equal(grid.w_r, w_r)
            np.testing.assert_array_equal(grid.D_r, D_r)


class TestMedian:
    @pytest.mark.parametrize("values", [
        [2.5], [3.0, -1.0], [5.0, 1.0, 3.0], [0.1, 0.2, 0.7, 0.3],
        [1.0, 2.0, 2.0, 2.0, 1.0, 1.0], [4.0, 4.0, 4.0],
        [np.inf, 1.0, 2.0], [-np.inf, np.inf], [np.inf, np.inf, 1.0, 2.0],
        [-np.inf, -np.inf, 0.0], [1e308, 1.7e308], [-0.0, 0.0, -0.0],
        [np.nan], [1.0, np.nan, 2.0], [np.nan, np.inf, -np.inf, 0.0],
    ] + [list(np.random.default_rng(m).standard_normal(m))
         for m in range(1, 12)])
    def test_is_bitwise_np_median(self, values):
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.median(np.array(values))
            got = median(values)
        assert type(got) is float
        np.testing.assert_array_equal(got, want)
        assert np.signbit(got) == np.signbit(want)


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_grid(3, 32, 2.0 * np.pi)
        with pytest.raises(ValueError):
            build_grid(16, 7, 2.0 * np.pi)  # odd n_z
        with pytest.raises(ValueError):
            build_grid(16, 32, 0.0)

    def test_axis_excluded_wall_included(self, grid_cheb):
        g = grid_cheb
        assert g.r[0] > 0.0
        assert g.r[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(g.r) > 0.0)
