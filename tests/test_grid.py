"""Grid construction, derivatives, quadrature and mixed norms.

The two reference constants below were computed independently with
30-digit arithmetic (mpmath): the solid-cylinder integral of
``(1 - r^2)^2 exp(cos z)`` on ``L_z = 2 pi``, and the mixed horizontal-L4
vertical-L2 norm of ``(1 - r^2) sin z``.  They pin the quadrature weights,
the measure convention ``r dr dz`` and the theta factor of the mixed norm.
"""

import numpy as np
import pytest

from cylmode import build_grid

INT_WEIGHTED_EXP = 1.3258210868354742124
MIXED_L4_L2 = 1.5780468891595669142


def _fields(g):
    r = g.r[:, None]
    z = g.z[None, :]
    return r, z


class TestQuadrature:
    def test_unit_and_linear_moments_exact(self, grid_cheb, grid_fd2):
        for g in (grid_cheb, grid_fd2):
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

    def test_fd2_quadrature_second_order(self):
        vals = []
        for n in (64, 128):
            g = build_grid(n, 8, 2.0 * np.pi, scheme="uniform_fd2")
            r = g.r[:, None] * np.ones((1, g.n_z))
            vals.append(abs(g.quad(np.sin(np.pi * r)) -
                            g.L_z * 0.3183098861837906715))  # int_0^1 sin(pi r) r dr
        assert vals[1] < vals[0] / 3.2


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

    def test_fd2_radial_derivative_quadratic_exact(self, grid_fd2):
        r, _ = _fields(grid_fd2)
        f = r**2 * np.ones((1, grid_fd2.n_z))
        assert np.abs(grid_fd2.dr(f) - 2.0 * r).max() < 1e-11

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


class TestNorms:
    def test_mixed_norm_frozen(self, grid_cheb):
        r, z = _fields(grid_cheb)
        f = (1.0 - r**2) * np.sin(z)
        assert grid_cheb.norm_mixed(f, 4, 2) == pytest.approx(
            MIXED_L4_L2, rel=1e-13)

    def test_l2_consistency(self, grid_cheb):
        r, z = _fields(grid_cheb)
        f = r * (1.0 - r**2) * np.cos(z)
        direct = np.sqrt(2.0 * np.pi * grid_cheb.quad(f * f))
        assert grid_cheb.norm_mixed(f, 2, 2) == pytest.approx(direct, rel=1e-14)
        assert grid_cheb.l2(f) == pytest.approx(direct, rel=1e-14)

    def test_sup_norms(self, grid_cheb):
        r, z = _fields(grid_cheb)
        f = (1.0 - r**2) * np.cos(z)
        got = grid_cheb.norm_mixed(f, np.inf, np.inf)
        assert got == pytest.approx(np.abs(f).max(), rel=1e-12)


class TestInterpolation:
    def test_node_and_offnode_values(self, grid_cheb):
        g = grid_cheb
        r, z = _fields(g)
        f = r**3 * np.cos(2.0 * z)
        # exact node hit
        assert g.interp(f, g.r[5], g.z[7]) == pytest.approx(
            f[5, 7], rel=1e-14, abs=1e-15)
        # between nodes: polynomial x trig data is reproduced exactly
        assert g.interp(f, 0.37, 1.234) == pytest.approx(
            0.37**3 * np.cos(2.468), rel=1e-12)


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_grid(3, 32, 2.0 * np.pi)
        with pytest.raises(ValueError):
            build_grid(16, 7, 2.0 * np.pi)  # odd n_z
        with pytest.raises(ValueError):
            build_grid(16, 32, 0.0)
        with pytest.raises(ValueError):
            build_grid(16, 32, 2.0 * np.pi, scheme="nope")

    def test_axis_excluded_wall_included(self, grid_cheb, grid_fd2):
        for g in (grid_cheb, grid_fd2):
            assert g.r[0] > 0.0
            assert g.r[-1] == pytest.approx(1.0, abs=1e-15)
            assert np.all(np.diff(g.r) > 0.0)
