"""Unit tests for the exact piecewise-linear kernel actions."""

import numpy as np
import pytest
from scipy.integrate import quad

from stokesgreen.actions import (
    exp_psi1,
    exp_psi2,
    gauss_psi1,
    gauss_psi2,
    halfline_laplace_weights,
    image_action_exp,
    image_action_gauss,
)
from stokesgreen.core import HalfLineGrid
from stokesgreen.errors import TruncationWarning


def pl_interp(grid, fvals):
    """Whole-line piecewise-linear interpolant with explicit extension."""
    def f(z, parity):
        az = np.abs(z)
        val = np.interp(az, grid.nodes, np.real(fvals), right=0.0)
        return val if (z >= 0 or parity == +1) else -val
    return f


def brute_force_action(grid, fvals, kernel, parity, y):
    f = pl_interp(grid, fvals)

    def integrand(z):
        return kernel(y - z) * f(z, parity)

    zmax = grid.z_max
    total = 0.0
    # integrate panel by panel so quad never misses the hat kinks
    knots = np.concatenate([-grid.nodes[::-1], grid.nodes[1:]])
    for a, b in zip(knots[:-1], knots[1:]):
        total += quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13)[0]
    return total


class TestAntiderivatives:
    def test_gauss_chain(self):
        # Psi2'' = kernel, checked by central differences
        c = 0.37
        x = np.linspace(-3, 3, 11)
        h = 1e-4
        d2 = (gauss_psi2(x - h, c) - 2 * gauss_psi2(x, c) + gauss_psi2(x + h, c)) / h**2
        k = np.exp(-(x**2) / (4 * c)) / np.sqrt(4 * np.pi * c)
        assert np.allclose(d2, k, atol=1e-6)
        d1 = (gauss_psi2(x + h, c) - gauss_psi2(x - h, c)) / (2 * h)
        assert np.allclose(d1, gauss_psi1(x, c), atol=1e-10)

    def test_exp_chain_complex_mu(self):
        mu = 1.5 + 0.8j
        x = np.linspace(-2, 2, 9)
        h = 1e-5
        d2 = (exp_psi2(x - h, mu) - 2 * exp_psi2(x, mu) + exp_psi2(x + h, mu)) / h**2
        assert np.allclose(d2, np.exp(-mu * np.abs(x)), atol=1e-5)
        d1 = (exp_psi2(x + h, mu) - exp_psi2(x - h, mu)) / (2 * h)
        assert np.allclose(d1, exp_psi1(x, mu), atol=1e-9)


class TestImageActions:
    @pytest.mark.parametrize("parity", [+1, -1])
    def test_exp_action_matches_brute_force(self, parity):
        grid = HalfLineGrid.uniform(8.0, 33)
        rng = np.random.default_rng(3)
        fvals = rng.normal(size=grid.n)
        fvals[-1] = 0.0
        mu = 1.3
        out = image_action_exp(grid, fvals, mu, parity, warn_truncation=False)
        for i in (0, 1, 7, 16, 32):
            ref = brute_force_action(grid, fvals, lambda d: np.exp(-mu * np.abs(d)),
                                     parity, grid.nodes[i])
            assert out[i].real == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("parity", [+1, -1])
    def test_gauss_action_matches_brute_force(self, parity):
        grid = HalfLineGrid.uniform(8.0, 33)
        rng = np.random.default_rng(4)
        fvals = rng.normal(size=grid.n)
        fvals[-1] = 0.0
        c = 0.21
        out = image_action_gauss(grid, fvals, c, parity, warn_truncation=False)
        kern = lambda d: np.exp(-(d**2) / (4 * c)) / np.sqrt(4 * np.pi * c)
        for i in (0, 2, 16, 32):
            ref = brute_force_action(grid, fvals, kern, parity, grid.nodes[i])
            assert out[i].real == pytest.approx(ref, abs=1e-10)

    def test_dirichlet_action_vanishes_at_origin(self):
        # odd image: the kernel action must cancel exactly at y = 0
        grid = HalfLineGrid.uniform(10.0, 65)
        fvals = np.exp(-grid.nodes) * (1 + 0.3j)
        out = image_action_exp(grid, fvals, 2.0, -1, warn_truncation=False)
        assert abs(out[0]) < 1e-14

    def test_neumann_derivative_vanishes_at_origin(self):
        # even image: d/dy at 0 vanishes; check by a tiny one-sided difference
        # of the underlying smoothed kernels via near-mirror symmetry of output
        grid = HalfLineGrid.uniform(10.0, 641)
        fvals = np.exp(-((grid.nodes - 3.0) ** 2))
        out = image_action_gauss(grid, fvals, 0.5, +1, warn_truncation=False).real
        h = grid.h
        one_sided = (-3 * out[0] + 4 * out[1] - out[2]) / (2 * h)
        assert abs(one_sided) < 1e-5  # O(h^2) of a flat extremum

    def test_multicomponent_shape(self):
        grid = HalfLineGrid.uniform(5.0, 17)
        f = np.zeros((2, grid.n))
        f[0, 5] = 1.0
        out = image_action_exp(grid, f, 1.0, +1, warn_truncation=False)
        assert out.shape == (2, grid.n)
        assert np.allclose(out[1], 0.0)

    def test_truncation_warning(self):
        grid = HalfLineGrid.uniform(3.0, 9)
        with pytest.warns(TruncationWarning):
            image_action_exp(grid, np.ones(grid.n), 1.0, +1)


class TestLaplaceWeights:
    def test_exact_on_pl(self):
        grid = HalfLineGrid.uniform(6.0, 25)
        rng = np.random.default_rng(5)
        fvals = rng.normal(size=grid.n)
        mu = 0.9 + 0.4j
        w = halfline_laplace_weights(grid, mu)
        f = pl_interp(grid, fvals)
        ref = 0.0
        for a, b in zip(grid.nodes[:-1], grid.nodes[1:]):
            ref += quad(lambda z: np.exp(-mu.real * z) * np.cos(mu.imag * z) * f(z, +1),
                        a, b, epsabs=1e-14)[0]
            ref += -1j * quad(lambda z: np.exp(-mu.real * z) * np.sin(mu.imag * z) * f(z, +1),
                              a, b, epsabs=1e-14)[0]
        assert abs(w @ fvals - ref) < 1e-12

    def test_exponential_exact(self):
        # f = e^{-z} as PL converges to 1/(mu+1) at second order; instead check
        # exactness against the PL interpolant integral on a coarse grid
        grid = HalfLineGrid.uniform(4.0, 9)
        fvals = np.linspace(1.0, 0.0, grid.n)  # globally linear, PL-exact
        mu = 2.0
        w = halfline_laplace_weights(grid, mu)
        exact = quad(lambda z: np.exp(-mu * z) * (1 - z / 4.0), 0, 4.0, epsabs=1e-14)[0]
        assert abs(w @ fvals - exact) < 1e-14

    def test_array_mu_matches_scalar(self):
        # the leading axes follow mu; array and scalar arithmetic round
        # differently and the boundary half-hat formula cancels for small mu h,
        # so the match is to a tolerance
        grid = HalfLineGrid.uniform(20.0, 1025)
        rng = np.random.default_rng(8)
        mu = (rng.uniform(0.01, 10.0, (3, 4))
              + 1j * rng.normal(size=(3, 4)) * np.array([0.0, 1.0, 10.0])[:, None])
        w = halfline_laplace_weights(grid, mu)
        assert w.shape == (3, 4, grid.n)
        stacked = np.array([[halfline_laplace_weights(grid, m) for m in row] for row in mu])
        assert np.allclose(w, stacked, rtol=1e-10, atol=0.0)
