"""Unit tests for the exact piecewise-linear kernel actions."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from stokesgreen.actions import (
    _decay_table,
    _exp_action_rows,
    gauss_psi1,
    gauss_psi2,
    halfline_laplace_weights,
    image_action_exp,
    image_action_gauss,
)
from stokesgreen.core import FourierMode, HalfLineGrid, SpectralPoint
from stokesgreen.errors import HypothesisViolated, IncompatibleData, TruncationWarning


def pl_interp(grid, fvals):
    """Whole-line piecewise-linear interpolant with explicit extension."""
    def f(z, parity):
        az = np.abs(z)
        val = np.interp(az, grid.nodes, fvals, right=0.0)
        return val if (z >= 0 or parity == +1) else -val
    return f


def brute_force_action(grid, fvals, kernel, parity, y):
    f = pl_interp(grid, fvals)

    def integrand(z):
        return kernel(y - z) * f(z, parity)

    total = 0.0
    # integrate panel by panel so quad never misses the hat kinks
    knots = np.concatenate([-grid.nodes[::-1], grid.nodes[1:]])
    for a, b in zip(knots[:-1], knots[1:]):
        total += quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, complex_func=True)[0]
    return total


def sweeps_longdouble(grid, fvals, mu, parity):
    """The L and R panel recurrences of ``image_action_exp``, run in clongdouble.

    The sweep itself solves the shifted recurrences M = L - b f, N = R - b f,
    so this is an independent formulation of the same action.
    """
    f = np.asarray(fvals).astype(np.clongdouble)
    mu = np.clongdouble(mu)
    x = mu * np.longdouble(grid.h)
    q = np.exp(-x)
    a = (-np.expm1(-x) - x * q) / (mu * x)
    b = -np.expm1(-x) / mu - a
    left = np.zeros_like(f)
    right = np.zeros_like(f)
    for j in range(grid.n - 1):
        left[..., j + 1] = q * left[..., j] + a * f[..., j] + b * f[..., j + 1]
    for j in range(grid.n - 2, -1, -1):
        right[..., j] = q * right[..., j + 1] + a * f[..., j + 1] + b * f[..., j]
    image = np.exp(-mu * grid.nodes.astype(np.longdouble))
    return left + right + parity * right[..., :1] * image


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


class TestImageActions:
    @pytest.mark.parametrize("parity", [+1, -1])
    def test_exp_action_matches_brute_force(self, parity):
        grid = HalfLineGrid.uniform(8.0, 33)
        rng = np.random.default_rng(3)
        fvals = rng.normal(size=grid.n)
        fvals[-1] = 0.0
        cvals = fvals + 1j * rng.normal(size=grid.n)
        cvals[-1] = 0.0
        # |mu h| = 0.325, ~1e-3 (q near 1) and ~5 (q near 0)
        for mu, f in ((1.3, fvals), (4e-3 * np.exp(0.6j), cvals), (20.0 * np.exp(-0.4j), cvals)):
            out = image_action_exp(grid, f, mu, parity, warn_truncation=False)
            for i in (0, 1, 7, 16, 32):
                ref = brute_force_action(grid, f, lambda d: np.exp(-mu * np.abs(d)),
                                         parity, grid.nodes[i])
                assert out[i] == pytest.approx(ref, abs=1e-10)

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
            assert out[i] == pytest.approx(ref, abs=1e-10)

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
        with pytest.warns(TruncationWarning) as caught:
            image_action_exp(grid, np.ones(grid.n), 1.0, +1)
        assert caught[0].filename == __file__

    # tails between 1e-6 times the sample maximum and 1e-6 max|f|, and just
    # above the latter; a tail of 1 (not negligible) beside a NaN at a sample
    # point, between sample points and in the tail
    @pytest.mark.parametrize("tail, nan_at, expected",
                             [(1e-4, None, False), (np.nextafter(1e-6 * 1e3, 1.0), None, True),
                              (1.0, 128, False), (1.0, 101, False), (1.0, -1, False)],
                             ids=["between-samples", "just-above", "nan-sample", "nan-between",
                                  "nan-tail"])
    def test_truncation_shortcut(self, tail, nan_at, expected):
        # the check compares the tail first with max|f| over every 64th node, a
        # lower bound on max|f|, and decides as the check reading all of f does
        grid = HalfLineGrid.uniform(30.0, 1025)
        f = np.zeros(grid.n)
        f[::64] = 1.0
        f[100] = 1e3  # the only large value, between the sample points
        f[-2:] = tail
        if nan_at is not None:
            f[nan_at] = np.nan
        scale = np.max(np.abs(f))
        assert bool(scale > 0 and tail > 1e-6 * scale) == expected  # the full-read rule
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            image_action_exp(grid, f, 1.0, +1)
        assert any(w.category is TruncationWarning for w in caught) == expected

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 1j, -0.5 + 2j, np.nan])
    def test_exp_action_needs_positive_re_mu(self, mu):
        # the sweeps grow instead of decaying (mu = -1 gave max|out| = 7.5e6)
        grid = HalfLineGrid.uniform(10.0, 65)
        f = np.exp(-((grid.nodes - 3.0) ** 2))
        with pytest.raises(HypothesisViolated):
            image_action_exp(grid, f, mu, +1, warn_truncation=False)

    @pytest.mark.parametrize("parity", [0, 2, 1j, np.array([[1.0], [0.0], [-1.0]]),
                                        np.array([[1.0], [-1.0]]), np.array([1.0, 1.0, -1.0])],
                             ids=["0", "2", "1j", "zero-row", "two-rows", "flat"])
    def test_exp_action_rejects_parity(self, parity):
        grid = HalfLineGrid.uniform(10.0, 65)
        f = np.ones((3, 1)) * np.exp(-((grid.nodes - 3.0) ** 2))
        with pytest.raises(IncompatibleData):
            image_action_exp(grid, f, 1.0 + 0.5j, parity, warn_truncation=False)

    @pytest.mark.parametrize("n", [65, 8193])
    def test_wrapper_and_sweep_table_bits(self, n):
        # the wrapper returns the helper's action unchanged, the helper's table
        # is ``_decay_table``'s bit for bit, and scalar and per-row parities agree
        grid = HalfLineGrid.uniform(30.0, n)
        rng = np.random.default_rng(8)
        f = (rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))) \
            * np.exp(-((grid.nodes - rng.uniform(3.0, 9.0, size=(3, 1))) ** 2))
        mu = 1.3 + 0.7j
        parity = np.array([[1.0], [1.0], [-1.0]])
        out, decay = _exp_action_rows(grid, f, mu, parity)
        assert np.array_equal(decay, _decay_table(grid, mu))
        assert np.array_equal(image_action_exp(grid, f, mu, parity), out)
        for i, p in enumerate((+1, +1, -1)):
            assert np.array_equal(image_action_exp(grid, f[i], mu, p), out[i])

    @pytest.mark.parametrize("parity", [+1, -1])
    @pytest.mark.parametrize("action, arg", [(image_action_exp, 1.0 + 0.5j),
                                             (image_action_gauss, 0.3)])
    def test_leading_axes(self, action, arg, parity):
        # f of shape (..., n): any leading axes, each slice acted on alone
        grid = HalfLineGrid.uniform(5.0, 17)
        rng = np.random.default_rng(6)
        f = rng.normal(size=(2, 3, grid.n)) + 1j * rng.normal(size=(2, 3, grid.n))
        out = action(grid, f, arg, parity, warn_truncation=False)
        assert out.shape == f.shape
        for i in range(2):
            for j in range(3):
                single = action(grid, f[i, j], arg, parity, warn_truncation=False)
                assert np.allclose(out[i, j], single, rtol=1e-14, atol=0.0)

    def test_row_parity_array(self):
        # a (m, 1) parity array gives each row of f its own image sign, bit for
        # bit as one scalar-parity call per row
        grid = HalfLineGrid.uniform(5.0, 17)
        rng = np.random.default_rng(7)
        f = rng.normal(size=(3, grid.n)) + 1j * rng.normal(size=(3, grid.n))
        parity = np.array([[1.0], [1.0], [-1.0]])
        out = image_action_exp(grid, f, 1.0 + 0.5j, parity, warn_truncation=False)
        for i, p in enumerate((+1, +1, -1)):
            single = image_action_exp(grid, f[i], 1.0 + 0.5j, p, warn_truncation=False)
            assert np.array_equal(out[i], single)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is double precision here")
class TestExpActionAccuracy:
    """image_action_exp against its own recurrence run in extended precision."""

    GRID = HalfLineGrid.uniform(30.0, 8193)

    def _data(self):
        z = self.GRID.nodes
        rng = np.random.default_rng(9)
        smooth = (1.0 + 0.5j) * np.exp(-(((z - 7.0) / 1.3) ** 2)) \
            + (0.3 - 1.0j) * np.exp(-(((z - 12.0) / 0.6) ** 2)) * np.cos(3.0 * z)
        rough = rng.normal(size=z.size) + 1j * rng.normal(size=z.size)
        return np.array([smooth, rough])

    def _worst(self, mu, parity, scale=1.0):
        f = self._data()
        if scale == 1.0:
            out = image_action_exp(self.GRID, f, mu, parity, warn_truncation=False)
        else:
            out, _ = _exp_action_rows(self.GRID, f, mu, parity, scale)
        ref = sweeps_longdouble(self.GRID, f, mu, parity) * np.clongdouble(scale)
        err = np.max(np.abs(out - ref), axis=-1) / np.max(np.abs(ref), axis=-1)
        return float(np.max(err))

    @pytest.mark.parametrize("parity", [+1, -1])
    @pytest.mark.parametrize("lam", [0.2, 1 + 1j, 50 + 40j, 400 - 300j])
    def test_resolvent_points(self, lam, parity):
        # |mu h| from 8.5e-3 to 0.12 (nu = 0.5, xi = (2, 1))
        mu = SpectralPoint(complex(lam), 0.5, FourierMode(2, 1)).mu
        assert self._worst(mu, parity) <= 1e-14

    @pytest.mark.parametrize("parity", [+1, -1])
    def test_q_near_one(self, parity):
        # |mu h| = 1e-4: rounding of q builds up over the ~|mu h|^{-1} steps
        # through which |q|^k stays near 1
        mu = 1e-4 / self.GRID.h * np.exp(0.3j)
        assert self._worst(mu, parity) <= 1e-12

    @pytest.mark.parametrize("parity", [+1, -1])
    @pytest.mark.parametrize("mu_h", [5.0, 1.5e3])
    def test_q_near_zero(self, mu_h, parity):
        # |mu h| = 1.5e3 is where the forced evolve shape (nu = 0.1, n = 513,
        # t = 0.5) puts the parabola nodes of its smallest kernel time, 1.9e-7
        mu = mu_h / self.GRID.h * (0.6 + 0.8j)
        assert self._worst(mu, parity) <= 1e-14

    def test_resolvent_scale(self):
        # the resolvent's 1/(2 nu mu) scales the coefficients, not the result
        point = SpectralPoint(1 + 1j, 0.5, FourierMode(2, 1))
        scale = 1.0 / (2.0 * point.nu * point.mu)
        assert self._worst(point.mu, +1, scale) <= 1e-14


class TestDecayTable:
    """The sweep's e^{-mu y} table against 40-digit exponentials at every node."""

    @staticmethod
    def _mu(case, grid):
        return {"large-imag": 0.5 + 300.0j,
                # Re mu z_max = 744: the last nodes are subnormal or 0
                "underflow": 744.0 / grid.z_max + 3.0j,
                "mu-h-1e-4": 1e-4 / grid.h * (0.6 + 0.8j),
                "mu-h-5": 5.0 / grid.h * (0.6 + 0.8j)}[case]

    # n - 1 = 2, 64, 512, 1000, 8192: one perfect square, and ragged last blocks
    @pytest.mark.parametrize("n", [3, 65, 513, 1001, 8193])
    @pytest.mark.parametrize("case", ["large-imag", "underflow", "mu-h-1e-4", "mu-h-5"])
    def test_matches_40_digit_exp(self, n, case):
        mpmath = pytest.importorskip("mpmath")
        grid = HalfLineGrid.uniform(30.0, n)
        mu = self._mu(case, grid)
        with mpmath.workdps(40):
            exact = [mpmath.exp(-mpmath.mpc(mu) * mpmath.mpf(y)) for y in grid.nodes]

            def err(table):
                return np.array([float(abs(mpmath.mpc(v) - e)) for v, e in zip(table, exact)])

            size = np.array([float(abs(e)) for e in exact])
        # relative 4 eps (1 + |mu y|): the rounding of mu y moves the phase by
        # eps |mu y|; plus two subnormal ulps, the roundings below the normal range
        bound = 4.0 * np.finfo(float).eps * (1.0 + np.abs(mu * grid.nodes)) * size \
            + 2.0 * np.finfo(float).smallest_subnormal
        assert np.all(err(_decay_table(grid, mu)) <= bound)
        # the direct table meets the same bound, so it is no looser than before
        assert np.all(err(np.exp(-mu * grid.nodes)) <= bound)


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
