"""Unit tests for modes, grids, the spectral root and the discrete operator."""

import math

import numpy as np
import pytest

from stokesgreen import (
    BranchCutViolation,
    FourierMode,
    GridTooSmall,
    HalfLineGrid,
    IncompatibleData,
    ModeField,
    SpectralPoint,
    ZeroModeUnsupported,
    apply_delta_xi,
    projection_matrix,
    spectral_root,
)


class TestFourierMode:
    def test_norm_and_zero(self):
        assert FourierMode(3, 4).norm == 5.0
        assert FourierMode(0, 0).is_zero
        assert not FourierMode(1, 0).is_zero

    @pytest.mark.parametrize("xi", [(1.5, 0.25), (1.0, 0), (0, np.float64(2.0)), (1, "2")])
    def test_non_integer_component_raises(self, xi):
        # xi indexes a mode of the torus; a float, even a whole one, is a caller error
        with pytest.raises(IncompatibleData):
            FourierMode(*xi)

    def test_numpy_integers_accepted(self):
        mode = FourierMode(np.int64(3), np.int32(-4))
        assert mode.norm == 5.0 and mode == FourierMode(3, -4)


class TestSpectralRoot:
    def test_square_invariant_random(self):
        # mu is defined by nu mu^2 = lambda + nu |xi|^2 with Re mu > 0
        rng = np.random.default_rng(7)
        for _ in range(200):
            lam = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            nu = rng.uniform(0.01, 5.0)
            mode = FourierMode(rng.integers(-5, 6), rng.integers(-5, 6))
            if lam.imag == 0 and lam.real + nu * mode.norm**2 <= 0:
                continue
            mu = spectral_root(lam, nu, mode)
            assert mu.real > 0
            assert abs(nu * mu**2 - (lam + nu * mode.norm**2)) < 1e-12 * max(1, abs(lam))

    def test_example_square_invariant(self):
        # lam = 2+1j, nu = 0.01, xi = (4,3): nu mu^2 must equal 2.25 + 1j
        mu = spectral_root(2 + 1j, 0.01, FourierMode(4, 3))
        assert abs(0.01 * mu**2 - (2.25 + 1j)) < 1e-12

    def test_branch_cut_raises(self):
        with pytest.raises(BranchCutViolation):
            spectral_root(-2.0, 1.0, FourierMode(1, 0))  # q = -1 on the cut
        with pytest.raises(BranchCutViolation):
            spectral_root(-1.0, 1.0, FourierMode(1, 0))  # q = 0 endpoint

    @pytest.mark.parametrize("lam", [complex("nan"), complex("nan+1j"), complex("inf"),
                                     complex("inf+1j"), complex(1.0, float("inf"))])
    def test_non_finite_lambda_raises(self, lam):
        # typed error, not an assert that python -O strips
        with pytest.raises(BranchCutViolation):
            spectral_root(lam, 1.0, FourierMode(1, 0))
        with pytest.raises(BranchCutViolation):
            SpectralPoint(lam=lam, nu=1.0, mode=FourierMode(1, 0))

    def test_bad_viscosity(self):
        with pytest.raises(IncompatibleData):
            spectral_root(3.0, -1.0, FourierMode(1, 0))

    @pytest.mark.parametrize("nu", [0.0, -1.0, float("nan"), float("inf")])
    def test_spectral_point_needs_finite_positive_viscosity(self, nu):
        # one typed error for every nu that is not finite and positive
        with pytest.raises(IncompatibleData, match="viscosity"):
            SpectralPoint(lam=3.0, nu=nu, mode=FourierMode(1, 0))

    def test_spectral_point_caches_mu(self):
        pt = SpectralPoint(lam=3.0 + 0j, nu=1.0, mode=FourierMode(1, 0))
        assert pt.mu == pytest.approx(2.0)


class TestHalfLineGrid:
    def test_simpson_exact_on_cubics(self):
        grid = HalfLineGrid.uniform(6.0, 13)
        z = grid.nodes
        assert grid.integrate(z**3 - 2 * z + 1) == pytest.approx(
            6.0**4 / 4 - 36.0 + 6.0, rel=1e-13)

    def test_simpson_fourth_order(self):
        exact = 1.0 - np.exp(-5.0)
        errs = []
        for n in (41, 81):
            grid = HalfLineGrid.uniform(5.0, n)
            errs.append(abs(grid.integrate(np.exp(-grid.nodes)) - exact))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(GridTooSmall):
            HalfLineGrid.uniform(1.0, 4)  # even
        with pytest.raises(GridTooSmall):
            HalfLineGrid.uniform(1.0, 1)
        for z_max in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(IncompatibleData, match="finite and positive"):
                HalfLineGrid.uniform(z_max, 5)
        for n in (5.0, 5.5, "5"):
            with pytest.raises(IncompatibleData, match="integer"):
                HalfLineGrid(10.0, n)
        assert HalfLineGrid(10.0, np.int64(5)).n == 5

    def test_norm_l2(self):
        grid = HalfLineGrid.uniform(40.0, 4001)
        vals = np.exp(-grid.nodes / 2)  # integral of e^{-z} = 1
        assert grid.norm_l2(vals) == pytest.approx(1.0, rel=1e-10)


class TestModeField:
    def test_shapes(self):
        grid = HalfLineGrid.uniform(1.0, 5)
        f = ModeField(grid, np.ones(5))
        assert f.ncomp == 1
        with pytest.raises(IncompatibleData):
            ModeField(grid, np.ones((4, 5)))
        with pytest.raises(IncompatibleData):
            ModeField(grid, np.ones((2, 7)))


class TestProjectors:
    @pytest.mark.parametrize("xi", [(1, 0), (0, 2), (2, 1), (-3, 4)])
    def test_identities(self, xi):
        mode = FourierMode(*xi)
        P = projection_matrix(mode)
        n = mode.norm
        xi_vec = np.array([mode.xi1, mode.xi2], dtype=float)
        # Q = xi xi^T / |xi|: n I - Q = P / n is the form of the no-slip condition
        Q = np.outer(xi_vec, xi_vec) / n
        assert np.allclose(P @ P, n**2 * P)
        assert np.allclose(Q @ P, np.zeros((2, 2)))
        assert np.allclose(P @ Q, np.zeros((2, 2)))
        assert np.allclose(Q @ Q, n * Q)
        assert np.allclose(n * np.eye(2) - Q, P / n)
        assert np.allclose(P @ xi_vec, 0.0)

    def test_zero_mode_rejected(self):
        with pytest.raises(ZeroModeUnsupported):
            projection_matrix(FourierMode(0, 0))


class TestApplyDeltaXi:
    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf, 0.0, -0.7])
    def test_bad_viscosity_raises(self, nu):
        # nu = nan returned a field of nan at every node
        f = ModeField(HalfLineGrid.uniform(5.0, 33), np.ones((2, 33)))
        with pytest.raises(IncompatibleData, match="viscosity"):
            apply_delta_xi(f, nu, FourierMode(1, 0))

    def test_second_order_convergence(self):
        mode = FourierMode(2, 1)
        nu = 0.7
        errs = []
        for n in (201, 401):
            grid = HalfLineGrid.uniform(10.0, n)
            z = grid.nodes
            f = ModeField(grid, np.exp(-((z - 4.0) ** 2)))
            exact = nu * (-mode.norm**2 + (4 * (z - 4.0) ** 2 - 2)) * np.exp(-((z - 4.0) ** 2))
            out = apply_delta_xi(f, nu, mode)
            errs.append(np.max(np.abs(out.values[0] - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
