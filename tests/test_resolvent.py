"""Unit tests for the per-mode resolvent solves."""

import numpy as np
import pytest

from stokesgreen import (
    BoundaryOperatorD,
    FourierMode,
    HalfLineGrid,
    HypothesisViolated,
    ModeField,
    PoleHit,
    SpectralPoint,
    check_resolvent_bound,
    free_part_v,
    projection_matrix,
    resolvent_apply,
    resolvent_apply_general,
)
from stokesgreen.solver import finite_difference_resolvent_general

MODE10 = FourierMode(1, 0)
PT = SpectralPoint(lam=3.0 + 0j, nu=1.0, mode=MODE10)  # mu = 2


def exp_field(grid, direction):
    vals = np.outer(np.asarray(direction, dtype=complex), np.exp(-grid.nodes))
    return ModeField(grid, vals)


class TestFreePart:
    def test_closed_form(self):
        # f = e^{-z} (1,0), lambda=3, nu=1, xi=(1,0) -> mu=2 and
        # v(y) = (1/3) e^{-y} - (1/6) e^{-2y}.  The action is exact on the
        # piecewise-linear interpolant of f, so the defect against the true
        # exponential is the O(h^2) interpolation error.
        errs = []
        for n in (2001, 4001):
            grid = HalfLineGrid.uniform(40.0, n)
            v = free_part_v(exp_field(grid, (1, 0)), PT)
            y = grid.nodes
            exact = np.exp(-y) / 3.0 - np.exp(-2.0 * y) / 6.0
            errs.append(np.max(np.abs(v.values[0] - exact)))
            assert np.max(np.abs(v.values[1])) < 1e-15
        assert errs[0] < 1e-5
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_neumann_trace(self):
        # the even image construction has dv/dy(0) = 0: check to O(h^2)
        grid = HalfLineGrid.uniform(30.0, 3001)
        rng = np.random.default_rng(0)
        vals = np.exp(-((grid.nodes - 5.0) ** 2)) * (1 + 0.5j)
        v = free_part_v(ModeField(grid, np.vstack([vals, 0 * vals])), PT)
        h = grid.h
        d0 = (-3 * v.values[0, 0] + 4 * v.values[0, 1] - v.values[0, 2]) / (2 * h)
        assert abs(d0) < 1e-4


class TestCorrection:
    def test_parallel_data_no_correction(self):
        # v(0) parallel to xi: D v(0) = P v(0) / |xi| = 0 so w = 0
        grid = HalfLineGrid.uniform(40.0, 2001)
        sol = resolvent_apply(exp_field(grid, (1, 0)), PT)
        assert np.max(np.abs(sol.w.values)) < 1e-14
        assert np.linalg.norm(sol.c0) < 1e-14

    def test_perpendicular_example(self):
        # f = 6 e^{-z} (0, 1) has v(0) = (0, 1) up to O(h^2); with mu = 2 and
        # D = P/|xi| = diag(0, 1): c0 = D v(0) / (mu - |xi|) = (0, 1)
        grid = HalfLineGrid.uniform(40.0, 4001)
        sol = resolvent_apply(exp_field(grid, (0, 6)), PT)
        assert np.allclose(sol.c0, [0.0, 1.0], atol=1e-4)
        assert np.allclose(sol.w.values[1], sol.c0[1] * np.exp(-2.0 * grid.nodes))


class TestResolventApply:
    def test_u_is_v_plus_w(self):
        grid = HalfLineGrid.uniform(30.0, 601)
        f = ModeField(grid, np.vstack([np.exp(-((grid.nodes - 4) ** 2)),
                                       1j * np.exp(-((grid.nodes - 6) ** 2))]))
        sol = resolvent_apply(f, SpectralPoint(2 + 1j, 0.5, FourierMode(2, 1)))
        assert np.allclose(sol.u.values, sol.v.values + sol.w.values)
        assert sol.boundary_residual() < 1e-12

    def test_interior_residual_second_order(self):
        from stokesgreen import apply_delta_xi

        pt = SpectralPoint(2 + 1j, 0.5, FourierMode(2, 1))
        errs = []
        for n in (401, 801):
            grid = HalfLineGrid.uniform(30.0, n)
            f = ModeField(grid, np.vstack([np.exp(-((grid.nodes - 5) ** 2)),
                                           np.zeros(n)]))
            sol = resolvent_apply(f, pt)
            res = pt.lam * sol.u.values - apply_delta_xi(sol.u, pt.nu, pt.mode).values \
                - f.values
            errs.append(np.max(np.abs(res[:, 2:-2])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)

    def test_zero_mode_neumann(self):
        grid = HalfLineGrid.uniform(30.0, 601)
        f = ModeField(grid, np.exp(-((grid.nodes - 5) ** 2))[None, :].repeat(2, 0))
        sol = resolvent_apply(f, SpectralPoint(1.5 + 0j, 1.0, FourierMode(0, 0)))
        assert np.max(np.abs(sol.w.values)) == 0.0
        assert sol.boundary_residual() == 0.0

    def test_pole_at_zero_raises(self):
        # the no-slip pole sits at lambda* = 0 (mu = |xi|)
        grid = HalfLineGrid.uniform(10.0, 101)
        pt = SpectralPoint(lam=1e-30 + 0j, nu=1.0, mode=MODE10)
        with pytest.raises(PoleHit):
            resolvent_apply(exp_field(grid, (0, 1)), pt)

    def test_perpendicular_forcing_correction_structure(self):
        # xi . f = 0 everywhere: v(0) is perpendicular to xi, and the
        # correction coefficient stays perpendicular to xi as well
        grid = HalfLineGrid.uniform(40.0, 2001)
        sol = resolvent_apply(exp_field(grid, (0, 1)), PT)
        assert abs(sol.c0[0]) < 1e-14
        assert abs(sol.c0[1]) > 1e-3


class TestBoundaryOperatorD:
    def test_valid(self):
        D = BoundaryOperatorD(alpha=0.3, beta=0.7, gamma_off=np.sqrt(0.21),
                              c0=2.0, mode=MODE10)
        assert D.sigma == pytest.approx(1.0)
        assert np.allclose(D.matrix @ D.matrix, D.sigma * D.matrix)
        assert D.pole_lambda(2.0) == pytest.approx(2.0 * (1.0 - 1.0))

    @pytest.mark.parametrize("xi", [(2, 16), (60, 59), (1, 0)])
    def test_no_slip_builds(self, xi):
        # P/|xi| has trace |xi| = c0 |xi| up to rounding
        mode = FourierMode(*xi)
        D = BoundaryOperatorD.no_slip(mode)
        assert np.allclose(D.matrix * mode.norm, projection_matrix(mode))
        assert D.sigma == pytest.approx(mode.norm, rel=1e-15)
        assert abs(D.pole_lambda(1.0)) < 1e-12 * mode.norm**2

    def test_gates(self):
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(1.0, 1.0, 0.0, 2.0, MODE10)       # det != 0
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(-0.5, 0.0, 0.0, 2.0, MODE10)      # alpha < 0
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(3.0, 0.0, 0.0, 1.0, MODE10)       # trace > c0 |xi|
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(0.5, 0.0, 0.0, -1.0, MODE10)      # c0 <= 0


class TestGeneralResolvent:
    def _setup(self, alpha=0.4, beta=0.1, n=801):
        grid = HalfLineGrid.uniform(20.0, n)
        vals = np.vstack([np.exp(-((grid.nodes - 4.0) ** 2) / 0.8),
                          (0.5 - 0.3j) * np.exp(-((grid.nodes - 6.0) ** 2))])
        f = ModeField(grid, vals)
        D = BoundaryOperatorD(alpha, beta, np.sqrt(alpha * beta), c0=2.0,
                              mode=FourierMode(2, 1))
        pt = SpectralPoint(4.0 + 2.0j, 0.7, FourierMode(2, 1))
        return f, pt, D

    @pytest.mark.parametrize("operator", ["general", "no_slip", "zero"])
    def test_matches_fd_oracle(self, operator):
        # no_slip is the coupling the Crank-Nicolson oracle steps with
        f, pt, D = self._setup(n=3201)
        D = {"general": D, "no_slip": BoundaryOperatorD.no_slip(D.mode),
             "zero": BoundaryOperatorD(0.0, 0.0, 0.0, c0=1.0, mode=D.mode)}[operator]
        sol = resolvent_apply_general(f, pt, D)
        fd = finite_difference_resolvent_general(f, pt, D)
        denom = np.max(np.abs(sol.u.values))
        assert np.max(np.abs(sol.u.values - fd)) / denom < 1e-3

    def test_fd_oracle_at_lambda_zero(self):
        # lambda = 0 is off the cut for xi != 0; the oracle's far nodes stay pinned
        f, pt, D = self._setup(n=3201)
        pt = SpectralPoint(0.0, pt.nu, pt.mode)
        u = resolvent_apply_general(f, pt, D).u.values
        fd = finite_difference_resolvent_general(f, pt, D)
        assert np.max(np.abs(u - fd)) / np.max(np.abs(u)) < 1e-3

    def test_boundary_residual_analytic(self):
        f, pt, D = self._setup()
        sol = resolvent_apply_general(f, pt, D)
        # du/dz(0) + D u(0) with dv/dz(0)=0 and dw/dz(0) = -mu c0
        res = -pt.mu * sol.c0 + D.matrix @ sol.u.values[:, 0]
        assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(f.values)

    def test_boundary_residual_method(self):
        # boundary_residual() evaluates the solution's own condition du/dz + D u
        mode = FourierMode(2, 1)
        grid = HalfLineGrid.uniform(20.0, 801)
        f = ModeField(grid, np.vstack([np.exp(-((grid.nodes - 4.0) ** 2)),
                                       (0.5 - 0.3j) * np.exp(-((grid.nodes - 6.0) ** 2))]))
        D = BoundaryOperatorD(0.5, 0.3, np.sqrt(0.15), c0=2.0, mode=mode)
        sol = resolvent_apply_general(f, SpectralPoint(2.0 + 1.0j, 0.5, mode), D)
        assert sol.boundary_residual() < 1e-12 * np.linalg.norm(f.values)

    def test_zero_operator_reduces_to_neumann(self):
        f, pt, _ = self._setup()
        D0 = BoundaryOperatorD(0.0, 0.0, 0.0, c0=2.0, mode=pt.mode)
        sol = resolvent_apply_general(f, pt, D0)
        assert np.max(np.abs(sol.w.values)) == 0.0
        assert np.allclose(sol.u.values, sol.v.values)

    def test_pole_hit(self):
        grid = HalfLineGrid.uniform(10.0, 101)
        f = ModeField(grid, np.exp(-grid.nodes)[None, :].repeat(2, 0))
        mode = FourierMode(2, 1)
        D = BoundaryOperatorD(1.0, 0.0, 0.0, c0=2.0, mode=mode)
        lam_star = D.pole_lambda(1.0)  # nu (1 - 5) = -4
        with pytest.raises(PoleHit):
            resolvent_apply_general(f, SpectralPoint(complex(lam_star), 1.0, mode), D)


class TestResolventBound:
    def test_finite_and_deterministic(self):
        pt = SpectralPoint(10.0 + 5.0j, 0.1, FourierMode(2, 1))
        grid = HalfLineGrid.uniform(20.0, 401)
        r1 = check_resolvent_bound(pt, trials=5, seed=11, grid=grid)
        r2 = check_resolvent_bound(pt, trials=5, seed=11, grid=grid)
        assert np.isfinite(r1["l2_ratio"]) and np.isfinite(r1["h1_ratio"])
        assert r1["l2_ratio"] == r2["l2_ratio"]
        assert r1["h1_ratio"] == r2["h1_ratio"]
