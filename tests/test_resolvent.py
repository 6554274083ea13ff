"""Unit tests for the per-mode resolvent solves."""

import math

import numpy as np
import pytest

from stokesgreen import (
    BoundaryOperatorD,
    FourierMode,
    HalfLineGrid,
    HypothesisViolated,
    IncompatibleData,
    ModeField,
    PoleHit,
    SpectralPoint,
    TruncationWarning,
    check_resolvent_bound,
    projection_matrix,
    resolvent_apply,
    resolvent_apply_general,
)
from stokesgreen import cli, resolvent, solver
from stokesgreen.actions import _decay_table
from stokesgreen.solver import StokesProblem, duhamel_solve, finite_difference_resolvent_general

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
            v = resolvent_apply(exp_field(grid, (1, 0)), PT).v
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
        v = resolvent_apply(ModeField(grid, np.vstack([vals, 0 * vals])), PT).v
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
        assert np.array_equal(sol.u.values, sol.v.values + sol.w.values)
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
        pt = SpectralPoint(1.5 + 0j, 1.0, FourierMode(0, 0))
        sol = resolvent_apply(f, pt)
        assert np.max(np.abs(sol.w.values)) == 0.0
        assert sol.boundary_residual() == 0.0
        # resolvent_apply is the general solve with D = no_slip, at xi = 0 too
        general = resolvent_apply_general(f, pt, BoundaryOperatorD.no_slip(pt.mode))
        for part in ("u", "v", "w"):
            assert np.array_equal(getattr(sol, part).values, getattr(general, part).values)
        assert np.array_equal(sol.c0, general.c0)

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


class TestExactParts:
    """v, w and u are the closed forms, bit for bit, not only to rounding."""

    @pytest.mark.parametrize("n", [65, 8193])
    @pytest.mark.parametrize("general", [False, True], ids=["no-slip", "general"])
    def test_parts_bit_identical(self, n, general):
        grid = HalfLineGrid.uniform(30.0, n)
        mode = FourierMode(2, 1)
        pt = SpectralPoint(3.0 + 1.0j, 0.5, mode)
        f = ModeField(grid, np.vstack([np.exp(-((grid.nodes - 4.0) ** 2)),
                                       (0.5 - 1j) * np.exp(-((grid.nodes - 7.0) ** 2))]))
        if general:
            sol = resolvent_apply_general(
                f, pt, BoundaryOperatorD(0.3, 0.2, np.sqrt(0.06), c0=1.0, mode=mode))
        else:
            sol = resolvent_apply(f, pt)
        # v is the free part: the whole solution for D = 0
        D0 = BoundaryOperatorD(0.0, 0.0, 0.0, c0=1.0, mode=mode)
        assert np.array_equal(sol.v.values, resolvent_apply_general(f, pt, D0).u.values)
        assert np.array_equal(sol.w.values, sol.c0[:, None] * _decay_table(grid, pt.mu))
        assert np.array_equal(sol.u.values, sol.v.values + sol.w.values)

    @pytest.mark.parametrize("which", ["resolvent_apply", "resolvent_apply_general"])
    def test_truncation_warning_points_at_caller(self, which):
        grid = HalfLineGrid.uniform(3.0, 33)
        f = ModeField(grid, np.ones((2, grid.n)))  # does not decay by z_max
        with pytest.warns(TruncationWarning) as caught:
            if which == "resolvent_apply":
                resolvent_apply(f, PT)
            else:
                resolvent_apply_general(f, PT, BoundaryOperatorD.no_slip(MODE10))
        assert [w.filename for w in caught] == [__file__]


class _SharedSolveCalled(AssertionError):
    pass


class TestSharedSolve:
    """``resolvent._solve_rows`` is the one solve of the resolvent and of the
    semigroup: it alone sweeps and forms the boundary layer."""

    GRID = HalfLineGrid.uniform(20.0, 257)
    MODE = FourierMode(2, 1)
    NU = 0.5

    def _data(self, nrows):
        z = self.GRID.nodes
        vals = np.array([np.exp(-((z - 4.0) ** 2)), (0.5 - 1j) * np.exp(-((z - 6.0) ** 2)),
                         z * np.exp(-((z - 5.0) ** 2))], dtype=complex)
        return vals[:nrows]

    def _operator(self, general):
        if general:
            return BoundaryOperatorD(0.3, 0.2, np.sqrt(0.06), c0=1.0, mode=self.MODE)
        return BoundaryOperatorD.no_slip(self.MODE)

    @pytest.mark.parametrize("general", [False, True], ids=["no-slip", "general"])
    @pytest.mark.parametrize("node", ["complex", "real"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["scale-1", "scale-c_k"])
    def test_boundary_datum_condition(self, general, node, weighted):
        # one node of the semigroup's sum, with g != 0: the layer meets
        # -mu c + D (v(0) + c) = -scale g/nu, since dv/dz(0) = 0 for the even image
        D = self._operator(general)
        c, mus = solver._parabola(self.NU, self.MODE, 0.3)
        k = solver._N_CONTOUR + (5 if node == "complex" else 0)  # u = 0 is the vertex
        mu = mus[k]
        assert (mu.imag != 0.0) == (node == "complex")
        scale = c[k] if weighted else 1.0
        g = np.array([0.7 - 0.2j, -0.4 + 0.9j])
        v, cl, w = resolvent._solve_rows(self.GRID, self._data(3), mu, self.NU, D,
                                         solver._PARITY, g, scale)
        lhs = -mu * cl + D.matrix @ (v[:2, 0] + cl)
        rhs = -scale * g / self.NU
        size = max(np.max(np.abs(mu * cl)), np.max(np.abs(D.matrix @ (v[:2, 0] + cl))),
                   np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * size
        assert np.array_equal(w, cl[:, None] * _decay_table(self.GRID, mu))

    @pytest.mark.parametrize("general", [False, True], ids=["no-slip", "general"])
    def test_zero_datum_is_the_resolvent(self, general):
        D = self._operator(general)
        pt = SpectralPoint(3.0 + 1.0j, self.NU, self.MODE)
        f = ModeField(self.GRID, self._data(2))
        sol = resolvent_apply_general(f, pt, D)
        v, c, w = resolvent._solve_rows(self.GRID, f.values, pt.mu, self.NU, D, 1,
                                        np.zeros(2), 1.0)
        assert np.array_equal(c, sol.c0)
        assert np.array_equal(v + w, sol.u.values)

    @pytest.mark.parametrize("path", ["resolvent_apply", "resolvent_apply_general",
                                      "duhamel", "duhamel_forced", "cli_solve"])
    def test_both_paths_go_through_the_one_solve(self, monkeypatch, tmp_path, path):
        # if either module forms its layer again on its own, this fails
        def called(*args, **kwargs):
            raise _SharedSolveCalled

        for module in (resolvent, solver):
            monkeypatch.setattr(module, "_solve_rows", called)
        grid = HalfLineGrid.uniform(8.0, 65)
        f = ModeField(grid, np.exp(-((grid.nodes - 3.0) ** 2)) * np.ones((2, 1)))
        omega0 = ModeField(grid, np.vstack([f.values, np.zeros((1, grid.n))]))
        with pytest.raises(_SharedSolveCalled):
            if path == "resolvent_apply":
                resolvent_apply(f, PT)
            elif path == "resolvent_apply_general":
                resolvent_apply_general(f, PT, BoundaryOperatorD(0.4, 0.0, 0.0, 1.0, MODE10))
            elif path == "cli_solve":
                cli.main(["solve", "--xi", "1", "0", "--t", "0.1", "--grid", "0:8:64",
                          "--out", str(tmp_path / "s.csv")])
            else:
                forced = path == "duhamel_forced"
                p = StokesProblem(mode=MODE10, nu=1.0, omega0=omega0, t_final=0.1,
                                  forcing=(lambda t: omega0.values) if forced else None,
                                  boundary_g=(lambda t: np.ones(2)) if forced else None)
                duhamel_solve(p, [0.1])


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

    def test_no_slip_zero_mode_is_neumann(self):
        # the vorticity condition degenerates to pure Neumann at xi = 0
        D = BoundaryOperatorD.no_slip(FourierMode(0, 0))
        assert (D.alpha, D.beta, D.gamma_off, D.c0) == (0.0, 0.0, 0.0, 1.0)
        assert np.array_equal(D.matrix, np.zeros((2, 2)))

    def test_matrix_built_once_real_read_only(self):
        D = BoundaryOperatorD(0.3, 0.7, np.sqrt(0.21), c0=2.0, mode=MODE10)
        assert D.matrix is D.matrix
        assert D.matrix.dtype == np.float64
        assert np.array_equal(D.matrix, [[0.3, np.sqrt(0.21)], [np.sqrt(0.21), 0.7]])
        with pytest.raises(ValueError):
            D.matrix[0, 0] = 1.0
        assert D == BoundaryOperatorD(0.3, 0.7, np.sqrt(0.21), c0=2.0, mode=MODE10)

    def test_gates(self):
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(1.0, 1.0, 0.0, 2.0, MODE10)       # det != 0
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(-0.5, 0.0, 0.0, 2.0, MODE10)      # alpha < 0
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(3.0, 0.0, 0.0, 1.0, MODE10)       # trace > c0 |xi|
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(0.5, 0.0, 0.0, -1.0, MODE10)      # c0 <= 0
        # a non-finite entry fails no comparison gate (inf c0 would pass the trace gate)
        for bad in (np.nan, np.inf, -np.inf):
            for args in ((bad, 0.0, 0.0, 1.0), (0.0, bad, 0.0, 1.0),
                         (0.0, 0.0, bad, 1.0), (0.5, 0.0, 0.0, bad)):
                with pytest.raises(HypothesisViolated, match="finite"):
                    BoundaryOperatorD(*args, MODE10)


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

    def test_operator_of_another_mode_rejected(self):
        # D's admissibility and pole were computed for xi = (1, 0), not (2, 1)
        f, _, _ = self._setup(n=101)
        pt = SpectralPoint(1.0, 1.0, FourierMode(2, 1))
        with pytest.raises(HypothesisViolated, match="built for xi"):
            resolvent_apply_general(f, pt, BoundaryOperatorD.no_slip(MODE10))

    def test_fd_oracle_rejects_operator_of_another_mode(self):
        f, _, _ = self._setup(n=101)
        pt = SpectralPoint(1.0, 1.0, FourierMode(2, 1))
        with pytest.raises(HypothesisViolated, match="built for xi"):
            finite_difference_resolvent_general(f, pt, BoundaryOperatorD.no_slip(MODE10))


class TestResolventBound:
    def test_finite_and_deterministic(self):
        pt = SpectralPoint(10.0 + 5.0j, 0.1, FourierMode(2, 1))
        grid = HalfLineGrid.uniform(20.0, 401)
        r1 = check_resolvent_bound(pt, trials=5, seed=11, grid=grid)
        r2 = check_resolvent_bound(pt, trials=5, seed=11, grid=grid)
        assert np.isfinite(r1["l2_ratio"]) and np.isfinite(r1["h1_ratio"])
        assert r1["l2_ratio"] == r2["l2_ratio"]
        assert r1["h1_ratio"] == r2["h1_ratio"]

    POINTS = pytest.mark.parametrize(
        "point", [SpectralPoint(3.0 + 0j, 1.0, MODE10),
                  SpectralPoint(10.0 + 5.0j, 0.1, FourierMode(2, 1))],
        ids=["verify", "complex-lambda"])

    @staticmethod
    def reference(point, trials, seed, grid, spacing=None):
        """(l2_ratio, h1_ratio) by one ``resolvent_apply`` per trial and the
        H^1 norm formed from the solution alone, as the bound was first
        computed; du/dz by ``np.gradient`` on ``spacing``, the grid's h by
        default."""
        rng = np.random.default_rng(seed)
        weight = abs(point.lam + point.nu * point.mode.norm**2)
        sup_l2 = sup_h1 = 0.0
        for _ in range(trials):
            centers = rng.uniform(0.5, 0.6 * grid.z_max, size=(2, 1))
            widths = rng.uniform(0.2, 2.0, size=(2, 1))
            amps = rng.normal(size=(2, 2)) @ np.array([1.0, 1j])
            f = ModeField(grid, amps[:, None] * np.exp(-((grid.nodes - centers) / widths) ** 2))
            u = resolvent_apply(f, point).u
            du = np.gradient(u.values, grid.h if spacing is None else spacing, axis=-1)
            h1 = math.sqrt(grid.norm_l2(u.values) ** 2 + grid.norm_l2(du) ** 2)
            sup_l2 = max(sup_l2, u.norm_l2() * weight / f.norm_l2())
            sup_h1 = max(sup_h1, h1 * math.sqrt(point.nu) * math.sqrt(weight) / f.norm_l2())
        return sup_l2, sup_h1

    @pytest.mark.parametrize("trials", [1, 10])
    @POINTS
    def test_matches_per_trial_solves_bit_for_bit(self, point, trials):
        grid = HalfLineGrid.uniform(20.0, 401)
        report = check_resolvent_bound(point, trials=trials, seed=7, grid=grid)
        assert (report["l2_ratio"], report["h1_ratio"]) == self.reference(point, trials, 7,
                                                                          grid)

    @pytest.mark.parametrize("trials", [1, 10])
    @POINTS
    def test_matches_on_the_default_grid(self, point, trials):
        # `verify`'s grid, [0, 20] with 801 nodes, whose linspace spacings are
        # not bit-equal: there np.gradient on the nodes forms other bits than
        # on h (at seed 9 the h1 ratio differs in three of these four cases)
        # and agrees with the reported ratio to rounding
        grid = HalfLineGrid.uniform(20.0, 801)
        assert np.unique(np.diff(grid.nodes)).size > 1
        report = check_resolvent_bound(point, trials=trials, seed=9)
        assert report["n_nodes"] == grid.n
        assert (report["l2_ratio"], report["h1_ratio"]) == self.reference(point, trials, 9,
                                                                          grid)
        on_nodes = self.reference(point, trials, 9, grid, grid.nodes)[1]
        assert abs(on_nodes - report["h1_ratio"]) <= 1e-14 * report["h1_ratio"]


@pytest.mark.parametrize("ncomp", [1, 3])
@pytest.mark.parametrize("solve", [
    lambda f: resolvent_apply(f, PT),
    lambda f: resolvent_apply_general(f, PT, BoundaryOperatorD.no_slip(MODE10)),
    lambda f: finite_difference_resolvent_general(f, PT, BoundaryOperatorD.no_slip(MODE10)),
], ids=["resolvent_apply", "resolvent_apply_general", "finite_difference_general"])
def test_solves_need_the_tangential_pair(solve, ncomp):
    # a 1- or 3-component field is not the tangential pair the boundary acts on
    grid = HalfLineGrid.uniform(20.0, 65)
    f = ModeField(grid, np.tile(np.exp(-(grid.nodes - 5.0) ** 2), (ncomp, 1)))
    with pytest.raises(IncompatibleData, match="tangential pair"):
        solve(f)


@pytest.mark.parametrize("trials", [0, -1, 2.5, True])
def test_resolvent_bound_needs_a_trial(trials):
    # zero trials would report ratios of 0.0, which a finiteness check
    # passes; True ran one trial and reported "trials": true
    with pytest.raises(IncompatibleData, match="trials"):
        check_resolvent_bound(PT, trials=trials)


# each reached numpy's bare TypeError or ValueError (the seed) or an
# AttributeError (the point or the grid)
@pytest.mark.parametrize("kwargs", [
    dict(seed="x"), dict(seed=1.5), dict(seed=-1),
    dict(point=(3.0, 1.0, MODE10)), dict(grid=(20.0, 801)), dict(grid=np.linspace(0, 20, 801)),
], ids=["seed=str", "seed=float", "seed=-1", "point=tuple", "grid=tuple", "grid=array"])
def test_resolvent_bound_arguments_raise_typed(kwargs, monkeypatch):
    def no_draw(*args, **kw):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(IncompatibleData):
        check_resolvent_bound(**{"point": PT, "trials": 2, **kwargs})


@pytest.mark.parametrize("xi", [(1, 0), (0, 0), (2, 1)])
@pytest.mark.parametrize("lam", [3.0, 1e4, 50.0 + 40.0j])
def test_non_finite_data_raises(lam, xi):
    # a NaN or an infinity anywhere in either row reached every value of the
    # solution as NaN, with no error; at lambda = 1e4 |mu h| is about 2
    mode = FourierMode(*xi)
    n = mode.norm
    D = (BoundaryOperatorD.no_slip(mode) if mode.is_zero
         else BoundaryOperatorD(0.2 * n, 0.3 * n, np.sqrt(0.06) * n, c0=1.0, mode=mode))
    point = SpectralPoint(lam=complex(lam), nu=1.0, mode=mode)
    grid = HalfLineGrid.uniform(40.96, 2049)
    base = np.array([np.exp(-(grid.nodes - 5.0) ** 2),
                     0.5j * np.exp(-(grid.nodes - 6.0) ** 2)])
    for bad in (np.nan, np.inf, -np.inf):
        for node in (0, 1, 1024, 2047, 2048):
            for row in (0, 1):
                vals = base.copy()
                vals[row, node] = bad
                f = ModeField(grid, vals)
                for solve in (lambda: resolvent_apply(f, point),
                              lambda: resolvent_apply_general(f, point, D)):
                    with pytest.raises(IncompatibleData, match="finite"):
                        solve()
