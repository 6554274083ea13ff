"""Unit tests for the Duhamel evolution and its finite-difference oracle."""

import math

import numpy as np
import pytest

from stokesgreen import (
    FourierMode,
    HalfLineGrid,
    IncompatibleData,
    ModeField,
    StabilityWarning,
    StokesProblem,
    Trajectory,
    crank_nicolson_oracle,
    duhamel_solve,
)
from stokesgreen.actions import halfline_laplace_weights, image_action_gauss
from stokesgreen.kernels import heat_kernel_neumann, residual_profiles_general
from stokesgreen.resolvent import BoundaryOperatorD
from stokesgreen import solver
from stokesgreen.solver import _propagate

MODE = FourierMode(1, 0)


def bump_initial(grid, centers=(4.0, 5.0, 6.0), width=1.0):
    z = grid.nodes
    vals = np.array([np.exp(-(((z - c) / width) ** 2)) for c in centers],
                    dtype=complex)
    vals[1] *= 1j
    vals[2, 0] = 0.0
    return ModeField(grid, vals)


def _spy_on_solves(monkeypatch) -> list:
    """Record every resolvent solve ``duhamel_solve`` runs; returns the record."""
    calls = []
    real = solver._solve_rows
    monkeypatch.setattr(solver, "_solve_rows",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


class TestStokesProblem:
    def test_compat_correction(self):
        grid = HalfLineGrid.uniform(10.0, 101)
        vals = np.ones((3, grid.n), dtype=complex)
        p = StokesProblem(mode=MODE, nu=1.0, omega0=ModeField(grid, vals))
        assert p.compat_correction == 1.0
        assert p.omega0.values[2, 0] == 0.0

    def test_validation(self):
        grid = HalfLineGrid.uniform(10.0, 101)
        f3 = ModeField(grid, np.zeros((3, grid.n), dtype=complex))
        with pytest.raises(IncompatibleData):
            StokesProblem(mode=MODE, nu=-1.0, omega0=f3)
        with pytest.raises(IncompatibleData):
            StokesProblem(mode=MODE, nu=1.0, omega0=f3, t_final=0.0)
        with pytest.raises(IncompatibleData):
            StokesProblem(mode=MODE, nu=1.0,
                          omega0=ModeField(grid, np.zeros((2, grid.n))))

    def test_default_sources_zero(self):
        grid = HalfLineGrid.uniform(10.0, 101)
        p = StokesProblem(mode=MODE, nu=1.0,
                          omega0=ModeField(grid, np.zeros((3, grid.n))))
        assert np.all(p.force_at(0.3) == 0.0)
        assert np.all(p.g_at(0.3) == 0.0)


class TestTrajectory:
    def test_guards(self):
        grid = HalfLineGrid.uniform(1.0, 5)
        st = ModeField(grid, np.zeros((3, 5)))
        with pytest.raises(IncompatibleData):
            Trajectory(times=[0.1, 0.2], states=[st, st])
        with pytest.raises(IncompatibleData):
            Trajectory(times=[0.0, 0.2], states=[st])
        tr = Trajectory(times=[0.0, 0.2], states=[st, st])
        assert tr.state_at(0.2) is st
        for bad in (0.15, math.nan, math.inf, -math.inf):
            with pytest.raises(IncompatibleData):
                tr.state_at(bad)

    def test_equality_is_identity(self):
        # an array field: a field-wise == raised "truth value ... is ambiguous"
        grid = HalfLineGrid.uniform(16.0, 129)
        p = StokesProblem(mode=MODE, nu=1.0, omega0=bump_initial(grid))
        traj = duhamel_solve(p, [0.1, 0.2])
        copy = Trajectory(times=traj.times.copy(), states=list(traj.states))
        assert (traj == traj) is True
        assert (traj == copy) is False


class TestCrankNicolson:
    def test_zero_data_stays_zero(self):
        grid = HalfLineGrid.uniform(10.0, 101)
        p = StokesProblem(mode=MODE, nu=1.0,
                          omega0=ModeField(grid, np.zeros((3, grid.n), dtype=complex)),
                          t_final=0.5)
        traj = crank_nicolson_oracle(p, dt=0.01)
        assert traj.states[-1].norm_l2() == 0.0

    def test_energy_decay(self):
        grid = HalfLineGrid.uniform(20.0, 401)
        p = StokesProblem(mode=MODE, nu=0.5, omega0=bump_initial(grid), t_final=1.0)
        traj = crank_nicolson_oracle(p, dt=5e-3,
                                     snapshot_times=[0.25, 0.5, 0.75, 1.0])
        norms = [st.norm_l2() for st in traj.states]
        assert np.all(np.diff(norms) < 0.0)

    def test_dirichlet_component_closed_form(self):
        # omega_3 decouples: on [0, L] with both ends pinned the sine mode is
        # exact: e^{-nu ((pi/L)^2 + |xi|^2) t} sin(pi z / L)
        L, nu, t = 10.0, 0.3, 0.5
        grid = HalfLineGrid.uniform(L, 401)
        z = grid.nodes
        vals = np.zeros((3, grid.n), dtype=complex)
        vals[2] = np.sin(np.pi * z / L)
        p = StokesProblem(mode=MODE, nu=nu, omega0=ModeField(grid, vals), t_final=t)
        traj = crank_nicolson_oracle(p, dt=1e-3)
        decay = math.exp(-nu * ((math.pi / L) ** 2 + 1.0) * t)
        exact = decay * np.sin(np.pi * z / L)
        err = np.max(np.abs(traj.states[-1].values[2] - exact))
        assert err < 1e-4

    def test_snapshot_times_validated(self):
        grid = HalfLineGrid.uniform(10.0, 101)
        p = StokesProblem(mode=MODE, nu=1.0,
                          omega0=ModeField(grid, np.zeros((3, grid.n), dtype=complex)),
                          t_final=1.0)
        for bad in ([0.33], [0.3, 2.0], [-0.1, 0.5], [0.5, math.nan]):
            with pytest.raises(IncompatibleData):
                crank_nicolson_oracle(p, dt=0.1, snapshot_times=bad)
        traj = crank_nicolson_oracle(p, dt=0.1, snapshot_times=[0.0, 0.3, 1.0])
        assert np.array_equal(traj.times, [0.0, 0.3, 1.0])

    @pytest.mark.parametrize("dt", [0.0, 3.0, math.nan, -0.1, math.inf, 5e-324])
    def test_dt_validated(self, dt):
        grid = HalfLineGrid.uniform(10.0, 101)
        p = StokesProblem(mode=MODE, nu=1.0,
                          omega0=ModeField(grid, np.zeros((3, grid.n), dtype=complex)),
                          t_final=1.0)
        with pytest.raises(IncompatibleData, match="dt must be"):
            crank_nicolson_oracle(p, dt=dt)

    def test_stability_warning(self):
        grid = HalfLineGrid.uniform(10.0, 2001)  # h = 5e-3
        p = StokesProblem(mode=MODE, nu=1.0,
                          omega0=ModeField(grid, np.zeros((3, grid.n), dtype=complex)),
                          t_final=0.1)
        with pytest.warns(StabilityWarning):
            crank_nicolson_oracle(p, dt=0.05)


class TestDuhamel:
    def test_homogeneous_matches_oracle(self):
        grid = HalfLineGrid.uniform(16.0, 513)
        nu, t = 0.2, 0.5
        p = StokesProblem(mode=FourierMode(2, 1), nu=nu,
                          omega0=bump_initial(grid, width=1.2), t_final=t)
        traj = duhamel_solve(p, [t])
        fine = HalfLineGrid.uniform(16.0, 2049)
        vals0 = np.array([np.interp(fine.nodes, grid.nodes, p.omega0.values[c].real)
                          + 1j * np.interp(fine.nodes, grid.nodes,
                                           p.omega0.values[c].imag)
                          for c in range(3)])
        p_fine = StokesProblem(mode=p.mode, nu=nu, omega0=ModeField(fine, vals0),
                               t_final=t)
        oracle = crank_nicolson_oracle(p_fine, dt=1e-3)
        coarse_from_fine = oracle.states[-1].values[:, ::4]
        err = np.max(np.abs(traj.states[-1].values - coarse_from_fine))
        assert err < 1e-3 * np.max(np.abs(coarse_from_fine))

    def test_zero_mode_all_components(self):
        # xi = 0: every component obeys a plain heat equation (Neumann on the
        # tangential pair, Dirichlet on the third)
        grid = HalfLineGrid.uniform(16.0, 513)
        p = StokesProblem(mode=FourierMode(0, 0), nu=0.5,
                          omega0=bump_initial(grid), t_final=0.4)
        traj = duhamel_solve(p, [0.4])
        oracle = crank_nicolson_oracle(p, dt=1e-3)
        err = np.max(np.abs(traj.states[-1].values - oracle.states[-1].values))
        assert err < 1e-3
        # from zero data the tangential boundary datum drives the Neumann flux;
        # the ghost-node oracle needs the 4x finer grid for its O(h^2) flux error
        def flux_problem(mesh):
            return StokesProblem(
                mode=FourierMode(0, 0), nu=0.5, t_final=0.4,
                omega0=ModeField(mesh, np.zeros((3, mesh.n), dtype=complex)),
                boundary_g=lambda t: np.array([1.0, -0.5j]) * math.sin(3.0 * t))
        got = duhamel_solve(flux_problem(grid), [0.4]).states[-1].values
        oracle = crank_nicolson_oracle(flux_problem(HalfLineGrid.uniform(16.0, 2049)),
                                       dt=1e-3)
        ref = oracle.states[-1].values[:, ::4]
        assert np.max(np.abs(got - ref)) < 1e-3 * np.max(np.abs(ref))

    def test_semigroup_property(self):
        # evolving to t1 and then by t2 equals evolving to t1 + t2
        grid = HalfLineGrid.uniform(16.0, 513)
        nu = 0.4
        mode = FourierMode(1, 0)
        p = StokesProblem(mode=mode, nu=nu, omega0=bump_initial(grid), t_final=1.0)
        one_shot = duhamel_solve(p, [0.6]).states[-1]
        half = duhamel_solve(p, [0.25]).states[-1]
        p2 = StokesProblem(mode=mode, nu=nu, omega0=half, t_final=1.0)
        two_step = duhamel_solve(p2, [0.35]).states[-1]
        # the intermediate state is re-interpolated piecewise-linearly, so the
        # composition agrees to O(h^2)
        err = np.max(np.abs(one_shot.values - two_step.values))
        assert err < 1e-4 * np.max(np.abs(one_shot.values))

    def test_time_zero_returns_initial(self):
        grid = HalfLineGrid.uniform(16.0, 257)
        p = StokesProblem(mode=MODE, nu=1.0, omega0=bump_initial(grid))
        traj = duhamel_solve(p, [0.0, 0.1])
        assert traj.states[0] is p.omega0

    def test_times_outside_horizon_raise(self):
        grid = HalfLineGrid.uniform(16.0, 257)
        p = StokesProblem(mode=MODE, nu=1.0, omega0=bump_initial(grid), t_final=1.0)
        for bad in ([3.0], [0.5, 1.5], [-0.1], [np.nan], [0.5, np.nan], [np.inf],
                    [], [[0.1, 0.2]]):
            with pytest.raises(IncompatibleData):
                duhamel_solve(p, bad)
        # a non-finite nu or horizon is rejected when the problem is built
        for nu, t_final in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(IncompatibleData, match="finite and positive"):
                StokesProblem(mode=MODE, nu=nu, omega0=bump_initial(grid), t_final=t_final)

    @pytest.mark.parametrize("times,how", [([0.5, 0.5], "repeats"),
                                           ([0.5, 0.25], "is below"),
                                           ([0.0, 0.3, 0.3, 0.6], "repeats")])
    def test_times_not_increasing_raise_before_any_solve(self, monkeypatch, times, how):
        calls = _spy_on_solves(monkeypatch)
        grid = HalfLineGrid.uniform(16.0, 257)
        p = StokesProblem(mode=MODE, nu=1.0, omega0=bump_initial(grid), t_final=1.0)
        with pytest.raises(IncompatibleData, match=f"strictly increase.*{how}"):
            duhamel_solve(p, times)
        assert calls == []
        # the spy watches the solves: valid times run one per parabola node
        duhamel_solve(p, sorted(set(times)))
        assert len(calls) == (2 * solver._N_CONTOUR + 1) * sum(t > 0 for t in set(times))

    def test_large_time_residue_limit(self):
        # for nu |xi|^2 t >> 1 only the boundary pole at lambda = 0 survives:
        # omega_tau -> 2 e^{-|xi| y} D int e^{-|xi| z} omega_tau(z) dz, omega_3 -> 0
        grid = HalfLineGrid.uniform(20.0, 1025)
        for mode in (MODE, FourierMode(2, 1)):
            p = StokesProblem(mode=mode, nu=1.0, omega0=bump_initial(grid), t_final=50.0)
            state = duhamel_solve(p, [50.0]).states[-1]
            assert state.norm_l2() <= p.omega0.norm_l2()
            D = BoundaryOperatorD.no_slip(mode)
            trace = p.omega0.values[:2] @ halfline_laplace_weights(grid, D.sigma)
            limit = 2.0 * np.outer(D.matrix @ trace, np.exp(-D.sigma * grid.nodes))
            err = np.max(np.abs(state.values[:2] - limit))
            assert err <= 1e-12 * np.max(np.abs(limit)), mode
            assert np.max(np.abs(state.values[2])) <= 1e-12 * np.max(np.abs(limit)), mode
            # the parabola passes right of the pole at 0, so a decayed component
            # is resolved in absolute terms only: at nu |xi|^2 t = 250 omega_3 is
            # 1e-110 exactly and about 1e-17 here
            assert np.max(np.abs(state.values[2])) <= 1e-14 * np.max(np.abs(p.omega0.values))

    @pytest.mark.parametrize("source,value", [
        ("forcing", np.ones((1, 65))), ("forcing", np.ones((2, 65))), ("forcing", 1.0),
        ("forcing", np.ones((3, 64))), ("boundary_g", 1.0), ("boundary_g", [1.0, 0.0, 0.0]),
        ("boundary_g", [[1.0], [0.0]])],
        ids=["forcing-1xn", "forcing-2xn", "forcing-scalar", "forcing-3x(n-1)",
             "g-scalar", "g-3-vector", "g-2x1"])
    def test_malformed_sources_raise(self, source, value):
        grid = HalfLineGrid.uniform(8.0, 65)
        p = StokesProblem(mode=MODE, nu=1.0, omega0=bump_initial(grid), t_final=0.2,
                          **{source: lambda t: value})
        with pytest.raises(IncompatibleData, match=source):
            duhamel_solve(p, [0.2])
        with pytest.raises(IncompatibleData, match=source):
            crank_nicolson_oracle(p, dt=0.1)

    @pytest.mark.parametrize("source", ["forcing", "boundary_g"])
    def test_non_callable_sources_raise(self, source):
        grid = HalfLineGrid.uniform(8.0, 65)
        value = np.ones((3, grid.n)) if source == "forcing" else np.ones(2)
        with pytest.raises(IncompatibleData, match=source):
            StokesProblem(mode=MODE, nu=1.0, omega0=bump_initial(grid), t_final=0.2,
                          **{source: value})


class TestNonFiniteData:
    """A NaN or an infinity in omega0, the forcing or g raises IncompatibleData;
    each gave a state of NaN, or one with no finite value, and no error."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_initial_data(self, bad):
        # the check is in StokesProblem, so neither solver can take such data
        grid = HalfLineGrid.uniform(8.0, 65)
        for comp, node in ((0, 30), (1, 0), (2, 0), (2, 64)):
            vals = bump_initial(grid).values.copy()
            vals[comp, node] = bad
            with pytest.raises(IncompatibleData, match="omega0 must be finite"):
                StokesProblem(mode=MODE, nu=1.0, omega0=ModeField(grid, vals), t_final=0.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("source", ["forcing", "boundary_g"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_sources_raise_before_any_solve(self, monkeypatch, source, bad, part):
        calls = _spy_on_solves(monkeypatch)
        grid = HalfLineGrid.uniform(8.0, 65)
        value = np.zeros((3, grid.n) if source == "forcing" else 2, dtype=complex)
        if part == "real":
            value.flat[-1] = bad
        else:
            value.imag.flat[0] = bad
        p = StokesProblem(mode=MODE, nu=1.0, omega0=bump_initial(grid), t_final=0.2,
                          **{source: lambda t: value})
        with pytest.raises(IncompatibleData, match=fr"{source}\(t\) must be finite"):
            duhamel_solve(p, [0.1, 0.2])
        assert calls == []
        with pytest.raises(IncompatibleData, match=fr"{source}\(t\) must be finite"):
            crank_nicolson_oracle(p, dt=0.1)


    @pytest.mark.parametrize("bad", ["string", "ragged"])
    @pytest.mark.parametrize("source", ["forcing", "boundary_g"])
    def test_malformed_sources_raise(self, monkeypatch, source, bad):
        # a string or a ragged list was a bare ValueError from complex() or
        # from numpy's inhomogeneous-shape check
        calls = _spy_on_solves(monkeypatch)
        grid = HalfLineGrid.uniform(8.0, 65)
        rows = [[0.0] * grid.n] * 3 if source == "forcing" else [[0.0], [0.0]]
        value = "not a number" if bad == "string" else rows[:-1] + [rows[-1] + [0.0]]
        p = StokesProblem(mode=MODE, nu=1.0, omega0=bump_initial(grid), t_final=0.2,
                          **{source: lambda t: value})
        with pytest.raises(IncompatibleData, match=fr"{source}\(t\) must be a numeric array"):
            duhamel_solve(p, [0.1, 0.2])
        assert calls == []
        with pytest.raises(IncompatibleData, match=fr"{source}\(t\) must be a numeric array"):
            crank_nicolson_oracle(p, dt=0.1)


# (nu, xi) pairs covering both frequency regimes and the zero mode
HEAT_CASES = [(0.4, (1, 0)), (1.0, (2, 1)), (0.05, (8, 0)), (1.0, (0, 0))]


class TestHeatSemigroup:
    @pytest.mark.parametrize("n", [513, 1025])
    @pytest.mark.parametrize("nu,xi", HEAT_CASES,
                             ids=[f"nu{nu:g}-xi{xi[0]}{xi[1]}" for nu, xi in HEAT_CASES])
    def test_zero_operator_matches_gauss_oracle(self, nu, xi, n):
        # with D = 0 the resolvent sum is the heat semigroup: Neumann on the
        # tangential pair, Dirichlet on omega_3, times e^{-nu |xi|^2 t}
        mode = FourierMode(*xi)
        grid = HalfLineGrid.uniform(20.0, n)
        f = bump_initial(grid).values
        D0 = BoundaryOperatorD(0.0, 0.0, 0.0, 1.0, mode)
        for t in (1e-6, 1e-4, 1e-2, 0.5, 5.0, 50.0):
            got = _propagate(grid, nu, mode, t, f, np.zeros(2), D0)
            decay = math.exp(-nu * mode.norm**2 * t)
            ref = np.concatenate([
                image_action_gauss(grid, f[:2], nu * t, +1, warn_truncation=False),
                image_action_gauss(grid, f[2:], nu * t, -1, warn_truncation=False)]) * decay
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(f)), t


# nu |xi|^2 t from 4e-6 to 320
SEPARABLE_CASES = [(nu, xi, t) for nu in (1.0, 0.1, 0.04) for xi in ((1, 0), (2, 1), (8, 0))
                   for t in (1e-4, 1e-2, 1.0, 5.0)]


class TestSeparableResidual:
    @pytest.mark.parametrize("nu,xi,t", SEPARABLE_CASES,
                             ids=[f"nu{nu:g}-xi{xi[0]}{xi[1]}-t{t:g}"
                                  for nu, xi, t in SEPARABLE_CASES])
    def test_matches_contour_profiles(self, nu, xi, t):
        # from zero data, the boundary datum g = e_b gives column b of
        # G(t, y; 0) = H(t, y, 0) I + (rho1 + rho2)(y) D on y in [0, 10]
        mode = FourierMode(*xi)
        grid = HalfLineGrid.uniform(10.0, 41)
        D = BoundaryOperatorD.no_slip(mode)
        zero = np.zeros((3, grid.n), dtype=complex)
        col = np.stack([_propagate(grid, nu, mode, t, zero, g, D)[:2] for g in np.eye(2)],
                       axis=1)
        rho1, rho2 = residual_profiles_general(t, nu, mode, grid.nodes, mode.norm)
        heat = heat_kernel_neumann(t, nu, mode, grid.nodes, 0.0)
        ref = (heat * np.eye(2)[:, :, None]
               + (rho1 + rho2) * D.matrix[:, :, None])
        assert np.max(np.abs(col - ref)) <= 1e-11 * np.max(np.abs(ref))
