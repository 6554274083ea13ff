"""Acceptance suite: end-to-end correctness, certification, and oracle checks.

Each test prints a one-line summary with the measured quantities so that a
full run doubles as a verification report.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from stokesgreen import (
    BoundaryOperatorD,
    FourierMode,
    HalfLineGrid,
    HypothesisViolated,
    ModeField,
    SpectralPoint,
    StokesProblem,
    apply_delta_xi,
    check_biot_savart_roundtrip,
    check_resolvent_bound,
    check_trace_identities,
    crank_nicolson_oracle,
    curl_mode,
    duhamel_solve,
    green_function,
    heat_kernel_neumann,
    residual_kernel_time,
    residual_profiles_general,
    resolvent_apply,
    sample_green_function,
    verify_kernel_bounds,
)
from stokesgreen import kernels
from stokesgreen.contours import parabola_params
from stokesgreen.solver import _propagate

from bromwich_mp import circle_residue, green_bromwich


def random_pair(grid, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.5, 0.6 * grid.z_max, size=(2, 1))
    widths = rng.uniform(0.3, 1.5, size=(2, 1))
    amps = rng.normal(size=(2, 2)) @ np.array([1.0, 1j])
    return amps[:, None] * np.exp(-((grid.nodes - centers) / widths) ** 2)


class TestCriterion1ResolventCorrectness:
    def test_residual_orders_and_boundary(self):
        start = time.perf_counter()
        worst_ratio_lo, worst_ratio_hi, worst_bres = 4.0, 4.0, 0.0
        for nu in (1.0, 0.1):
            for xi in ((1, 0), (2, 1)):
                mode = FourierMode(*xi)
                for lam in (3.0 + 0j, 2.0 + 1j, 50.0 + 0j):
                    point = SpectralPoint(lam=lam, nu=nu, mode=mode)
                    errs = []
                    for n in (401, 801):
                        grid = HalfLineGrid.uniform(30.0, n)
                        f = ModeField(grid, random_pair(grid, seed=1))
                        sol = resolvent_apply(f, point)
                        res = (lam * sol.u.values
                               - apply_delta_xi(sol.u, nu, mode).values
                               - f.values)
                        errs.append(np.max(np.abs(res[:, 2:-2])))
                        bres = sol.boundary_residual() / f.norm_l2()
                        assert bres < 1e-8, (nu, xi, lam, bres)
                        worst_bres = max(worst_bres, bres)
                    ratio = errs[0] / errs[1]
                    assert 3.5 <= ratio <= 4.5, (nu, xi, lam, ratio)
                    worst_ratio_lo = min(worst_ratio_lo, ratio)
                    worst_ratio_hi = max(worst_ratio_hi, ratio)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        print(f"\n[criterion 1] PASS residual ratios in "
              f"[{worst_ratio_lo:.2f}, {worst_ratio_hi:.2f}], boundary residual "
              f"<= {worst_bres:.2e}, {elapsed:.1f}s")


class TestCriterion2ResolventBoundCertificate:
    def test_sector_sweep(self):
        start = time.perf_counter()
        grid = HalfLineGrid.uniform(20.0, 801)
        grid2 = HalfLineGrid.uniform(20.0, 1601)
        sup_l2 = sup_h1 = 0.0
        max_drift = 0.0
        for nu, xi in ((1.0, (1, 0)), (0.1, (2, 1))):
            mode = FourierMode(*xi)
            base = nu * mode.norm**2
            for r in (1.0, 10.0, 100.0):
                for arg in (0.0, 0.75 * math.pi, -0.75 * math.pi):
                    lam = r * base * complex(math.cos(arg), math.sin(arg))
                    point = SpectralPoint(lam=lam, nu=nu, mode=mode)
                    rep = check_resolvent_bound(point, trials=50, seed=5, grid=grid)
                    rep2 = check_resolvent_bound(point, trials=50, seed=5, grid=grid2)
                    for key in ("l2_ratio", "h1_ratio"):
                        assert np.isfinite(rep[key]), (nu, xi, lam, key)
                        drift = abs(rep2[key] - rep[key]) / rep[key]
                        assert drift < 0.10, (nu, xi, lam, key, drift)
                        max_drift = max(max_drift, drift)
                    sup_l2 = max(sup_l2, rep["l2_ratio"])
                    sup_h1 = max(sup_h1, rep["h1_ratio"])
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        print(f"\n[criterion 2] PASS sup ratios L2={sup_l2:.3f} H1={sup_h1:.3f} "
              f"finite, grid-doubling drift <= {max_drift:.2e}, {elapsed:.1f}s")


class TestCriterion3KernelDecomposition:
    def test_decomposition_both_regimes(self):
        start = time.perf_counter()
        # the closed forms against Talbot inversion of the full resolvent
        # kernel in 30-digit arithmetic, at (y, z) separations within a few
        # heat-kernel widths of each t (the kernel decays like
        # e^{-(y-z)^2/4 nu t}, so a relative error means little at large gaps)
        t_vals = np.array([0.1, 0.2, 0.3, 0.7, 1.0])
        yz = [(0.3, 0.3), (0.0, 0.6), (0.8, 1.4), (1.5, 1.0), (1.2, 1.2)]
        worst = 0.0
        for nu, xi in ((0.25, (1, 0)), (1.0, (2, 1))):   # lowfreq / highfreq
            mode = FourierMode(*xi)
            for t in t_vals:
                for y, z in yz:
                    G = green_function(t, nu, mode, y, z)
                    direct = green_bromwich(t, nu, mode, y, z)
                    rel = np.max(np.abs(G - direct)) / np.max(np.abs(direct))
                    assert rel < 1e-6, (nu, xi, t, y, z, rel)
                    worst = max(worst, rel)
        # regime boundary nu |xi|^2 = 1: the adaptive oracle on the parabola
        # agrees with the closed-form R1 + R2
        mode = FourierMode(1, 0)
        worst_b = 0.0
        for t in (0.05, 0.2, 1.0):
            for y, z in yz:
                oracle = residual_kernel_time(t, 1.0, mode, y, z, method="adaptive")
                closed = residual_kernel_time(t, 1.0, mode, y, z)
                tot_o, tot_c = oracle["R1"] + oracle["R2"], closed["R1"] + closed["R2"]
                rel = np.max(np.abs(tot_o - tot_c)) / max(np.max(np.abs(tot_c)), 1e-300)
                assert rel < 1e-6, (t, y, z, rel)
                worst_b = max(worst_b, rel)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        print(f"\n[criterion 3] PASS decomposition rel err <= {worst:.2e}, regime "
              f"boundary agreement <= {worst_b:.2e}, {elapsed:.1f}s")


class TestCriterion4ContourIndependence:
    def test_cauchy_invariance_and_residue(self):
        nu, mode, t = 0.25, FourierMode(1, 0), 0.3
        y, z = 0.6, 0.9
        s = y + z
        P = BoundaryOperatorD.no_slip(mode).matrix
        rho = P * sum(residual_profiles_general(t, nu, mode, np.array([s]), mode.norm))

        def total(s_tuned):
            # the adaptive oracle's R1 + R2 at s on the parabola tuned at
            # s_tuned, plus the residue where that parabola crossed the pole
            p = dict(parabola_params(t, nu, mode.norm, s_tuned, mode.norm), s=np.asarray(s))
            rho1, rho2 = kernels._adaptive_rho(p)
            return rho1 * P + rho2 * P

        # tuning at 0 crosses the pole and adds its residue; at s, s/2 and 2s
        # the parabola passes right of it (tuning at 4s would cancel)
        assert bool(parabola_params(t, nu, mode.norm, 0.0, mode.norm)["crosses_pole"])
        drift = {tuned: np.max(np.abs(total(tuned) - rho)) / np.max(np.abs(rho))
                 for tuned in (s, 0.0, s / 2, 2 * s)}
        for rel in drift.values():
            assert rel < 1e-8

        # residue at lambda = 0: R1 at a t with s < 2 sigma nu t, where it is
        # the whole pole term, vs small-circle quadrature in 30 digits
        t_pole = 5.0
        assert s < 2.0 * mode.norm * nu * t_pole

        def f(lam):
            mu = mpmath.sqrt(lam / nu + mode.norm**2)
            return mpmath.exp(lam * t_pole - mu * s) / (nu * mu * (mu - mode.norm))

        circ = circle_residue(f, 0.0, 0.05 * nu * mode.norm**2)
        analytic = residual_kernel_time(t_pole, nu, mode, y, z)["R1"]
        rel_r = np.max(np.abs(analytic - circ * P)) / np.max(np.abs(analytic))
        assert rel_r < 1e-10
        print(f"\n[criterion 4] PASS contour drift against rho, parabola tuned at "
              f"s, 0, s/2, 2s: " + ", ".join(f"{rel:.2e}" for rel in drift.values())
              + f"; residue vs quadrature {rel_r:.2e}")


class TestCriterion5GreenFunctionProperties:
    def test_symmetry(self):
        mode = FourierMode(2, 1)
        nodes = np.linspace(0.0, 5.0, 11)
        V = sample_green_function(0.3, 0.5, mode, nodes, nodes).values
        rel = np.max(np.abs(V - np.transpose(V, (1, 0, 3, 2)))) / np.max(np.abs(V))
        assert rel < 1e-10
        print(f"\n[criterion 5a] PASS kernel symmetry rel err {rel:.2e}")

    def test_semigroup_law(self):
        grid = HalfLineGrid.uniform(16.0, 1025)
        nu, mode = 0.4, FourierMode(1, 0)
        z = grid.nodes
        vals = np.array([np.exp(-((z - 5.0) ** 2)),
                         1j * np.exp(-((z - 6.0) ** 2) / 1.5),
                         np.exp(-((z - 7.0) ** 2))], dtype=complex)
        vals[2, 0] = 0.0
        p = StokesProblem(mode=mode, nu=nu, omega0=ModeField(grid, vals), t_final=1.0)
        one = duhamel_solve(p, [0.6]).states[-1]
        half = duhamel_solve(p, [0.25]).states[-1]
        p2 = StokesProblem(mode=mode, nu=nu, omega0=half, t_final=1.0)
        two = duhamel_solve(p2, [0.35]).states[-1]
        rel = np.max(np.abs(one.values - two.values)) / np.max(np.abs(one.values))
        assert rel < 1e-4
        print(f"\n[criterion 5b] PASS semigroup law rel err {rel:.2e}")

    def test_delta_initial_condition_rate(self):
        # Lipschitz hat datum: || G(t) f - f ||_inf = O(sqrt(t)); the heat
        # semigroup (the solver's propagator with D = 0) acts exactly on the
        # hat through its resolvent solves, so the rate is clean down to 1e-4
        grid = HalfLineGrid.uniform(16.0, 513)
        nu, mode = 1.0, FourierMode(1, 0)
        z = grid.nodes
        hat = np.maximum(0.0, 1.0 - np.abs(z - 8.0))
        data = np.array([hat, 0.0 * hat, 0.0 * hat])
        D0 = BoundaryOperatorD(0.0, 0.0, 0.0, 1.0, mode)
        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            evolved = _propagate(grid, nu, mode, t, data, np.zeros(2), D0)[0]
            # the boundary-layer part is e^{-|xi| * 8}-small at the hat and
            # ignored; compare against the initial datum directly
            errs.append(np.max(np.abs(evolved - hat)))
        rates = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
        for r in rates:
            assert 0.4 <= r <= 0.6, (errs, rates)
        print(f"\n[criterion 5c] PASS delta-IC errors {errs[0]:.2e}/{errs[1]:.2e}/"
              f"{errs[2]:.2e}, observed rates {rates[0]:.3f}, {rates[1]:.3f}")

    def test_boundary_condition_residual(self):
        # the kernel satisfies the vorticity condition in z at z = 0: with
        # R = rho D, D = P/|xi|, d/dz rho + |xi| rho + H(t, y, 0) = 0
        worst = 0.0
        for nu, xi in ((1.0, (1, 0)), (0.2, (2, 1))):
            mode = FourierMode(*xi)
            y = np.linspace(0.1, 4.0, 9)
            r1, r2 = residual_profiles_general(0.3, nu, mode, y, mode.norm)
            d1, d2 = residual_profiles_general(0.3, nu, mode, y, mode.norm, deriv=1)
            h = heat_kernel_neumann(0.3, nu, mode, y, 0.0)
            res = (d1 + d2) + mode.norm * (r1 + r2) + h
            scale = np.abs(d1 + d2) + mode.norm * np.abs(r1 + r2) + h
            worst = max(worst, float(np.max(np.abs(res) / scale)))
        assert worst < 1e-6
        print(f"\n[criterion 5d] PASS kernel boundary-condition residual {worst:.2e}")


class TestCriterion6BoundCertificates:
    def test_full_sweep(self):
        start = time.perf_counter()
        report = verify_kernel_bounds()   # full default sweep, both families
        elapsed = time.perf_counter() - start
        assert report["pass"]
        assert elapsed < 300.0
        for fam in ("no_slip", "general"):
            sup = report[fam]["sup"]
            assert np.isfinite(sup["R1"]) and np.isfinite(sup["R2_quarter"])
        ns, ge = report["no_slip"]["sup"], report["general"]["sup"]
        print(f"\n[criterion 6] PASS fitted constants: no-slip C_R1={ns['R1']:.3f} "
              f"C_R2={ns['R2_quarter']:.3f}; general C_R1={ge['R1']:.3f} "
              f"C_R2={ge['R2_quarter']:.3f} (quarter-Gaussian exponent; the "
              f"stated-exponent ratio grows to 1e{ns['R2_stated_log10']:.0f}); "
              f"{elapsed:.1f}s")


class TestCriterion7DuhamelVsOracle:
    def test_forced_problem(self):
        start = time.perf_counter()
        nu, mode = 0.1, FourierMode(1, 0)
        z_max, t_final = 16.0, 1.0
        coarse = HalfLineGrid.uniform(z_max, 1025)
        fine = HalfLineGrid.uniform(z_max, 8193)
        times = [0.25, 0.5, 1.0]

        def omega0_values(grid):
            z = grid.nodes
            vals = np.array([np.exp(-((z - 5.0) ** 2)),
                             0.5j * np.exp(-((z - 6.0) ** 2) / 1.2),
                             np.exp(-((z - 7.0) ** 2))], dtype=complex)
            vals[2, 0] = 0.0
            return vals

        def forcing_factory(grid):
            z = grid.nodes
            prof = np.array([np.exp(-((z - 4.0) ** 2) / 0.8),
                             np.exp(-((z - 6.0) ** 2)) * (0.3 - 0.2j),
                             0.5 * np.exp(-((z - 5.0) ** 2))], dtype=complex)
            return lambda t: math.cos(2.0 * t) * prof

        def g_of_t(t):
            return np.array([0.4 * math.sin(3.0 * t), 0.2 * (1.0 - math.e**(-t))],
                            dtype=complex)

        p = StokesProblem(mode=mode, nu=nu, omega0=ModeField(coarse, omega0_values(coarse)),
                          forcing=forcing_factory(coarse), boundary_g=g_of_t,
                          t_final=t_final)
        traj = duhamel_solve(p, times)
        p_fine = StokesProblem(mode=mode, nu=nu,
                               omega0=ModeField(fine, omega0_values(fine)),
                               forcing=forcing_factory(fine), boundary_g=g_of_t,
                               t_final=t_final)
        oracle = crank_nicolson_oracle(p_fine, dt=1e-4, snapshot_times=times)
        worst = 0.0
        for t in times:
            a = traj.state_at(t).values
            b = oracle.state_at(t).values[:, ::8]
            rel = np.max(np.abs(a - b)) / np.max(np.abs(b))
            assert rel <= 1e-3, (t, rel)
            worst = max(worst, rel)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        print(f"\n[criterion 7] PASS forced Duhamel vs Crank-Nicolson "
              f"(N=8192, dt=1e-4) rel err <= {worst:.2e}, {elapsed:.1f}s")


class TestCriterion8VorticityIdentities:
    def test_biot_savart_roundtrip(self):
        mode = FourierMode(2, 1)
        errs = []
        for n in (1025, 2049):
            grid = HalfLineGrid.uniform(20.0, n)
            z = grid.nodes
            psi = np.exp(-(((z - 9.0) / 1.4) ** 2))
            W = ModeField(grid, np.array([psi, 0.6 * psi, 0.3 * psi], dtype=complex))
            h = curl_mode(W, mode)
            errs.append(check_biot_savart_roundtrip(h, mode)["rel_error"])
        assert errs[1] < 1e-4
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0
        print(f"\n[criterion 8a] PASS roundtrip rel err {errs[1]:.2e} at N=2048, "
              f"convergence ratio {ratio:.2f}")

    def test_trace_identities(self):
        grid = HalfLineGrid.uniform(40.0, 8001)
        z = grid.nodes
        worst = 0.0
        for mode, fvals, lap, df0 in (
                (FourierMode(1, 0), np.exp(-2.0 * z), -3.0 * np.exp(-2.0 * z), -2.0),
                (FourierMode(2, 0), z * np.exp(-z), (3.0 * z + 2.0) * np.exp(-z), 1.0)):
            err_d, err_n = check_trace_identities(ModeField(grid, fvals), mode,
                                                  laplacian=lap, df0=df0)
            assert err_d < 1e-6 and err_n < 1e-6
            worst = max(worst, err_d, err_n)
        print(f"\n[criterion 8b] PASS trace identities err <= {worst:.2e}")

    def test_energy_decay_and_invariant(self):
        grid = HalfLineGrid.uniform(20.0, 513)
        nu, mode = 0.5, FourierMode(1, 0)
        z = grid.nodes
        # tangential pair perpendicular to xi so xi . omega_tau = 0 initially
        vals = np.array([np.zeros_like(z), np.exp(-((z - 8.0) ** 2)) * (1 + 1j),
                         np.exp(-((z - 9.0) ** 2))], dtype=complex)
        vals[2, 0] = 0.0
        p = StokesProblem(mode=mode, nu=nu, omega0=ModeField(grid, vals), t_final=1.0)
        traj = crank_nicolson_oracle(p, dt=2e-3,
                                     snapshot_times=np.linspace(0.1, 1.0, 10))
        norms = np.array([st.norm_l2() for st in traj.states])
        assert np.all(np.diff(norms) <= 1e-10 * norms[0])
        xi_vec = np.array([mode.xi1, mode.xi2], dtype=float)
        norm0 = norms[0]
        worst = max(float(np.max(np.abs(xi_vec @ st.values[:2]))) / norm0
                    for st in traj.states)
        assert worst < 1e-8
        print(f"\n[criterion 8c] PASS energy monotone decay; xi.omega_tau stays "
              f"<= {worst:.2e} x ||omega||")


class TestCriterion9GeneralBCReduction:
    def test_zero_operator_is_neumann_heat(self):
        mode = FourierMode(2, 1)
        D0 = BoundaryOperatorD(0.0, 0.0, 0.0, c0=1.0, mode=mode)
        worst = 0.0
        for t, y, z in ((0.1, 0.5, 1.0), (0.5, 0.0, 0.3), (1.0, 2.0, 2.0)):
            G = green_function(t, 0.5, mode, y, z, D=D0)
            H = heat_kernel_neumann(t, 0.5, mode, y, z) * np.eye(2)
            worst = max(worst, float(np.max(np.abs(G - H)) / np.max(np.abs(H))))
        assert worst < 1e-10
        print(f"\n[criterion 9a] PASS D=0 reduces to Neumann heat kernel "
              f"({worst:.2e})")

    def test_hypothesis_validation(self):
        mode = FourierMode(1, 0)
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(1.0, 1.0, 0.0, c0=10.0, mode=mode)   # det != 0
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(-0.5, 0.0, 0.0, c0=10.0, mode=mode)  # alpha < 0
        with pytest.raises(HypothesisViolated):
            BoundaryOperatorD(0.0, -0.5, 0.0, c0=10.0, mode=mode)  # beta < 0
        print("\n[criterion 9b] PASS admissibility validation rejects det != 0 "
              "and negative diagonals")
