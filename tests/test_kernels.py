"""Unit tests for the time-domain Green's function and its certification."""

import math

import numpy as np
import pytest

from stokesgreen import (
    BoundaryOperatorD,
    FourierMode,
    HalfLineGrid,
    KernelSample,
    ModeField,
    QuadratureUnderresolved,
    SpectralPoint,
    ZeroLambda,
    ZeroModeUnsupported,
    green_function,
    green_function_general,
    heat_kernel_dirichlet,
    heat_kernel_neumann,
    invert_resolvent_kernel,
    mu0_rate,
    projection_matrix,
    resolvent_apply,
    resolvent_kernel,
    resolvent_kernel_general,
    residual_kernel_time,
    residual_profiles_time,
    residue_at_pole_general,
    residue_at_zero,
    residue_small_circle,
    sample_green_function,
    verify_kernel_bounds,
)
from stokesgreen import kernels
from stokesgreen.kernels import residual_kernel_general, residual_profiles_general

MODE = FourierMode(1, 0)


class TestHeatKernels:
    def test_neumann_mass(self):
        # with xi = 0-factor removed the Neumann kernel conserves mass:
        # int_0^inf H dz = e^{-nu |xi|^2 t}
        t, nu = 0.3, 0.7
        grid = HalfLineGrid.uniform(20.0, 4001)
        vals = heat_kernel_neumann(t, nu, MODE, 2.0, grid.nodes)
        assert grid.integrate(vals) == pytest.approx(math.exp(-nu * t), rel=1e-10)

    def test_dirichlet_vanishes_at_wall(self):
        assert heat_kernel_dirichlet(0.2, 1.0, MODE, 0.0, 1.3) == pytest.approx(0.0)
        assert heat_kernel_dirichlet(0.2, 1.0, MODE, 1.3, 0.0) == pytest.approx(0.0)

    def test_symmetry(self):
        a = heat_kernel_neumann(0.2, 0.5, MODE, 1.1, 2.7)
        b = heat_kernel_neumann(0.2, 0.5, MODE, 2.7, 1.1)
        assert a == pytest.approx(b, rel=1e-14)

    def test_point_value(self):
        # y = z = 0: both images coincide, H = 2/sqrt(4 pi nu t) e^{-nu|xi|^2 t}
        t, nu = 0.25, 1.0
        expected = 2.0 / math.sqrt(4 * math.pi * nu * t) * math.exp(-nu * t)
        assert heat_kernel_neumann(t, nu, MODE, 0.0, 0.0) == pytest.approx(expected)

    def test_heat_semigroup(self):
        t1, t2, nu = 0.2, 0.3, 0.8
        grid = HalfLineGrid.uniform(25.0, 4001)
        y, z = 1.0, 2.0
        conv = grid.integrate(heat_kernel_neumann(t1, nu, MODE, y, grid.nodes)
                              * heat_kernel_neumann(t2, nu, MODE, grid.nodes, z))
        assert conv == pytest.approx(heat_kernel_neumann(t1 + t2, nu, MODE, y, z),
                                     rel=1e-9)


class TestResolventKernel:
    def test_symmetry(self):
        pt = SpectralPoint(2.0 + 1.0j, 0.5, FourierMode(2, 1))
        a = resolvent_kernel(pt, 0.7, 1.9)
        b = resolvent_kernel(pt, 1.9, 0.7)
        assert np.allclose(a, b.T)

    def test_guards(self):
        with pytest.raises(ZeroLambda):
            resolvent_kernel(SpectralPoint(0.0 + 0j, 1.0, MODE), 1.0, 1.0)
        with pytest.raises(ZeroModeUnsupported):
            resolvent_kernel(SpectralPoint(1.0 + 0j, 1.0, FourierMode(0, 0)), 1.0, 1.0)

    def test_matches_resolvent_apply(self):
        # integrating the kernel against f reproduces the image-action solve
        pt = SpectralPoint(3.0 + 0.5j, 1.0, FourierMode(1, 0))
        grid = HalfLineGrid.uniform(25.0, 2001)
        fvals = np.vstack([np.exp(-((grid.nodes - 4.0) ** 2)),
                           0.5 * np.exp(-((grid.nodes - 5.0) ** 2))]) + 0j
        f = ModeField(grid, fvals)
        sol = resolvent_apply(f, pt)
        for y in (0.0, 1.0, 4.0):
            kern = np.stack([resolvent_kernel(pt, y, zz) for zz in grid.nodes])
            u_y = np.array([grid.integrate(np.einsum("zb,bz->z", kern[:, a, :],
                                                     fvals)) for a in range(2)])
            iy = int(round(y / grid.h))
            assert np.allclose(u_y, sol.u.values[:, iy], atol=2e-5)

    def test_general_symmetry(self):
        mode = FourierMode(2, 1)
        D = BoundaryOperatorD(0.4, 0.1, math.sqrt(0.04), c0=2.0, mode=mode)
        pt = SpectralPoint(2.0 + 1.0j, 0.5, mode)
        a = resolvent_kernel_general(pt, D, 0.7, 1.9)
        b = resolvent_kernel_general(pt, D, 1.9, 0.7)
        assert np.allclose(a, b.T)


class TestDecomposition:
    @pytest.mark.parametrize("nu,xi", [(1.0, (1, 0)), (0.04, (1, 0)),   # lowfreq
                                       (1.0, (2, 1)), (0.3, (3, 0))])   # highfreq
    def test_contour_inversion_matches_parts(self, nu, xi):
        mode = FourierMode(*xi)
        t, y, z = 0.3, 0.8, 1.4
        G = green_function(t, nu, mode, y, z)
        direct = invert_resolvent_kernel(t, nu, mode, y, z)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(G - direct)) < 1e-9 * scale

    @pytest.mark.parametrize("t", [0.2, 5.0])
    @pytest.mark.parametrize("bc", ["no_slip", "general"])
    def test_regime_boundary_agreement(self, bc, t):
        # nu |xi|^2 = 1: both contour families must give the same kernel
        mode = FourierMode(1, 0)
        nu, y, z = 1.0, 0.5, 1.0
        D = BoundaryOperatorD.no_slip(mode) if bc == "no_slip" else \
            BoundaryOperatorD(0.5, 0.0, 0.0, c0=1.0, mode=mode)
        lo = residual_kernel_general(t, nu, mode, D, y, z, regime="lowfreq")
        hi = residual_kernel_general(t, nu, mode, D, y, z, regime="highfreq")
        total_lo = lo["R1"] + lo["R2"]
        total_hi = hi["R1"] + hi["R2"]
        assert np.max(np.abs(total_lo - total_hi)) < 1e-10 * np.max(np.abs(total_lo))

    @pytest.mark.parametrize("t", [0.4, 1.0, 5.0])
    def test_fixed_matches_adaptive(self, t):
        mode = FourierMode(1, 0)
        fixed = residual_kernel_time(t, 1.0, mode, 0.6, 0.9)
        adapt = residual_kernel_time(t, 1.0, mode, 0.6, 0.9, method="adaptive")
        for key in ("R1", "R2"):
            assert np.max(np.abs(fixed[key] - adapt[key])) < 1e-10

    def test_general_decomposition(self):
        mode = FourierMode(2, 1)
        nu, t, y, z = 0.5, 0.4, 0.7, 1.1
        D = BoundaryOperatorD(0.5, 0.3, math.sqrt(0.15), c0=2.0, mode=mode)
        G = green_function_general(t, nu, mode, D, y, z)
        # oracle: integrate the full general resolvent kernel over the contour
        from stokesgreen.contours import build_contour_highfreq

        s = y + z
        contour = build_contour_highfreq(t, nu, mode.norm, s, pole_mu=D.sigma)

        def f(lam):
            mu = np.sqrt(lam / nu + mode.norm**2)
            h = np.exp(lam * t) * (np.exp(-mu * abs(y - z)) + np.exp(-mu * s)) \
                / (2.0 * nu * mu)
            r = np.exp(lam * t - mu * s) / (nu * mu * (mu - D.sigma))
            return h[None, :] * np.eye(2).reshape(4, 1) \
                + r[None, :] * D.matrix.reshape(4, 1)

        direct = contour.integrate(f).reshape(2, 2)
        if contour.encloses_pole_at is not None:
            direct = direct + residue_at_pole_general(t, nu, mode, D, y, z)
        assert np.max(np.abs(G - direct)) < 1e-9 * np.max(np.abs(direct))


class TestResidues:
    def test_zero_pole_vs_small_circle(self):
        mode = FourierMode(2, 1)
        nu, t, y, z = 0.5, 0.3, 0.4, 0.9
        s = y + z

        def f(lam):
            mu = np.sqrt(lam / nu + mode.norm**2)
            return np.exp(lam * t - mu * s) * (mu + mode.norm) / (mu * lam * mode.norm)

        circ = residue_small_circle(f, 0.0, 0.05 * nu * mode.norm**2)
        analytic = residue_at_zero(t, nu, mode, y, z)
        expect = circ * projection_matrix(mode)
        assert np.max(np.abs(analytic - expect)) < 1e-10 * np.max(np.abs(analytic))
        # and the residue is t-independent
        assert np.allclose(residue_at_zero(5.0, 7.0, mode, y, z), analytic)

    def test_general_pole_vs_small_circle(self):
        mode = FourierMode(2, 1)
        D = BoundaryOperatorD(0.6, 0.2, math.sqrt(0.12), c0=2.0, mode=mode)
        nu, t, y, z = 0.5, 0.3, 0.4, 0.9
        s, sigma = y + z, D.sigma
        lam_star = nu * (sigma**2 - mode.norm**2)

        def f(lam):
            mu = np.sqrt(lam / nu + mode.norm**2)
            return np.exp(lam * t - mu * s) / (nu * mu * (mu - sigma))

        circ = residue_small_circle(f, lam_star, 0.02)
        analytic = residue_at_pole_general(t, nu, mode, D, y, z)
        expect = circ * D.matrix
        assert np.max(np.abs(analytic - expect)) < 1e-10 * np.max(np.abs(analytic))


class TestBoundaryIdentity:
    @pytest.mark.parametrize("nu,xi", [(1.0, (1, 0)), (0.2, (2, 1))])
    def test_kernel_satisfies_vorticity_condition(self, nu, xi):
        # at z = 0: rho'(s) + |xi| rho(s) + H(t,y,0)/(nu ... ) combine so that
        # the boundary operator annihilates the kernel columns; scalar form:
        # nu [ d/dz(rho1+rho2) |_{z=0} + |xi| (rho1+rho2)(y) + H(t,y,0)/|xi| ] = 0
        mode = FourierMode(*xi)
        t = 0.3
        y = np.linspace(0.1, 3.0, 7)
        r1, r2 = residual_profiles_time(t, nu, mode, y)
        d1, d2 = residual_profiles_time(t, nu, mode, y, deriv=1)
        h = heat_kernel_neumann(t, nu, mode, y, 0.0)
        res = (d1 + d2) + mode.norm * (r1 + r2) + h / mode.norm
        scale = np.abs(d1 + d2) + mode.norm * np.abs(r1 + r2) + h / mode.norm
        assert np.max(np.abs(res) / scale) < 1e-8


class TestSampling:
    def test_sample_matches_pointwise(self):
        mode = FourierMode(1, 0)
        t, nu = 0.25, 1.0
        y_nodes = np.array([0.0, 0.5, 1.5])
        z_nodes = np.array([0.2, 1.0])
        sample = sample_green_function(t, nu, mode, y_nodes, z_nodes)
        assert isinstance(sample, KernelSample)
        assert sample.values.shape == (3, 2, 2, 2)
        for i, y in enumerate(y_nodes):
            for j, z in enumerate(z_nodes):
                G = green_function(t, nu, mode, y, z)
                assert np.max(np.abs(sample.values[i, j] - G)) < 1e-12

    def test_symmetry_of_sample(self):
        mode = FourierMode(2, 1)
        nodes = np.linspace(0.0, 4.0, 9)
        sample = sample_green_function(0.3, 0.5, mode, nodes, nodes)
        V = sample.values
        assert np.max(np.abs(V - np.transpose(V, (1, 0, 3, 2)))) < 1e-12


class TestSamplingDedup:
    """sample_green_function evaluates each distinct s once; the values must be
    bit-for-bit those of evaluating the profile at every (y, z) pair."""

    N_ARM, N_ARC = 32, 16  # the identity does not depend on the node counts

    CASES = {
        "no_slip_lowfreq": (FourierMode(1, 0), 1.0, None),
        "no_slip_highfreq": (FourierMode(2, 1), 1.0, None),
        "general": (FourierMode(1, 0), 1.0, (0.2, 0.5, math.sqrt(0.1))),
    }

    def _check(self, case, y, z):
        mode, nu, abg = self.CASES[case]
        D = (BoundaryOperatorD.no_slip(mode) if abg is None
             else BoundaryOperatorD(*abg, c0=1.0, mode=mode))
        t = 0.4
        sample = sample_green_function(t, nu, mode, y, z, D=D,
                                       n_arm=self.N_ARM, n_arc=self.N_ARC)
        rho1, rho2 = residual_profiles_general(t, nu, mode, y[:, None] + z[None, :],
                                               D.sigma, n_arm=self.N_ARM,
                                               n_arc=self.N_ARC)
        assert np.array_equal(sample.R1, rho1[..., None, None] * D.matrix)
        assert np.array_equal(sample.R2, rho2[..., None, None] * D.matrix)
        assert np.array_equal(sample.H, heat_kernel_neumann(t, nu, mode, y[:, None],
                                                            z[None, :]))
        return sample, D

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_profile_independent_of_batch(self, case):
        # a value depends on its own s only, not on what else is in the batch
        mode, nu, abg = self.CASES[case]
        sigma = mode.norm if abg is None else abg[0] + abg[1]
        s = np.linspace(0.0, 20.0, 257)
        alone = residual_profiles_general(0.4, nu, mode, s, sigma, n_arm=self.N_ARM,
                                          n_arc=self.N_ARC)
        batched = residual_profiles_general(0.4, nu, mode, np.tile(s, 40), sigma,
                                            n_arm=self.N_ARM, n_arc=self.N_ARC)
        for a, b in zip(alone, batched):
            assert np.array_equal(a, b[:s.size])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_uniform_grid(self, case):
        nodes = HalfLineGrid.uniform(10.0, 129).nodes
        self._check(case, nodes, nodes)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_non_dyadic_grid(self, case):
        nodes = HalfLineGrid.uniform(7.0, 201).nodes
        s = nodes[:, None] + nodes[None, :]
        # rounding splits some equal-in-exact-arithmetic sums; they stay apart
        assert 2 * nodes.size - 1 < np.unique(s).size < s.size
        self._check(case, nodes, nodes)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_random_unsorted_nodes(self, case):
        rng = np.random.default_rng(5)
        y = rng.uniform(0.0, 4.0, 13)
        z = np.concatenate([rng.uniform(0.0, 4.0, 6), y[:3]])
        sample, D = self._check(case, y, z)
        # and against one profile call per pair
        mode, nu, _ = self.CASES[case]
        for i, j in [(0, 0), (4, 7), (12, 8), (2, 8)]:
            r1, r2 = residual_profiles_general(sample.t, nu, mode, np.array([y[i] + z[j]]),
                                               D.sigma, n_arm=self.N_ARM,
                                               n_arc=self.N_ARC)
            assert np.array_equal(sample.R1[i, j], r1[0] * D.matrix)
            assert np.array_equal(sample.R2[i, j], r2[0] * D.matrix)


class TestQuadratureChecks:
    def test_check_refine_passes(self):
        out = residual_kernel_time(0.3, 1.0, FourierMode(1, 0), 0.5, 0.8,
                                   check=True)
        assert out["R1"].shape == (2, 2)
        outg = residual_kernel_general(
            0.3, 1.0, FourierMode(2, 1),
            BoundaryOperatorD(0.5, 0.0, 0.0, c0=2.0, mode=FourierMode(2, 1)),
            0.5, 0.8, check=True)
        assert outg["R2"].shape == (2, 2)

    def test_non_finite_profile_raises(self):
        # at t = 1000 the low-frequency contour overflows to NaN at s = 0
        nodes = np.linspace(0.0, 2.0, 5)
        with pytest.raises(QuadratureUnderresolved):
            residual_profiles_time(1000.0, 1.0, MODE, np.array([0.0]))
        with pytest.raises(QuadratureUnderresolved):
            sample_green_function(1000.0, 1.0, MODE, nodes, nodes)
        # a compensated call returns it, so the certificate can report it
        rho1, _ = residual_profiles_time(1000.0, 1.0, MODE, np.array([0.0]),
                                         comp=np.zeros(1))
        assert not np.isfinite(rho1[0])


class TestBoundCertificate:
    def test_small_sweep_passes(self):
        report = verify_kernel_bounds(nu_values=(1.0,), xi_values=(1, 3),
                                      t_values=(0.1, 1.0), k_values=(0, 1),
                                      s_values=np.linspace(0.0, 6.0, 7),
                                      n_arm=128, n_arc=64)
        assert report["pass"]
        for fam in ("no_slip", "general"):
            assert np.isfinite(report[fam]["sup"]["R1"])
            assert np.isfinite(report[fam]["sup"]["R2_quarter"])
            assert report[fam]["stable"]

    @pytest.mark.parametrize("part", [0, 1], ids=["R1", "R2"])
    def test_nan_profile_fails(self, monkeypatch, part):
        # one NaN in a certified profile must make the sup non-finite
        real = kernels.residual_profiles_general

        def poisoned(*args, **kw):
            rho = [r.copy() for r in real(*args, **kw)]
            rho[part][rho[part].size // 2] = np.nan
            return tuple(rho)

        monkeypatch.setattr(kernels, "residual_profiles_general", poisoned)
        report = verify_kernel_bounds(nu_values=(1.0,), xi_values=(1,),
                                      t_values=(0.1,), k_values=(0,),
                                      s_values=np.linspace(0.0, 6.0, 7),
                                      n_arm=128, n_arc=64)
        assert report["pass"] is False
        assert report["no_slip"]["finite"] is False

    def test_mu0_rate(self):
        assert mu0_rate(FourierMode(3, 4), 0.25) == pytest.approx(7.0)
