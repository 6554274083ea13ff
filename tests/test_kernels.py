"""Unit tests for the time-domain Green's function and its certification."""

import math

import numpy as np
import pytest

from stokesgreen import (
    BoundaryOperatorD,
    FourierMode,
    HalfLineGrid,
    HypothesisViolated,
    IncompatibleData,
    KernelSample,
    ModeField,
    QuadratureUnderresolved,
    PoleHit,
    PoleOnContour,
    SpectralPoint,
    ZeroModeUnsupported,
    green_function,
    heat_kernel_dirichlet,
    heat_kernel_neumann,
    invert_resolvent_kernel,
    mu0_rate,
    projection_matrix,
    resolvent_apply,
    resolvent_kernel,
    residual_kernel_time,
    residue_at_pole,
    residue_small_circle,
    sample_green_function,
    verify_kernel_bounds,
)
from stokesgreen import contours, kernels
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

    @pytest.mark.parametrize("t,nu", [(0.0, 1.0), (-0.1, 1.0), (math.nan, 1.0),
                                      (math.inf, 1.0), (0.2, 0.0), (0.2, -1.0),
                                      (0.2, math.nan), (0.2, math.inf)])
    @pytest.mark.parametrize("kernel", [heat_kernel_neumann, heat_kernel_dirichlet])
    def test_inadmissible_t_nu_raise(self, kernel, t, nu):
        with pytest.raises(IncompatibleData):
            kernel(t, nu, MODE, 1.0, 2.0)

    def test_sample_at_t_zero_raises(self):
        nodes = np.linspace(0.0, 2.0, 5)
        with pytest.raises(IncompatibleData):
            sample_green_function(0.0, 1.0, MODE, nodes, nodes)


class TestResolventKernel:
    def test_symmetry(self):
        pt = SpectralPoint(2.0 + 1.0j, 0.5, FourierMode(2, 1))
        a = resolvent_kernel(pt, 0.7, 1.9)
        b = resolvent_kernel(pt, 1.9, 0.7)
        assert np.allclose(a, b.T)

    def test_guards(self):
        with pytest.raises(PoleHit):
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
        a = resolvent_kernel(pt, 0.7, 1.9, D=D)
        b = resolvent_kernel(pt, 1.9, 0.7, D=D)
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

    @pytest.mark.parametrize("t", [0.1, 0.3, 1.0])
    @pytest.mark.parametrize("nu,xi", [(1.0, (1, 0)), (1.0, (2, 1))], ids=["lowfreq", "highfreq"])
    def test_contour_inversion_is_real(self, nu, xi, t):
        # at high frequency these t cross the pole, and the residue term is real too
        direct = invert_resolvent_kernel(t, nu, FourierMode(*xi), 0.8, 1.4)
        assert direct.dtype == np.float64

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
        G = green_function(t, nu, mode, y, z, D=D)
        # oracle: integrate the full general resolvent kernel over the contour
        from stokesgreen.contours import build_contour_highfreq

        s = y + z
        contour = build_contour_highfreq(t, nu, mode.norm, s, D.sigma)

        def f(lam):
            mu = np.sqrt(lam / nu + mode.norm**2)
            h = np.exp(lam * t) * (np.exp(-mu * abs(y - z)) + np.exp(-mu * s)) \
                / (2.0 * nu * mu)
            r = np.exp(lam * t - mu * s) / (nu * mu * (mu - D.sigma))
            return h[None, :] * np.eye(2).reshape(4, 1) \
                + r[None, :] * D.matrix.reshape(4, 1)

        direct = contour.integrate(f).reshape(2, 2)
        if np.any(contour.params["crosses_pole"]):
            direct = direct + residue_at_pole(t, nu, mode, y, z, D=D)
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
        analytic = residue_at_pole(t, nu, mode, y, z)
        expect = circ * projection_matrix(mode)
        assert np.max(np.abs(analytic - expect)) < 1e-10 * np.max(np.abs(analytic))
        # and the residue is t-independent
        assert np.allclose(residue_at_pole(5.0, 7.0, mode, y, z), analytic)

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
        analytic = residue_at_pole(t, nu, mode, y, z, D=D)
        expect = circ * D.matrix
        assert np.max(np.abs(analytic - expect)) < 1e-10 * np.max(np.abs(analytic))

    def test_zero_mode_has_no_pole(self):
        # no_slip(xi = 0) is the zero operator, but the residues stay undefined there
        zero = FourierMode(0, 0)
        with pytest.raises(ZeroModeUnsupported):
            residue_at_pole(0.3, 0.5, zero, 0.4, 0.9)
        with pytest.raises(ZeroModeUnsupported):
            residue_at_pole(0.3, 0.5, zero, 0.4, 0.9, D=BoundaryOperatorD.no_slip(zero))


@pytest.mark.parametrize("call", [
    lambda D: residual_kernel_general(0.5, 1.0, MODE, D, 0.1, 0.2),
    lambda D: green_function(0.5, 1.0, MODE, 0.1, 0.2, D=D),
    lambda D: sample_green_function(0.5, 1.0, MODE, [0.1], [0.2], D=D),
    lambda D: residue_at_pole(0.5, 1.0, MODE, 0.1, 0.2, D=D),
    lambda D: resolvent_kernel(SpectralPoint(2.0 + 1.0j, 1.0, MODE), 0.1, 0.2, D=D),
], ids=["residual_kernel_general", "green_function", "sample_green_function",
        "residue_at_pole", "resolvent_kernel"])
def test_operator_of_another_mode_raises(call):
    # a D validated for xi = (2, 1) says nothing about xi = (1, 0)
    with pytest.raises(HypothesisViolated, match="built for xi"):
        call(BoundaryOperatorD.no_slip(FourierMode(2, 1)))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("xi", [(1, 0), (2, 1), (3, 1)])
@pytest.mark.parametrize("call", [
    lambda mode, D: resolvent_kernel(SpectralPoint(2.0 + 1.0j, 0.5, mode), 0.7, 1.9, D=D),
    lambda mode, D: green_function(0.3, 0.5, mode, 0.7, 1.9, D=D),
    lambda mode, D: residue_at_pole(0.3, 0.5, mode, 0.7, 1.9, D=D),
    lambda mode, D: sample_green_function(0.3, 0.5, mode, [0.0, 0.7], [1.9], D=D).values,
], ids=["resolvent_kernel", "green_function", "residue_at_pole", "sample_green_function"])
def test_default_operator_is_no_slip(call, xi):
    # D=None is BoundaryOperatorD.no_slip(mode), bit for bit
    mode = FourierMode(*xi)
    assert _same_bits(call(mode, None), call(mode, BoundaryOperatorD.no_slip(mode)))


# every mode with |xi1|, |xi2| <= 9 but the zero mode
NO_SLIP_MODES = [FourierMode(a, b) for a in range(-9, 10) for b in range(-9, 10)
                 if (a, b) != (0, 0)]


class TestNoSlipPole:
    """The no-slip trace is |xi| to the last bit, so its pole is lambda* = 0."""

    def test_trace_is_norm_and_pole_is_zero(self):
        wrong = []
        for mode in NO_SLIP_MODES:
            D = BoundaryOperatorD.no_slip(mode)
            if not (D.sigma == mode.norm and D.pole_lambda(1.0) == D.pole_lambda(0.04) == 0.0):
                wrong.append((mode.xi1, mode.xi2))
        assert wrong == []

    def test_residue_does_not_depend_on_t(self):
        wrong = [(mode.xi1, mode.xi2) for mode in NO_SLIP_MODES
                 if not _same_bits(residue_at_pole(0.3, 1.0, mode, 0.4, 0.9),
                                   residue_at_pole(50.0, 1.0, mode, 0.4, 0.9))]
        assert wrong == []


class TestBoundaryIdentity:
    @pytest.mark.parametrize("nu,xi", [(1.0, (1, 0)), (0.2, (2, 1))])
    def test_kernel_satisfies_vorticity_condition(self, nu, xi):
        # at z = 0 the boundary operator annihilates the kernel columns; with
        # R = rho D, D = P/|xi| (sigma = |xi|), the scalar form is
        # d/dz(rho1+rho2) |_{z=0} + |xi| (rho1+rho2)(y) + H(t,y,0) = 0
        mode = FourierMode(*xi)
        t = 0.3
        y = np.linspace(0.1, 3.0, 7)
        r1, r2 = residual_profiles_general(t, nu, mode, y, mode.norm)
        d1, d2 = residual_profiles_general(t, nu, mode, y, mode.norm, deriv=1)
        h = heat_kernel_neumann(t, nu, mode, y, 0.0)
        res = (d1 + d2) + mode.norm * (r1 + r2) + h
        scale = np.abs(d1 + d2) + mode.norm * np.abs(r1 + r2) + h
        assert np.max(np.abs(res) / scale) < 1e-8


@pytest.mark.parametrize("regime", ["lowfreq", "highfreq"])
@pytest.mark.parametrize("deriv", [-1, 0.5, 1.0, None])
def test_profile_deriv_must_be_nonnegative_integer(deriv, regime):
    # deriv counts d/dz factors (-mu): a negative or fractional count, or a
    # float, is not one, for the contour parts and the residue alike
    mode = FourierMode(2, 1)
    with pytest.raises(IncompatibleData, match="deriv"):
        residual_profiles_general(0.3, 1.0, mode, np.array([0.5, 1.0]), mode.norm,
                                  deriv=deriv, regime=regime)


def test_profile_deriv_accepts_numpy_integer():
    mode = FourierMode(2, 1)
    s = np.array([0.5, 1.0])
    for a, b in zip(residual_profiles_general(0.3, 1.0, mode, s, mode.norm, deriv=np.int64(1)),
                    residual_profiles_general(0.3, 1.0, mode, s, mode.norm, deriv=1)):
        assert np.array_equal(a, b)


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

    N_ARM, N_ARC = 32, 16  # batch independence does not depend on the node counts

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
        sample = sample_green_function(t, nu, mode, y, z, D=D)
        rho1, rho2 = residual_profiles_general(t, nu, mode, y[:, None] + z[None, :],
                                               D.sigma)
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

    @pytest.mark.parametrize("regime", ["lowfreq", "highfreq"])
    @pytest.mark.parametrize("general", [False, True], ids=["no_slip", "general"])
    def test_chunk_boundaries_keep_bits(self, monkeypatch, regime, general):
        # one s per chunk, chunks of 5 with a ragged last one, and one chunk
        # for all 37 s give the same bits at every derivative order
        mode = FourierMode(1, 0) if regime == "lowfreq" else FourierMode(2, 1)
        sigma = (0.7 if general else 1.0) * mode.norm
        s = np.linspace(0.0, 12.0, 37)
        # the elements a chunk holds per s: the low-frequency upper-half nodes,
        # one closed-form value at high frequency
        per_s = (contours.N_ARM + contours.N_ARC - contours.N_ARC // 2
                 if regime == "lowfreq" else 1)
        sizes = []
        real = kernels._fixed_rho

        def fixed_rho(*args):
            sizes.append(np.size(args[4]))
            return real(*args)

        monkeypatch.setattr(kernels, "_fixed_rho", fixed_rho)
        for deriv in (0, 1, 2):
            runs = []
            for elements, chunks in ((per_s, [1] * 37), (5 * per_s, [5] * 7 + [2]),
                                     (37 * per_s, [37])):
                monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", elements)
                sizes.clear()
                runs.append(residual_profiles_general(0.4, 1.0, mode, s, sigma,
                                                      deriv=deriv, regime=regime))
                assert sizes == chunks
            for rho in zip(*runs):
                assert np.all(np.isfinite(rho[0]))
                assert all(np.array_equal(rho[0], other) for other in rho[1:])

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
                                               D.sigma)
            assert np.array_equal(sample.R1[i, j], r1[0] * D.matrix)
            assert np.array_equal(sample.R2[i, j], r2[0] * D.matrix)


class TestRealResidualKernels:
    """R(conj lambda) = conj R(lambda) for a real D, so the fixed-node R1 and
    R2 are real: their imaginary parts are exactly 0, not rounding noise."""

    CASES = [(FourierMode(1, 0), 1.0, None), (FourierMode(2, 1), 1.0, None),
             (FourierMode(1, 0), 1.0, (0.2, 0.5, math.sqrt(0.1))),
             (FourierMode(3, 1), 0.3, (0.5, 0.2, math.sqrt(0.1)))]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_imaginary_part_is_zero(self, case):
        mode, nu, abg = self.CASES[case]
        D = (BoundaryOperatorD.no_slip(mode) if abg is None
             else BoundaryOperatorD(*abg, c0=1.0, mode=mode))
        nodes = np.linspace(0.0, 10.0, 33)
        for deriv in (0, 1, 2):
            for rho in residual_profiles_general(0.5, nu, mode, 2 * nodes, D.sigma,
                                                 deriv=deriv):
                assert np.all(np.imag(rho) == 0.0)
        sample = sample_green_function(0.5, nu, mode, nodes, nodes, D=D)
        out = residual_kernel_general(0.5, nu, mode, D, 0.3, 1.1)
        for R in (sample.R1, sample.R2, out["R1"], out["R2"]):
            assert np.all(np.imag(R) == 0.0)
        adaptive = residual_kernel_general(0.5, nu, mode, D, 0.3, 1.1, method="adaptive")
        assert adaptive["R1"].dtype == adaptive["R2"].dtype == np.float64


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
            residual_profiles_general(1000.0, 1.0, MODE, np.array([0.0]), MODE.norm)
        with pytest.raises(QuadratureUnderresolved):
            sample_green_function(1000.0, 1.0, MODE, nodes, nodes)


    @pytest.mark.parametrize("xi,t", [((1, 0), 20.0), ((1, 0), 50.0)])
    def test_check_raises_when_doubling_moves_the_kernel(self, xi, t):
        # the low-frequency arc at large t is not resolved by the fixed nodes
        # at y = z = 0
        with pytest.raises(QuadratureUnderresolved, match="doubling"):
            residual_kernel_time(t, 1.0, FourierMode(*xi), 0.0, 0.0, check=True)

    def test_check_passes_at_small_nu_t_and_matches_mpmath(self):
        # the high-frequency closed form needs no nodes at tiny nu t, where the
        # parabola was off by 1.8e-3: R1 + R2 = erfc(-|xi| sqrt(nu t)) D at s = 0
        mpmath = pytest.importorskip("mpmath")
        mode = FourierMode(2, 1)
        out = residual_kernel_time(1e-7, 1.0, mode, 0.0, 0.0, check=True)
        with mpmath.workdps(40):
            rho = float(mpmath.erfc(-mpmath.mpf(mode.norm) * mpmath.sqrt(mpmath.mpf(1e-7))))
        D = BoundaryOperatorD.no_slip(mode).matrix
        assert np.max(np.abs(out["R1"] + out["R2"] - rho * D)) <= 1e-13 * rho * np.abs(D).max()

    def test_check_raises_at_small_nu_t_low_frequency(self):
        # nu = 0.25, xi = (1, 0), t = 0.01, y + z = 1.9: the fixed sum is
        # -3.08e-120, with doubled nodes 2.85e-134, and the value is 4.92e-159,
        # so check raises; unchecked, the error still meets the absolute
        # contract, 1e-13 of rho at s = 0
        mpmath = pytest.importorskip("mpmath")
        nu, t = 0.25, 0.01
        assert kernels._auto_regime(nu, MODE) == "lowfreq"
        with pytest.raises(QuadratureUnderresolved, match="doubling"):
            residual_kernel_time(t, nu, MODE, 0.95, 0.95, check=True)
        out = residual_kernel_time(t, nu, MODE, 0.95, 0.95)
        # lambda* = 0 and the pole is never crossed: rho2 is rho, rho1 is 0
        _, rho = _mp_parts(t, nu, MODE.norm, MODE.norm, False)
        with mpmath.workdps(40):
            value, rho0 = float(rho(mpmath.mpf(1.9))), float(rho(mpmath.mpf(0)))
        D = BoundaryOperatorD.no_slip(MODE).matrix
        assert np.max(np.abs(out["R1"] + out["R2"] - value * D)) <= 1e-13 * rho0 * np.abs(D).max()

    def test_floored_vertex_moved_off_the_pole(self):
        # sigma = 0.1 at xi = (2, 1): the vertex floor 0.05 |xi| = 0.112 is
        # within sigma/2 of the pole, so it moves to sigma/4 (left of the pole,
        # so the residue is added); the fixed nodes still match the oracle
        mode = FourierMode(2, 1)
        D = BoundaryOperatorD(0.04, 0.06, math.sqrt(0.04 * 0.06), c0=1.0, mode=mode)
        params = contours.highfreq_params(0.3, 1.0, mode.norm, 0.0, D.sigma)
        assert float(params["a_eff"]) == 0.25 * D.sigma and bool(params["crosses_pole"])
        fixed = residual_kernel_general(0.3, 1.0, mode, D, 0.0, 0.0)
        adaptive = residual_kernel_general(0.3, 1.0, mode, D, 0.0, 0.0, method="adaptive")
        scale = max(np.max(np.abs(fixed[k])) for k in ("R1", "R2"))
        for k in ("R1", "R2"):
            assert np.max(np.abs(fixed[k] - adaptive[k])) < 1e-12 * scale


def _arm_error(nu, xi, t, sigma_fraction, k, n_arm):
    """Low-frequency R2 at ``n_arm`` arm nodes against 4 N_ARM, relative to its
    sup over s in [0, 40]."""
    mode = FourierMode(*xi)
    s = np.linspace(0.0, 40.0, 161)
    sigma = sigma_fraction * mode.norm
    _, ref = residual_profiles_general(t, nu, mode, s, sigma, deriv=k, regime="lowfreq",
                                       n_arm=4 * contours.N_ARM)
    _, rho2 = residual_profiles_general(t, nu, mode, s, sigma, deriv=k, regime="lowfreq",
                                        n_arm=n_arm)
    return np.max(np.abs(rho2 - ref)) / np.max(np.abs(ref))


class TestArmNodeCount:
    # the arm integrand is the Gaussian e^{-nu t b^2} on [0, BETA_MAX / sqrt(nu t)]

    @pytest.mark.parametrize("nu,xi", [(1.0, (1, 0)), (0.04, (2, 0)), (0.04, (5, 0))])
    @pytest.mark.parametrize("t", [1e-5, 0.01, 3.0])
    def test_default_resolves_the_arm(self, nu, xi, t):
        for sigma_fraction in (0.5, 1.0):
            for k in (0, 1, 2):
                err = _arm_error(nu, xi, t, sigma_fraction, k, contours.N_ARM)
                assert err <= 1e-12, (sigma_fraction, k, err)

    def test_half_the_nodes_miss(self):
        # 48 arm nodes leave 2.3e-10 here, so the bound above is not vacuous
        assert _arm_error(0.04, (2, 0), 3.0, 0.5, 0, 48) > 1e-12


class TestSelectors:
    """A regime, method or check that no path reads raises instead of being
    read as another one."""

    D = BoundaryOperatorD.no_slip(MODE)

    @pytest.mark.parametrize("method", ["fixed", "adaptive"])
    @pytest.mark.parametrize("regime", ["bogus", "Lowfreq", ""])
    def test_unknown_regime_raises(self, regime, method):
        # "bogus" was the low-frequency contour on the fixed path and the
        # high-frequency one on the adaptive path (R2[1,1] 0.02315 against
        # 0.09979 at nu = 1, xi = (1,0), t = 0.3, (y, z) = (0.5, 0.8))
        with pytest.raises(IncompatibleData, match="regime"):
            residual_kernel_general(0.3, 1.0, MODE, self.D, 0.5, 0.8, regime=regime,
                                    method=method)
        with pytest.raises(IncompatibleData, match="regime"):
            residual_profiles_general(0.3, 1.0, MODE, np.array([1.3]), 1.0, regime=regime)

    @pytest.mark.parametrize("method", ["Adaptive", "exact", None])
    def test_unknown_method_raises(self, method):
        # "Adaptive" ran the fixed path
        with pytest.raises(IncompatibleData, match="method"):
            residual_kernel_general(0.3, 1.0, MODE, self.D, 0.5, 0.8, method=method)

    def test_check_with_adaptive_raises(self):
        # the adaptive oracle has no nodes to double: check was ignored there
        with pytest.raises(IncompatibleData, match="check"):
            residual_kernel_time(0.3, 1.0, MODE, 0.5, 0.8, method="adaptive", check=True)

    def test_rejected_for_the_zero_operator_too(self):
        D0 = BoundaryOperatorD(0.0, 0.0, 0.0, c0=1.0, mode=MODE)
        for kw in (dict(regime="bogus"), dict(method="Adaptive"),
                   dict(method="adaptive", check=True)):
            with pytest.raises(IncompatibleData):
                residual_kernel_general(0.3, 1.0, MODE, D0, 0.5, 0.8, **kw)


class TestZeroOperator:
    @pytest.mark.parametrize("method", ["fixed", "adaptive"])
    @pytest.mark.parametrize("nu", [0.04, 1.0])
    def test_no_contour_and_zero_kernel(self, monkeypatch, method, nu):
        # D = 0 has no pole and R = 0; no contour is built for it
        def no_contour(*args, **kwargs):
            raise AssertionError("a contour was built for D = 0")

        monkeypatch.setattr(contours, "build_contour_lowfreq", no_contour)
        monkeypatch.setattr(contours, "build_contour_highfreq", no_contour)
        mode = FourierMode(2, 1)
        D = BoundaryOperatorD(0.0, 0.0, 0.0, c0=1.0, mode=mode)
        out = residual_kernel_general(0.3, nu, mode, D, 0.2, 0.5, method=method)
        for k in ("R1", "R2"):
            assert np.array_equal(out[k], np.zeros((2, 2)))


def _mp_parts(t, nu, xi_norm, sigma, crosses):
    """(rho1, rho2) of the high-frequency split as mpmath functions of s, at the
    working precision: rho = e^{lambda* t - sigma s} erfc(x) with
    x = s / (2 sqrt(nu t)) - sigma sqrt(nu t); where the parabola crosses the
    pole rho1 = 2 e^{lambda* t - sigma s} and rho2 = rho - rho1 =
    -e^{lambda* t - sigma s} erfc(-x), elsewhere rho1 = 0 and rho2 = rho."""
    import mpmath

    t, nu, xi_norm, sigma = map(mpmath.mpf, (t, nu, xi_norm, sigma))
    root = mpmath.sqrt(nu * t)

    def pole(s):
        return mpmath.exp(nu * (sigma**2 - xi_norm**2) * t - sigma * s)

    if crosses:
        return (lambda s: 2 * pole(s),
                lambda s: -pole(s) * mpmath.erfc(sigma * root - s / (2 * root)))
    return (lambda s: mpmath.mpf(0),
            lambda s: pole(s) * mpmath.erfc(s / (2 * root) - sigma * root))


class TestHighFrequencyClosedForm:
    """The high-frequency profiles against 40-digit erfc and its derivatives."""

    # s runs over [0, s_max] in 17 values.  The parabola crosses the pole at
    # s = 0 only in the first three cells, at every s in the fourth and at
    # the first 9 s in the last.
    @pytest.mark.parametrize("nu,xi,t,fraction,s_max", [
        (1.0, (2, 1), 1e-7, 1.0, 3e-3),    # the parabola was off by 1.8e-3 at s = 0
        (0.25, (2, 1), 1e-3, 0.1, 0.16),   # a pole close to the cut: off by 4.0e-6
        (0.04, (8, 0), 1e-3, 0.1, 0.064),  # off by 1.2e-6
        (1.0, (8, 0), 1.0, 1.0, 10.0),     # sigma^2 nu t = 64
        (1.0, (2, 1), 0.3, 1.0, 4.0),      # both sides of crosses_pole
    ])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_parts_match_mpmath(self, nu, xi, t, fraction, s_max, k):
        # R1 and R2 separately, each to 1e-13 of its sup over s
        mpmath = pytest.importorskip("mpmath")
        mode = FourierMode(*xi)
        sigma = fraction * mode.norm
        s = np.linspace(0.0, s_max, 17)
        crosses = contours.highfreq_params(t, nu, mode.norm, s, sigma)["crosses_pole"]
        got = residual_profiles_general(t, nu, mode, s, sigma, deriv=k)
        with mpmath.workdps(40):
            ref = np.array([[float(mpmath.diff(part, mpmath.mpf(s_j), k))
                             for part in _mp_parts(t, nu, mode.norm, sigma, c_j)]
                            for s_j, c_j in zip(s, crosses)]).T
        for got_part, ref_part in zip(got, ref):
            sup = np.max(np.abs(ref_part))
            assert np.max(np.abs(got_part - ref_part)) <= 1e-13 * sup

    def test_no_quadrature_nodes(self, monkeypatch):
        # the high-frequency profiles, samples and certificate cells evaluate
        # no Gauss-Legendre node
        def no_nodes(*args, **kwargs):
            raise AssertionError("quadrature nodes were evaluated")

        monkeypatch.setattr(contours.Contour, "gauss_legendre", no_nodes)
        mode = FourierMode(2, 1)
        s = np.linspace(0.0, 4.0, 9)
        for k in (0, 1, 2):
            rho1, rho2 = residual_profiles_general(0.3, 1.0, mode, s, mode.norm, deriv=k)
            assert np.all(np.isfinite(rho1)) and np.all(np.isfinite(rho2))
        sample = sample_green_function(0.3, 1.0, mode, s, s)
        assert sample.regime == "highfreq"
        report = verify_kernel_bounds(nu_values=(1.0,), xi_values=(2, 3),
                                      t_values=(0.1, 1.0), k_values=(0, 1, 2),
                                      s_values=np.linspace(0.0, 6.0, 7))
        assert report["pass"]
        for fam in ("no_slip", "general"):
            assert report[fam]["drift"] == {"R1": 0.0, "R2_quarter": 0.0}


class TestBatchedEvaluation:
    """The certificate's batched closed forms and fused low-frequency parts
    give the bits of one scalar call per cell and of one pass per segment."""

    # (t, nu, |xi|, sigma) cells, |xi| integer as on the certificate's xi
    # axis: cell 0 takes the vertex-floor branch (|0.05 |xi| - sigma| <
    # sigma / 2); over the s row the parabola crosses the pole in every cell
    # at s = 0 and in none at s = 6.
    CELLS = [(0.1, 1.0, 8.0, 0.45), (0.3, 1.0, 2.0, 2.0), (0.316, 1.0, 8.0, 4.0),
             (0.01, 0.04, 7.0, 3.5), (0.0316, 0.25, 3.0, 0.5 * 3.0)]

    def test_closed_forms_match_scalar_calls(self):
        s = np.linspace(0.0, 6.0, 25)
        ks = (0, 1, 2)
        cols = [np.array(col)[:, None] for col in zip(*self.CELLS)]
        t, nu, xin, sigma = cols
        comp1 = 0.25 * (xin + 1.0 / np.sqrt(nu)) * s - kernels._log_gauss(s, nu, t)
        comp2 = nu * xin**2 * t / 8.0
        p = contours.highfreq_params(t, nu, xin, s, sigma)
        rho1, rho2 = kernels._residue(p, ks, comp1), kernels._erfc_rho2(p, ks, comp2)
        crosses = p["crosses_pole"]
        assert crosses[:, 0].all() and not crosses[:, -1].any()
        *_, xin0, sigma0 = self.CELLS[0]
        assert abs(0.05 * xin0 - sigma0) < 0.5 * sigma0
        assert np.all(p["a_eff"][0] >= 0.25 * sigma0) and p["a_eff"][0, 0] == 0.25 * sigma0
        for c, (t_c, nu_c, xin_c, sigma_c) in enumerate(self.CELLS):
            q = contours.highfreq_params(t_c, nu_c, xin_c, s, sigma_c)
            for key in ("a", "theta", "a_eff", "crosses_pole"):
                assert _same_bits(p[key][c], q[key])
            assert _same_bits(p["b_max"][c, 0], q["b_max"])
            assert _same_bits(rho1[:, c], kernels._residue(q, ks, comp1[c]))
            assert _same_bits(rho2[:, c], kernels._erfc_rho2(q, ks, float(comp2[c, 0])))

    def test_pole_on_contour_in_one_cell_raises(self):
        # the guards keep a_eff at least sigma/4 from the pole, so only a pole
        # inside the check's absolute 1e-9 band is hit: a cell with sigma =
        # |xi| = 1e-10 at s = 0, beside cells that alone pass
        cells = np.array([[0.1, 1.0, 2.0, 2.0], [0.1, 1.0, 1e-10, 1e-10],
                          [0.1, 1.0, 3.0, 3.0]])
        t, nu, xin, sigma = (cells[:, [j]] for j in range(4))
        s = np.array([0.0, 1.0])
        contours.highfreq_params(t[[0, 2]], nu[[0, 2]], xin[[0, 2]], s, sigma[[0, 2]])
        with pytest.raises(PoleOnContour):
            contours.highfreq_params(t, nu, xin, s, sigma)

    @pytest.mark.parametrize("n_s", [1, 21, 125])
    @pytest.mark.parametrize("n_arm,n_arc", [(contours.N_ARM, contours.N_ARC),
                                             (2 * contours.N_ARM, 2 * contours.N_ARC), (23, 15)])
    @pytest.mark.parametrize("sigma_fraction", [1.0, 0.5])
    def test_fused_parts_match_per_segment_passes(self, n_s, n_arm, n_arc, sigma_fraction):
        # the arc and the arm evaluated together, on one concatenated node
        # array, against a contour that holds only the arc or only the arm
        import dataclasses

        t, nu, xin = 0.1, 0.04, 3.0
        s = np.linspace(0.0, 10.0, n_s)
        ks = (0, 1, 2)
        comp1 = 0.25 * (xin + 1.0 / math.sqrt(nu)) * s - kernels._log_gauss(s, nu, t)
        comp2 = nu * xin**2 * t / 8.0
        c = contours.build_contour_lowfreq(t, nu, xin, s, sigma_fraction * xin)
        arc = dataclasses.replace(c, segments=c.segments[:1])
        arm = dataclasses.replace(c, segments=c.segments[1:], arc_index=None)
        rho1, rho2 = kernels._fixed_parts(c, ks, comp1, comp2, n_arm, n_arc)
        # a one-segment contour takes its shift from the first comp
        assert _same_bits(rho1, kernels._fixed_parts(arc, ks, comp1, comp1, n_arm, n_arc)[0])
        assert _same_bits(rho2, kernels._fixed_parts(arm, ks, comp2, comp2, n_arm, n_arc)[0])


def reference_bound_sweep(nu_values, xi_values, t_values, k_values, s_values, theta0,
                          n_arm, n_arc, operator):
    """``kernels._bound_sweep`` one (nu, xi, t) cell at a time: each cell makes
    its own ``_fixed_rho`` call (a high-frequency cell once, for both node
    counts) and each sup is a running comparison of per-cell argmaxes, in
    which a later cell replaces the sup only when it is strictly larger.  It
    returns the same (sup, (arg, drift))."""
    ln10 = math.log(10.0)
    k = np.asarray(k_values)[:, None]
    start = {"R1": 0.0, "R2_quarter": 0.0, "R2_stated_log10": -np.inf}
    reports = [(dict(start), dict.fromkeys(start)) for _ in range(2)]

    def record(sup, arg, key, ratio, cell):
        i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[i, j] > sup[key]:
            sup[key], arg[key] = float(ratio[i, j]), (*cell, k_values[i], float(s_values[j]))

    for nu in nu_values:
        for n_xi in xi_values:
            mode = FourierMode(n_xi, 0)
            xin = mode.norm
            mu0 = mu0_rate(mode, nu)
            D = operator(mode)
            mat_scale = np.abs(D.matrix).max()
            for t in t_values:
                lam_star_t = D.pole_lambda(nu) * t
                cell = (nu, n_xi, t)
                comp1 = theta0 * mu0 * s_values - lam_star_t - kernels._log_gauss(s_values, nu, t)
                comp2 = nu * xin**2 * t / 8.0 - lam_star_t
                regime = kernels._auto_regime(nu, mode)
                parts = [kernels._fixed_rho(regime, t, nu, xin, s_values, D.sigma, k_values,
                                            comp1, comp2, m * n_arm, m * n_arc)
                         for m in ((1,) if regime == "highfreq" else (1, 2))]
                for (rho1, rho2), report in zip((parts[0], parts[-1]), reports):
                    record(*report, "R1", np.abs(rho1) * mat_scale / mu0 ** (k + 1), cell)
                    ratio2 = np.abs(rho2) * mat_scale * (nu * t) ** ((k + 1) / 2)
                    record(*report, "R2_quarter", ratio2, cell)
                    stated = np.log10(np.maximum(ratio2, 1e-300)) \
                        + 0.75 * s_values**2 / (nu * t) / ln10
                    record(*report, "R2_stated_log10", stated, cell)
    (sup, arg), (sup2, _) = reports
    drift = {key: abs(sup2[key] - sup[key]) / max(abs(sup[key]), 1e-300)
             for key in ("R1", "R2_quarter")}
    return sup, (arg, drift)


def _general_operator(mode):
    # the certificate's general family: alpha + beta = |xi|/2, split 0.3/0.7
    sigma = 0.5 * mode.norm
    alpha, beta = 0.3 * sigma, 0.7 * sigma
    return BoundaryOperatorD(alpha, beta, math.sqrt(alpha * beta), c0=1.0, mode=mode)


class TestBoundCertificate:
    def test_small_sweep_passes(self, monkeypatch):
        # the certificate integrates on the contour itself, not through the profiles
        def no_profiles(*args, **kw):
            raise AssertionError("the certificate called residual_profiles_general")

        monkeypatch.setattr(kernels, "residual_profiles_general", no_profiles)
        report = verify_kernel_bounds(nu_values=(1.0,), xi_values=(1, 3),
                                      t_values=(0.1, 1.0), k_values=(0, 1),
                                      s_values=np.linspace(0.0, 6.0, 7))
        assert report["pass"]
        for fam in ("no_slip", "general"):
            assert np.isfinite(report[fam]["sup"]["R1"])
            assert np.isfinite(report[fam]["sup"]["R2_quarter"])
            assert report[fam]["stable"]

    # two cells per sweep, in sweep order: two low-frequency cells (t = 0.1,
    # then 1.0) or two high-frequency ones (xi = 2, then 3)
    NAN_SWEEPS = {"lowfreq": ((1,), (0.1, 1.0)), "highfreq": ((2, 3), (0.1,))}

    @pytest.mark.parametrize("regime,part", [("lowfreq", 0), ("lowfreq", 1),
                                             ("highfreq", 0), ("highfreq", 1)],
                             ids=["R1", "R2", "highfreq-R1", "highfreq-R2"])
    def test_nan_profile_fails(self, monkeypatch, regime, part):
        # one NaN per cell in a certified part (the half circle's R1 or the
        # arm's R2 of the fused low-frequency evaluation, the residue or the
        # erfc remainder of the batched closed forms), planted in both cells
        # at (k, s) = (1, 3.0), must make the sup NaN and the certificate
        # fail.  argmax names the first NaN in sweep order: the first cell.
        def poison(rho):
            rho = np.array(rho, copy=True)
            rho[1, ..., 3] = np.nan  # k axis first, s axis last
            return rho

        if regime == "lowfreq":
            real = kernels._fixed_parts

            def poisoned(*args):
                rho = list(real(*args))
                rho[part] = poison(rho[part])
                return tuple(rho)

            monkeypatch.setattr(kernels, "_fixed_parts", poisoned)
        else:
            name = ("_residue", "_erfc_rho2")[part]
            real = getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda *args: poison(real(*args)))
        xi_values, t_values = self.NAN_SWEEPS[regime]
        report = verify_kernel_bounds(nu_values=(1.0,), xi_values=xi_values,
                                      t_values=t_values, k_values=(0, 1, 2),
                                      s_values=np.linspace(0.0, 6.0, 7))
        assert report["pass"] is False
        family = report["no_slip"]
        assert family["finite"] is False
        key, other = ("R1", "R2_quarter")[part], ("R2_quarter", "R1")[part]
        assert math.isnan(family["sup"][key]) and math.isfinite(family["sup"][other])
        assert family["argmax(nu,xi,t,k,s)"][key] == (1.0, xi_values[0], t_values[0], 1, 3.0)

    def test_sups_match_public_profiles(self):
        # the certificate's compensated parts against plain profiles, cell by cell
        s = np.linspace(0.0, 3.0, 7)
        ks = (0, 1, 2)
        for nu in (1.0, 0.04):
            for n_xi in (1, 3, 8):
                mode = FourierMode(n_xi, 0)
                D = BoundaryOperatorD.no_slip(mode)
                mu0 = mu0_rate(mode, nu)
                scale = np.abs(D.matrix).max()
                for t in (0.1, 1.0):
                    sup, _ = kernels._bound_sweep((nu,), (n_xi,), (t,), ks, s, 0.25,
                                                  contours.N_ARM, contours.N_ARC,
                                                  BoundaryOperatorD.no_slip)
                    r1 = r2 = 0.0
                    for k in ks:
                        rho1, rho2 = residual_profiles_general(t, nu, mode, s, D.sigma,
                                                               deriv=k)
                        r1 = max(r1, np.max(np.abs(rho1) * np.exp(0.25 * mu0 * s))
                                 * scale / mu0 ** (k + 1))
                        comp2 = s**2 / (4.0 * nu * t) + nu * n_xi**2 * t / 8.0
                        r2 = max(r2, np.max(np.abs(rho2) * np.exp(comp2))
                                 * scale * (nu * t) ** ((k + 1) / 2))
                    assert sup["R1"] == pytest.approx(r1, rel=1e-12, abs=0)
                    assert sup["R2_quarter"] == pytest.approx(r2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("theta0", [-5.0, 0.0, 1.0, math.nan])
    def test_theta0_outside_unit_interval_raises(self, theta0):
        # theta0 <= 0 turns the R1 bound's decay factor into growth
        with pytest.raises(IncompatibleData):
            verify_kernel_bounds(nu_values=(1.0,), xi_values=(1,), t_values=(0.1,),
                                 k_values=(0,), s_values=np.linspace(0.0, 6.0, 7),
                                 theta0=theta0)

    @pytest.mark.parametrize("bad", [
        {"nu_values": ()}, {"xi_values": ()}, {"t_values": ()}, {"k_values": ()},
        {"s_values": []}, {"t_values": (0.0,)}, {"t_values": (math.nan,)},
        {"nu_values": (-1.0,)}, {"nu_values": (math.inf,)}, {"s_values": [0.0, -1.0]},
        {"s_values": [0.0, math.inf]}, {"k_values": (-1,)}, {"k_values": (0.5,)},
        {"xi_values": (1.5,)},
    ], ids=lambda bad: "-".join(f"{key}={val}" for key, val in bad.items()))
    def test_vacuous_or_invalid_sweep_raises(self, bad):
        # an empty axis would certify nothing; t = 0, nu < 0 or s < 0 lie
        # outside the bounds' domain, k counts derivatives and xi indexes a mode
        sweep = {"nu_values": (1.0,), "xi_values": (1,), "t_values": (0.1,),
                 "k_values": (0,), "s_values": np.linspace(0.0, 6.0, 7)}
        with pytest.raises(IncompatibleData):
            verify_kernel_bounds(**{**sweep, **bad})

    def test_r2_ratio_matches_40_digit_sum(self):
        # at the R2 argmax s^2/(4 nu t) = 62500: the parts leave the Gaussian
        # out, so the bound's weight e^{s^2/4 nu t} cancels exactly instead of
        # against terms of that size.  The parabola does not cross the pole
        # there, so R2 is the whole closed form, differentiated at 40 digits
        # in the plain exponent lambda* t - sigma s.
        mpmath = pytest.importorskip("mpmath")
        nu, n_xi, t, k, s = 0.04, 8, 0.01, 2, 10.0
        report = verify_kernel_bounds(nu_values=(nu,), xi_values=(n_xi,), t_values=(t,),
                                      k_values=(k,), s_values=[s])
        mode = FourierMode(n_xi, 0)
        D = BoundaryOperatorD.no_slip(mode)
        params = contours.highfreq_params(t, nu, mode.norm, np.array([s]), mode.norm)
        assert params["theta"][0] == 1.0 and not params["crosses_pole"][0]
        with mpmath.workdps(40):
            mp = mpmath.mpf
            nu_, t_, s_ = mp(nu), mp(t), mp(s)
            rho = _mp_parts(t, nu, mode.norm, D.sigma, False)[1]
            ref = abs(mpmath.diff(rho, s_, k)) * mpmath.exp(s_**2 / (4 * nu_ * t_)
                                                            + nu_ * mp(n_xi)**2 * t_ / 8) \
                * mp(np.abs(D.matrix).max()) * (nu_ * t_) ** (mp(k + 1) / 2)
            ratio = report["no_slip"]["sup"]["R2_quarter"]
            assert abs(ratio - ref) / ref < 1e-14

    def test_zero_mode_raises(self):
        # no_slip(xi = 0) is the zero operator, but the bounds are stated for |xi| > 0
        with pytest.raises(ZeroModeUnsupported):
            verify_kernel_bounds(nu_values=(1.0,), xi_values=(0, 1), t_values=(0.1,))

    def test_argmax_reports_s(self):
        # the no-slip R2 sup of this cell sits at the window edge s = s_max
        report = verify_kernel_bounds(nu_values=(0.04,), xi_values=(8,),
                                      t_values=(0.01,), k_values=(2,),
                                      s_values=np.linspace(0.0, 10.0, 21))
        where = report["no_slip"]["argmax(nu,xi,t,k,s)"]["R2_quarter"]
        assert where == (0.04, 8, 0.01, 2, 10.0)

    # (nu, xi, t, k, s) axes: `verify --full`, `verify`, and a mixed-regime
    # sweep with planted ties.  There every nu = 1 cell has a twin, identical
    # in value, later in sweep order (nu = np.float64(1.0), an arg that prints
    # differently), and s = 0 has one (s = -0.0).
    SWEEPS = {
        "full": ((1.0, 0.04), tuple(range(1, 9)), (0.01, 0.0316, 0.1, 0.316, 1.0), (0, 1, 2),
                 np.linspace(0.0, 10.0, 21)),
        "default": ((1.0,), (1, 4, 8), (0.01, 0.1, 1.0), (0, 1, 2), np.linspace(0.0, 10.0, 21)),
        "ties": ((1.0, 0.04, np.float64(1.0)), (1, 3), (0.1, 1.0), (2, 0, 1),
                 np.array([0.0, -0.0, 1.5, 3.0, 6.0])),
    }

    @pytest.mark.parametrize("operator", [BoundaryOperatorD.no_slip, _general_operator],
                             ids=["no_slip", "general"])
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_sweep_matches_reference_loop(self, sweep, operator):
        # sup, argmax and drift bit for bit (repr tells -0.0 from 0.0 and
        # np.float64(1.0) from 1.0), the first cell in sweep order winning a tie
        args = (*self.SWEEPS[sweep], 0.25, contours.N_ARM, contours.N_ARC, operator)
        got = kernels._bound_sweep(*args)
        assert repr(got) == repr(reference_bound_sweep(*args))
        if sweep == "ties":
            for where in got[1][0].values():
                assert type(where[0]) is float and math.copysign(1.0, where[4]) == 1.0

    def test_mu0_rate(self):
        assert mu0_rate(FourierMode(3, 4), 0.25) == pytest.approx(7.0)
