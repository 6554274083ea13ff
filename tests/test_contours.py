"""Unit tests for the deformed inverse-Laplace contours."""

import dataclasses

import numpy as np
import pytest

from stokesgreen import (
    FourierMode,
    IncompatibleData,
    PoleOnContour,
    build_contour_highfreq,
    build_contour_lowfreq,
)
from stokesgreen import kernels
from stokesgreen.contours import BETA_MAX, Contour, Segment, highfreq_params, lowfreq_params


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("build", [build_contour_lowfreq, build_contour_highfreq,
                                   lowfreq_params, highfreq_params],
                         ids=lambda f: f.__name__)
def test_pole_must_be_finite_and_positive(build, sigma):
    # sigma = 0 is D = 0, whose residual kernel needs no contour
    with pytest.raises(IncompatibleData, match="sigma"):
        build(0.3, 1.0, 2.0, np.array([0.0, 1.0]), sigma)


class TestLowFreq:
    def test_arms_meet_arc(self):
        c = build_contour_lowfreq(t=0.3, nu=1.0, xi_norm=1.0, s=1.5, sigma=1.0)
        arc, arm = c.segments
        start_arc = arc.gamma(np.array([0.0]))[0]
        end_arc = arc.gamma(np.array([arc.p1]))[0]
        start_arm = arm.gamma(np.array([0.0]))[0]
        assert start_arc.imag == 0.0  # the upper half starts on the real axis
        assert abs(end_arc - start_arm) < 1e-12

    def test_pole_enclosed(self):
        p = lowfreq_params(t=0.5, nu=0.2, xi_norm=2.0, s=np.array([0.0, 3.0, 8.0]),
                           sigma=2.0)
        assert np.all(np.abs(p["c0"]) < p["M"])  # lambda = 0 strictly inside

    def test_override_radius_guard(self):
        with pytest.raises(PoleOnContour):
            build_contour_lowfreq(t=0.3, nu=1.0, xi_norm=1.0, s=4.0, sigma=1.0, M=0.1)
        # array s: M = 1 encloses the pole for s = 0 (|c0| = 0.5), not for s = 4
        with pytest.raises(PoleOnContour):
            build_contour_lowfreq(t=0.3, nu=1.0, xi_norm=1.0, s=np.array([0.0, 4.0]),
                                  sigma=1.0, M=1.0)

    def test_arm_decay_at_truncation(self):
        # the integrand weight exp(lambda t) decays like exp(-beta^2) along the arms
        t, nu = 0.2, 1.0
        p = lowfreq_params(t, nu, 1.0, 0.0, 1.0)
        lam_end = p["c_arm"] + nu * (p["a"] + 1j * p["b_max"]) ** 2 + 1j * p["M"]
        assert np.exp(lam_end.real * t) < 1e-15  # e^{-BETA_MAX^2} scale
        assert BETA_MAX**2 > 34.0


class TestHighFreq:
    def test_mu_identity_on_contour(self):
        # principal sqrt of lambda/nu + |xi|^2 returns exactly a_eff + i b
        c = build_contour_highfreq(t=0.1, nu=1.0, xi_norm=3.0, s=2.0, sigma=3.0)
        a_eff = float(c.params["a_eff"])
        for seg in c.segments:
            b = np.linspace(0.0, seg.p1, 64)
            mu = np.sqrt(seg.gamma(b) / 1.0 + 9.0)
            assert np.allclose(mu.real, a_eff, rtol=1e-12)
            assert np.allclose(mu.imag, b, rtol=1e-12)

    def test_theta_band(self):
        nu, t, xin = 1.0, 0.1, 3.0
        # a = s / (2 nu t); the pole sits at mu = 3
        s_mid = 2 * nu * t * 3.0          # a = 3, inside [1.5, 4.5]
        s_far = 2 * nu * t * 10.0         # a = 10, outside
        assert highfreq_params(t, nu, xin, s_mid, xin)["theta"] == 0.5
        assert highfreq_params(t, nu, xin, s_far, xin)["theta"] == 1.0

    def test_residue_bookkeeping(self):
        # vertical line Re mu = a_eff left of the pole <-> residue needed
        nu, t, xin = 1.0, 0.1, 3.0
        near = highfreq_params(t, nu, xin, 0.0, xin)  # a = 0 -> floored vertex < 3
        far = highfreq_params(t, nu, xin, 10.0, xin)  # a = 50/3... > 3
        assert bool(near["crosses_pole"])
        assert not bool(far["crosses_pole"])
        c_near = build_contour_highfreq(t, nu, xin, 0.0, xin)
        c_far = build_contour_highfreq(t, nu, xin, 10.0, xin)
        assert bool(c_near.params["crosses_pole"])  # the lambda = 0 pole
        assert not bool(c_far.params["crosses_pole"])

    def test_vertex_off_cut_at_s_zero(self):
        p = highfreq_params(t=0.5, nu=1.0, xi_norm=4.0, s=0.0, sigma=4.0)
        assert float(p["a_eff"]) > 0.0

    def test_general_pole_position(self):
        # the pole mu = sigma, i.e. lambda* = nu (sigma^2 - |xi|^2), is recorded
        # once and enclosed at s = 0
        c = build_contour_highfreq(t=0.5, nu=1.0, xi_norm=4.0, s=0.0, sigma=2.0)
        assert c.params["sigma"] == 2.0
        assert bool(c.params["crosses_pole"])


class TestContourIntegrate:
    def test_cauchy_circle(self):
        # closed-path check via the upper unit half circle and its mirror:
        # integral of 1/(lambda - z0) with a real pole z0 inside
        z0 = 0.3
        upper = Segment("upper", np.pi,
                        lambda th: np.exp(1j * th), lambda th: 1j * np.exp(1j * th))
        c = Contour(segments=(upper,), regime="test", params={"nu": 1.0, "xi_norm": 0.0})
        assert abs(c.integrate(lambda lam: 1.0 / (lam - z0)) - 1.0) < 1e-12
        assert dataclasses.is_dataclass(c)

    @pytest.mark.parametrize("family", ["lowfreq", "highfreq"])
    def test_integral_matches_closed_form(self, family):
        # the whole contour's adaptive integral, plus the residue where the
        # high-frequency parabola crossed the pole, is the closed-form Robin
        # kernel rho = R1 + R2 of the profiles, for every s of an array-s
        # contour
        if family == "lowfreq":
            t, nu, mode, s = 0.4, 0.8, FourierMode(1, 0), np.array([0.0, 1.3])
            c = build_contour_lowfreq(t, nu, mode.norm, s, mode.norm)
            residue = 0.0
        else:
            # s = 0 crosses the pole mu = |xi|, s = 10 (a = 50) does not
            t, nu, mode, s = 0.1, 1.0, FourierMode(3, 0), np.array([0.0, 10.0])
            c = build_contour_highfreq(t, nu, mode.norm, s, mode.norm)
            assert c.params["crosses_pole"].tolist() == [True, False]
            # no-slip: lambda* = 0
            residue = np.where(c.params["crosses_pole"], 2.0 * np.exp(-mode.norm * s), 0.0)
        xin = mode.norm

        def f(lam):
            mu = np.sqrt(lam / nu + xin**2)
            return np.exp(lam * t - mu * s[:, None]) / (nu * mu * (mu - xin))

        rho = sum(kernels.residual_profiles_general(t, nu, mode, s, xin))
        assert np.max(np.abs(c.integrate(f) + residue - rho)) < 1e-12


class TestConjugateFold:
    """A contour is the upper half of a conjugate-symmetric pair: the
    builders build only segments in Im lambda >= 0."""

    def test_segments_in_upper_half_plane(self):
        # every built segment has Im lambda >= 0, also for s where the
        # high-frequency parabola crosses the pole
        s = np.linspace(0.0, 10.0, 41)
        contours = [build_contour_lowfreq(0.4, 0.8, 1.0, s, 1.0),
                    build_contour_lowfreq(0.4, 0.8, 1.0, s, 0.5),
                    build_contour_highfreq(0.1, 1.0, 3.0, s, 3.0),
                    build_contour_highfreq(0.1, 1.0, 3.0, s, 1.5)]
        crosses = contours[2].params["crosses_pole"]
        assert crosses.any() and not crosses.all()
        for c in contours:
            for seg in c.segments:
                lam = seg.gamma(np.linspace(0.0, seg.p1, 257))
                assert np.all(lam.imag >= 0.0), (c.regime, seg.name)
