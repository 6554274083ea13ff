"""Unit tests for the deformed inverse-Laplace contours."""

import numpy as np
import pytest

from stokesgreen import FourierMode, PoleOnContour, build_contour_highfreq, build_contour_lowfreq
from stokesgreen.contours import BETA_MAX, highfreq_params, lowfreq_params


class TestLowFreq:
    def test_arms_meet_arc(self):
        c = build_contour_lowfreq(t=0.3, nu=1.0, xi_norm=1.0, s=1.5)
        arm_minus, arc, arm_plus = c.segments
        end_minus = arm_minus.gamma(np.array([arm_minus.p1]))[0]
        start_arc = arc.gamma(np.array([arc.p0]))[0]
        end_arc = arc.gamma(np.array([arc.p1]))[0]
        start_plus = arm_plus.gamma(np.array([arm_plus.p0]))[0]
        assert abs(end_minus - start_arc) < 1e-12
        assert abs(end_arc - start_plus) < 1e-12

    def test_pole_enclosed(self):
        p = lowfreq_params(t=0.5, nu=0.2, xi_norm=2.0, s=np.array([0.0, 3.0, 8.0]))
        assert np.all(np.abs(p["c0"]) < p["M"])  # lambda = 0 strictly inside

    def test_override_radius_guard(self):
        with pytest.raises(PoleOnContour):
            build_contour_lowfreq(t=0.3, nu=1.0, xi_norm=1.0, s=4.0, M=0.1)
        # array s: M = 1 encloses the pole for s = 0 (|c0| = 0.5), not for s = 4
        with pytest.raises(PoleOnContour):
            build_contour_lowfreq(t=0.3, nu=1.0, xi_norm=1.0, s=np.array([0.0, 4.0]), M=1.0)

    def test_arm_decay_at_truncation(self):
        # the integrand weight exp(lambda t) decays like exp(-beta^2) along the arms
        t, nu = 0.2, 1.0
        p = lowfreq_params(t, nu, 1.0, 0.0)
        lam_end = p["c_arm"] + nu * (p["a"] + 1j * p["b_max"]) ** 2 + 1j * p["M"]
        assert np.exp(lam_end.real * t) < 1e-15  # e^{-BETA_MAX^2} scale
        assert BETA_MAX**2 > 34.0


class TestHighFreq:
    def test_mu_identity_on_contour(self):
        # principal sqrt of lambda/nu + |xi|^2 returns exactly a_eff + i b
        c = build_contour_highfreq(t=0.1, nu=1.0, xi_norm=3.0, s=2.0)
        a_eff = float(c.params["a_eff"])
        for seg in c.segments:
            b = np.linspace(seg.p0, seg.p1, 64)
            mu = np.sqrt(seg.gamma(b) / 1.0 + 9.0)
            assert np.allclose(mu.real, a_eff, rtol=1e-12)
            assert np.allclose(mu.imag, b, rtol=1e-12)

    def test_theta_band(self):
        nu, t, xin = 1.0, 0.1, 3.0
        # a = s / (2 nu t); the pole sits at mu = 3
        s_mid = 2 * nu * t * 3.0          # a = 3, inside [1.5, 4.5]
        s_far = 2 * nu * t * 10.0         # a = 10, outside
        assert highfreq_params(t, nu, xin, s_mid)["theta"] == 0.5
        assert highfreq_params(t, nu, xin, s_far)["theta"] == 1.0

    def test_residue_bookkeeping(self):
        # vertical line Re mu = a_eff left of the pole <-> residue needed
        nu, t, xin = 1.0, 0.1, 3.0
        near = highfreq_params(t, nu, xin, 0.0)       # a = 0 -> floored vertex < 3
        far = highfreq_params(t, nu, xin, 10.0)       # a = 50/3... > 3
        assert bool(near["crosses_pole"])
        assert not bool(far["crosses_pole"])
        c_near = build_contour_highfreq(t, nu, xin, 0.0)
        c_far = build_contour_highfreq(t, nu, xin, 10.0)
        assert c_near.encloses_pole_at == pytest.approx(0.0)  # lambda = 0 pole
        assert c_far.encloses_pole_at is None

    def test_vertex_off_cut_at_s_zero(self):
        p = highfreq_params(t=0.5, nu=1.0, xi_norm=4.0, s=0.0)
        assert float(p["a_eff"]) > 0.0

    def test_general_pole_position(self):
        # pole_mu = sigma: the enclosed lambda must be nu (sigma^2 - |xi|^2)
        c = build_contour_highfreq(t=0.5, nu=1.0, xi_norm=4.0, s=0.0, pole_mu=2.0)
        assert c.encloses_pole_at == pytest.approx(1.0 * (4.0 - 16.0))


class TestContourIntegrate:
    def test_cauchy_circle(self):
        # closed-path check via two half circles: integral of 1/(lambda - z0)
        import dataclasses

        from stokesgreen.contours import Contour, Segment

        z0 = 0.3 + 0.1j
        right = Segment("right", -0.5 * np.pi, 0.5 * np.pi,
                        lambda th: np.exp(1j * th), lambda th: 1j * np.exp(1j * th))
        left = Segment("left", 0.5 * np.pi, 1.5 * np.pi,
                       lambda th: np.exp(1j * th), lambda th: 1j * np.exp(1j * th))
        c = Contour(segments=(right, left), encloses_pole_at=None,
                    regime="test", params={})
        val = c.integrate(lambda lam: 1.0 / (lam - z0))
        assert abs(val - 1.0) < 1e-12
        assert dataclasses.is_dataclass(c)

    @pytest.mark.parametrize("family", ["lowfreq", "highfreq"])
    def test_nodes_match_segments(self, family):
        # fixed Gauss-Legendre nodes must reproduce the adaptive integral over
        # the same segments, for every s of an array-s contour
        if family == "lowfreq":
            t, nu, xin, s = 0.4, 0.8, 1.0, np.array([0.0, 1.3])
            c = build_contour_lowfreq(t, nu, xin, s)
        else:
            # s = 0 crosses the pole mu = |xi|, s = 10 (a = 50) does not
            t, nu, xin, s = 0.1, 1.0, 3.0, np.array([0.0, 10.0])
            c = build_contour_highfreq(t, nu, xin, s)
            assert c.params["crosses_pole"].tolist() == [True, False]

        def f(lam):
            mu = np.sqrt(lam / nu + xin**2)
            return np.exp(lam * t - mu * s[:, None]) / (lam - 5.0)

        adaptive = c.integrate(f)
        fixed = c.gauss_legendre(f, n_arm=256, n_arc=128)
        assert fixed.shape == s.shape
        assert np.max(np.abs(adaptive - fixed)) < 1e-12
