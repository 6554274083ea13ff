"""Unit tests for the oracles' deformed Bromwich contour, the parabola."""

import numpy as np
import pytest

import stokesgreen
from stokesgreen import FourierMode, IncompatibleData
from stokesgreen import contours, kernels
from stokesgreen.contours import BETA_MAX, integrate, parabola_params


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_pole_must_be_finite_and_positive(sigma):
    # sigma = 0 is D = 0, whose residual kernel needs no contour
    with pytest.raises(IncompatibleData, match="sigma"):
        parabola_params(0.3, 1.0, 2.0, np.array([0.0, 1.0]), sigma)


def test_one_contour_family():
    # one parabola at every frequency: no second family, no framework to hold
    # two and no error type for a radius override
    for name in ("Contour", "Segment", "build_contour_lowfreq", "build_contour_highfreq",
                 "lowfreq_params", "highfreq_params"):
        assert not hasattr(contours, name), name
        assert not hasattr(stokesgreen, name), name
    assert not hasattr(kernels, "_contour")
    assert not hasattr(stokesgreen, "PoleOnContour")
    assert not hasattr(stokesgreen.errors, "PoleOnContour")


class TestHighFreq:
    """The parabola at nu |xi|^2 > 1."""

    def test_mu_identity_on_contour(self):
        # principal sqrt of lambda/nu + |xi|^2 returns exactly a_eff + i b
        _assert_mu_identity(t=0.1, nu=1.0, xin=3.0)

    def test_theta_band(self):
        nu, t, xin = 1.0, 0.1, 3.0
        # a = s / (2 nu t); the pole sits at mu = 3
        s_mid = 2 * nu * t * 3.0          # a = 3, inside [1.5, 4.5]
        s_far = 2 * nu * t * 10.0         # a = 10, outside
        assert parabola_params(t, nu, xin, s_mid, xin)["theta"] == 0.5
        assert parabola_params(t, nu, xin, s_far, xin)["theta"] == 1.0

    def test_residue_bookkeeping(self):
        # vertical line Re mu = a_eff left of the pole <-> residue needed
        nu, t, xin = 1.0, 0.1, 3.0
        near = parabola_params(t, nu, xin, 0.0, xin)  # a = 0 -> floored vertex < 3
        far = parabola_params(t, nu, xin, 10.0, xin)  # a = 50 > 3
        assert bool(near["crosses_pole"])
        assert not bool(far["crosses_pole"])

    def test_vertex_off_cut_at_s_zero(self):
        p = parabola_params(t=0.5, nu=1.0, xi_norm=4.0, s=0.0, sigma=4.0)
        assert float(p["a_eff"]) > 0.0

    def test_general_pole_position(self):
        # the pole mu = sigma, i.e. lambda* = nu (sigma^2 - |xi|^2), is recorded
        # once and crossed at s = 0
        p = parabola_params(t=0.5, nu=1.0, xi_norm=4.0, s=0.0, sigma=2.0)
        assert p["sigma"] == 2.0
        assert bool(p["crosses_pole"])


class TestLowFreq:
    """The same parabola at nu |xi|^2 <= 1."""

    @pytest.mark.parametrize("nu", [1.0, 0.25, 0.04])
    def test_mu_identity_on_contour(self, nu):
        _assert_mu_identity(t=0.1, nu=nu, xin=1.0)

    @pytest.mark.parametrize("nu", [1.0, 0.04])
    def test_decay_at_truncation(self, nu):
        # the integrand weight exp(lambda t) at b_max is e^{-BETA_MAX^2} times
        # its value at the vertex
        t, xin = 0.2, 1.0
        p = parabola_params(t, nu, xin, 0.0, xin)
        a = float(p["a_eff"])
        lam = -nu * xin**2 + nu * (a + 1j * np.array([0.0, p["b_max"]])) ** 2
        assert abs(np.exp((lam[1] - lam[0]) * t)) < 1e-16
        assert BETA_MAX**2 > 34.0


def _assert_mu_identity(t, nu, xin):
    p = parabola_params(t=t, nu=nu, xi_norm=xin, s=2.0, sigma=xin)
    a_eff = float(p["a_eff"])
    b = np.linspace(0.0, p["b_max"], 64)
    mu = np.sqrt((-nu * xin**2 + nu * (a_eff + 1j * b) ** 2) / nu + xin**2)
    assert np.allclose(mu.real, a_eff, rtol=1e-12)
    assert np.allclose(mu.imag, b, rtol=1e-12)


class TestContourIntegrate:
    @pytest.mark.parametrize("z0,t", [(0.3, 0.5), (-1.5, 2.0), (2.0, 0.1)])
    def test_cauchy_pole(self, z0, t):
        # the Bromwich integral of e^{lambda t} / (lambda - z0) is e^{z0 t};
        # a parabola that passes left of the real pole z0 keeps it, one that
        # passes right of it misses it (Cauchy's theorem) and reads 0.  The
        # parabola's vertex is at -0.5 + 1 = 0.5
        p = {"nu": 1.0, "xi_norm": 0.5 ** 0.5, "a_eff": 1.0, "b_max": BETA_MAX / t ** 0.5}
        got = integrate(lambda lam: np.exp(lam * t) / (lam - z0), p)
        expect = np.exp(z0 * t) if z0 < 0.5 else 0.0
        assert abs(got - expect) < 1e-12

    @pytest.mark.parametrize("family", ["lowfreq", "highfreq"])
    def test_integral_matches_closed_form(self, family):
        # the parabola's adaptive integral plus the residue where it crossed
        # the pole is the closed-form Robin kernel rho = R1 + R2 of the
        # profiles, for every s of an array-s contour, at nu |xi|^2 below
        # and above 1
        if family == "lowfreq":
            t, nu, mode, s = 0.4, 0.8, FourierMode(1, 0), np.array([0.0, 1.3])
        else:
            t, nu, mode, s = 0.1, 1.0, FourierMode(3, 0), np.array([0.0, 10.0])
        xin = mode.norm
        p = parabola_params(t, nu, xin, s, xin)
        # s = 0 crosses the pole mu = |xi|, the larger s does not
        assert p["crosses_pole"].tolist() == [True, False]
        # no-slip: lambda* = 0
        residue = np.where(p["crosses_pole"], 2.0 * np.exp(-xin * s), 0.0)

        def f(lam):
            mu = np.sqrt(lam / nu + xin**2)
            return np.exp(lam * t - mu * s[:, None]) / (nu * mu * (mu - xin))

        rho = sum(kernels.residual_profiles_general(t, nu, mode, s, xin))
        assert np.max(np.abs(integrate(f, p) + residue - rho)) < 1e-12


class TestConjugateFold:
    """The parabola is the upper half of a conjugate-symmetric pair:
    ``integrate`` evaluates f only in Im lambda >= 0."""

    def test_segments_in_upper_half_plane(self):
        # at low and high frequency, for s on both sides of the pole
        s = np.linspace(0.0, 10.0, 41)
        for nu, xin, sigma in ((0.8, 1.0, 1.0), (0.8, 1.0, 0.5), (1.0, 3.0, 3.0),
                               (1.0, 3.0, 1.5)):
            p = parabola_params(0.1, nu, xin, s, sigma)
            assert p["crosses_pole"].any() and not p["crosses_pole"].all()
            seen = []

            def f(lam):
                seen.append(lam)
                return np.exp(lam * 0.1)

            integrate(f, p)
            lam = np.concatenate([np.ravel(x) for x in seen])
            assert lam.size > s.size and np.all(lam.imag >= 0.0)
